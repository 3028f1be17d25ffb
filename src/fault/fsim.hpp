// Parallel-pattern single-fault-propagation (PPSFP) fault simulator.
//
// One call simulates a block of up to 64 * lane_words patterns (the lane
// fabric of sim/lane.hpp: every bit lane of a LaneWord<W> block is an
// independent pattern, W in {1, 4, 8}): a good-machine pass, then for
// every live fault an injection plus level-ordered event-driven
// propagation of the faulty/good difference block through the fault's
// output cone, accumulating detection masks at the observation set
// (primary outputs, scan-cell capture pins, DFT observation points).
//
// The same engine serves both fault families:
//  * stuck-at:   site forced to a constant,
//  * transition: launch-on-capture double capture (paper section 2.2) —
//    the launch cycle is the first capture pulse; a site that transitions
//    between the two captures is forced to hold its launch value in the
//    second capture, modelling a gross delay defect at functional speed.
//
// Dispatch: every entry point runs one pipeline.
//  1. Frames: the good machine is evaluated on the loaded sources. A
//     single block is read in place; a batch snapshots one frame per
//     block; staged capture snapshots one frame per capture pulse.
//  2. Compute: the live compute set is cut into fixed contiguous chunks
//     that the pool's workers claim one at a time. A per-fault kernel
//     walks each fault over every frame and appends (slot, mask-row)
//     hits to its chunk's per-block queues.
//  3. Reduce: one serial pass drains the queues in block order and
//     fault-list order. It alone records detections, fires the detection
//     observer, and drops faults, so results are bit-identical to the
//     sequential per-block loop for every thread count and batch size.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/thread_pool.hpp"
#include "fault/collapse.hpp"
#include "fault/fault.hpp"
#include "sim/lane.hpp"
#include "sim/sim2v.hpp"

namespace lbist::fault {

/// Callback receiving, per fault and per block, every gate whose value
/// the fault corrupted in at least one pattern lane. Drives the
/// fault-simulation-guided test-point insertion (paper section 2.1).
class ReachObserver {
 public:
  virtual ~ReachObserver() = default;
  /// `fault_index` is the index into the FaultList; `touched` lists
  /// corrupted gates including the fault site itself.
  virtual void onFaultEffects(size_t fault_index,
                              std::span<const GateId> touched) = 0;
};

/// Callback receiving, per simulated block and in fault-list order, the
/// per-pattern-lane detection mask of every fault that produced one.
/// Fired from the serial reduction, so the stream is bit-identical for
/// every worker-thread count. Drives the diagnosis response dictionaries
/// (src/diag/dictionary); record with dropping disabled to get complete
/// per-pattern rows.
class DetectionObserver {
 public:
  virtual ~DetectionObserver() = default;
  /// Lane l of `detect_mask` set means fault `fault_index` is detected by
  /// pattern `pattern_base + l` at the observation set. The mask view is
  /// laneWords() words wide and borrows the engine's buffer — valid only
  /// for the duration of the call.
  virtual void onDetectionMask(size_t fault_index, int64_t pattern_base,
                               sim::LaneMask detect_mask) = 0;
};

/// Per-block detection engine. Both produce bit-identical masks; they
/// differ only in how the work scales.
///  * kPerFault event-propagates every live fault class through its
///    output cone — cost scales with the live count, best once dropping
///    has thinned the list.
///  * kStemCpt propagates one full-lane diff per fanout-free-region stem
///    (lane independence makes the resulting per-stem observability word
///    exact), then assembles every fault's mask as
///    inject_diff & obs_of_out[site] — cost scales with circuit size,
///    best while the live list is dense.
/// kAuto switches per block on live-class vs stem count.
enum class BlockEngine : uint8_t {
  kAuto,
  kPerFault,
  kStemCpt,
};

/// Engine configuration. Every field carries an explicit default below,
/// so aggregate initialization (e.g. the seed-era `FsimOptions{1, false}`
/// spelling) leaves the unnamed tail at those defaults — such callers get
/// collapse = on, the auto block engine, and 64-lane blocks. All of those
/// are exact — results are bit-identical either way — but profiles
/// change; spell out `.collapse` / `.engine` / `.lane_words` to pin the
/// work distribution. Field validity (supported lane width, non-zero
/// n-detect) is checked centrally by validateFsimOptions, which the
/// simulator constructor calls.
struct FsimOptions {
  /// Drop a fault after this many detections. Must be >= 1.
  uint32_t n_detect = 1;
  /// When false, detected faults stay in the simulated set (response
  /// dictionaries and compaction analyses need complete masks).
  bool drop_detected = true;
  /// Worker threads for the per-fault propagation loop. 0 means hardware
  /// concurrency. Results are bit-identical for every thread count: the
  /// workers only compute per-fault detection masks, and a serial
  /// reduction in fault-list order applies detections, observer
  /// callbacks, and n-detect dropping. A reach observer runs on one
  /// worker whatever this says.
  uint32_t threads = 1;
  /// Below this many live faults per worker the engine uses fewer
  /// workers — thread dispatch overhead beats the propagation work.
  /// Results are unaffected; tests lower it to force the parallel path on
  /// tiny nets.
  uint32_t min_faults_per_thread = 256;
  /// Structural equivalence folding (fault/collapse.hpp): per block the
  /// engine propagates one member of each equivalence class among the
  /// live faults and every live member shares the computed detection
  /// mask. Folding is exact — class members corrupt every observable
  /// net identically — so per-fault masks, n-detect drop order, and
  /// observer streams are bit-identical with this on or off; only the
  /// work shrinks. Ignored while a reach observer is attached (a folded
  /// fault would be credited its representative's reach cone).
  bool collapse = true;
  /// See BlockEngine. Reach observers force kPerFault (they need real
  /// per-fault cones). Tests pin kPerFault / kStemCpt to differential-
  /// check the two engines against each other.
  BlockEngine engine = BlockEngine::kAuto;
  /// Lane-block width in 64-bit words: each simulated block carries
  /// 64 * lane_words patterns (sim/lane.hpp; one of 1, 4, 8). Fixed for
  /// the simulator's lifetime. At a given width, results are invariant
  /// across threads/engines/batching; across widths, no-drop mask rows,
  /// coverage, and first-detect patterns are invariant, but detect
  /// counts at drop time may differ (a wider block merges more patterns
  /// at once before the drop decision).
  uint32_t lane_words = 1;
};

/// Lane blocks a batched caller (core::CoverageFlow, bench_fsim) hands
/// one simulateBatch* call. Results are bit-identical for every batch
/// size; only the pool-dispatch granularity changes.
inline constexpr size_t kBatchBlocks = 8;

/// Chunks a parallel dispatch cuts its work into per worker thread. Per-
/// fault cost is very uneven, so workers claim small chunks until none is
/// left instead of each taking one fixed slice. Results do not depend on
/// it: each chunk owns its hit queues and the reduction is keyed by slot.
inline constexpr size_t kChunksPerWorker = 8;

/// Central FsimOptions validity check: throws std::invalid_argument on
/// an unsupported lane width or n_detect == 0. The engine/collapse/
/// observer interplay needs no rejection — every combination is
/// mask-exact — but the resolution rules live in one place each:
/// prepareComputeSet (folding) and the engine selection in the
/// dispatch pipeline.
void validateFsimOptions(const FsimOptions& opts);

/// The PPSFP fault simulator over one netlist, fault list, and
/// observation set (see the file comment for the dispatch pipeline).
/// Decides the fault list in place: detections, n-detect counts, and
/// drops land in the FaultList it was built on.
class FaultSimulator {
 public:
  /// `observed` is the set of gates whose output values the tester can
  /// see (PO drivers, scan-capture D drivers, observation-point taps).
  FaultSimulator(const Netlist& nl, FaultList& faults,
                 std::vector<GateId> observed, FsimOptions opts = {});

  // Not movable: compiled_ points into good_, and observers/netlist/
  // fault-list pointers make relocation semantics a trap.
  FaultSimulator(const FaultSimulator&) = delete;
  FaultSimulator& operator=(const FaultSimulator&) = delete;
  FaultSimulator(FaultSimulator&&) = delete;
  FaultSimulator& operator=(FaultSimulator&&) = delete;

  ~FaultSimulator();

  /// Lane-block width in 64-bit words (FsimOptions::lane_words).
  [[nodiscard]] size_t laneWords() const { return lane_words_; }
  /// Patterns per simulated block (64 * laneWords()).
  [[nodiscard]] size_t lanes() const { return lane_words_ * 64; }

  /// Broadcast source setting for the current block (PIs and DFF
  /// outputs): one 64-bit word replicated across the block — the right
  /// semantic for pins constant across lanes. Per-pattern stimulus
  /// beyond 64 lanes goes through setSourceRow/setSourceWord.
  void setSource(GateId id, uint64_t w) { good_.setSource(id, w); }
  /// Sets word `wi` of a source gate's lane block.
  void setSourceWord(GateId id, size_t wi, uint64_t w) {
    good_.setSourceWord(id, wi, w);
  }
  /// Copies a full laneWords()-wide row into a source gate's block.
  void setSourceRow(GateId id, const uint64_t* row) {
    good_.setSourceRow(id, row);
  }

  /// Stuck-at block: patterns are lanes [0, n_patterns) of the current
  /// sources (negative = lanes()). Returns the number of newly detected
  /// faults. Pattern indices recorded into the fault list are
  /// pattern_base + lane. Throws std::invalid_argument when n_patterns
  /// exceeds lanes(), which this and every simulateBlock* entry reject
  /// rather than silently clamp.
  size_t simulateBlockStuckAt(int64_t pattern_base, int n_patterns = -1);

  /// Ordered-capture stuck-at block, modeling the session's staggered
  /// capture window: stages[j] lists every DFF clocked by capture pulse
  /// j (one stage per clock domain, in capture order). Stage 0 captures
  /// from the loaded sources; later stages see earlier stages' freshly
  /// captured state, and fault effects hop stages through corrupted
  /// captured values — the cross-domain mechanism a simultaneous-capture
  /// model misses. Detection is recorded at the D drivers of observed
  /// stage DFFs at their own capture pulse; observed gates not driving
  /// any stage DFF (e.g. raw primary outputs) are ignored. The reach
  /// observer is not supported in this mode: calling this with one
  /// attached throws std::logic_error. With a single stage this is
  /// equivalent to simulateBlockStuckAt over a scan observation set.
  size_t simulateBlockStuckAtStaged(
      int64_t pattern_base, int n_patterns,
      std::span<const std::vector<GateId>> stages);

  /// Transition block (LOC broadside): sources currently loaded are the
  /// *launch* state; the engine computes the follow-on capture cycle
  /// itself (PIs held). Returns newly detected faults.
  size_t simulateBlockTransition(int64_t pattern_base, int n_patterns = -1);

  /// Fills block `block`'s sources into `sim` and returns the number of
  /// pattern lanes it loaded (1..lanes(); the final block of a run may
  /// be partial; <= 0 ends the batch early). Batch entry points call it
  /// once per block up front and throw std::invalid_argument when it
  /// returns more than lanes().
  using BlockLoader = std::function<int(size_t block, sim::Simulator2v& sim)>;

  /// Batched stuck-at simulation: snapshots `n_blocks` good-machine
  /// frames via `load`, then computes every live fault against every
  /// block in one pool dispatch and one ordered reduction, so
  /// shard/merge overhead is paid once per batch instead of once per
  /// block. Pattern indices are pattern_base + block * lanes() + lane.
  /// Bit-identical to calling simulateBlockStuckAt per block (a fault
  /// dropped by an earlier block is skipped in later blocks, exactly as
  /// it would have left the active set). Batches run the per-fault
  /// engine; with a reach observer attached, BlockEngine::kStemCpt
  /// pinned, a kAuto live set dense enough for stem-CPT, or one
  /// requested thread, this falls back to the sequential per-block loop
  /// (masks are engine-exact, so results are unchanged either way).
  /// Returns total newly detected faults.
  size_t simulateBatchStuckAt(int64_t pattern_base, size_t n_blocks,
                              const BlockLoader& load);

  /// Batched transition (LOC broadside) simulation; see
  /// simulateBatchStuckAt. `load` fills each block's *launch* sources;
  /// the engine computes each block's capture cycle itself.
  size_t simulateBatchTransition(int64_t pattern_base, size_t n_blocks,
                                 const BlockLoader& load);

  /// Marks every live fault with no structural path to the observation
  /// set as untestable. Returns how many were marked.
  size_t markUnobservable();

  /// Number of faults still live (undetected and undropped).
  [[nodiscard]] size_t liveFaultCount() const { return active_.size(); }

  /// Live fault indices in simulation order (stable across blocks:
  /// dropping compacts without reordering survivors).
  [[nodiscard]] std::span<const size_t> activeFaults() const {
    return active_;
  }

  /// Re-collects live faults from the fault list (after external status
  /// changes, e.g. ATPG detections or TPI re-targeting).
  void refreshActiveSet();

  /// Restricts simulation to an explicit fault subset (TPI guidance
  /// samples the undetected residue at large scale).
  void restrictActiveSet(std::span<const size_t> fault_indices);

  /// Attaches the per-fault reach callback (nullptr detaches). Forces
  /// the per-fault engine on one worker and disables class folding while
  /// attached.
  void setReachObserver(ReachObserver* obs) { reach_observer_ = obs; }
  /// Attaches the per-fault detection-mask callback (nullptr detaches);
  /// fired from the serial reduction, so streams are
  /// thread-count-invariant.
  void setDetectionObserver(DetectionObserver* obs) {
    detection_observer_ = obs;
  }

  /// Changes the worker-thread count between blocks (0 = hardware
  /// concurrency). Detection results are unaffected by this setting.
  void setThreads(uint32_t threads);

  /// Effective engine options (n-detect target, threading, folding) —
  /// consumers like top-up reverse compaction read the n-detect target
  /// here to preserve detection multiplicity.
  [[nodiscard]] const FsimOptions& options() const { return opts_; }

  /// Equivalence/dominance analysis (empty when FsimOptions::collapse is
  /// off). Statistics feed core::renderCollapseStats; dominancePrunable
  /// drives top-up ATPG target deferral.
  [[nodiscard]] const CollapseMap& collapseMap() const {
    return collapse_map_;
  }
  /// Summary counts of collapseMap() (empty when collapse is off).
  [[nodiscard]] const CollapseStats& collapseStats() const {
    return collapse_map_.stats();
  }

  /// The good-machine simulator (current block's fault-free values).
  [[nodiscard]] const sim::Simulator2v& good() const { return good_; }
  /// The fault list this simulator decides (uncollapsed universe).
  [[nodiscard]] const FaultList& faults() const { return *faults_; }
  /// The observation set detection masks accumulate over.
  [[nodiscard]] std::span<const GateId> observed() const { return observed_; }

  /// Good-machine next-state of a DFF in the *last* simulated cycle,
  /// lanes 0..63 (for harvesting captured responses in BIST emulation).
  [[nodiscard]] uint64_t goodNextState(GateId dff) const {
    return good_.dffNextState(dff);
  }
  /// Word `wi` of the good-machine next-state of a DFF.
  [[nodiscard]] uint64_t goodNextStateWord(GateId dff, size_t wi) const {
    return good_.dffNextStateWord(dff, wi);
  }

 private:
  /// What a dispatch's frames are: one lane block (read in place from
  /// good_), a batch of snapshotted lane blocks, or one block's staged
  /// capture pulses in order.
  enum class Pass : uint8_t { kBlock, kBatch, kStaged };

  /// One good-machine frame of a dispatch (gate-major, laneWords()
  /// words per gate). `launch` is the launch cycle of a transition
  /// frame (nullptr for stuck-at); `lanes` counts the pattern lanes.
  struct Frame {
    const uint64_t* good = nullptr;
    const uint64_t* launch = nullptr;
    int lanes = 0;
  };

  /// Injection outcome for one fault against one good frame: the
  /// faulty-XOR-good block at the site output plus the direct capture
  /// term of DFF-pin faults.
  template <size_t W>
  struct InjectResultW {
    sim::LaneWord<W> diff;
    bool direct_detect = false;  // site itself observed (e.g. DFF D pin)
    sim::LaneWord<W> direct_mask;
  };

  /// A fault-effect source for one propagation frame: `gate`'s value
  /// differs from the frame's good machine in the `diff` lanes.
  template <size_t W>
  struct SeedW {
    GateId gate;
    sim::LaneWord<W> diff;
  };

  /// Width-independent per-worker propagation state: the level-bucketed
  /// event queue plus the touched-gate log. Cones are usually tiny but
  /// can span hundreds of levels (carry chains), so a bitmap of
  /// non-empty levels lets the wheel skip empty buckets 64 at a time
  /// instead of walking them. The width-specific fault-effect overlay
  /// lives in the ScratchW<W> subclass (fsim.cpp).
  struct ScratchBase {
    virtual ~ScratchBase() = default;
    uint32_t serial = 0;
    std::vector<std::vector<uint32_t>> level_queue;
    std::vector<uint64_t> level_bits;  // bit l: level_queue[l] non-empty
    std::vector<GateId> touched;
  };
  template <size_t W>
  struct ScratchW;

  /// One chunk's pending detections for one block: parallel arrays of
  /// compute slots and their W-word mask rows, drained by reduceHits.
  struct HitQueue {
    std::vector<uint32_t> slots;
    std::vector<uint64_t> rows;  // lane_words_ words per slot entry

    template <size_t W>
    void push(uint32_t slot, const sim::LaneWord<W>& mask) {
      slots.push_back(slot);
      rows.resize(rows.size() + W);
      mask.store(rows.data() + rows.size() - W);
    }
  };

  template <size_t W>
  InjectResultW<W> injectStuckAtW(const Fault& f,
                                  const sim::LaneWord<W>& lane_mask,
                                  const uint64_t* good_vals) const;
  template <size_t W>
  InjectResultW<W> injectTransitionW(const Fault& f,
                                     const sim::LaneWord<W>& lane_mask,
                                     const uint64_t* good_vals,
                                     const uint64_t* launch_vals) const;
  template <size_t W>
  sim::LaneWord<W> evalPinForcedW(GateId id, uint8_t pin,
                                  const sim::LaneWord<W>& forced,
                                  const uint64_t* good_vals) const;
  template <size_t W>
  sim::LaneWord<W> evalPinForcedOverlayW(const ScratchW<W>& sc, GateId id,
                                         uint8_t pin,
                                         const sim::LaneWord<W>& forced,
                                         const uint64_t* good_vals) const;

  /// Propagates the seeds' diffs through their cones against the
  /// `good_vals` frame (gate-major, stride W); returns the detection
  /// block accumulated over gates flagged in `observed`. A non-null
  /// `live` (one flag per gate, fanin-closed) keeps the wheel inside the
  /// flagged gates: fanouts outside it are never scheduled. Fills
  /// sc.touched only when `record_touched` (reach observers) — the plain
  /// detection path skips the log. When `forced` names a stuck-at fault,
  /// re-evaluations of its gate keep the fault applied (needed when
  /// another seed's cone feeds the fault site). A non-zero
  /// `early_exit_mask` lets the wheel stop once every lane of it has
  /// detected — the return value cannot change further; callers that
  /// read the overlay afterwards (staged capture collection) or want the
  /// full reach cone must pass zero.
  template <size_t W>
  sim::LaneWord<W> propagateSeedsW(ScratchW<W>& sc,
                                   std::span<const SeedW<W>> seeds,
                                   const uint64_t* good_vals,
                                   const std::vector<uint8_t>& observed,
                                   const uint8_t* live, const Fault* forced,
                                   bool record_touched,
                                   const sim::LaneWord<W>& early_exit_mask)
      const;

  /// Rejects a block of more than lanes() patterns (std::invalid_argument).
  void checkBlockLanes(int n_patterns) const;

  /// The frame builder: evaluates the good machine on the loaded sources
  /// — for a transition frame, snapshots that launch cycle into
  /// launch_frames_[slot] and steps the broadside capture (every DFF
  /// loads its D value, PIs held) — and returns the resulting frame,
  /// snapshotted into good_frames_[slot] or, without `snapshot`, read
  /// in place from good_.
  Frame loadFrame(bool transition, size_t slot, int lanes, bool snapshot);

  /// Single-block entry: builds the in-place frame, then simulateFrames.
  size_t simulateBlock(int64_t pattern_base, int n_patterns,
                       bool transition);
  /// Batch entry: routes to the per-block loop where batching cannot
  /// pay (see the .cpp), otherwise snapshots every block's frame and
  /// runs them as one simulateFrames dispatch.
  size_t simulateBatch(int64_t pattern_base, size_t n_blocks,
                       const BlockLoader& load, bool transition);

  /// The pipeline every entry point feeds, over the frames in frames_
  /// (active_ non-empty): compute set, engine choice, the injection
  /// site, one width dispatch into the engine, and reduceHits. Returns
  /// newly detected faults.
  size_t simulateFrames(int64_t pattern_base, Pass pass,
                        std::span<const std::vector<GateId>> stages);

  /// How many chunks [0, n) is cut into on `n_threads` workers: at most
  /// one inline, min(n, kChunksPerWorker * n_threads) in parallel.
  /// Chunk c covers [n * c / chunks, n * (c + 1) / chunks).
  [[nodiscard]] static size_t chunkCount(unsigned n_threads, size_t n);

  /// The one work loop: runs fn(chunk, scratch, lo, hi) for every chunk
  /// of [0, n) (see chunkCount). On one thread the single chunk runs
  /// inline; otherwise `n_threads` workers claim chunks through one
  /// atomic cursor, each with its own scratch.
  template <size_t W, typename Fn>
  void forShards(unsigned n_threads, size_t n, Fn&& fn);

  /// The per-fault kernel: walks every compute slot over every frame,
  /// propagating its diff (per-fault engine) or masking it with obs_out_
  /// (stem-CPT, single block), and queues each non-empty mask. With
  /// dropping on, a slot stops walking frames once it has gathered the
  /// detections that retire its class, exactly where the sequential
  /// per-block loop would have dropped it.
  template <size_t W>
  void simulateFaultsW(unsigned n_threads, bool use_cpt, bool batch);

  /// The staged-capture engine: frames_ are one block's capture pulses;
  /// fault effects hop pulses through corrupted captured state.
  template <size_t W>
  void simulateStagedW(unsigned n_threads,
                       std::span<const std::vector<GateId>> stages);

  /// Builds the per-dispatch compute set: with folding, the unique class
  /// representatives of the live faults (merge_slot_ maps each live
  /// fault to its class's compute slot); without, the live faults
  /// themselves (identity mapping). Representatives are canonical per
  /// class (liveness-independent), which is what lets a batch reuse one
  /// compute set across all its blocks.
  void prepareComputeSet();

  /// Stem-CPT phases A+B: full-lane stem propagation (sharded) and the
  /// serial reverse sensitization pass over frame `fr`, filling obs_out_
  /// (stride W).
  template <size_t W>
  void computeObservabilityW(const Frame& fr,
                             const sim::LaneWord<W>& lane_mask,
                             unsigned n_threads);

  /// The one ordered reduction: drains the per-chunk hit queues block
  /// by block, in fault-list order within a block — detection
  /// bookkeeping, observer callbacks, n-detect dropping. A fault dropped
  /// by an earlier block is skipped in later blocks. Compacts active_
  /// once at the end. Width-agnostic: rows are lane_words_ words wide.
  size_t reduceHits(int64_t pattern_base, size_t n_blocks, size_t n_chunks);

  [[nodiscard]] unsigned resolveThreads(size_t n_work_units) const;
  template <size_t W>
  void ensureWorkersW(unsigned threads);

  const Netlist* nl_;
  FaultList* faults_;
  FsimOptions opts_;
  size_t lane_words_;
  sim::Simulator2v good_;
  // Compiled tables (owned by good_): opcode stream, fanin CSR, and the
  // comb-fanout CSR with levels that the event wheel walks.
  const sim::CompiledNetlist* compiled_;
  std::vector<GateId> observed_;
  std::vector<uint8_t> is_observed_;

  // The current dispatch's frames, with the snapshot storage behind them
  // (per block or per capture pulse; launch cycles for transition), the
  // staged per-pulse observation flags (D drivers of that pulse's
  // observed DFFs) and per-pulse cones (the fanin closure of the D
  // drivers of every DFF the pulse clocks).
  std::vector<Frame> frames_;
  std::vector<std::vector<uint64_t>> good_frames_;
  std::vector<std::vector<uint64_t>> launch_frames_;
  std::vector<std::vector<uint8_t>> stage_observed_;
  std::vector<std::vector<uint8_t>> stage_live_;

  // One propagation scratch per worker (index 0 doubles as the serial
  // path's scratch), created on demand.
  std::vector<std::unique_ptr<ScratchBase>> scratch_;
  std::unique_ptr<core::ThreadPool> pool_;

  // Stem-CPT tables: fanout-free chain links (the single consuming gate
  // and slot of every non-stem net), the stem list, and the per-block
  // observability-of-output rows (obs_out_ stride W; row g: lanes in
  // which a flip of g's output is visible at the observation set).
  std::vector<uint32_t> single_use_;   // consuming gate; kStemMark = stem
  std::vector<uint32_t> single_slot_;
  std::vector<uint32_t> stems_;
  std::vector<uint32_t> nonstem_sources_;
  std::vector<uint64_t> obs_out_;

  // Equivalence folding (empty map when opts_.collapse is off).
  CollapseMap collapse_map_;
  std::vector<size_t> compute_faults_;  // fault indices simulated this dispatch
  std::vector<uint32_t> merge_slot_;    // active position -> compute slot
  std::vector<uint32_t> rep_slot_;      // per-fault slot scratch (kNoSlot)

  // Reduction state: the per-chunk per-block hit queues (chunk c's
  // queues are written only by the worker that claimed c), the
  // epoch-stamped slot -> hit-row table, and the per-active-position
  // dropped-in-this-dispatch flags.
  std::vector<std::vector<HitQueue>> hits_;  // [chunk][block]
  std::vector<const uint64_t*> slot_row_;
  std::vector<uint32_t> slot_stamp_;
  uint32_t epoch_ = 0;
  std::vector<uint8_t> dropped_;
  // Per-compute-slot detections still needed before every active member
  // of the slot's fault class is dropped (0 = never stop early). Lets
  // workers skip the blocks a sequentially-dropped fault would never
  // have been simulated on, without changing any reported mask.
  std::vector<uint32_t> slot_need_;

  std::vector<size_t> active_;
  ReachObserver* reach_observer_ = nullptr;
  DetectionObserver* detection_observer_ = nullptr;
};

/// Builds the canonical observation set for a (BIST-ready) netlist:
/// drivers of primary outputs plus drivers of every scan-cell D pin.
/// Observation points are scan cells themselves, so they are covered by
/// the scan-cell rule.
[[nodiscard]] std::vector<GateId> defaultObservationSet(const Netlist& nl);

/// Observation set treating every flip-flop as observable (PO drivers plus
/// all DFF D drivers) — the convention for raw, pre-DFT netlists where no
/// scan flags exist yet (reference circuits, benches).
[[nodiscard]] std::vector<GateId> fullObservationSet(const Netlist& nl);

}  // namespace lbist::fault
