#include "fault/fsim.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>
#include <thread>

#include "obs/obs.hpp"
#include "robust/robust.hpp"

namespace lbist::fault {

using sim::LaneWord;

void validateFsimOptions(const FsimOptions& opts) {
  if (!sim::isSupportedLaneWords(opts.lane_words)) {
    throw std::invalid_argument(
        "FsimOptions::lane_words must be 1, 4, or 8");
  }
  if (opts.n_detect == 0) {
    throw std::invalid_argument("FsimOptions::n_detect must be >= 1");
  }
}

std::vector<GateId> defaultObservationSet(const Netlist& nl) {
  std::vector<GateId> obs;
  for (const OutputPort& po : nl.outputs()) obs.push_back(po.driver);
  for (GateId dff : nl.dffs()) {
    const Gate& g = nl.gate(dff);
    if ((g.flags & kFlagScanCell) != 0) obs.push_back(g.fanins[0]);
  }
  std::sort(obs.begin(), obs.end());
  obs.erase(std::unique(obs.begin(), obs.end()), obs.end());
  return obs;
}

std::vector<GateId> fullObservationSet(const Netlist& nl) {
  std::vector<GateId> obs;
  for (const OutputPort& po : nl.outputs()) obs.push_back(po.driver);
  for (GateId dff : nl.dffs()) obs.push_back(nl.gate(dff).fanins[0]);
  std::sort(obs.begin(), obs.end());
  obs.erase(std::unique(obs.begin(), obs.end()), obs.end());
  return obs;
}

// Width-specific worker scratch: the fault-effect overlay cells. Value
// and stamps share one cell so an overlay read touches one contiguous
// spot regardless of W. Staged capture's per-fault seed lists live here
// too, so a chunk allocates nothing.
template <size_t W>
struct FaultSimulator::ScratchW final : FaultSimulator::ScratchBase {
  struct Cell {
    LaneWord<W> fval;
    uint32_t stamp = 0;   // fval valid when == serial
    uint32_t queued = 0;  // gate scheduled when == serial
  };
  std::vector<Cell> ov;
  std::vector<SeedW<W>> seeds;
  std::vector<SeedW<W>> held;  // corrupted captures, held to window end
};

FaultSimulator::FaultSimulator(const Netlist& nl, FaultList& faults,
                               std::vector<GateId> observed, FsimOptions opts)
    : nl_(&nl),
      faults_(&faults),
      opts_(opts),
      lane_words_((validateFsimOptions(opts), opts.lane_words)),
      good_(nl, opts.lane_words),
      compiled_(&good_.compiled()),
      observed_(std::move(observed)) {
  is_observed_.assign(nl.numGates(), 0);
  for (GateId o : observed_) is_observed_[o.v] = 1;
  if (opts_.collapse) {
    collapse_map_ = buildCollapseMap(nl, faults, observed_);
  }

  // Stem-CPT structure: a gate output is a fanout-free-region stem when
  // the tester sees it directly, when it has any use count other than
  // one, or when its single use is non-combinational (a capture pin).
  // Everything else chains forward through its unique consuming gate.
  // Built from the same NetUses scan the collapse analysis runs, so the
  // two views of fanout-free structure cannot diverge.
  const size_t n_gates = nl.numGates();
  constexpr uint32_t kStemMark = 0xffffffffu;
  const NetUses uses = buildNetUses(nl);
  single_use_ = uses.gate;
  single_slot_ = uses.slot;
  obs_out_.assign(n_gates * lane_words_, 0);
  for (uint32_t g = 0; g < n_gates; ++g) {
    const bool stem =
        is_observed_[g] != 0 || uses.count[g] != 1 ||
        !isCombinational(nl.gate(GateId{single_use_[g]}).kind);
    if (stem) {
      single_use_[g] = kStemMark;
      stems_.push_back(g);
    } else if (!isCombinational(nl.gate(GateId{g}).kind)) {
      nonstem_sources_.push_back(g);
    }
  }

  refreshActiveSet();
}

FaultSimulator::~FaultSimulator() = default;

void FaultSimulator::prepareComputeSet() {
  constexpr uint32_t kNoSlot = 0xffffffffu;
  const size_t n_active = active_.size();
  compute_faults_.clear();
  merge_slot_.resize(n_active);
  const bool fold = !collapse_map_.representatives().empty() &&
                    reach_observer_ == nullptr;
  if (!fold) {
    compute_faults_.assign(active_.begin(), active_.end());
    for (size_t ai = 0; ai < n_active; ++ai) {
      merge_slot_[ai] = static_cast<uint32_t>(ai);
    }
    return;
  }
  if (rep_slot_.empty()) rep_slot_.assign(faults_->size(), kNoSlot);
  for (size_t ai = 0; ai < n_active; ++ai) {
    const size_t r = collapse_map_.representative(active_[ai]);
    uint32_t s = rep_slot_[r];
    if (s == kNoSlot) {
      s = static_cast<uint32_t>(compute_faults_.size());
      rep_slot_[r] = s;
      compute_faults_.push_back(r);
    }
    merge_slot_[ai] = s;
  }
  for (size_t fi : compute_faults_) rep_slot_[fi] = kNoSlot;
}

void FaultSimulator::refreshActiveSet() {
  active_ = faults_->undetectedIndices();
}

void FaultSimulator::restrictActiveSet(std::span<const size_t> fault_indices) {
  active_.assign(fault_indices.begin(), fault_indices.end());
}

void FaultSimulator::setThreads(uint32_t threads) {
  opts_.threads = threads;
}

unsigned FaultSimulator::resolveThreads(size_t n_work_units) const {
  unsigned t = opts_.threads != 0
                   ? opts_.threads
                   : std::max(1u, std::thread::hardware_concurrency());
  const size_t workload_cap = std::max<size_t>(
      1, n_work_units / std::max<uint32_t>(1, opts_.min_faults_per_thread));
  return static_cast<unsigned>(
      std::min<size_t>(t, workload_cap));
}

template <size_t W>
void FaultSimulator::ensureWorkersW(unsigned threads) {
  while (scratch_.size() < threads) {
    auto sc = std::make_unique<ScratchW<W>>();
    sc->ov.assign(nl_->numGates(), typename ScratchW<W>::Cell{});
    sc->level_queue.resize(compiled_->maxLevel() + 1);
    sc->level_bits.assign(sc->level_queue.size() / 64 + 1, 0);
    scratch_.push_back(std::move(sc));
  }
  if (threads > 1 && (pool_ == nullptr || pool_->threads() < threads)) {
    pool_ = std::make_unique<core::ThreadPool>(threads);
  }
}

template <size_t W>
LaneWord<W> FaultSimulator::evalPinForcedW(GateId id, uint8_t pin,
                                           const LaneWord<W>& forced,
                                           const uint64_t* good_vals) const {
  const uint32_t op = compiled_->opOf(id);
  assert(op != sim::CompiledNetlist::kNoOp &&
         "pin-forced eval on non-combinational gate");
  return compiled_->evalOpT<LaneWord<W>>(
      op, [&](size_t slot, uint32_t f) -> LaneWord<W> {
        return slot == pin ? forced
                           : LaneWord<W>::load(good_vals + size_t{f} * W);
      });
}

template <size_t W>
LaneWord<W> FaultSimulator::evalPinForcedOverlayW(
    const ScratchW<W>& sc, GateId id, uint8_t pin, const LaneWord<W>& forced,
    const uint64_t* good_vals) const {
  const uint32_t op = compiled_->opOf(id);
  assert(op != sim::CompiledNetlist::kNoOp &&
         "pin-forced eval on non-combinational gate");
  return compiled_->evalOpT<LaneWord<W>>(
      op, [&](size_t slot, uint32_t f) -> LaneWord<W> {
        if (slot == pin) return forced;
        const auto& c = sc.ov[f];
        return c.stamp == sc.serial
                   ? c.fval
                   : LaneWord<W>::load(good_vals + size_t{f} * W);
      });
}

template <size_t W>
LaneWord<W> FaultSimulator::propagateSeedsW(
    ScratchW<W>& sc, std::span<const SeedW<W>> seeds,
    const uint64_t* good_vals, const std::vector<uint8_t>& observed,
    const uint8_t* live, const Fault* forced, bool record_touched,
    const LaneWord<W>& early_exit_mask) const {
  using Cell = typename ScratchW<W>::Cell;
  const sim::CompiledNetlist& cn = *compiled_;
  const uint32_t serial = ++sc.serial;
  Cell* const ov = sc.ov.data();
  const uint64_t* const good = good_vals;
  uint64_t* const lbits = sc.level_bits.data();
  if (record_touched) sc.touched.clear();
  LaneWord<W> detect;

  auto schedule_fanouts = [&](uint32_t g) {
    for (const sim::CompiledNetlist::FanoutEntry& e : cn.combFanout(g)) {
      if (live != nullptr && live[e.gate] == 0) continue;
      Cell& c = ov[e.gate];
      if (c.queued == serial) continue;
      c.queued = serial;
      sc.level_queue[e.level].push_back(e.gate);
      lbits[e.level >> 6] |= uint64_t{1} << (e.level & 63);
    }
  };

  for (const SeedW<W>& s : seeds) {
    if (!s.diff.any()) continue;
    Cell& c = ov[s.gate.v];
    c.fval = LaneWord<W>::load(good + size_t{s.gate.v} * W) ^ s.diff;
    c.stamp = serial;
    if (record_touched) sc.touched.push_back(s.gate);
    if (observed[s.gate.v] != 0) detect |= s.diff;
    schedule_fanouts(s.gate.v);
  }

  const LaneWord<W> forced_word =
      forced != nullptr && forced->type == FaultType::kStuckAt1
          ? LaneWord<W>::ones()
          : LaneWord<W>{};
  const uint32_t forced_gate =
      forced != nullptr ? forced->gate.v : sim::CompiledNetlist::kNoOp;

  // Clears every still-scheduled bucket from word `from` on — the
  // early-exit paths must leave the wheel empty for the next fault.
  auto clear_schedule = [&](size_t from) {
    for (size_t w = from; w < sc.level_bits.size(); ++w) {
      while (lbits[w] != 0) {
        const uint32_t l = static_cast<uint32_t>((w << 6)) +
                           static_cast<uint32_t>(std::countr_zero(lbits[w]));
        lbits[w] &= lbits[w] - 1;
        sc.level_queue[l].clear();
      }
    }
  };

  const bool early = early_exit_mask.any();
  if (early && detect.covers(early_exit_mask)) {
    // Every lane already detects at the seeds.
    clear_schedule(0);
    return detect;
  }

  // Tallied locally in the drain loop, flushed once per call: the wheel
  // is far too hot for a per-event enabled check.
  uint64_t popped = 0;

  // Drain the wheel in level order. A processed gate only ever schedules
  // strictly higher levels (the netlist is a DAG), so one forward scan
  // of the occupancy bitmap visits every non-empty bucket.
  const size_t n_words = sc.level_bits.size();
  for (size_t w = 0; w < n_words; ++w) {
    while (lbits[w] != 0) {
      const uint32_t l = static_cast<uint32_t>((w << 6)) +
                         static_cast<uint32_t>(std::countr_zero(lbits[w]));
      lbits[w] &= lbits[w] - 1;
      auto& bucket = sc.level_queue[l];
      for (size_t i = 0; i < bucket.size(); ++i) {
        const uint32_t g = bucket[i];
        ++popped;
        LaneWord<W> newval;
        if (g != forced_gate) [[likely]] {
          newval = cn.evalOpT<LaneWord<W>>(
              cn.opOf(GateId{g}), [&](size_t, uint32_t f) -> LaneWord<W> {
                const Cell& c = ov[f];
                return c.stamp == serial
                           ? c.fval
                           : LaneWord<W>::load(good + size_t{f} * W);
              });
        } else {
          // A seed's cone feeds the fault site: keep the fault applied.
          newval = forced->pin == kOutputPin
                       ? forced_word
                       : evalPinForcedOverlayW<W>(sc, GateId{g}, forced->pin,
                                                  forced_word, good_vals);
        }
        Cell& c = ov[g];
        c.fval = newval;
        c.stamp = serial;
        const LaneWord<W> d =
            newval ^ LaneWord<W>::load(good + size_t{g} * W);
        if (!d.any()) continue;
        if (record_touched) sc.touched.push_back(GateId{g});
        if (observed[g] != 0) {
          detect |= d;
          if (early && detect.covers(early_exit_mask)) {
            // The mask is saturated: nothing downstream can change the
            // result. Clear the outstanding schedule and stop.
            bucket.clear();
            clear_schedule(w);
            OBS_COUNT("fsim.events_popped", popped);
            return detect;
          }
        }
        schedule_fanouts(g);
      }
      bucket.clear();
    }
  }
  OBS_COUNT("fsim.events_popped", popped);
  return detect;
}

template <size_t W>
FaultSimulator::InjectResultW<W> FaultSimulator::injectStuckAtW(
    const Fault& f, const LaneWord<W>& lane_mask,
    const uint64_t* good_vals) const {
  InjectResultW<W> res;
  const Gate& g = nl_->gate(f.gate);
  const LaneWord<W> forced = f.type == FaultType::kStuckAt1
                                 ? LaneWord<W>::ones()
                                 : LaneWord<W>{};
  if (f.pin == kOutputPin) {
    res.diff = (LaneWord<W>::load(good_vals + size_t{f.gate.v} * W) ^
                forced) &
               lane_mask;
    return res;
  }
  if (g.kind == CellKind::kDff) {
    // Fault between the D net and the flip-flop: the captured value is
    // wrong wherever the net value differs from the forced value; it is
    // visible iff the cell is observed by scan unload.
    const LaneWord<W> pin_good =
        LaneWord<W>::load(good_vals + size_t{g.fanins[0].v} * W);
    res.direct_detect = (g.flags & kFlagScanCell) != 0;
    res.direct_mask = (pin_good ^ forced) & lane_mask;
    return res;
  }
  const LaneWord<W> faulty_out =
      evalPinForcedW<W>(f.gate, f.pin, forced, good_vals);
  res.diff = (faulty_out ^
              LaneWord<W>::load(good_vals + size_t{f.gate.v} * W)) &
             lane_mask;
  return res;
}

template <size_t W>
FaultSimulator::InjectResultW<W> FaultSimulator::injectTransitionW(
    const Fault& f, const LaneWord<W>& lane_mask, const uint64_t* good_vals,
    const uint64_t* launch_vals) const {
  InjectResultW<W> res;
  const Gate& g = nl_->gate(f.gate);
  auto activation = [&](GateId net) {
    const LaneWord<W> v1 = LaneWord<W>::load(launch_vals + size_t{net.v} * W);
    const LaneWord<W> v2 = LaneWord<W>::load(good_vals + size_t{net.v} * W);
    return (f.type == FaultType::kSlowToRise ? (~v1 & v2) : (v1 & ~v2)) &
           lane_mask;
  };
  if (f.pin == kOutputPin) {
    // The slow site holds its launch value through the second capture:
    // flip the capture-cycle value in every activated lane.
    res.diff = activation(f.gate);
    return res;
  }
  const GateId src = g.fanins[f.pin];
  const LaneWord<W> act = activation(src);
  if (g.kind == CellKind::kDff) {
    res.direct_detect = (g.flags & kFlagScanCell) != 0;
    res.direct_mask = act;
    return res;
  }
  if (!act.any()) return res;
  // Launch value where active.
  const LaneWord<W> held =
      LaneWord<W>::load(good_vals + size_t{src.v} * W) ^ act;
  const LaneWord<W> faulty_out =
      evalPinForcedW<W>(f.gate, f.pin, held, good_vals);
  res.diff = (faulty_out ^
              LaneWord<W>::load(good_vals + size_t{f.gate.v} * W)) &
             lane_mask;
  return res;
}

size_t FaultSimulator::chunkCount(unsigned n_threads, size_t n) {
  return std::min(n, n_threads <= 1 ? size_t{1}
                                     : kChunksPerWorker * size_t{n_threads});
}

template <size_t W, typename Fn>
void FaultSimulator::forShards(unsigned n_threads, size_t n, Fn&& fn) {
  if (n_threads <= 1) {
    fn(size_t{0}, static_cast<ScratchW<W>&>(*scratch_[0]), size_t{0}, n);
    return;
  }
  const size_t n_chunks = chunkCount(n_threads, n);
  // The pool's run() orders every claim and queue write before the
  // caller's reduction, so the cursor needs no ordering of its own.
  std::atomic<size_t> cursor{0};
  pool_->run(n_threads, [&](unsigned worker) {
    OBS_SPAN("fsim.worker");
    ScratchW<W>& sc = static_cast<ScratchW<W>&>(*scratch_[worker]);
    for (size_t c = cursor.fetch_add(1, std::memory_order_relaxed);
         c < n_chunks; c = cursor.fetch_add(1, std::memory_order_relaxed)) {
      fn(c, sc, n * c / n_chunks, n * (c + 1) / n_chunks);
    }
  });
}

template <size_t W>
void FaultSimulator::computeObservabilityW(const Frame& fr,
                                           const LaneWord<W>& lane_mask,
                                           unsigned n_threads) {
  OBS_SPAN("fsim.cpt_observability");
  OBS_COUNT("fsim.stem_propagations", stems_.size());
  constexpr uint32_t kStemMark = 0xffffffffu;
  const uint64_t* const good = fr.good;
  const sim::CompiledNetlist& cn = *compiled_;

  // Phase A — one full-lane diff propagation per stem. Lane independence
  // of word-parallel evaluation makes the result exact: lane l of the
  // detect block is precisely "a flip of this stem in lane l reaches the
  // observation set".
  forShards<W>(n_threads, stems_.size(),
               [&](size_t, ScratchW<W>& sc, size_t lo, size_t hi) {
                 for (size_t i = lo; i < hi; ++i) {
                   const uint32_t s = stems_[i];
                   const SeedW<W> seed{GateId{s}, lane_mask};
                   propagateSeedsW<W>(sc, {&seed, 1}, good, is_observed_,
                                      /*live=*/nullptr, /*forced=*/nullptr,
                                      /*record_touched=*/false,
                                      /*early_exit_mask=*/lane_mask)
                       .store(obs_out_.data() + size_t{s} * W);
                 }
               });

  // Phase B — reverse sensitization pass over the fanout-free chains:
  // every non-stem output folds its single consuming gate's pass mask
  // into the consumer's observability. Reverse op order is reverse-
  // topological (the stream is level-major and a chain's consumer sits
  // at a strictly higher level), which is all this pass needs.
  auto fold_chain = [&](uint32_t g) {
    const uint32_t use = single_use_[g];
    const LaneWord<W> pm =
        cn.passMaskW<W>(cn.opOf(GateId{use}), single_slot_[g], good);
    (pm & LaneWord<W>::load(obs_out_.data() + size_t{use} * W))
        .store(obs_out_.data() + size_t{g} * W);
  };
  for (size_t opi = cn.numOps(); opi-- > 0;) {
    const uint32_t g = cn.opGate(static_cast<uint32_t>(opi));
    if (single_use_[g] == kStemMark) continue;
    fold_chain(g);
  }
  for (const uint32_t g : nonstem_sources_) fold_chain(g);
}

template <size_t W>
void FaultSimulator::simulateFaultsW(unsigned n_threads, bool use_cpt,
                                     bool batch) {
  const size_t n_frames = frames_.size();
  std::vector<LaneWord<W>> masks(n_frames);
  for (size_t b = 0; b < n_frames; ++b) {
    masks[b] = LaneWord<W>::firstLanes(static_cast<size_t>(frames_[b].lanes));
  }
  if (use_cpt) computeObservabilityW<W>(frames_[0], masks[0], n_threads);
  const bool reach = reach_observer_ != nullptr;

  // Workers read the shared frames and fault records and write only
  // their own scratch and their chunks' hit queues: no shared mutable
  // state beyond the chunk cursor. Frames run inner, so a fault's cone
  // stays hot in cache.
  auto compute_range = [&](size_t chunk, ScratchW<W>& sc, size_t lo,
                           size_t hi) {
    uint64_t hit_rows = 0;
    uint64_t deferred_blocks = 0;
    for (size_t ci = lo; ci < hi; ++ci) {
      const Fault& f = faults_->record(compute_faults_[ci]).fault;
      const uint32_t need = slot_need_[ci];
      uint32_t got = 0;
      for (size_t b = 0; b < n_frames; ++b) {
        const Frame& fr = frames_[b];
        const InjectResultW<W> inj =
            fr.launch != nullptr
                ? injectTransitionW<W>(f, masks[b], fr.good, fr.launch)
                : injectStuckAtW<W>(f, masks[b], fr.good);
        LaneWord<W> detect = inj.direct_detect ? inj.direct_mask
                                               : LaneWord<W>{};
        if (use_cpt) {
          // Stem-CPT assembly: inject_diff & obs_of_out(site).
          detect |= inj.diff & LaneWord<W>::load(obs_out_.data() +
                                                 size_t{f.gate.v} * W);
        } else if (inj.diff.any()) {
          const SeedW<W> seed{f.gate, inj.diff};
          // Every downstream diff stays within the seed's activated lanes,
          // so the wheel may stop once all of them detect. Reach observers
          // need the complete cone; they disable the shortcut.
          detect |= propagateSeedsW<W>(sc, {&seed, 1}, fr.good, is_observed_,
                                       /*live=*/nullptr, /*forced=*/nullptr,
                                       /*record_touched=*/reach,
                                       reach ? LaneWord<W>{} : inj.diff);
          if (reach) {
            reach_observer_->onFaultEffects(compute_faults_[ci], sc.touched);
          }
        }
        if (!detect.any()) continue;
        ++hit_rows;
        hits_[chunk][b].push(static_cast<uint32_t>(ci), detect);
        if (need != 0) {
          got += static_cast<uint32_t>(detect.popcount());
          // The sequential loop drops this class before the next block;
          // its remaining masks would be discarded unseen.
          if (got >= need) {
            deferred_blocks += n_frames - 1 - b;
            break;
          }
        }
      }
    }
    if (batch) {
      OBS_COUNT("fsim.batch_hit_rows", hit_rows);
      OBS_COUNT("fsim.batch_deferred_blocks", deferred_blocks);
    }
  };
  forShards<W>(n_threads, compute_faults_.size(), compute_range);
}

template <size_t W>
void FaultSimulator::simulateStagedW(
    unsigned n_threads, std::span<const std::vector<GateId>> stages) {
  const size_t n_stages = stages.size();
  const LaneWord<W> lane_mask =
      LaneWord<W>::firstLanes(static_cast<size_t>(frames_[0].lanes));

  auto compute_range = [&](size_t chunk, ScratchW<W>& sc, size_t lo,
                           size_t hi) {
    std::vector<SeedW<W>>& seeds = sc.seeds;
    std::vector<SeedW<W>>& held = sc.held;
    for (size_t ci = lo; ci < hi; ++ci) {
      const Fault& f = faults_->record(compute_faults_[ci]).fault;
      const Gate& g = nl_->gate(f.gate);
      const bool dff_pin = f.pin != kOutputPin && g.kind == CellKind::kDff;
      const LaneWord<W> forced_word = f.type == FaultType::kStuckAt1
                                          ? LaneWord<W>::ones()
                                          : LaneWord<W>{};
      held.clear();
      LaneWord<W> detect;

      for (size_t j = 0; j < n_stages; ++j) {
        const uint64_t* const frame = frames_[j].good;
        seeds.assign(held.begin(), held.end());
        if (!dff_pin) {
          // The stuck line is active in every frame; re-inject against
          // this frame's good values.
          const InjectResultW<W> inj =
              injectStuckAtW<W>(f, lane_mask, frame);
          if (inj.diff.any()) seeds.push_back({f.gate, inj.diff});
        }
        const bool propagated = !seeds.empty();
        if (propagated) {
          // No early exit: the captured-diff collection below reads the
          // overlay cells this propagation writes. The stage reads them
          // only inside its cone, so the wheel never leaves it.
          detect |= propagateSeedsW<W>(sc, seeds, frame, stage_observed_[j],
                                       stage_live_[j].data(),
                                       dff_pin ? nullptr : &f,
                                       /*record_touched=*/false,
                                       /*early_exit_mask=*/LaneWord<W>{}) &
                    lane_mask;
        }

        // Collect this stage's corrupted captures: they stay corrupted
        // (and keep corrupting later stages) until the window ends.
        if (j + 1 < n_stages || dff_pin) {
          for (GateId ff : stages[j]) {
            // An output-stuck DFF never presents its captured value: the
            // stem stays forced (re-injected every frame), so carrying a
            // captured diff for it would be wrong.
            if (!dff_pin && ff == f.gate) continue;
            const GateId driver = nl_->gate(ff).fanins[0];
            LaneWord<W> dd;
            const auto& oc = sc.ov[driver.v];
            if (propagated && oc.stamp == sc.serial) {
              dd = (oc.fval ^
                    LaneWord<W>::load(frame + size_t{driver.v} * W)) &
                   lane_mask;
            }
            if (dff_pin && ff == f.gate) {
              // The faulted pin captures the forced value regardless of
              // the net driving it; visible at its own scan unload.
              dd = (LaneWord<W>::load(frame + size_t{driver.v} * W) ^
                    forced_word) &
                   lane_mask;
              if ((nl_->gate(ff).flags & kFlagScanCell) != 0) detect |= dd;
            }
            if (dd.any()) held.push_back({ff, dd});
          }
        }
      }
      if (detect.any()) hits_[chunk][0].push(static_cast<uint32_t>(ci), detect);
    }
  };
  forShards<W>(n_threads, compute_faults_.size(), compute_range);
}

size_t FaultSimulator::simulateFrames(
    int64_t pattern_base, Pass pass,
    std::span<const std::vector<GateId>> stages) {
  const size_t n_blocks = pass == Pass::kStaged ? 1 : frames_.size();
  // With folding, only one member per equivalence class is propagated;
  // the reduction shares its mask with every live member.
  prepareComputeSet();
  const size_t n_compute = compute_faults_.size();
  // Reach observers run on one worker: the compute loop then visits the
  // faults in reduction order (reach disables folding, so compute slot ==
  // active position) and streams every cone straight from the scratch.
  const unsigned n_threads = reach_observer_ != nullptr
                                 ? 1u
                                 : resolveThreads(n_compute * n_blocks);

  // Engine choice for a single block: per-fault cones while the live
  // list is thin, stem observability + assembly while it is dense. Both
  // are exact, so the choice is invisible in the results. Batches and
  // staged capture always run per fault (simulateBatch routes dense and
  // stem-CPT batches to the per-block loop).
  bool use_cpt = false;
  if (pass == Pass::kBlock && reach_observer_ == nullptr) {
    use_cpt = opts_.engine == BlockEngine::kStemCpt ||
              (opts_.engine == BlockEngine::kAuto &&
               n_compute > 2 * stems_.size());
  }

  if (pass == Pass::kBlock) {
    OBS_COUNT("fsim.blocks", 1);
    OBS_COUNT("fsim.live_faults", active_.size());
    OBS_COUNT("fsim.live_classes", n_compute);
  } else if (pass == Pass::kBatch) {
    OBS_COUNT("fsim.batch_dispatches", 1);
    OBS_COUNT("fsim.batch_blocks", n_blocks);
  } else {
    OBS_COUNT("fsim.staged_blocks", 1);
  }
  // One site per dispatch, shared by every engine: an injected failure
  // here models a simulator crash inside any fault-sim consumer
  // (coverage flows, top-up, TPI, diagnosis). It sits before the compute
  // phase, so no partial dispatch ever mutates fault statuses — the
  // exception leaves the list exactly as it was.
  if (ROBUST_POINT("fsim.block.simulate", "", robust::kCanThrow) ==
      robust::FaultAction::kThrow) {
    throw std::runtime_error("injected fault-simulator failure (block at "
                             "pattern base " +
                             std::to_string(pattern_base) + ")");
  }
  if (pass == Pass::kBlock) {
    if (use_cpt) {
      OBS_COUNT("fsim.blocks_stem_cpt", 1);
    } else {
      OBS_COUNT("fsim.blocks_per_fault", 1);
    }
  }

  // A single block queues at most one row per compute slot of a chunk.
  // Reserving that here, on the calling thread, keeps dense stem-CPT
  // blocks from growing the queues inside the workers' malloc arenas,
  // where every outgrown buffer would stay resident. Batch queues stay
  // sparse (dense batches run block by block), so they grow on demand.
  const size_t n_chunks = chunkCount(n_threads, n_compute);
  if (hits_.size() < n_chunks) hits_.resize(n_chunks);
  for (size_t c = 0; c < n_chunks; ++c) {
    if (hits_[c].size() < n_blocks) hits_[c].resize(n_blocks);
    for (size_t b = 0; b < n_blocks; ++b) {
      hits_[c][b].slots.clear();
      hits_[c][b].rows.clear();
    }
    if (n_blocks == 1) {
      const size_t len =
          n_compute * (c + 1) / n_chunks - n_compute * c / n_chunks;
      hits_[c][0].slots.reserve(len);
      hits_[c][0].rows.reserve(len * lane_words_);
    }
  }

  // With dropping on, a fault detected enough times by block b leaves
  // the active set before block b+1 in the sequential schedule, so its
  // later-block masks are never observed. Precompute, per compute slot,
  // how many more lane detections retire every active member of the
  // slot's class; the kernel stops walking blocks for a slot once its
  // accumulated mask popcounts reach that need. reduceHits applies the
  // same arithmetic serially, so the skipped work is exactly the work
  // the per-block loop would also have skipped — results are unchanged.
  // A single block has no later block to skip.
  slot_need_.assign(n_compute, 0);
  if (opts_.drop_detected && n_blocks > 1) {
    for (size_t ai = 0; ai < active_.size(); ++ai) {
      const FaultRecord& rec = faults_->record(active_[ai]);
      const uint32_t need = opts_.n_detect > rec.detect_count
                                ? opts_.n_detect - rec.detect_count
                                : 1;
      uint32_t& slot_need = slot_need_[merge_slot_[ai]];
      slot_need = std::max(slot_need, need);
    }
  }

  const auto compute = [&]<size_t W>() {
    ensureWorkersW<W>(n_threads);
    if (pass == Pass::kStaged) {
      simulateStagedW<W>(n_threads, stages);
    } else {
      simulateFaultsW<W>(n_threads, use_cpt, pass == Pass::kBatch);
    }
  };
  switch (lane_words_) {
    case 1:
      compute.template operator()<1>();
      break;
    case 4:
      compute.template operator()<4>();
      break;
    case 8:
      compute.template operator()<8>();
      break;
    default:
      assert(false && "unsupported lane width");
      return 0;
  }
  return reduceHits(pattern_base, n_blocks, n_chunks);
}

size_t FaultSimulator::reduceHits(int64_t pattern_base, size_t n_blocks,
                                  size_t n_chunks) {
  // One serial pass per block, in block order and fault-list order
  // within a block, so the bookkeeping and observer stream are
  // bit-identical for every thread count, chunk claim order, and batch
  // size — and, because class members corrupt the circuit identically,
  // for folding on or off (merge_slot_ hands every member its class's
  // mask). A fault dropped by an earlier block's pass is skipped in later
  // blocks' passes, exactly as it would have left the active set between
  // sequential blocks. The epoch-stamped slot table points each hit slot
  // at its queued row, so a block costs O(hits) to index, not O(slots).
  const size_t w = lane_words_;
  const size_t n_compute = compute_faults_.size();
  const size_t n_active = active_.size();
  slot_row_.resize(n_compute);
  if (slot_stamp_.size() < n_compute) slot_stamp_.resize(n_compute, 0);
  dropped_.assign(n_active, 0);
  size_t newly_detected = 0;
  size_t dropped = 0;

  for (size_t b = 0; b < n_blocks; ++b) {
    if (++epoch_ == 0) {
      // Stamp wraparound: invalidate every stale stamp once per 2^32
      // blocks rather than carrying wider stamps on the hot path.
      std::fill(slot_stamp_.begin(), slot_stamp_.end(), 0u);
      epoch_ = 1;
    }
    for (size_t c = 0; c < n_chunks; ++c) {
      const HitQueue& q = hits_[c][b];
      for (size_t i = 0; i < q.slots.size(); ++i) {
        slot_row_[q.slots[i]] = q.rows.data() + i * w;
        slot_stamp_[q.slots[i]] = epoch_;
      }
    }

    const int64_t base =
        pattern_base + static_cast<int64_t>(b) * static_cast<int64_t>(w * 64);
    for (size_t ai = 0; ai < n_active; ++ai) {
      if (dropped_[ai] != 0) continue;
      const uint32_t slot = merge_slot_[ai];
      if (slot_stamp_[slot] != epoch_) continue;  // no detection
      const size_t fi = active_[ai];
      const sim::LaneMask detect(slot_row_[slot], w);
      if (detection_observer_ != nullptr) {
        detection_observer_->onDetectionMask(fi, base, detect);
      }
      FaultRecord& rec = faults_->record(fi);
      if (rec.status == FaultStatus::kUndetected) {
        faults_->recordDetection(fi, base + detect.firstLane());
        ++newly_detected;
        rec.detect_count += static_cast<uint32_t>(detect.popcount()) - 1;
      } else {
        rec.detect_count += static_cast<uint32_t>(detect.popcount());
      }
      if (opts_.drop_detected && rec.detect_count >= opts_.n_detect) {
        dropped_[ai] = 1;
        ++dropped;
      }
    }
  }

  if (dropped > 0) {
    size_t out = 0;
    for (size_t ai = 0; ai < n_active; ++ai) {
      if (dropped_[ai] == 0) active_[out++] = active_[ai];
    }
    active_.resize(out);
  }
  OBS_COUNT("fsim.detections", newly_detected);
  OBS_COUNT("fsim.faults_dropped", dropped);
  // Rate-curve anchor: one sample per reduction, work-indexed by the
  // pattern count reached. The reduction is the quiescent point —
  // workers have joined — so this is where counter deltas are
  // well-defined.
  OBS_SAMPLE("fsim.block",
             pattern_base + static_cast<int64_t>(n_blocks * w * 64));
  return newly_detected;
}

void FaultSimulator::checkBlockLanes(int n_patterns) const {
  if (n_patterns > static_cast<int>(lanes())) {
    throw std::invalid_argument(
        "fault-simulator block of " + std::to_string(n_patterns) +
        " patterns exceeds lanes() = " + std::to_string(lanes()));
  }
}

FaultSimulator::Frame FaultSimulator::loadFrame(bool transition,
                                                size_t slot, int lanes,
                                                bool snapshot) {
  good_.eval();
  const auto raw = good_.rawValues();
  Frame fr{raw.data(), nullptr, lanes};
  if (transition) {
    if (launch_frames_.size() <= slot) launch_frames_.resize(slot + 1);
    std::vector<uint64_t>& launch = launch_frames_[slot];
    launch.assign(raw.begin(), raw.end());
    for (GateId dff : nl_->dffs()) {
      good_.setSourceRow(
          dff, launch.data() + size_t{nl_->gate(dff).fanins[0].v} *
                                   lane_words_);
    }
    good_.eval();
    fr.launch = launch.data();
  }
  if (snapshot) {
    if (good_frames_.size() <= slot) good_frames_.resize(slot + 1);
    good_frames_[slot].assign(raw.begin(), raw.end());
    fr.good = good_frames_[slot].data();
  }
  return fr;
}

size_t FaultSimulator::simulateBlock(int64_t pattern_base, int n_patterns,
                                     bool transition) {
  if (n_patterns < 0) n_patterns = static_cast<int>(lanes());
  checkBlockLanes(n_patterns);
  frames_.assign(1, loadFrame(transition, 0, n_patterns, /*snapshot=*/false));
  if (active_.empty()) return 0;
  OBS_SPAN("fsim.block");
  return simulateFrames(pattern_base, Pass::kBlock, {});
}

size_t FaultSimulator::simulateBlockStuckAt(int64_t pattern_base,
                                            int n_patterns) {
  return simulateBlock(pattern_base, n_patterns, /*transition=*/false);
}

size_t FaultSimulator::simulateBlockTransition(int64_t pattern_base,
                                               int n_patterns) {
  return simulateBlock(pattern_base, n_patterns, /*transition=*/true);
}

size_t FaultSimulator::simulateBlockStuckAtStaged(
    int64_t pattern_base, int n_patterns,
    std::span<const std::vector<GateId>> stages) {
  if (reach_observer_ != nullptr) {
    throw std::logic_error(
        "simulateBlockStuckAtStaged: reach observers are not supported in "
        "staged capture");
  }
  if (n_patterns < 0) n_patterns = static_cast<int>(lanes());
  checkBlockLanes(n_patterns);
  const size_t n_stages = stages.size();
  if (active_.empty() || n_stages == 0) return 0;
  OBS_SPAN("fsim.staged_block");

  // Good-machine capture frames: frame 0 is the loaded state; frame j+1
  // has stages[0..j] updated to their captured values. The last frame is
  // read in place.
  frames_.clear();
  for (size_t j = 0; j < n_stages; ++j) {
    if (j > 0) {
      for (GateId ff : stages[j - 1]) {
        good_.setSourceRow(ff, frames_[j - 1].good +
                                   size_t{nl_->gate(ff).fanins[0].v} *
                                       lane_words_);
      }
    }
    frames_.push_back(loadFrame(/*transition=*/false, j, n_patterns,
                                /*snapshot=*/j + 1 < n_stages));
  }

  // Per-stage observation flags: detection counts at a stage DFF's D
  // driver at that stage's own pulse (and only if globally observed).
  // Per-stage cones: the fanin closure, through combinational gates, of
  // the D drivers of every stage DFF. A stage reads fault effects only
  // at those drivers (its detections and the captures it holds for later
  // stages), and every gate of the closure has its fanins in it too, so
  // propagating inside the cone alone leaves each value read exact.
  stage_observed_.resize(n_stages);
  stage_live_.resize(n_stages);
  std::vector<GateId> stack;
  for (size_t j = 0; j < n_stages; ++j) {
    stage_observed_[j].assign(nl_->numGates(), 0);
    std::vector<uint8_t>& live = stage_live_[j];
    live.assign(nl_->numGates(), 0);
    for (GateId ff : stages[j]) {
      const GateId driver = nl_->gate(ff).fanins[0];
      if (is_observed_[driver.v] != 0) stage_observed_[j][driver.v] = 1;
      if (live[driver.v] == 0) {
        live[driver.v] = 1;
        stack.push_back(driver);
      }
    }
    while (!stack.empty()) {
      const Gate& g = nl_->gate(stack.back());
      stack.pop_back();
      if (!isCombinational(g.kind)) continue;
      for (GateId f : g.fanins) {
        if (live[f.v] == 0) {
          live[f.v] = 1;
          stack.push_back(f);
        }
      }
    }
  }
  return simulateFrames(pattern_base, Pass::kStaged, stages);
}

size_t FaultSimulator::simulateBatch(int64_t pattern_base, size_t n_blocks,
                                     const BlockLoader& load,
                                     bool transition) {
  // Fallbacks that keep the loader stream advancing: reach observers
  // need per-block cones, and the stem-CPT engine keeps its per-block
  // observability passes (they depend on each block's good frame, so a
  // batch has nothing to amortize for it). Batching amortizes the
  // per-block thread-pool shard/merge dispatch, so a single requested
  // worker has nothing to amortize either — it would only pay the
  // good-frame snapshot copies. kAuto additionally re-checks the
  // density heuristic: while the live set is dense enough that the
  // sequential loop would pick stem-CPT, batching the per-fault engine
  // would be a large slowdown, not a win. Every route produces the same
  // masks; only the schedule differs.
  const unsigned requested_threads =
      opts_.threads != 0 ? opts_.threads
                         : std::max(1u, std::thread::hardware_concurrency());
  bool dense_auto = false;
  if (opts_.engine == BlockEngine::kAuto && reach_observer_ == nullptr &&
      !active_.empty()) {
    prepareComputeSet();
    dense_auto = compute_faults_.size() > 2 * stems_.size();
  }
  const bool per_block = reach_observer_ != nullptr ||
                         opts_.engine == BlockEngine::kStemCpt ||
                         dense_auto || requested_threads <= 1 ||
                         n_blocks <= 1;
  if (per_block) {
    OBS_COUNT("fsim.batch_sequential_fallbacks", 1);
  }

  // The loaders run even when no fault is live, so stateful pattern
  // sources stay in step with the pattern numbering. Snapshot storage
  // holds this batch's blocks only: a shorter final batch releases the
  // rest before the caller moves on.
  frames_.clear();
  if (!per_block) {
    good_frames_.resize(n_blocks);
    if (transition) launch_frames_.resize(n_blocks);
  }
  size_t newly = 0;
  for (size_t b = 0; b < n_blocks; ++b) {
    const int lanes_b = load(b, good_);
    if (lanes_b <= 0) break;
    checkBlockLanes(lanes_b);
    if (per_block) {
      newly += simulateBlock(
          pattern_base + static_cast<int64_t>(b * lanes()), lanes_b,
          transition);
    } else {
      frames_.push_back(loadFrame(transition, b, lanes_b, /*snapshot=*/true));
    }
  }
  if (per_block || frames_.empty() || active_.empty()) return newly;
  OBS_SPAN("fsim.batch");
  return simulateFrames(pattern_base, Pass::kBatch, {});
}

size_t FaultSimulator::simulateBatchStuckAt(int64_t pattern_base,
                                            size_t n_blocks,
                                            const BlockLoader& load) {
  return simulateBatch(pattern_base, n_blocks, load, /*transition=*/false);
}

size_t FaultSimulator::simulateBatchTransition(int64_t pattern_base,
                                               size_t n_blocks,
                                               const BlockLoader& load) {
  return simulateBatch(pattern_base, n_blocks, load, /*transition=*/true);
}

size_t FaultSimulator::markUnobservable() {
  std::vector<uint8_t> reaches(nl_->numGates(), 0);
  std::vector<GateId> queue = observed_;
  for (GateId o : observed_) reaches[o.v] = 1;
  while (!queue.empty()) {
    const GateId g = queue.back();
    queue.pop_back();
    if (!isCombinational(nl_->gate(g).kind)) continue;
    for (GateId f : nl_->gate(g).fanins) {
      if (reaches[f.v] == 0) {
        reaches[f.v] = 1;
        queue.push_back(f);
      }
    }
  }

  size_t marked = 0;
  for (size_t fi = 0; fi < faults_->size(); ++fi) {
    FaultRecord& rec = faults_->record(fi);
    if (rec.status != FaultStatus::kUndetected) continue;
    const Gate& g = nl_->gate(rec.fault.gate);
    bool observable;
    if (rec.fault.pin != kOutputPin && g.kind == CellKind::kDff) {
      observable = (g.flags & kFlagScanCell) != 0;
    } else {
      observable = reaches[rec.fault.gate.v] != 0;
    }
    if (!observable) {
      rec.status = FaultStatus::kUntestable;
      ++marked;
    }
  }
  if (marked > 0) refreshActiveSet();
  return marked;
}

}  // namespace lbist::fault
