// BistSession — cycle-accurate emulation of a complete self-test run.
//
// Wires together every block of the paper's Fig. 1 against the BIST-ready
// netlist: the per-domain PRPGs feed scan-in ports through the input
// selector, the clock-gating schedule drives shift and double-capture
// pulses through the sequential simulator, per-domain MISRs compact the
// scan-out streams, and the controller FSM walks Start -> ... -> Finish
// with an on-chip signature compare providing Result.
//
// A golden (fault-free) run provides the reference signatures; running
// the same session against a die with an injected defect must flip
// Result — the end-to-end detection path the coverage numbers assume.
//
// Every clock edge runs a pulse program (sim/pulse_program.hpp) built once
// from the die netlist: the other primary inputs at 0 and test_mode at 1
// for the whole run, plus the scan-enable level of the edge kind. A shift
// edge (SE=1, all domains) evaluates only the scan path; a launch or
// capture edge (SE=0, one domain) evaluates that domain's live next-state
// cones. An injected defect widens the programs exactly as far as it
// must (a scan-mux select tied to 0 pulls the functional cone into the
// shift program; a freed X-bounding AND makes its non-scan flop live), so
// signatures and checkpoints are bit-identical to full-evaluation pulses.
//
// Lanes. The simulator evaluates 64-bit words, and runHypotheses() gives
// each bit lane its own die: it copies the die once per pass of up to 64
// stuck-at hypotheses, in order, and lets fault::injectStuckAtLanes add
// one force cell per site, so lane l carries hypothesis l while the PRPG
// stimulus is broadcast to every lane. Shift edges feed whole scan-out
// words into bit-sliced ODCs (bist::LaneOdc), and lane l's signatures and
// checkpoints are bit-identical to a session on injectStuckAt's die of
// hypothesis l (Session.LaneHypothesesMatchInjectedDies). A mask input
// that is uniform across the pass's lanes is held like a run constant,
// so a one-hypothesis pass prunes its programs exactly as the injected
// constant would. A good die is the zero-hypothesis case of the same
// code.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bist/controller.hpp"
#include "bist/prpg.hpp"
#include "core/architect.hpp"
#include "fault/inject.hpp"
#include "sim/pulse_program.hpp"
#include "sim/seqsim.hpp"

namespace lbist::core {

/// Knobs of one self-test run.
struct SessionOptions {
  /// Patterns to apply (each one shift window plus one capture burst).
  int64_t patterns = 32;
  /// Domains capture in this order (empty = netlist order). d3 separates
  /// consecutive pairs, so any order works regardless of skew.
  std::vector<DomainId> capture_order;
  /// Extra shift window after the last pattern to flush final responses
  /// into the MISRs (always needed; exposed for the truncation test).
  bool final_unload = true;
  /// Interval-signature windows: snapshot every domain's MISR after each
  /// `signature_interval` completed patterns (0 = none). Diagnosis
  /// (src/diag) narrows a failing run to failing windows from these; the
  /// memory cost is one signature per window per domain.
  int64_t signature_interval = 0;
  /// Replaces the core's capture timing for this run. Diagnosis sessions
  /// over the stuck-at universe disable double capture so the response
  /// dictionary's single-capture model matches the die cycle-for-cycle.
  std::optional<bist::AtSpeedTimingConfig> timing_override;
};

/// MISR states captured at one interval-signature checkpoint.
struct SignatureCheckpoint {
  int64_t patterns_done = 0;
  /// Per DomainBist, the MISR signature words (WideMisr segment order).
  std::vector<std::vector<uint64_t>> domain_words;

  /// Checkpoints are equal when the pattern count and every word match.
  friend bool operator==(const SignatureCheckpoint& a,
                         const SignatureCheckpoint& b) {
    return a.patterns_done == b.patterns_done &&
           a.domain_words == b.domain_words;
  }
};

/// Outcome of one self-test run.
struct SessionResult {
  std::vector<std::string> signatures;  // per DomainBist, hex
  /// Final MISR words per DomainBist (same data as `signatures`, in the
  /// form the diagnosis algebra consumes).
  std::vector<std::vector<uint64_t>> signature_words;
  /// Interval snapshots, oldest first (empty unless signature_interval).
  std::vector<SignatureCheckpoint> checkpoints;
  int64_t patterns_done = 0;
  uint64_t shift_pulses = 0;
  uint64_t capture_pulses = 0;
  uint64_t session_ps = 0;  // virtual end time
  bool finish = false;
  /// Valid only when golden signatures were provided.
  bool result_pass = false;
};

/// Cycle-accurate self-test of one die against one BIST-ready core;
/// runHypotheses() runs stuck-at hypotheses on that die 64 at a time.
class BistSession {
 public:
  /// `die` is the netlist to simulate — pass `core.netlist` for a good
  /// die or a mutated copy (fault::injectStuckAt) for a defective one.
  /// The die must be structurally identical to the BIST-ready core
  /// (same ports and scan fabric).
  BistSession(const BistReadyCore& core, const Netlist& die);

  /// Runs a full self-test. When `golden` is non-null the controller
  /// compares against it and SessionResult::result_pass is meaningful.
  /// Every run starts from reset (DFFs, inputs, PRPGs, MISRs), so one
  /// session may run any number of times with any options.
  [[nodiscard]] SessionResult run(const SessionOptions& opts,
                                  const SessionResult* golden = nullptr);

  /// Runs each stuck-at hypothesis on this session's die as one lane of
  /// a die copy, in passes of up to 64 in order, and returns one result
  /// per hypothesis, in order (no verdict: result_pass is false). Adds
  /// the number of passes run to `*passes` when non-null. Throws like
  /// injectStuckAtLanes for an invalid hypothesis.
  [[nodiscard]] std::vector<SessionResult> runHypotheses(
      std::span<const fault::Fault> hypotheses, const SessionOptions& opts,
      size_t* passes = nullptr) const;

 private:
  /// A lane session: `die` comes from fault::injectStuckAtLanes and
  /// `lanes` is what it returned; lane l runs hypothesis l. An empty
  /// `lanes` is a one-lane session of `die` itself. Throws
  /// std::invalid_argument for more than 64 lanes or a mask that is not
  /// a primary input the run leaves free.
  BistSession(const BistReadyCore& core, const Netlist& die,
              std::span<const fault::LaneHypothesis> lanes);

  /// Runs a full self-test and returns one result per lane, each
  /// compared against `golden` as run() states.
  [[nodiscard]] std::vector<SessionResult> runLanes(
      const SessionOptions& opts, const SessionResult* golden = nullptr);

  void shiftCycle();
  void seedPrpgs();
  void pulse(const sim::PulseProgram& program);

  const BistReadyCore* core_;
  const Netlist* die_;
  size_t lanes_ = 1;
  sim::SeqSimulator sim_;
  // Inputs fixed for the whole run: every primary input except the SI
  // ports and SE, at 0, with test_mode at 1; lane masks uniform across
  // the lanes at their level.
  std::vector<sim::HeldInput> held_;
  // Lane masks that differ between lanes, with their lane words.
  std::vector<std::pair<GateId, uint64_t>> lane_masks_;
  sim::PulseProgram shift_program_;                  // SE=1, all domains
  std::vector<sim::PulseProgram> capture_programs_;  // SE=0, per domain
  // Work tallies of the current run, flushed once per run().
  uint64_t pulses_ = 0;
  uint64_t ops_evaluated_ = 0;
  std::vector<bist::Prpg> prpgs_;
  std::vector<bist::LaneOdc> odcs_;
  std::vector<std::vector<uint8_t>> slice_;      // per domain, per chain
  std::vector<std::vector<uint64_t>> so_words_;  // per domain, per chain
};

}  // namespace lbist::core
