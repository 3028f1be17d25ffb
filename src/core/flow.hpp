// Fast coverage flow: PRPG-exact fault simulation of the random phase
// plus the deterministic top-up phase. This is the path that regenerates
// the paper's Table 1 numbers (the cycle-accurate BistSession validates
// the signature plumbing; simulating 20K patterns x full shift windows
// gate-by-gate would be needlessly slow for coverage accounting, exactly
// as in production DFT flows).
//
// "PRPG-exact" means the scan state loaded for pattern p is computed from
// the real per-domain PRPG + phase shifter models over the real shift
// schedule — not from an idealized RNG — so coverage includes any
// structural correlation the TPG hardware would produce.
#pragma once

#include <cstdint>
#include <vector>

#include "atpg/topup.hpp"
#include "core/architect.hpp"
#include "core/pattern_source.hpp"
#include "fault/fsim.hpp"

namespace lbist::core {

/// Outcome of CoverageFlow::runRandomPhase.
struct RandomPhaseResult {
  int64_t patterns = 0;
  fault::Coverage coverage;
  double wall_seconds = 0.0;
};

/// PRPG-exact random-pattern coverage plus deterministic top-up for one
/// BIST-ready core (the paper's Table 1 coverage columns).
class CoverageFlow {
 public:
  /// `transition` switches the fault universe to launch-on-capture
  /// transition faults (for the double-capture ablation); default is the
  /// stuck-at universe of Table 1. `fsim_opts` tunes the underlying
  /// fault simulator — lane_words widens the pattern blocks, threads
  /// drive the batched dispatch; coverage and first-detect patterns are
  /// invariant across all of them (n-detect drop points can shift within
  /// a block when lane_words changes, per the fsim.hpp contract).
  explicit CoverageFlow(const BistReadyCore& core, bool transition = false,
                        const fault::FsimOptions& fsim_opts = {});

  /// Simulates `n_patterns` PRPG patterns (with fault dropping),
  /// dispatching fault::kBatchBlocks lane blocks per simulateBatch* call.
  RandomPhaseResult runRandomPhase(int64_t n_patterns);

  /// Deterministic top-up targeting everything still undetected.
  atpg::TopUpResult runTopUp(const atpg::TopUpConfig& cfg = {});

  /// The fault list, with statuses as of the last phase run.
  [[nodiscard]] fault::FaultList& faults() { return faults_; }
  /// Read-only view of faults().
  [[nodiscard]] const fault::FaultList& faults() const { return faults_; }
  /// Structural-collapsing summary of the flow's fault simulator (for
  /// core::renderCollapseStats report lines).
  [[nodiscard]] const fault::CollapseStats& collapseStats() const {
    return fsim_.collapseStats();
  }
  /// Nets the fault simulator observes (fault::defaultObservationSet:
  /// primary-output and scan-cell D-pin drivers).
  [[nodiscard]] const std::vector<GateId>& observed() const {
    return observed_;
  }
  /// Sources top-up ATPG may assign: scan-cell outputs, plus unwrapped
  /// non-control primary inputs.
  [[nodiscard]] const std::vector<GateId>& assignable() const {
    return assignable_;
  }

 private:
  const BistReadyCore* core_;
  bool transition_;
  fault::FaultList faults_;
  std::vector<GateId> observed_;
  std::vector<GateId> assignable_;
  fault::FaultSimulator fsim_;
  PrpgPatternSource source_;
};

}  // namespace lbist::core
