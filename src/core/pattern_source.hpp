// PRPG-exact scan-state source for block fault simulation.
//
// Computes, for lane-block-sized pattern groups (64 * laneWords()
// patterns), the per-scan-cell stimulus rows the real per-domain PRPG +
// phase-shifter (+ expander) hardware shifts in over the shift schedule,
// and loads them into a FaultSimulator. Shared by the coverage flow
// (Table 1 accounting) and the diagnosis dictionary builder (src/diag)
// so both agree bit-for-bit with the cycle-accurate BistSession on what
// "pattern p" is.
//
// The stimulus is generated bit-sliced (bist::Prpg::nextLaneWord): 64
// consecutive patterns per pass, one 64-bit word per LFSR cell, so each
// shift cycle costs one XOR per phase-shifter tap for all 64 lanes at
// once. The serial Prpg::nextSlice stream that BistSession::shiftCycle
// consumes is its test oracle (Flow.PrpgExactStatesMatchSessionShift).
// Each block leaves every PRPG exactly lanes * shiftCyclesPerPattern()
// cycles further on, so successive blocks continue one stream, and
// widening the lane block never changes which stimulus pattern p
// receives.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "bist/prpg.hpp"
#include "core/architect.hpp"
#include "fault/fsim.hpp"

namespace lbist::core {

/// Bit-sliced PRPG stimulus for fault-simulation blocks (see the file
/// comment).
class PrpgPatternSource {
 public:
  /// Binds `core` and sizes the per-cell stimulus rows for blocks of
  /// `lane_words` 64-bit words (one of sim::isSupportedLaneWords();
  /// must match the sink simulator's width).
  explicit PrpgPatternSource(const BistReadyCore& core,
                             size_t lane_words = 1);

  /// Lane-block width in 64-bit words.
  [[nodiscard]] size_t laneWords() const { return lane_words_; }
  /// Maximum patterns per loadBlock call (64 * laneWords()).
  [[nodiscard]] size_t lanes() const { return lane_words_ * 64; }

  /// Loads sources for the next `lanes` patterns into `fsim`: PIs held 0,
  /// SE low / test-mode high, every scan cell set to the state the PRPGs
  /// shift in, lanes beyond `lanes` zero. Advances the PRPGs; successive
  /// calls emit consecutive pattern blocks. Throws std::invalid_argument
  /// unless 0 <= lanes <= lanes().
  void loadBlock(fault::FaultSimulator& fsim, int lanes);

  /// Same block semantics into a bare 2-valued simulator — consumers
  /// that need PRPG-exact states without a fault list (the soc power
  /// estimator samples switching activity this way).
  void loadBlock(sim::Simulator2v& sim, int lanes);

  /// Pins the session holds at a fixed level during capture (SE low,
  /// test-mode high) — also what deterministic top-up must respect.
  [[nodiscard]] const std::vector<std::pair<GateId, bool>>& fixedPins()
      const {
    return fixed_;
  }

 private:
  void computeCellWords(int lanes);

  /// One clock domain's PRPG with its sliced plan, its nextLaneWord
  /// output buffer, and the map from that buffer to scan cells.
  struct Domain {
    bist::Prpg prpg;
    bist::Prpg::SlicedPlan plan;
    // nextLaneWord output: cycle-major, one lane word per chain.
    std::vector<uint64_t> words;
    // (index into `words`, DFF ordinal) per scan cell the domain's
    // chains load.
    std::vector<std::pair<uint32_t, uint32_t>> cells;
  };

  const BistReadyCore* core_;
  size_t lane_words_;
  std::vector<Domain> domains_;
  std::vector<std::pair<GateId, bool>> fixed_;
  // Per-DFF stimulus rows for the current block, indexed by DFF ordinal
  // (position in netlist().dffs()) with stride laneWords(): DFF i's lanes
  // at [i*W, i*W + W). Non-scan DFF rows stay zero.
  std::vector<uint64_t> cell_words_;
};

}  // namespace lbist::core
