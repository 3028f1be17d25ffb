// Response dictionaries for signature-based fault diagnosis.
//
// A dictionary row is the per-pattern detection bitmap of one fault over
// an n-pattern diagnostic session, recorded at the MISR observation set
// (scan-cell D drivers — the only responses that reach the signature
// path; primary outputs are excluded unless wrapped into scan cells).
// Rows are produced by the PPSFP fault simulator's detection-recording
// mode with dropping disabled, fed PRPG-exact scan states, so pattern p
// in a row is the same stimulus the cycle-accurate BistSession shifts in
// as pattern p.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/architect.hpp"
#include "fault/fault.hpp"
#include "sim/lane.hpp"

namespace lbist::diag {

/// Packed per-fault, per-pattern detection bitmaps (one row per fault,
/// 64 patterns per word) — the MATCH stage's lookup structure.
class ResponseDictionary {
 public:
  /// Allocates an all-zero n_faults x n_patterns bitmap. Throws
  /// std::invalid_argument when n_patterns <= 0.
  ResponseDictionary(size_t n_faults, int64_t n_patterns);

  /// Row count (one per fault in the diagnosed universe).
  [[nodiscard]] size_t faults() const { return n_faults_; }
  /// Patterns covered by each row.
  [[nodiscard]] int64_t patterns() const { return n_patterns_; }

  /// ORs a 64-lane detection mask into `fault`'s row (lane l = pattern
  /// pattern_base + l).
  void recordMask(size_t fault, int64_t pattern_base, uint64_t mask);

  /// ORs a multi-word lane-block detection mask into `fault`'s row
  /// (lane l = pattern pattern_base + l); words past the row end are
  /// clamped, so a partial final block records safely.
  void recordMask(size_t fault, int64_t pattern_base, sim::LaneMask mask);

  /// True when `fault`'s response differs from golden at `pattern`.
  [[nodiscard]] bool detects(size_t fault, int64_t pattern) const;

  /// The packed row, 64 patterns per word, LSB-first.
  [[nodiscard]] std::span<const uint64_t> row(size_t fault) const {
    return {bits_.data() + fault * words_per_fault_, words_per_fault_};
  }

  /// First pattern detecting `fault`, or -1 if the row is empty.
  [[nodiscard]] int64_t firstDetection(size_t fault) const;

  /// Number of patterns detecting `fault` (its row's popcount).
  [[nodiscard]] size_t detectionCount(size_t fault) const;

  /// The row expanded to an ascending pattern-index list.
  [[nodiscard]] std::vector<int64_t> failingPatterns(size_t fault) const;

  /// Total dictionary storage in bytes (the memory side of the
  /// interval-signature memory/resolution trade-off).
  [[nodiscard]] size_t bytes() const {
    return bits_.size() * sizeof(uint64_t);
  }

 private:
  size_t n_faults_;
  int64_t n_patterns_;
  size_t words_per_fault_;
  std::vector<uint64_t> bits_;
};

/// Cost summary of one buildResponseDictionary call (bench/report
/// fodder; `seconds` is wall-clock, the rest deterministic).
struct DictionaryBuildStats {
  int64_t patterns = 0;
  size_t faults = 0;
  size_t faults_with_detections = 0;
  size_t bytes = 0;
  double seconds = 0.0;
};

/// Observation set seen by the MISRs: D drivers of scan cells only.
/// Unwrapped primary outputs never feed the signature path, so they are
/// deliberately excluded (contrast fault::defaultObservationSet).
[[nodiscard]] std::vector<GateId> misrObservationSet(const Netlist& nl);

/// Builds the full dictionary for `faults` over `n_patterns` PRPG-exact
/// patterns with `threads` fault-simulation workers, simulating
/// `lane_words`-wide lane blocks (64 * lane_words patterns per pass).
/// Dropping is disabled so every row is complete; the recording stream
/// comes from the simulator's serial merge, so the result is
/// bit-identical for every thread count AND every lane width (rows are
/// full per-pattern bitmaps — block-boundary placement cannot show).
/// Faults with no structural path to the MISR observation set are
/// marked untestable in `faults` and left empty. Throws
/// std::invalid_argument when n_patterns <= 0, before touching `faults`.
[[nodiscard]] ResponseDictionary buildResponseDictionary(
    const core::BistReadyCore& core, fault::FaultList& faults,
    int64_t n_patterns, uint32_t threads = 1, bool transition = false,
    DictionaryBuildStats* stats = nullptr,
    uint32_t min_faults_per_thread = 256, uint32_t lane_words = 1);

}  // namespace lbist::diag
