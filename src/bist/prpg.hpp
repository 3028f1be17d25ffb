// PRPG (pseudo-random pattern generator) and ODC (output data compressor)
// stacks, one pair per clock domain (paper Fig. 1).
//
// PRPG = LFSR -> phase shifter -> optional space expander -> scan chains.
// ODC  = scan chains -> optional space compactor -> MISR.
//
// Prpg emits its stream two ways: nextSlice() steps one shift cycle at a
// time (what the cycle-accurate BistSession consumes), and nextLaneWord()
// emits the same stream bit-sliced, 64 consecutive patterns per call
// (what block fault simulation consumes). Both advance the same LFSR, so
// they can be interleaved freely.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "bist/lfsr.hpp"
#include "bist/phase_shifter.hpp"
#include "bist/spatial.hpp"

namespace lbist::bist {

struct PrpgConfig {
  int length = 19;          // LFSR cells (the paper uses 19 on both cores)
  uint64_t seed = 1;
  int chains = 1;           // scan chains fed in this clock domain
  /// Phase-shifter channels; 0 means one per chain (no expander). A value
  /// p < chains inserts a p->chains space expander.
  int ps_channels = 0;
  PhaseShifterOptions shifter;
};

class Prpg {
 public:
  explicit Prpg(const PrpgConfig& cfg);

  void loadSeed(uint64_t seed);

  /// Emits the per-chain stimulus bits for the current shift cycle into
  /// `chain_bits` (size == chains()), then advances the LFSR one cycle.
  void nextSlice(std::span<uint8_t> chain_bits);

  /// Precomputed GF(2) index lists for nextLaneWord(): the rows of the
  /// LFSR transition matrix, the phase-shifter taps, the expander taps,
  /// and the one-pattern jump A^cycles_per_pattern. Build once per
  /// (PRPG configuration, pattern length) and reuse for every block.
  class SlicedPlan {
   public:
    /// Shift cycles per pattern this plan was built for.
    [[nodiscard]] int cyclesPerPattern() const { return cycles_; }

   private:
    friend class Prpg;
    int cycles_ = 0;
    int length_ = 0;
    int channels_ = 0;
    int chains_ = 0;
    Gf2Matrix jump_;
    // CSR lists: entries [begin[i], begin[i+1]) of idx belong to row i.
    // next: LFSR cell i's next value XORs the cells of row i of A.
    std::vector<uint32_t> next_begin_;
    std::vector<uint8_t> next_idx_;
    // tap: phase-shifter channel c XORs its tap cells.
    std::vector<uint32_t> tap_begin_;
    std::vector<uint8_t> tap_idx_;
    // exp: chain j XORs its expander channels (empty without expander).
    std::vector<uint32_t> exp_begin_;
    std::vector<uint32_t> exp_idx_;
  };

  /// Plan for patterns of `cycles_per_pattern` (>= 0) shift cycles.
  [[nodiscard]] SlicedPlan slicedPlan(int cycles_per_pattern) const;

  /// Bit-sliced nextSlice() over `patterns` (0..64) consecutive patterns
  /// of plan.cyclesPerPattern() shift cycles each. Writes
  /// out[k * chains() + c] (out.size() == cycles * chains()): bit l is
  /// the chain-c bit nextSlice() would emit at shift cycle k of pattern
  /// l, and lanes >= `patterns` are 0. Leaves the PRPG exactly
  /// patterns * cycles further on, as that many nextSlice() calls would.
  /// Throws std::invalid_argument when `plan` was built for another
  /// configuration or the sizes disagree.
  void nextLaneWord(const SlicedPlan& plan, int patterns,
                    std::span<uint64_t> out);

  /// Chain bit for the current cycle without advancing (inspection).
  [[nodiscard]] uint8_t peekChainBit(int chain) const;

  [[nodiscard]] int chains() const { return cfg_.chains; }
  [[nodiscard]] uint64_t cyclesElapsed() const { return cycles_; }
  [[nodiscard]] const Lfsr& lfsr() const { return lfsr_; }
  [[nodiscard]] const PhaseShifter& shifter() const { return shifter_; }
  [[nodiscard]] const SpaceExpander* expander() const {
    return expander_ ? &*expander_ : nullptr;
  }

  /// Gate-equivalent hardware cost (LFSR FFs + XOR taps + expander XORs),
  /// for the Table 1 overhead accounting.
  [[nodiscard]] double gateEquivalents() const;

 private:
  PrpgConfig cfg_;
  Lfsr lfsr_;
  PhaseShifter shifter_;
  std::optional<SpaceExpander> expander_;
  std::vector<uint8_t> ps_out_;
  std::vector<uint64_t> ps_words_;  // nextLaneWord channel lane words
  uint64_t cycles_ = 0;
};

struct OdcConfig {
  int misr_length = 19;
  int chains = 1;
  /// When false (the paper's production setting, section 3) the chains
  /// feed the MISR directly and misr_length must be >= chains.
  bool use_compactor = false;
};

class Odc {
 public:
  explicit Odc(const OdcConfig& cfg);

  /// Compacts one shift-cycle slice of scan-out bits (size == chains()).
  void compact(std::span<const uint8_t> chain_out);

  [[nodiscard]] std::vector<uint64_t> signature() const {
    return misr_.signatureWords();
  }
  [[nodiscard]] std::string signatureHex() const {
    return misr_.signatureHex();
  }
  void reset() { misr_.reset(); }

  [[nodiscard]] int chains() const { return cfg_.chains; }
  [[nodiscard]] const WideMisr& misr() const { return misr_; }
  [[nodiscard]] const SpaceCompactor* compactor() const {
    return compactor_ ? &*compactor_ : nullptr;
  }

  [[nodiscard]] double gateEquivalents() const;

 private:
  OdcConfig cfg_;
  WideMisr misr_;
  std::optional<SpaceCompactor> compactor_;
  std::vector<uint8_t> misr_in_;
};

/// Input selector (paper Fig. 1): chooses between the PRPG stream and an
/// externally supplied deterministic (top-up ATPG) stream per chain.
class InputSelector {
 public:
  enum class Mode : uint8_t { kRandom, kExternal };

  explicit InputSelector(int chains)
      : external_(static_cast<size_t>(chains), 0),
        discard_(static_cast<size_t>(chains), 0) {}

  void setMode(Mode m) { mode_ = m; }
  [[nodiscard]] Mode mode() const { return mode_; }

  /// Loads the external slice used while in kExternal mode.
  void setExternalSlice(std::span<const uint8_t> bits);

  /// Produces this cycle's chain stimulus from `prpg` or the external
  /// slice depending on mode. Always advances the PRPG (it free-runs).
  void select(Prpg& prpg, std::span<uint8_t> out);

 private:
  Mode mode_ = Mode::kRandom;
  std::vector<uint8_t> external_;
  std::vector<uint8_t> discard_;  // PRPG output dropped in kExternal mode
};

}  // namespace lbist::bist
