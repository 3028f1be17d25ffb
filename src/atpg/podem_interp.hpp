// Interpreted-reference PODEM engine.
//
// This is the original Gate-record-walking implementation: objective /
// backtrace / imply over `Netlist::gate()` records with Word3v
// conversions, one full dual-machine re-evaluation per search attempt.
// It survives as the differential-testing reference for the compiled
// engine (atpg/podem.hpp) — same role evalInterpreted() plays for the
// compiled two-valued kernel — and as the baseline bench_atpg measures
// speedups against. New callers should use Podem.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "atpg/podem.hpp"
#include "dft/cop.hpp"
#include "fault/fault.hpp"
#include "netlist/levelize.hpp"
#include "netlist/netlist.hpp"

namespace lbist::atpg {

/// Reference PODEM over interpreted Gate records. Same public contract
/// as Podem: deterministic for a given (netlist, observed, assignable,
/// options, fault) — thread- and call-history-independent.
class PodemInterpreted final : public PodemEngine {
 public:
  /// `observed`: nets the tester sees. `assignable`: sources ATPG may
  /// drive (scan-cell outputs and unwrapped PIs). Other sources are X
  /// unless fixed. Throws std::invalid_argument on a GateId outside
  /// `nl`.
  PodemInterpreted(const Netlist& nl, const std::vector<GateId>& observed,
                   const std::vector<GateId>& assignable,
                   AtpgOptions opts = {});

  /// Holds a source at a constant for every run (SE = 0, test_mode = 1).
  /// Throws std::invalid_argument on a gate outside the netlist or one
  /// that is not a source.
  void fixSource(GateId id, bool value) override;

  /// Generates a cube detecting `f`, or reports untestable/aborted.
  AtpgStatus generate(const fault::Fault& f, TestCube& out) override;

  /// Chronological backtracks consumed by the last generate() call.
  [[nodiscard]] size_t backtracksUsed() const override {
    return backtracks_used_;
  }

 private:
  // Three-valued scalar encoding.
  enum : uint8_t { kV0 = 0, kV1 = 1, kVX = 2 };

  struct Assignment {
    GateId source;
    uint8_t value;
    bool tried_both;
  };

  /// Why the last objective() returned nothing. Activation conflicts and
  /// missing X-paths are sound prunes (3-valued evaluation is monotone in
  /// assignments); an inactionable frontier is a heuristic limitation, so
  /// a search that exhausted through one reports kAborted, never a
  /// redundancy proof.
  enum class BlockReason : uint8_t {
    kNone,
    kActivationConflict,
    kNoXPath,
    kNoActionableFrontier,
  };

  void resetValues();
  void assign(GateId source, uint8_t v);
  void propagateFrom(GateId start);
  [[nodiscard]] uint8_t evalGood(GateId id) const;
  [[nodiscard]] uint8_t evalFaulty(GateId id) const;
  [[nodiscard]] bool faultActivated() const;
  [[nodiscard]] bool faultAtObserved() const;
  [[nodiscard]] bool xPathExists();
  [[nodiscard]] std::optional<std::pair<GateId, uint8_t>> objective();
  [[nodiscard]] std::optional<std::pair<GateId, uint8_t>>
  propagationObjective(GateId gate);
  [[nodiscard]] std::optional<std::pair<GateId, uint8_t>> resolveFaultyX(
      GateId net);
  [[nodiscard]] std::pair<GateId, uint8_t> backtrace(GateId net, uint8_t v);
  [[nodiscard]] AtpgStatus searchOnce(bool direct, TestCube& out);
  [[nodiscard]] bool saltBit(GateId g) const;

  const Netlist* nl_;
  Levelized lev_;
  Netlist::FanoutMap fanout_;
  // Built before cop_, which indexes by the observed ids they validate.
  std::vector<uint8_t> is_observed_;
  std::vector<uint8_t> is_assignable_;
  dft::CopMetrics cop_;
  AtpgOptions opts_;
  std::vector<std::pair<GateId, uint8_t>> fixed_;

  std::vector<uint8_t> gval_;
  std::vector<uint8_t> fval_;

  // Current fault context.
  fault::Fault fault_{};
  std::vector<uint8_t> in_cone_;       // gates in the fault's output cone
  std::vector<GateId> cone_list_;      // the cone as a list (hot scans)
  std::vector<GateId> cone_observed_;  // observed nets inside the cone
  std::vector<uint32_t> xpath_stamp_;  // epoch-stamped visited set
  uint32_t xpath_serial_ = 0;

  std::vector<std::vector<uint32_t>> level_queue_;
  std::vector<uint32_t> queued_stamp_;
  uint32_t serial_ = 0;

  size_t backtracks_used_ = 0;
  uint64_t salt_ = 0;
  BlockReason block_reason_ = BlockReason::kNone;
};

}  // namespace lbist::atpg
