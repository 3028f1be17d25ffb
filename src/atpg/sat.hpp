// SAT-based ATPG: a self-contained CDCL solver plus a PodemEngine-
// compatible wrapper over the dual-rail miter encoder (atpg/cnf.hpp).
//
// This is the hard-tail engine: PODEM's chronological backtracking
// enumerates exponentially on reconvergent targets and aborts at its
// backtrack budget, while conflict-driven clause learning refutes or
// solves the same miters in a handful of conflicts. The top-up driver
// escalates PODEM-aborted targets here (TopUpConfig::sat_escalate); an
// UNSAT answer is a proof that no three-valued test exists and is
// promoted to the proved-redundant fault status, never the soft
// "untestable under this budget" abort.
//
// The solver is deliberately minimal but real: two-literal watches with
// blockers, 1-UIP conflict analysis, VSIDS decision order, phase
// saving, and Luby restarts — and deliberately deterministic: no
// randomness, no clause deletion, ties broken by variable index, so
// every solve is a pure function of the formula and the conflict
// budget. That purity is what lets the escalation path stay
// bit-identical across top-up worker counts.
// The engine reuses storage, never state: one encoder template and one
// solver, reloaded in place for every target from a fresh-solver state.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "atpg/cnf.hpp"
#include "atpg/podem.hpp"
#include "fault/fault.hpp"
#include "netlist/levelize.hpp"
#include "netlist/netlist.hpp"
#include "sim/compiled.hpp"

namespace lbist::atpg {

/// Verdict of one CDCL solve.
enum class SatResult : uint8_t {
  kSat,      // model found
  kUnsat,    // refutation found
  kUnknown,  // conflict budget exhausted
};

/// Deterministic work tallies of one CdclSolver solve.
struct SatStats {
  uint64_t conflicts = 0;
  uint64_t learned = 0;
};

/// The CDCL solver described in the file comment. load() installs a
/// formula, solve() runs the search. Deterministic by construction:
/// identical formulas and budgets always produce identical verdicts,
/// models, and stats, whatever the instance solved before.
class CdclSolver {
 public:
  /// Replaces all solver state with `cnf`, keeping only capacity, so
  /// solve() behaves exactly as on a fresh instance (a contradictory
  /// formula returns kUnsat without search). Watch-list capacity beyond
  /// a few times what `cnf` needs is released.
  void load(const CnfFormula& cnf);

  /// Runs the search. `conflict_limit` bounds total conflicts before
  /// giving up with kUnknown (0 gives up immediately unless the formula
  /// decides at level 0).
  [[nodiscard]] SatResult solve(uint64_t conflict_limit);

  /// Value of `var` in the model; only valid after solve() == kSat.
  [[nodiscard]] bool modelValue(uint32_t var) const {
    return assign_[var] == 1;
  }

  /// Work tallies of the solve so far.
  [[nodiscard]] const SatStats& stats() const { return stats_; }

  /// Bytes held by the clause arena (literal pool plus descriptors) —
  /// the solver's dominant allocation. Sized from element counts, not
  /// capacity, so the figure is deterministic across allocators.
  [[nodiscard]] size_t arenaBytes() const {
    return arena_.size() * sizeof(CnfLit) + clauses_.size() * sizeof(ClauseRef);
  }

 private:
  // One watcher: clause reference plus a cached blocker literal whose
  // satisfaction skips the clause without touching its memory.
  struct Watcher {
    uint32_t cref;
    CnfLit blocker;
  };

  [[nodiscard]] uint32_t propagate();
  void analyze(uint32_t confl, std::vector<CnfLit>& learnt,
               uint32_t& bt_level);
  void enqueue(CnfLit l, uint32_t reason);
  void cancelUntil(uint32_t level);
  void bumpVar(uint32_t v);
  void decayVarActivity();
  [[nodiscard]] uint32_t pickBranchVar();
  void heapInsert(uint32_t v);
  [[nodiscard]] uint32_t heapPop();
  void heapUp(size_t i);
  void heapDown(size_t i);
  [[nodiscard]] bool heapLess(uint32_t a, uint32_t b) const;
  uint32_t addClauseInternal(std::span<const CnfLit> lits, bool learnt);
  [[nodiscard]] bool litTrue(CnfLit l) const;
  [[nodiscard]] bool litFalse(CnfLit l) const;

  static constexpr uint32_t kNoClause = 0xffffffffu;

  uint32_t num_vars_ = 0;
  // Clause arena: literal pool plus (offset, size) descriptors; learned
  // clauses append and are never deleted (solves are budget-bounded).
  std::vector<CnfLit> arena_;
  struct ClauseRef {
    uint32_t off;
    uint32_t size;
  };
  std::vector<ClauseRef> clauses_;
  std::vector<std::vector<Watcher>> watches_;  // indexed by literal

  std::vector<uint8_t> assign_;  // 0 / 1 / 2 = unassigned
  std::vector<uint8_t> phase_;   // saved polarity per variable
  std::vector<uint32_t> level_;
  std::vector<uint32_t> reason_;
  std::vector<CnfLit> trail_;
  std::vector<uint32_t> trail_lim_;
  size_t qhead_ = 0;

  std::vector<double> activity_;
  double var_inc_ = 1.0;
  std::vector<uint32_t> heap_;      // binary max-heap of variables
  std::vector<uint32_t> heap_pos_;  // position in heap_, or npos
  std::vector<uint8_t> seen_;       // analyze() scratch
  std::vector<CnfLit> learnt_;      // solve() scratch

  bool unsat_ = false;
  SatStats stats_;
};

/// Effort knob for the SAT engine: conflicts allowed per target before
/// the solve reports kAborted (the analogue of the PODEM backtrack
/// budget, sized so real miters essentially never hit it).
struct SatOptions {
  uint64_t conflict_limit = 200'000;
};

/// Cumulative tallies across every generate() call of one SatEngine
/// (mirrored into the obs counters; exposed directly so the bench sweep
/// reports them without enabling obs).
struct SatEngineStats {
  uint64_t solves = 0;
  uint64_t cubes = 0;
  uint64_t redundant = 0;  // UNSAT verdicts (proofs of redundancy)
  uint64_t aborted = 0;    // conflict budget exhausted
  uint64_t conflicts = 0;
  uint64_t learned = 0;
  // High-water clause-arena footprint over all solves (bytes); feeds
  // the atpg.sat_arena_bytes gauge at the driver's serial merge point.
  uint64_t arena_peak_bytes = 0;
};

/// PodemEngine-compatible SAT ATPG. generate() builds the single-frame
/// miter — exactly the PODEM search space — so the top-up driver can
/// swap or escalate engines without caring which one produced a cube.
/// Unlike PODEM, kUntestable from this engine is always a completed
/// proof (UNSAT or structural), never a heuristic give-up.
class SatEngine final : public PodemEngine {
 public:
  /// Same observability contract as the Podem constructor: `observed`
  /// nets the tester sees, `assignable` sources ATPG may drive. Throws
  /// std::invalid_argument on a GateId outside `nl`.
  SatEngine(const Netlist& nl, const std::vector<GateId>& observed,
            const std::vector<GateId>& assignable, SatOptions opts = {});

  /// Holds a source at a constant for every subsequent run. Throws
  /// std::invalid_argument on a gate outside the netlist or one that is
  /// not a source.
  void fixSource(GateId id, bool value) override;

  /// Solves `f`: kDetected with a cube, kUntestable with a redundancy
  /// proof, or kAborted past the conflict budget.
  AtpgStatus generate(const fault::Fault& f, TestCube& out) override;

  /// Conflicts consumed by the last generate() call — the engine's
  /// "backtracks" for the shared abort-reporting plumbing.
  [[nodiscard]] size_t backtracksUsed() const override {
    return static_cast<size_t>(last_conflicts_);
  }

  /// Cumulative per-engine tallies (see SatEngineStats).
  [[nodiscard]] const SatEngineStats& engineStats() const { return stats_; }

 private:
  const Netlist* nl_;
  sim::CompiledNetlist cn_;
  MiterEncoder enc_;
  SatOptions opts_;
  // Storage reused for every target; encode/load reset it.
  FaultMiter miter_;
  CdclSolver solver_;
  uint64_t last_conflicts_ = 0;
  SatEngineStats stats_;
};

}  // namespace lbist::atpg
