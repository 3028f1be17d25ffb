// Tseitin gate->CNF encoding of stuck-at fault miters over the compiled
// netlist tables (the first half of the SAT-based hard-tail engine; the
// CDCL solver consuming these formulas lives in atpg/sat.hpp).
//
// The encoding is dual-rail 01X-exact: every net carries two literals
// (`one` = definitely 1, `zero` = definitely 0, neither = X), so the
// formula models exactly the three-valued semantics of
// CompiledNetlist::evalOp3 that both PODEM engines search under. A
// satisfying assignment is therefore a three-valued test cube, and an
// UNSAT verdict proves that no such cube exists — the same verdict
// universe as PODEM, which is what makes the engine-agreement contract
// (ARCHITECTURE.md contract 7) checkable.
//
// The miter instantiates one good machine over the input support of the
// fault cone, one faulty machine over the fault output cone only (nets
// outside the cone share the good machine's rails), and difference (D)
// variables with forward D-chain propagation clauses: the fault site
// must differ, a difference on a non-observed net must reach one of its
// cone fanouts, and some observed net must differ. The D-chain is
// equisatisfiable with the plain "some observed net differs" miter —
// any detected difference traces back to the site through
// definitely-differing nets, because a gate whose fanins are all
// 01X-compatible between the machines cannot produce definite opposite
// outputs — and prunes the search hard.
//
// The fault-free good machine is encoded once per encoder, as a
// template over the whole netlist; each target stamps the ops it needs
// and encodes only its faulty cone and D clauses.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "fault/fault.hpp"
#include "netlist/netlist.hpp"
#include "sim/compiled.hpp"

namespace lbist::atpg {

/// CNF literal: variable << 1 | sign, sign 1 meaning negated — plus the
/// two constant sentinels below, so rail aliases can carry foldable
/// constants (fixed sources, the forced fault site) without burning
/// solver variables.
using CnfLit = uint32_t;

/// Constant-true literal sentinel (folded away by CnfFormula).
inline constexpr CnfLit kLitTrue = 0xfffffffeu;
/// Constant-false literal sentinel (folded away by CnfFormula).
inline constexpr CnfLit kLitFalse = 0xffffffffu;

/// Positive literal of `var`.
[[nodiscard]] inline constexpr CnfLit posLit(uint32_t var) {
  return var << 1;
}
/// Negative literal of `var`.
[[nodiscard]] inline constexpr CnfLit negLit(uint32_t var) {
  return (var << 1) | 1u;
}
/// Complement of a literal; maps kLitTrue <-> kLitFalse.
[[nodiscard]] inline constexpr CnfLit negateLit(CnfLit l) { return l ^ 1u; }
/// Variable index of a (non-sentinel) literal.
[[nodiscard]] inline constexpr uint32_t litVar(CnfLit l) { return l >> 1; }
/// True when the literal is negated.
[[nodiscard]] inline constexpr bool litSign(CnfLit l) {
  return (l & 1u) != 0;
}

/// Growable clause database with constant folding: clauses containing
/// kLitTrue (or a literal and its complement) are dropped, kLitFalse
/// literals and duplicates are removed, and an emptied clause marks the
/// whole formula contradictory. Storage is one flat literal pool plus
/// offsets, so the solver loads it with two bulk copies.
class CnfFormula {
 public:
  /// Empties the formula, keeping its storage for the next one.
  void clear();

  /// Allocates a fresh variable and returns its index.
  uint32_t newVar() { return num_vars_++; }

  /// Adds one clause (with the folding described on the class).
  void addClause(std::span<const CnfLit> lits);

  /// Initializer-list convenience overload of addClause.
  void addClause(std::initializer_list<CnfLit> lits) {
    addClause(std::span<const CnfLit>(lits.begin(), lits.size()));
  }

  /// Adds a folded clause of another CnfFormula with each variable v
  /// renamed to var_map[v]; an order-preserving map stores it exactly as
  /// addClause would.
  void addRenamedClause(std::span<const CnfLit> lits,
                        std::span<const uint32_t> var_map);

  /// Number of variables allocated so far.
  [[nodiscard]] size_t numVars() const { return num_vars_; }
  /// Number of stored (post-folding) clauses.
  [[nodiscard]] size_t numClauses() const { return offsets_.size() - 1; }
  /// Literals of clause `i`.
  [[nodiscard]] std::span<const CnfLit> clause(size_t i) const {
    return {pool_.data() + offsets_[i], pool_.data() + offsets_[i + 1]};
  }
  /// True once an empty clause was added: the formula is UNSAT without
  /// any search.
  [[nodiscard]] bool contradiction() const { return contradiction_; }

 private:
  uint32_t num_vars_ = 0;
  std::vector<CnfLit> pool_;
  std::vector<uint32_t> offsets_ = {0};
  std::vector<CnfLit> scratch_;
  bool contradiction_ = false;
};

/// One free stimulus variable of an encoded miter: the model value of
/// `var` is the value assignable source `source` is loaded with.
struct StimulusVar {
  GateId source;
  uint32_t var = 0;
};

/// An encoded fault miter, ready for the CDCL solver. When
/// `trivially_untestable` is set the structural checks (no observed net
/// in the fault cone, non-scan direct site) already proved redundancy
/// and `cnf` is empty; `direct` marks DFF data-pin targets, which are
/// justification-only (the scan capture itself observes the pin).
struct FaultMiter {
  CnfFormula cnf;
  std::vector<StimulusVar> stimulus;
  bool trivially_untestable = false;
  bool direct = false;
  /// Ops Tseitin-encoded for this target (its faulty cone): the
  /// atpg.sat.ops_encoded work tally; no effect on the formula.
  uint64_t ops_encoded = 0;
};

/// Builds FaultMiter formulas for one netlist. The encoder owns the
/// good-machine template and all scratch, so one encoder serves one
/// thread's encodeFault calls without allocating once warm.
class MiterEncoder {
 public:
  /// `cn` must be the compiled form of `nl` and outlive the encoder.
  /// `observed` are the capture-visible nets (PO drivers plus scan
  /// D-drivers), `assignable` the controllable sources (PIs plus scan
  /// cell outputs) — the same sets the PODEM engines take. Throws
  /// std::invalid_argument on a GateId outside `nl`.
  MiterEncoder(const Netlist& nl, const sim::CompiledNetlist& cn,
               const std::vector<GateId>& observed,
               const std::vector<GateId>& assignable);

  /// Pins source `id` to `value` in every later encode (test-mode
  /// constants). Throws std::invalid_argument unless `id` is a source.
  void fixSource(GateId id, bool value);

  /// Encodes the dual-rail miter of `f` (see file comment) into `out`.
  /// Stuck-at-1 forces the site to 1; every other polarity forces it to
  /// 0 — the same site semantics the PODEM engines use.
  void encodeFault(const fault::Fault& f, FaultMiter& out);

 private:
  // Dual rails of one net: definitely 1, definitely 0, neither = X.
  struct Rails {
    CnfLit one = kLitFalse;
    CnfLit zero = kLitFalse;
  };
  static Rails railsConst(bool v) {
    return v ? Rails{kLitTrue, kLitFalse} : Rails{kLitFalse, kLitTrue};
  }
  // 01X inversion is a rail swap — no clauses.
  static Rails railsNot(Rails r) { return {r.zero, r.one}; }

  static constexpr uint8_t kNotFixed = 2;

  void rebuildTemplate();
  [[nodiscard]] Rails goodRails(uint32_t g) const;
  template <typename RailFn>
  Rails encodeOp(CnfFormula& cnf, uint32_t op, RailFn&& railOf);
  CnfLit defineAnd(CnfFormula& cnf, std::span<const CnfLit> lits);
  CnfLit defineOr(CnfFormula& cnf, std::span<const CnfLit> lits);
  CnfLit defineAnd(CnfFormula& cnf, std::initializer_list<CnfLit> lits) {
    return defineAnd(cnf, std::span<const CnfLit>(lits.begin(), lits.size()));
  }
  CnfLit defineOr(CnfFormula& cnf, std::initializer_list<CnfLit> lits) {
    return defineOr(cnf, std::span<const CnfLit>(lits.begin(), lits.size()));
  }
  Rails xorRails(CnfFormula& cnf, Rails a, Rails b);

  const Netlist* nl_;
  const sim::CompiledNetlist* cn_;
  std::vector<uint8_t> is_observed_;
  std::vector<uint8_t> is_assignable_;
  std::vector<uint8_t> fixed_;  // per gate: 0, 1 or kNotFixed

  // Good-machine template (rebuilt lazily after fixSource). Variable v
  // < tmpl_sources_.size() binds tmpl_sources_[v]; op `op` owns the
  // variables and clauses from op_var_off_/op_clause_off_[op] to [op+1].
  bool template_dirty_ = true;
  CnfFormula tmpl_;
  std::vector<Rails> tmpl_rails_;  // per gate
  std::vector<GateId> tmpl_sources_;
  std::vector<uint32_t> op_var_off_;
  std::vector<uint32_t> op_clause_off_;
  std::vector<uint32_t> var_map_;  // template var -> this target's var

  // Per-target and gate-encoding scratch.
  std::vector<uint8_t> in_cone_;
  std::vector<uint32_t> cone_list_;
  std::vector<uint8_t> needed_;
  std::vector<uint32_t> needed_list_;
  std::vector<Rails> faulty_;
  std::vector<uint32_t> dvar_;
  std::vector<CnfLit> clause_;
  std::vector<CnfLit> op_ones_;
  std::vector<CnfLit> op_zeros_;
  std::vector<CnfLit> and_in_;
  std::vector<CnfLit> and_big_;
  std::vector<CnfLit> or_neg_;
};

}  // namespace lbist::atpg
