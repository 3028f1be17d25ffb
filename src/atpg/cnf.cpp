// Dual-rail miter construction (see cnf.hpp for the encoding story).
//
// Every rail-defining helper emits full Tseitin biconditionals, so a
// model's rail values are exactly the evalOp3 three-valued simulation
// of the stimulus it assigns — which is what lets test_sat replay SAT
// cubes through the fault simulator and treat any mismatch as an
// encoder bug rather than a heuristic gap.
//
// Stamping the template is exact: the needed set is fanin-closed, so a
// stamped op folds the same constants and emits the same clauses as a
// direct encoding, and renumbering in template order preserves variable
// order, so every clause keeps its sorted literal order.
#include "atpg/cnf.hpp"

#include <algorithm>
#include <cassert>

#include "atpg/podem.hpp"

namespace lbist::atpg {

void CnfFormula::clear() {
  num_vars_ = 0;
  pool_.clear();
  offsets_.assign(1, 0);
  contradiction_ = false;
}

void CnfFormula::addClause(std::span<const CnfLit> lits) {
  if (contradiction_) return;
  scratch_.clear();
  for (CnfLit l : lits) {
    if (l == kLitTrue) return;     // clause already satisfied
    if (l == kLitFalse) continue;  // literal can never help
    scratch_.push_back(l);
  }
  std::sort(scratch_.begin(), scratch_.end());
  scratch_.erase(std::unique(scratch_.begin(), scratch_.end()),
                 scratch_.end());
  for (size_t i = 0; i + 1 < scratch_.size(); ++i) {
    if (negateLit(scratch_[i]) == scratch_[i + 1]) return;  // tautology
  }
  if (scratch_.empty()) {
    contradiction_ = true;
    return;
  }
  pool_.insert(pool_.end(), scratch_.begin(), scratch_.end());
  offsets_.push_back(static_cast<uint32_t>(pool_.size()));
}

void CnfFormula::addRenamedClause(std::span<const CnfLit> lits,
                                  std::span<const uint32_t> var_map) {
  if (contradiction_) return;
  for (CnfLit l : lits) pool_.push_back(posLit(var_map[litVar(l)]) | (l & 1u));
  offsets_.push_back(static_cast<uint32_t>(pool_.size()));
}

// Defines y <-> AND(lits) with constant folding; returns the literal
// standing for the conjunction (possibly a sentinel or an input).
CnfLit MiterEncoder::defineAnd(CnfFormula& cnf,
                               std::span<const CnfLit> lits) {
  // Fold constants and duplicates first so trivial gates cost nothing.
  std::vector<CnfLit>& in = and_in_;
  in.clear();
  for (CnfLit l : lits) {
    if (l == kLitFalse) return kLitFalse;
    if (l == kLitTrue) continue;
    in.push_back(l);
  }
  std::sort(in.begin(), in.end());
  in.erase(std::unique(in.begin(), in.end()), in.end());
  for (size_t i = 0; i + 1 < in.size(); ++i) {
    if (negateLit(in[i]) == in[i + 1]) return kLitFalse;  // l AND NOT l
  }
  if (in.empty()) return kLitTrue;
  if (in.size() == 1) return in[0];
  const CnfLit y = posLit(cnf.newVar());
  and_big_.assign(1, y);
  for (CnfLit l : in) {
    cnf.addClause({negateLit(y), l});
    and_big_.push_back(negateLit(l));
  }
  cnf.addClause(and_big_);
  return y;
}

// Defines y <-> OR(lits) by De Morgan over defineAnd.
CnfLit MiterEncoder::defineOr(CnfFormula& cnf,
                              std::span<const CnfLit> lits) {
  or_neg_.resize(lits.size());
  for (size_t i = 0; i < lits.size(); ++i) or_neg_[i] = negateLit(lits[i]);
  return negateLit(defineAnd(cnf, or_neg_));
}

// Rails of a XOR2 in the 01X tables: definite only when both inputs are
// definite. Terms are defined last-first, spelled out rather than left
// to the compiler's argument evaluation order (numbering is pinned).
MiterEncoder::Rails MiterEncoder::xorRails(CnfFormula& cnf, Rails a,
                                           Rails b) {
  // (p AND q) OR (r AND s), the second product defined first.
  auto sumOfProducts = [&](CnfLit p, CnfLit q, CnfLit r, CnfLit s) {
    const CnfLit second = defineAnd(cnf, {r, s});
    const CnfLit first = defineAnd(cnf, {p, q});
    return defineOr(cnf, {first, second});
  };
  return {sumOfProducts(a.one, b.zero, a.zero, b.one),
          sumOfProducts(a.one, b.one, a.zero, b.zero)};
}

// Encodes the rail function of compiled op `op`, reading fanin rails
// through `railOf(slot, gate)`. Each case mirrors the corresponding
// evalOp3 branch, including controlling-value X-suppression (an AND
// with one definite-0 input is definitely 0 whatever the others).
template <typename RailFn>
MiterEncoder::Rails MiterEncoder::encodeOp(CnfFormula& cnf, uint32_t op,
                                           RailFn&& railOf) {
  using sim::OpCode;
  const std::span<const uint32_t> fan = cn_->opFanins(op);
  op_ones_.resize(fan.size());
  op_zeros_.resize(fan.size());
  for (size_t i = 0; i < fan.size(); ++i) {
    const Rails r = railOf(i, fan[i]);
    op_ones_[i] = r.one;
    op_zeros_[i] = r.zero;
  }
  auto in = [&](size_t i) { return Rails{op_ones_[i], op_zeros_[i]}; };
  switch (cn_->opcode(op)) {
    case OpCode::kBuf:
      return in(0);
    case OpCode::kNot:
      return railsNot(in(0));
    case OpCode::kAnd2:
    case OpCode::kAndN:
      return {defineAnd(cnf, op_ones_), defineOr(cnf, op_zeros_)};
    case OpCode::kNand2:
    case OpCode::kNandN:
      return {defineOr(cnf, op_zeros_), defineAnd(cnf, op_ones_)};
    case OpCode::kOr2:
    case OpCode::kOrN:
      return {defineOr(cnf, op_ones_), defineAnd(cnf, op_zeros_)};
    case OpCode::kNor2:
    case OpCode::kNorN:
      return {defineAnd(cnf, op_zeros_), defineOr(cnf, op_ones_)};
    case OpCode::kXor2:
      return xorRails(cnf, in(0), in(1));
    case OpCode::kXnor2:
      return railsNot(xorRails(cnf, in(0), in(1)));
    case OpCode::kXorN:
    case OpCode::kXnorN: {
      Rails acc = railsConst(false);
      for (size_t i = 0; i < fan.size(); ++i) acc = xorRails(cnf, acc, in(i));
      return cn_->opcode(op) == OpCode::kXnorN ? railsNot(acc) : acc;
    }
    case OpCode::kMux2: {
      // evalOp3: s==0 -> d0, s==1 -> d1, s==X -> d0 if d0==d1 else X.
      // The consensus term (d0 and d1 agree) covers the X-select case.
      // Terms are defined last-first, as in xorRails.
      const Rails s = in(2);
      auto rail = [&](CnfLit d0, CnfLit d1) {  // one rail of each data pin
        const CnfLit agree = defineAnd(cnf, {d0, d1});
        const CnfLit sel1 = defineAnd(cnf, {s.one, d1});
        const CnfLit sel0 = defineAnd(cnf, {s.zero, d0});
        return defineOr(cnf, {sel0, sel1, agree});
      };
      return {rail(in(0).one, in(1).one), rail(in(0).zero, in(1).zero)};
    }
  }
  assert(false && "unknown opcode");
  return Rails{};
}

MiterEncoder::MiterEncoder(const Netlist& nl, const sim::CompiledNetlist& cn,
                           const std::vector<GateId>& observed,
                           const std::vector<GateId>& assignable)
    : nl_(&nl),
      cn_(&cn),
      is_observed_(gateFlags(nl, observed, "MiterEncoder observed")),
      is_assignable_(gateFlags(nl, assignable, "MiterEncoder assignable")) {
  const size_t n = nl.numGates();
  fixed_.assign(n, kNotFixed);
  in_cone_.assign(n, 0);
  needed_.assign(n, 0);
  faulty_.assign(n, Rails{});
  dvar_.assign(n, 0);
}

void MiterEncoder::fixSource(GateId id, bool value) {
  requireSource(*nl_, id, "MiterEncoder::fixSource");
  fixed_[id.v] = value ? 1 : 0;
  is_assignable_[id.v] = 0;
  template_dirty_ = true;
}

void MiterEncoder::rebuildTemplate() {
  const size_t n = nl_->numGates();
  tmpl_.clear();
  tmpl_rails_.assign(n, Rails{});
  tmpl_sources_.clear();
  // Sources in gate order, then ops in stream order.
  for (uint32_t g = 0; g < n; ++g) {
    if (cn_->opOf(GateId{g}) != sim::CompiledNetlist::kNoOp) continue;
    const CellKind kind = nl_->gate(GateId{g}).kind;
    if (fixed_[g] != kNotFixed) {
      tmpl_rails_[g] = railsConst(fixed_[g] != 0);
    } else if (kind == CellKind::kConst0 || kind == CellKind::kConst1) {
      tmpl_rails_[g] = railsConst(kind == CellKind::kConst1);
    } else if (is_assignable_[g] != 0) {
      const uint32_t v = tmpl_.newVar();
      tmpl_sources_.push_back(GateId{g});
      tmpl_rails_[g] = {posLit(v), negLit(v)};
    }
    // Otherwise an unbound X source: both rails false.
  }
  const size_t ops = cn_->numOps();
  op_var_off_.resize(ops + 1);
  op_clause_off_.resize(ops + 1);
  for (uint32_t op = 0; op < ops; ++op) {
    op_var_off_[op] = static_cast<uint32_t>(tmpl_.numVars());
    op_clause_off_[op] = static_cast<uint32_t>(tmpl_.numClauses());
    tmpl_rails_[cn_->opGate(op)] = encodeOp(
        tmpl_, op, [&](size_t, uint32_t src) { return tmpl_rails_[src]; });
  }
  op_var_off_[ops] = static_cast<uint32_t>(tmpl_.numVars());
  op_clause_off_[ops] = static_cast<uint32_t>(tmpl_.numClauses());
  var_map_.resize(tmpl_.numVars());
  template_dirty_ = false;
}

MiterEncoder::Rails MiterEncoder::goodRails(uint32_t g) const {
  auto renamed = [&](CnfLit l) {
    if (l == kLitTrue || l == kLitFalse) return l;
    return posLit(var_map_[litVar(l)]) | (l & 1u);
  };
  return {renamed(tmpl_rails_[g].one), renamed(tmpl_rails_[g].zero)};
}

void MiterEncoder::encodeFault(const fault::Fault& f, FaultMiter& out) {
  if (template_dirty_) rebuildTemplate();
  CnfFormula& cnf = out.cnf;
  cnf.clear();
  out.stimulus.clear();
  out.trivially_untestable = false;
  out.ops_encoded = 0;
  const Gate& site_gate = nl_->gate(f.gate);
  // Site polarity, exactly as the PODEM engines force it: only sa1
  // holds the site at 1; sa0 and the transition polarities hold it 0.
  const bool faulty_one = f.type == fault::FaultType::kStuckAt1;
  out.direct =
      f.pin != fault::kOutputPin && site_gate.kind == CellKind::kDff;
  if (out.direct && (site_gate.flags & kFlagScanCell) == 0) {
    out.trivially_untestable = true;  // capture of a non-scan cell is blind
    return;
  }

  // Fault output cone: comb closure from the site, in BFS order.
  for (uint32_t g : cone_list_) in_cone_[g] = 0;
  cone_list_.clear();
  if (!out.direct) {
    in_cone_[f.gate.v] = 1;
    cone_list_.push_back(f.gate.v);
    for (size_t cursor = 0; cursor < cone_list_.size(); ++cursor) {
      for (const sim::CompiledNetlist::FanoutEntry& e :
           cn_->combFanout(cone_list_[cursor])) {
        if (in_cone_[e.gate] != 0) continue;
        in_cone_[e.gate] = 1;
        cone_list_.push_back(e.gate);
      }
    }
    // An empty observed cone is a structural redundancy proof (the same
    // check the PODEM engines make).
    if (std::none_of(cone_list_.begin(), cone_list_.end(),
                     [&](uint32_t g) { return is_observed_[g] != 0; })) {
      out.trivially_untestable = true;
      return;
    }
  }

  // Good-machine support: the cone (its good rails feed the D
  // variables) closed under comb fanins.
  for (uint32_t g : needed_list_) needed_[g] = 0;
  needed_list_.clear();
  auto require = [&](uint32_t g) {
    if (needed_[g] != 0) return;
    needed_[g] = 1;
    needed_list_.push_back(g);
  };
  if (out.direct) {
    require(site_gate.fanins[f.pin].v);
  } else {
    for (uint32_t g : cone_list_) require(g);
  }
  for (size_t cursor = 0; cursor < needed_list_.size(); ++cursor) {
    const uint32_t op = cn_->opOf(GateId{needed_list_[cursor]});
    if (op == sim::CompiledNetlist::kNoOp) continue;
    for (uint32_t src : cn_->opFanins(op)) require(src);
  }

  // Stamp the needed sources and ops, renumbered to the next variables.
  for (uint32_t v = 0; v < tmpl_sources_.size(); ++v) {
    if (needed_[tmpl_sources_[v].v] == 0) continue;
    var_map_[v] = cnf.newVar();
    out.stimulus.push_back({tmpl_sources_[v], var_map_[v]});
  }
  for (uint32_t op = 0; op < cn_->numOps(); ++op) {
    if (needed_[cn_->opGate(op)] == 0) continue;
    for (uint32_t v = op_var_off_[op]; v < op_var_off_[op + 1]; ++v) {
      var_map_[v] = cnf.newVar();
    }
    for (uint32_t c = op_clause_off_[op]; c < op_clause_off_[op + 1]; ++c) {
      cnf.addRenamedClause(tmpl_.clause(c), var_map_);
    }
  }

  if (out.direct) {
    // Justification-only: the capture itself observes the D pin, so the
    // miter is the good machine plus a unit clause holding the driver
    // at the activation value.
    const Rails r = goodRails(site_gate.fanins[f.pin].v);
    cnf.addClause({faulty_one ? r.zero : r.one});
    return;
  }

  // Faulty-machine rails for cone gates; everything outside the cone
  // aliases the good machine.
  const Rails site_forced = railsConst(faulty_one);
  for (uint32_t g : cone_list_) faulty_[g] = Rails{};
  if (f.pin == fault::kOutputPin) faulty_[f.gate.v] = site_forced;
  for (uint32_t op = 0; op < cn_->numOps(); ++op) {
    const uint32_t g = cn_->opGate(op);
    if (in_cone_[g] == 0) continue;
    if (f.pin == fault::kOutputPin && g == f.gate.v) continue;
    faulty_[g] = encodeOp(cnf, op, [&](size_t slot, uint32_t src) {
      if (g == f.gate.v && slot == f.pin) return site_forced;
      return in_cone_[src] != 0 ? faulty_[src] : goodRails(src);
    });
    ++out.ops_encoded;
  }

  // D variables: d(g) asserts both machines definite and opposite on
  // net g. Soundness needs only the d -> difference direction; the
  // chain/seed/detection clauses below force a propagation path to
  // exist, which is where the pruning comes from.
  for (uint32_t g : cone_list_) dvar_[g] = cnf.newVar();
  for (uint32_t g : cone_list_) {
    const CnfLit d = posLit(dvar_[g]);
    const Rails gd = goodRails(g);
    const Rails& fd = faulty_[g];
    cnf.addClause({negateLit(d), gd.one, gd.zero});
    cnf.addClause({negateLit(d), fd.one, fd.zero});
    cnf.addClause({negateLit(d), negateLit(gd.one), negateLit(fd.one)});
    cnf.addClause({negateLit(d), negateLit(gd.zero), negateLit(fd.zero)});
    // Chain: a difference anywhere but an observed net must reach a
    // cone fanout.
    if (is_observed_[g] != 0) continue;
    clause_.assign(1, negateLit(d));
    for (const sim::CompiledNetlist::FanoutEntry& e : cn_->combFanout(g)) {
      if (in_cone_[e.gate] != 0) clause_.push_back(posLit(dvar_[e.gate]));
    }
    cnf.addClause(clause_);
  }
  // Activation seed (the site must differ) and detection (some observed
  // net must differ).
  cnf.addClause({posLit(dvar_[f.gate.v])});
  clause_.clear();
  for (uint32_t g : cone_list_) {
    if (is_observed_[g] != 0) clause_.push_back(posLit(dvar_[g]));
  }
  cnf.addClause(clause_);
}

}  // namespace lbist::atpg
