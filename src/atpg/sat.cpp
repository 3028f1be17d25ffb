// CDCL solver and SatEngine wrapper (design notes in sat.hpp).
#include "atpg/sat.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"
#include "robust/robust.hpp"

namespace lbist::atpg {

namespace {

constexpr uint32_t kNoPos = 0xffffffffu;

// Luby restart sequence 1 1 2 1 1 2 4 ... (0-based index).
uint64_t luby(uint64_t x) {
  uint64_t size = 1;
  uint64_t seq = 0;
  while (size < x + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != x) {
    size = (size - 1) >> 1;
    --seq;
    x %= size;
  }
  return uint64_t{1} << seq;
}

constexpr uint64_t kRestartUnit = 100;  // conflicts per luby unit

}  // namespace

bool CdclSolver::litTrue(CnfLit l) const {
  return assign_[litVar(l)] == (litSign(l) ? 0 : 1);
}

bool CdclSolver::litFalse(CnfLit l) const {
  return assign_[litVar(l)] == (litSign(l) ? 1 : 0);
}

void CdclSolver::load(const CnfFormula& cnf) {
  num_vars_ = static_cast<uint32_t>(cnf.numVars());
  arena_.clear();
  clauses_.clear();
  // A literal names a different net in every formula, so watch capacity
  // kept from earlier ones can far outgrow this one's need (77 MB after
  // 333 solves on a 20K-gate core): past 4x its watchers, drop, regrow.
  size_t held = 0;
  for (std::vector<Watcher>& ws : watches_) {
    held += ws.capacity();
    ws.clear();
  }
  if (held > 4 * (2 * cnf.numClauses() + 1024)) watches_.clear();
  watches_.resize(std::max(watches_.size(), size_t{num_vars_} * 2));
  assign_.assign(num_vars_, 2);
  phase_.assign(num_vars_, 0);
  level_.assign(num_vars_, 0);
  reason_.assign(num_vars_, kNoClause);
  trail_.clear();
  trail_lim_.clear();
  qhead_ = 0;
  activity_.assign(num_vars_, 0.0);
  var_inc_ = 1.0;
  // With every activity equal, inserting variables 0..n-1 in order
  // leaves each at its own index: the heap starts as the identity.
  heap_.resize(num_vars_);
  heap_pos_.resize(num_vars_);
  for (uint32_t v = 0; v < num_vars_; ++v) heap_[v] = heap_pos_[v] = v;
  seen_.assign(num_vars_, 0);
  unsat_ = false;
  stats_ = {};
  if (cnf.contradiction()) {
    unsat_ = true;
    return;
  }
  // Attach every clause before assigning anything, so the two-watch
  // invariant (no watched literal false below the current level) holds
  // by construction; the units are enqueued afterwards, in clause
  // order, and propagate through the watch machinery in solve().
  for (size_t i = 0; i < cnf.numClauses(); ++i) {
    const std::span<const CnfLit> c = cnf.clause(i);
    if (c.size() >= 2) (void)addClauseInternal(c, false);
  }
  for (size_t i = 0; i < cnf.numClauses(); ++i) {
    const std::span<const CnfLit> c = cnf.clause(i);
    if (c.size() != 1) continue;
    if (litFalse(c[0])) {
      unsat_ = true;
      return;
    }
    if (!litTrue(c[0])) enqueue(c[0], kNoClause);
  }
}

uint32_t CdclSolver::addClauseInternal(std::span<const CnfLit> lits,
                                       bool learnt) {
  assert(lits.size() >= 2);
  const uint32_t cref = static_cast<uint32_t>(clauses_.size());
  clauses_.push_back({static_cast<uint32_t>(arena_.size()),
                      static_cast<uint32_t>(lits.size())});
  arena_.insert(arena_.end(), lits.begin(), lits.end());
  const CnfLit* l = arena_.data() + clauses_.back().off;
  watches_[l[0]].push_back({cref, l[1]});
  watches_[l[1]].push_back({cref, l[0]});
  if (learnt) ++stats_.learned;
  return cref;
}

void CdclSolver::enqueue(CnfLit l, uint32_t reason) {
  const uint32_t v = litVar(l);
  assert(assign_[v] == 2);
  assign_[v] = litSign(l) ? 0 : 1;
  level_[v] = static_cast<uint32_t>(trail_lim_.size());
  reason_[v] = reason;
  trail_.push_back(l);
}

uint32_t CdclSolver::propagate() {
  while (qhead_ < trail_.size()) {
    const CnfLit p = trail_[qhead_++];
    const CnfLit not_p = negateLit(p);
    std::vector<Watcher>& ws = watches_[not_p];
    size_t i = 0;
    size_t j = 0;
    while (i < ws.size()) {
      const Watcher w = ws[i++];
      if (litTrue(w.blocker)) {
        ws[j++] = w;
        continue;
      }
      const ClauseRef cr = clauses_[w.cref];
      CnfLit* lits = arena_.data() + cr.off;
      if (lits[0] == not_p) std::swap(lits[0], lits[1]);
      if (litTrue(lits[0])) {
        ws[j++] = {w.cref, lits[0]};
        continue;
      }
      bool moved = false;
      for (uint32_t k = 2; k < cr.size; ++k) {
        if (!litFalse(lits[k])) {
          std::swap(lits[1], lits[k]);
          watches_[lits[1]].push_back({w.cref, lits[0]});
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Unit under the current assignment, or conflicting.
      ws[j++] = {w.cref, lits[0]};
      if (litFalse(lits[0])) {
        while (i < ws.size()) ws[j++] = ws[i++];
        ws.resize(j);
        qhead_ = trail_.size();
        return w.cref;
      }
      enqueue(lits[0], w.cref);
    }
    ws.resize(j);
  }
  return kNoClause;
}

void CdclSolver::analyze(uint32_t confl, std::vector<CnfLit>& learnt,
                         uint32_t& bt_level) {
  learnt.clear();
  learnt.push_back(0);  // slot for the asserting (1-UIP) literal
  const uint32_t cur_level = static_cast<uint32_t>(trail_lim_.size());
  uint32_t counter = 0;
  size_t index = trail_.size();
  uint32_t c = confl;
  bool first = true;
  CnfLit p = 0;
  do {
    const ClauseRef cr = clauses_[c];
    const CnfLit* lits = arena_.data() + cr.off;
    for (uint32_t k = first ? 0 : 1; k < cr.size; ++k) {
      const CnfLit q = lits[k];
      const uint32_t v = litVar(q);
      if (seen_[v] != 0 || level_[v] == 0) continue;
      seen_[v] = 1;
      bumpVar(v);
      if (level_[v] >= cur_level) {
        ++counter;
      } else {
        learnt.push_back(q);
      }
    }
    do {
      --index;
    } while (seen_[litVar(trail_[index])] == 0);
    p = trail_[index];
    c = reason_[litVar(p)];
    seen_[litVar(p)] = 0;
    --counter;
    first = false;
  } while (counter > 0);
  learnt[0] = negateLit(p);
  if (learnt.size() == 1) {
    bt_level = 0;
  } else {
    size_t max_i = 1;
    for (size_t k = 2; k < learnt.size(); ++k) {
      if (level_[litVar(learnt[k])] > level_[litVar(learnt[max_i])]) {
        max_i = k;
      }
    }
    std::swap(learnt[1], learnt[max_i]);
    bt_level = level_[litVar(learnt[1])];
  }
  for (CnfLit q : learnt) seen_[litVar(q)] = 0;
}

void CdclSolver::cancelUntil(uint32_t level) {
  if (trail_lim_.size() <= level) return;
  for (size_t i = trail_.size(); i-- > trail_lim_[level];) {
    const uint32_t v = litVar(trail_[i]);
    phase_[v] = assign_[v];
    assign_[v] = 2;
    reason_[v] = kNoClause;
    if (heap_pos_[v] == kNoPos) heapInsert(v);
  }
  trail_.resize(trail_lim_[level]);
  trail_lim_.resize(level);
  qhead_ = trail_.size();
}

void CdclSolver::bumpVar(uint32_t v) {
  activity_[v] += var_inc_;
  if (activity_[v] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  if (heap_pos_[v] != kNoPos) heapUp(heap_pos_[v]);
}

void CdclSolver::decayVarActivity() { var_inc_ *= (1.0 / 0.95); }

bool CdclSolver::heapLess(uint32_t a, uint32_t b) const {
  // "a is lower priority than b": smaller activity, index breaking ties
  // (lower index wins) — the determinism anchor of the whole engine.
  if (activity_[a] != activity_[b]) return activity_[a] < activity_[b];
  return a > b;
}

void CdclSolver::heapInsert(uint32_t v) {
  heap_pos_[v] = static_cast<uint32_t>(heap_.size());
  heap_.push_back(v);
  heapUp(heap_.size() - 1);
}

uint32_t CdclSolver::heapPop() {
  const uint32_t top = heap_[0];
  heap_pos_[top] = kNoPos;
  const uint32_t last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    heap_pos_[last] = 0;
    heapDown(0);
  }
  return top;
}

void CdclSolver::heapUp(size_t i) {
  const uint32_t v = heap_[i];
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (!heapLess(heap_[parent], v)) break;
    heap_[i] = heap_[parent];
    heap_pos_[heap_[i]] = static_cast<uint32_t>(i);
    i = parent;
  }
  heap_[i] = v;
  heap_pos_[v] = static_cast<uint32_t>(i);
}

void CdclSolver::heapDown(size_t i) {
  const uint32_t v = heap_[i];
  const size_t n = heap_.size();
  while (true) {
    size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heapLess(heap_[child], heap_[child + 1])) ++child;
    if (!heapLess(v, heap_[child])) break;
    heap_[i] = heap_[child];
    heap_pos_[heap_[i]] = static_cast<uint32_t>(i);
    i = child;
  }
  heap_[i] = v;
  heap_pos_[v] = static_cast<uint32_t>(i);
}

uint32_t CdclSolver::pickBranchVar() {
  while (!heap_.empty()) {
    const uint32_t v = heapPop();
    if (assign_[v] == 2) return v;
  }
  return kNoPos;
}

SatResult CdclSolver::solve(uint64_t conflict_limit) {
  if (unsat_) return SatResult::kUnsat;
  if (propagate() != kNoClause) {
    unsat_ = true;
    return SatResult::kUnsat;
  }
  uint64_t conflicts_here = 0;
  uint64_t restart_round = 0;
  uint64_t restart_budget = luby(restart_round) * kRestartUnit;
  uint64_t conflicts_this_round = 0;
  std::vector<CnfLit>& learnt = learnt_;
  while (true) {
    const uint32_t confl = propagate();
    if (confl != kNoClause) {
      ++stats_.conflicts;
      ++conflicts_here;
      ++conflicts_this_round;
      if (trail_lim_.empty()) {
        unsat_ = true;
        return SatResult::kUnsat;
      }
      uint32_t bt_level = 0;
      analyze(confl, learnt, bt_level);
      cancelUntil(bt_level);
      if (learnt.size() == 1) {
        enqueue(learnt[0], kNoClause);
      } else {
        const uint32_t cref = addClauseInternal(learnt, true);
        enqueue(learnt[0], cref);
      }
      decayVarActivity();
      if (conflicts_here >= conflict_limit) {
        cancelUntil(0);
        return SatResult::kUnknown;
      }
      if (conflicts_this_round >= restart_budget) {
        ++restart_round;
        restart_budget = luby(restart_round) * kRestartUnit;
        conflicts_this_round = 0;
        cancelUntil(0);
      }
    } else {
      const uint32_t v = pickBranchVar();
      if (v == kNoPos) return SatResult::kSat;
      trail_lim_.push_back(static_cast<uint32_t>(trail_.size()));
      enqueue(phase_[v] == 1 ? posLit(v) : negLit(v), kNoClause);
    }
  }
}

SatEngine::SatEngine(const Netlist& nl, const std::vector<GateId>& observed,
                     const std::vector<GateId>& assignable, SatOptions opts)
    : nl_(&nl),
      cn_(nl, Levelized(nl)),
      enc_(nl, cn_, observed, assignable),
      opts_(opts) {}

void SatEngine::fixSource(GateId id, bool value) {
  enc_.fixSource(id, value);
}

AtpgStatus SatEngine::generate(const fault::Fault& f, TestCube& out) {
  OBS_SPAN("atpg.sat.solve");
  OBS_COUNT("atpg.sat.solves", 1);
  ++stats_.solves;
  last_conflicts_ = 0;
  // Keyed like atpg.target.generate so one specific target can be
  // stranded deterministically whatever shard serves it. kHang charges
  // the conflict budget as exhausted without spending the wall time.
  const robust::FaultAction act =
      ROBUST_POINT("atpg.sat.solve", f.describe(*nl_),
                   robust::kCanThrow | robust::kCanHang);
  if (act == robust::FaultAction::kHang) {
    last_conflicts_ = opts_.conflict_limit;
    OBS_COUNT("atpg.sat.aborts", 1);
    ++stats_.aborted;
    return AtpgStatus::kAborted;
  }
  if (act == robust::FaultAction::kThrow) {
    throw std::runtime_error("injected solver failure on target '" +
                             f.describe(*nl_) + "'");
  }
  enc_.encodeFault(f, miter_);
  const FaultMiter& m = miter_;
  OBS_COUNT("atpg.sat.ops_encoded", m.ops_encoded);
  if (m.trivially_untestable || m.cnf.contradiction()) {
    OBS_COUNT("atpg.sat.redundant", 1);
    ++stats_.redundant;
    return AtpgStatus::kUntestable;
  }
  solver_.load(m.cnf);
  const SatResult r = solver_.solve(opts_.conflict_limit);
  last_conflicts_ = solver_.stats().conflicts;
  stats_.conflicts += solver_.stats().conflicts;
  stats_.learned += solver_.stats().learned;
  stats_.arena_peak_bytes =
      std::max<uint64_t>(stats_.arena_peak_bytes, solver_.arenaBytes());
  OBS_COUNT("atpg.sat.conflicts", solver_.stats().conflicts);
  OBS_COUNT("atpg.sat.learned", solver_.stats().learned);
  switch (r) {
    case SatResult::kSat: {
      out.care_sources.clear();
      out.care_values.clear();
      for (const StimulusVar& sv : m.stimulus) {
        out.care_sources.push_back(sv.source);
        out.care_values.push_back(solver_.modelValue(sv.var) ? 1 : 0);
      }
      OBS_COUNT("atpg.sat.cubes", 1);
      ++stats_.cubes;
      return AtpgStatus::kDetected;
    }
    case SatResult::kUnsat:
      OBS_COUNT("atpg.sat.redundant", 1);
      ++stats_.redundant;
      return AtpgStatus::kUntestable;
    case SatResult::kUnknown:
      break;
  }
  OBS_COUNT("atpg.sat.aborts", 1);
  ++stats_.aborted;
  return AtpgStatus::kAborted;
}

}  // namespace lbist::atpg
