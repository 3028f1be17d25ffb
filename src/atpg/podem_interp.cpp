#include "atpg/podem_interp.hpp"

#include <algorithm>
#include <cassert>

namespace lbist::atpg {

namespace {

Word3v from3(uint8_t v) {
  switch (v) {
    case 0:
      return {0, 0};
    case 1:
      return {1, 0};
    default:
      return {0, 1};
  }
}

uint8_t to3(Word3v w) {
  if ((w.x & 1u) != 0) return 2;
  return static_cast<uint8_t>(w.v & 1u);
}

uint8_t inv3(uint8_t v) { return v == 2 ? 2 : static_cast<uint8_t>(1 - v); }

}  // namespace

PodemInterpreted::PodemInterpreted(const Netlist& nl,
                                   const std::vector<GateId>& observed,
                                   const std::vector<GateId>& assignable,
                                   AtpgOptions opts)
    : nl_(&nl),
      lev_(nl),
      fanout_(nl.buildFanoutMap()),
      is_observed_(gateFlags(nl, observed, "PodemInterpreted observed")),
      is_assignable_(gateFlags(nl, assignable, "PodemInterpreted assignable")),
      cop_(dft::computeCop(nl, observed)),
      opts_(opts) {
  gval_.assign(nl.numGates(), 2);
  fval_.assign(nl.numGates(), 2);
  queued_stamp_.assign(nl.numGates(), 0);
  level_queue_.resize(lev_.maxLevel() + 1);
}

void PodemInterpreted::fixSource(GateId id, bool value) {
  requireSource(*nl_, id, "PodemInterpreted::fixSource");
  fixed_.emplace_back(id, value ? 1 : 0);
  is_assignable_[id.v] = 0;
}

uint8_t PodemInterpreted::evalGood(GateId id) const {
  const Gate& g = nl_->gate(id);
  switch (g.kind) {
    case CellKind::kConst0:
      return 0;
    case CellKind::kConst1:
      return 1;
    case CellKind::kInput:
    case CellKind::kDff:
    case CellKind::kXSource:
      return gval_[id.v];
    default:
      break;
  }
  Word3v ins[24];
  const size_t n = g.fanins.size();
  assert(n <= 24);
  for (size_t i = 0; i < n; ++i) ins[i] = from3(gval_[g.fanins[i].v]);
  return to3(evalWord3v(g.kind, {ins, n}));
}

uint8_t PodemInterpreted::evalFaulty(GateId id) const {
  const Gate& g = nl_->gate(id);
  const bool is_site = id == fault_.gate;
  if (is_site && fault_.pin == fault::kOutputPin) {
    return fault_.type == fault::FaultType::kStuckAt1 ? 1 : 0;
  }
  switch (g.kind) {
    case CellKind::kConst0:
      return 0;
    case CellKind::kConst1:
      return 1;
    case CellKind::kInput:
    case CellKind::kDff:
    case CellKind::kXSource:
      return fval_[id.v];
    default:
      break;
  }
  Word3v ins[24];
  const size_t n = g.fanins.size();
  assert(n <= 24);
  for (size_t i = 0; i < n; ++i) {
    if (is_site && i == fault_.pin) {
      ins[i] =
          from3(fault_.type == fault::FaultType::kStuckAt1 ? uint8_t{1}
                                                           : uint8_t{0});
    } else {
      ins[i] = from3(fval_[g.fanins[i].v]);
    }
  }
  return to3(evalWord3v(g.kind, {ins, n}));
}

void PodemInterpreted::resetValues() {
  std::fill(gval_.begin(), gval_.end(), uint8_t{2});
  std::fill(fval_.begin(), fval_.end(), uint8_t{2});
  nl_->forEachGate([&](GateId id, const Gate& g) {
    if (g.kind == CellKind::kConst0) gval_[id.v] = fval_[id.v] = 0;
    if (g.kind == CellKind::kConst1) gval_[id.v] = fval_[id.v] = 1;
  });
  for (const auto& [id, v] : fixed_) {
    gval_[id.v] = v;
    fval_[id.v] = v;
  }
  for (GateId id : lev_.combOrder()) {
    gval_[id.v] = evalGood(id);
    fval_[id.v] = evalFaulty(id);
  }
  // Stuck output on a source-kind site (PI / DFF stem fault).
  if (fault_.pin == fault::kOutputPin &&
      !isCombinational(nl_->gate(fault_.gate).kind)) {
    fval_[fault_.gate.v] =
        fault_.type == fault::FaultType::kStuckAt1 ? 1 : 0;
    propagateFrom(fault_.gate);
  }
}

void PodemInterpreted::assign(GateId source, uint8_t v) {
  gval_[source.v] = v;
  // The faulty machine shares source values; the site forcing is applied
  // inside evalFaulty. Source-site stuck faults keep their forced value.
  if (source == fault_.gate && fault_.pin == fault::kOutputPin &&
      !isCombinational(nl_->gate(source).kind)) {
    fval_[source.v] =
        fault_.type == fault::FaultType::kStuckAt1 ? 1 : 0;
  } else {
    fval_[source.v] = v;
  }
  propagateFrom(source);
}

void PodemInterpreted::propagateFrom(GateId start) {
  ++serial_;
  size_t queued = 0;
  uint32_t min_level = static_cast<uint32_t>(level_queue_.size());
  auto schedule = [&](GateId g) {
    for (GateId t : fanout_.fanout(g)) {
      if (!isCombinational(nl_->gate(t).kind)) continue;
      if (queued_stamp_[t.v] == serial_) continue;
      queued_stamp_[t.v] = serial_;
      const uint32_t l = lev_.level(t);
      level_queue_[l].push_back(t.v);
      min_level = std::min(min_level, l);
      ++queued;
    }
  };
  schedule(start);
  for (uint32_t l = min_level; queued > 0 && l < level_queue_.size(); ++l) {
    auto& bucket = level_queue_[l];
    for (size_t i = 0; i < bucket.size(); ++i) {
      const GateId g{bucket[i]};
      --queued;
      const uint8_t ng = evalGood(g);
      const uint8_t nf = evalFaulty(g);
      if (ng == gval_[g.v] && nf == fval_[g.v]) continue;
      gval_[g.v] = ng;
      fval_[g.v] = nf;
      schedule(g);
    }
    bucket.clear();
  }
}

bool PodemInterpreted::faultActivated() const {
  if (fault_.pin == fault::kOutputPin) {
    const uint8_t need =
        fault_.type == fault::FaultType::kStuckAt1 ? 0 : 1;
    return gval_[fault_.gate.v] == need;
  }
  const GateId src = nl_->gate(fault_.gate).fanins[fault_.pin];
  const uint8_t need = fault_.type == fault::FaultType::kStuckAt1 ? 0 : 1;
  return gval_[src.v] == need;
}

bool PodemInterpreted::faultAtObserved() const {
  for (GateId o : cone_observed_) {
    if (gval_[o.v] != 2 && fval_[o.v] != 2 && gval_[o.v] != fval_[o.v]) {
      return true;
    }
  }
  return false;
}

bool PodemInterpreted::xPathExists() {
  // BFS inside the cone over gates that are X in either machine, starting
  // from gates carrying a D, looking for an observed net reachable through
  // X-valued gates. Epoch-stamped visited set: no per-call allocation.
  ++xpath_serial_;
  std::vector<GateId> queue;
  auto seen_get = [&](GateId g) { return xpath_stamp_[g.v] == xpath_serial_; };
  auto seen_set = [&](GateId g) { xpath_stamp_[g.v] = xpath_serial_; };
  for (GateId id : cone_list_) {
    const bool has_d =
        gval_[id.v] != 2 && fval_[id.v] != 2 && gval_[id.v] != fval_[id.v];
    if (has_d && !seen_get(id)) {
      seen_set(id);
      queue.push_back(id);
    }
  }
  // A pin fault's D lives inside the site gate until it propagates; once
  // the activation value is justified, the site itself is a D source even
  // though no net carries a D yet.
  if (fault_.pin != fault::kOutputPin && faultActivated() &&
      !seen_get(fault_.gate)) {
    seen_set(fault_.gate);
    queue.push_back(fault_.gate);
  }
  // An X-ish seed that is itself observed already has a zero-length
  // X-path (e.g. a pin fault on a PO-driving gate whose output is still
  // unresolved).
  for (const GateId g : queue) {
    if (is_observed_[g.v] != 0 &&
        (gval_[g.v] == 2 || fval_[g.v] == 2)) {
      return true;
    }
  }
  while (!queue.empty()) {
    const GateId g = queue.back();
    queue.pop_back();
    for (GateId t : fanout_.fanout(g)) {
      if (in_cone_[t.v] == 0 || seen_get(t)) continue;
      const bool xish = gval_[t.v] == 2 || fval_[t.v] == 2;
      if (!xish) continue;
      if (is_observed_[t.v] != 0) return true;
      seen_set(t);
      queue.push_back(t);
    }
  }
  // A D sitting directly on an observed X-ish net was handled above; also
  // accept a D source that is itself observed (success path catches it).
  return false;
}

std::optional<std::pair<GateId, uint8_t>> PodemInterpreted::resolveFaultyX(
    GateId net) {
  // Descend through the not-yet-resolved faulty-machine cone to a source
  // the good machine can still assign. Resolving such a source can turn a
  // faulty-X input of a frontier gate into a D, enabling propagation the
  // good-machine-only backtrace cannot reach.
  GateId cur = net;
  size_t guard = nl_->numGates();
  while (guard-- > 0) {
    const Gate& g = nl_->gate(cur);
    if (!isCombinational(g.kind)) {
      if (is_assignable_[cur.v] != 0 && gval_[cur.v] == 2) {
        const bool high = (cop_.c1[cur.v] >= 0.5) != saltBit(cur);
        return std::make_pair(cur, static_cast<uint8_t>(high ? 1 : 0));
      }
      return std::nullopt;
    }
    GateId next;
    for (GateId f : g.fanins) {
      if (fval_[f.v] == 2) {
        next = f;
        break;
      }
    }
    if (!next.valid()) return std::nullopt;
    cur = next;
  }
  return std::nullopt;
}

std::optional<std::pair<GateId, uint8_t>>
PodemInterpreted::propagationObjective(GateId gate) {
  const Gate& g = nl_->gate(gate);
  switch (g.kind) {
    case CellKind::kAnd:
    case CellKind::kNand:
    case CellKind::kOr:
    case CellKind::kNor: {
      const uint8_t noncontrolling =
          (g.kind == CellKind::kAnd || g.kind == CellKind::kNand) ? 1 : 0;
      for (GateId f : g.fanins) {
        if (gval_[f.v] == 2) return std::make_pair(f, noncontrolling);
      }
      break;
    }
    case CellKind::kXor:
    case CellKind::kXnor:
      for (GateId f : g.fanins) {
        if (gval_[f.v] == 2) {
          return std::make_pair(f, static_cast<uint8_t>(saltBit(f) ? 1 : 0));
        }
      }
      break;
    case CellKind::kMux2: {
      const GateId sel = g.fanins[2];
      if (gval_[sel.v] == 2) {
        // Steer toward a data pin carrying D if one is known.
        const GateId d1 = g.fanins[1];
        const bool d1_has_d = gval_[d1.v] != 2 && fval_[d1.v] != 2 &&
                              gval_[d1.v] != fval_[d1.v];
        return std::make_pair(sel, static_cast<uint8_t>(d1_has_d ? 1 : 0));
      }
      const GateId data = gval_[sel.v] == 1 ? g.fanins[1] : g.fanins[0];
      if (gval_[data.v] == 2) {
        return std::make_pair(data,
                              static_cast<uint8_t>(saltBit(data) ? 1 : 0));
      }
      break;
    }
    default:
      break;
  }
  // No good-machine-X input to drive: try resolving a faulty-machine-X
  // input instead.
  for (GateId f : g.fanins) {
    if (fval_[f.v] == 2) {
      if (auto r = resolveFaultyX(f)) return r;
    }
  }
  return std::nullopt;
}

std::optional<std::pair<GateId, uint8_t>> PodemInterpreted::objective() {
  block_reason_ = BlockReason::kNone;
  const uint8_t activate_v =
      fault_.type == fault::FaultType::kStuckAt1 ? 0 : 1;
  // 1. Activation objective.
  GateId act_net = fault_.gate;
  if (fault_.pin != fault::kOutputPin) {
    act_net = nl_->gate(fault_.gate).fanins[fault_.pin];
  }
  if (gval_[act_net.v] == 2) return std::make_pair(act_net, activate_v);
  if (gval_[act_net.v] != activate_v) {
    block_reason_ = BlockReason::kActivationConflict;  // sound prune
    return std::nullopt;
  }

  // 2. Propagation objectives from the D-frontier, best observability
  // first. Trying *every* frontier gate matters for completeness: the
  // best one may be blocked in the faulty machine only.
  if (!xPathExists()) {
    block_reason_ = BlockReason::kNoXPath;  // sound prune (3v monotone)
    return std::nullopt;
  }
  std::vector<GateId> frontier;
  for (GateId id : cone_list_) {
    const Gate& g = nl_->gate(id);
    if (!isCombinational(g.kind)) continue;
    const bool out_xish = gval_[id.v] == 2 || fval_[id.v] == 2;
    if (!out_xish) continue;
    bool input_d = false;
    for (GateId f : g.fanins) {
      if (gval_[f.v] != 2 && fval_[f.v] != 2 && gval_[f.v] != fval_[f.v]) {
        input_d = true;
      }
    }
    // The fault site itself is a frontier member once activated (its
    // internal forced pin is the D source).
    if (id == fault_.gate && fault_.pin != fault::kOutputPin) {
      input_d = true;
    }
    if (input_d) frontier.push_back(id);
  }
  std::sort(frontier.begin(), frontier.end(), [&](GateId a, GateId b) {
    if (cop_.obs[a.v] != cop_.obs[b.v]) return cop_.obs[a.v] > cop_.obs[b.v];
    return a.v < b.v;
  });
  for (GateId fg : frontier) {
    if (auto obj = propagationObjective(fg)) return obj;
  }
  // A D is alive and an X-path exists, but no actionable assignment was
  // found. This block is heuristic, so exhausting the search from here
  // must not be reported as a redundancy proof.
  block_reason_ = BlockReason::kNoActionableFrontier;
  return std::nullopt;
}

std::pair<GateId, uint8_t> PodemInterpreted::backtrace(GateId net, uint8_t v) {
  while (true) {
    if (is_assignable_[net.v] != 0) return {net, v};
    const Gate& g = nl_->gate(net);
    if (!isCombinational(g.kind)) return {GateId{}, v};  // dead end
    switch (g.kind) {
      case CellKind::kBuf:
        net = g.fanins[0];
        break;
      case CellKind::kNot:
        net = g.fanins[0];
        v = inv3(v);
        break;
      case CellKind::kAnd:
      case CellKind::kNand:
      case CellKind::kOr:
      case CellKind::kNor: {
        const bool inverting =
            g.kind == CellKind::kNand || g.kind == CellKind::kNor;
        const uint8_t side_v = inverting ? inv3(v) : v;
        const bool and_like =
            g.kind == CellKind::kAnd || g.kind == CellKind::kNand;
        // For AND: output 0 needs one 0-input (pick easiest-to-0 = lowest
        // c1); output 1 needs all 1s (pick hardest-to-1 = lowest c1).
        // For OR the dual: both cases pick highest c1.
        GateId pick;
        const bool flip = saltBit(net);
        const bool pick_low = and_like != flip;
        double best = pick_low ? 2.0 : -1.0;
        for (GateId f : g.fanins) {
          if (gval_[f.v] != 2) continue;
          const double c1 = cop_.c1[f.v];
          if (pick_low ? c1 < best : c1 > best) {
            best = c1;
            pick = f;
          }
        }
        if (!pick.valid()) return {GateId{}, v};
        net = pick;
        v = side_v;
        break;
      }
      case CellKind::kXor:
      case CellKind::kXnor: {
        uint8_t parity = g.kind == CellKind::kXnor ? 1 : 0;
        GateId pick;
        for (GateId f : g.fanins) {
          if (gval_[f.v] == 2) {
            if (!pick.valid()) pick = f;
          } else {
            parity ^= gval_[f.v];
          }
        }
        if (!pick.valid()) return {GateId{}, v};
        net = pick;
        v = static_cast<uint8_t>(v ^ parity);
        break;
      }
      case CellKind::kMux2: {
        const GateId sel = g.fanins[2];
        if (gval_[sel.v] != 2) {
          net = gval_[sel.v] == 1 ? g.fanins[1] : g.fanins[0];
          // v unchanged
        } else {
          // Prefer a data input already at the wanted value.
          const GateId d0 = g.fanins[0];
          const GateId d1 = g.fanins[1];
          if (gval_[d0.v] == v) {
            net = sel;
            v = 0;
          } else if (gval_[d1.v] == v) {
            net = sel;
            v = 1;
          } else if (gval_[d0.v] == 2) {
            net = d0;
          } else if (gval_[d1.v] == 2) {
            net = d1;
          } else {
            net = sel;
            v = 0;
          }
        }
        break;
      }
      default:
        return {GateId{}, v};
    }
  }
}

AtpgStatus PodemInterpreted::generate(const fault::Fault& f, TestCube& out) {
  fault_ = f;
  backtracks_used_ = 0;

  // DFF data-pin faults: justification-only (the capture itself observes).
  const Gate& site_gate = nl_->gate(f.gate);
  const bool direct =
      f.pin != fault::kOutputPin && site_gate.kind == CellKind::kDff;
  if (direct && (site_gate.flags & kFlagScanCell) == 0) {
    return AtpgStatus::kUntestable;
  }

  // Fault output cone and the observed nets inside it.
  if (in_cone_.size() != nl_->numGates()) {
    in_cone_.assign(nl_->numGates(), 0);
    xpath_stamp_.assign(nl_->numGates(), 0);
  }
  for (GateId g : cone_list_) in_cone_[g.v] = 0;  // clear previous cone
  cone_list_.clear();
  cone_observed_.clear();
  {
    const GateId seed = direct ? site_gate.fanins[f.pin] : f.gate;
    in_cone_[seed.v] = 1;
    cone_list_.push_back(seed);
    size_t cursor = 0;
    while (cursor < cone_list_.size()) {
      const GateId g = cone_list_[cursor++];
      if (is_observed_[g.v] != 0) cone_observed_.push_back(g);
      for (GateId t : fanout_.fanout(g)) {
        if (in_cone_[t.v] != 0) continue;
        if (!isCombinational(nl_->gate(t).kind)) continue;
        in_cone_[t.v] = 1;
        cone_list_.push_back(t);
      }
    }
  }
  if (cone_observed_.empty() && !direct) return AtpgStatus::kUntestable;

  // Restart loop: chronological backtracking explores the decision tree
  // exhaustively whatever the value-choice order, so any attempt may
  // produce a sound untestability proof — but a wrong *early* heuristic
  // guess can burn the whole backtrack budget. Salted restarts flip the
  // default polarities, which almost always rescues faults with dense
  // solution spaces.
  AtpgStatus last = AtpgStatus::kAborted;
  for (int attempt = 0; attempt <= opts_.restarts; ++attempt) {
    salt_ = attempt == 0
                ? 0
                : (0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(attempt));
    last = searchOnce(direct, out);
    if (last != AtpgStatus::kAborted) return last;
  }
  return last;
}

bool PodemInterpreted::saltBit(GateId g) const {
  if (salt_ == 0) return false;
  uint64_t h = salt_ ^ (static_cast<uint64_t>(g.v) * 0xD1B54A32D192ED03ULL);
  h ^= h >> 33;
  return (h & 1u) != 0;
}

AtpgStatus PodemInterpreted::searchOnce(bool direct, TestCube& out) {
  const Gate& site_gate = nl_->gate(fault_.gate);
  resetValues();

  std::vector<Assignment> stack;
  bool proof_complete = true;  // false once any heuristic block occurred
  const uint8_t activate_v =
      fault_.type == fault::FaultType::kStuckAt1 ? 0 : 1;
  const GateId direct_net =
      direct ? site_gate.fanins[fault_.pin] : GateId{};

  auto succeeded = [&] {
    if (direct) return gval_[direct_net.v] == activate_v;
    return faultAtObserved();
  };

  size_t backtracks = 0;
  while (true) {
    if (succeeded()) {
      out.care_sources.clear();
      out.care_values.clear();
      for (const Assignment& a : stack) {
        out.care_sources.push_back(a.source);
        out.care_values.push_back(a.value);
      }
      return AtpgStatus::kDetected;
    }

    std::optional<std::pair<GateId, uint8_t>> obj;
    if (direct) {
      if (gval_[direct_net.v] == 2) {
        obj = std::make_pair(direct_net, activate_v);
      } else {
        obj = std::nullopt;  // wrong value justified: conflict
      }
    } else {
      obj = objective();
    }

    bool need_backtrack = !obj.has_value();
    if (need_backtrack && !direct &&
        block_reason_ == BlockReason::kNoActionableFrontier) {
      proof_complete = false;
    }
    if (!need_backtrack) {
      const auto [src, val] = backtrace(obj->first, obj->second);
      if (!src.valid()) {
        // Greedy backtrace dead-ended (non-assignable X source); other
        // descent choices were not explored, so no redundancy proof.
        need_backtrack = true;
        proof_complete = false;
      } else {
        stack.push_back({src, val, false});
        assign(src, val);
        continue;
      }
    }

    // Backtrack.
    bool resumed = false;
    while (!stack.empty()) {
      Assignment& top = stack.back();
      if (!top.tried_both) {
        top.tried_both = true;
        top.value = inv3(top.value);
        assign(top.source, top.value);
        ++backtracks_used_;
        if (++backtracks > static_cast<size_t>(opts_.backtrack_limit)) {
          // Restore X before giving up.
          for (const Assignment& a : stack) assign(a.source, 2);
          return AtpgStatus::kAborted;
        }
        resumed = true;
        break;
      }
      assign(top.source, 2);
      stack.pop_back();
    }
    if (!resumed && stack.empty()) {
      return proof_complete ? AtpgStatus::kUntestable
                            : AtpgStatus::kAborted;
    }
  }
}

}  // namespace lbist::atpg
