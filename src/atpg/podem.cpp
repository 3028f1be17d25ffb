#include "atpg/podem.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "obs/obs.hpp"

namespace lbist::atpg {

namespace {

using sim::CompiledNetlist;
using sim::OpCode;

uint8_t inv3(uint8_t v) { return v == 2 ? 2 : static_cast<uint8_t>(1 - v); }

/// True when the value pair carries a fault effect (both known, unequal).
bool hasD(uint8_t g, uint8_t f) { return g != 2 && f != 2 && g != f; }

}  // namespace

bool TestCube::compatibleWith(const TestCube& other) const {
  for (size_t i = 0; i < other.care_sources.size(); ++i) {
    for (size_t j = 0; j < care_sources.size(); ++j) {
      if (care_sources[j] == other.care_sources[i] &&
          care_values[j] != other.care_values[i]) {
        return false;
      }
    }
  }
  return true;
}

void TestCube::mergeFrom(const TestCube& other) {
  for (size_t i = 0; i < other.care_sources.size(); ++i) {
    bool present = false;
    for (GateId g : care_sources) {
      if (g == other.care_sources[i]) present = true;
    }
    if (!present) {
      care_sources.push_back(other.care_sources[i]);
      care_values.push_back(other.care_values[i]);
    }
  }
}

namespace {

[[noreturn]] void rejectGate(const char* what, GateId id, const char* why) {
  throw std::invalid_argument(std::string(what) + ": gate " +
                              std::to_string(id.v) + why);
}

}  // namespace

std::vector<uint8_t> gateFlags(const Netlist& nl,
                               const std::vector<GateId>& ids,
                               const char* what) {
  std::vector<uint8_t> flags(nl.numGates(), 0);
  for (GateId id : ids) {
    if (id.v >= nl.numGates()) rejectGate(what, id, " is outside the netlist");
    flags[id.v] = 1;
  }
  return flags;
}

void requireSource(const Netlist& nl, GateId id, const char* what) {
  if (id.v >= nl.numGates()) rejectGate(what, id, " is outside the netlist");
  if (isCombinational(nl.gate(id).kind)) {
    rejectGate(what, id, " is not a source");
  }
}

Podem::Podem(const Netlist& nl, const std::vector<GateId>& observed,
             const std::vector<GateId>& assignable, AtpgOptions opts)
    : nl_(&nl),
      // CompiledNetlist copies everything it needs, so the Levelized
      // may be a temporary.
      cn_(nl, Levelized(nl)),
      is_observed_(gateFlags(nl, observed, "Podem observed")),
      is_assignable_(gateFlags(nl, assignable, "Podem assignable")),
      cop_(dft::computeCop(nl, observed)),
      opts_(opts) {
  gval_.assign(nl.numGates(), kVX);
  fval_.assign(nl.numGates(), kVX);
  queued_stamp_.assign(nl.numGates(), 0);
  level_queue_.resize(cn_.maxLevel() + 1);
  in_cone_.assign(nl.numGates(), 0);
  xpath_stamp_.assign(nl.numGates(), 0);
  d_pos_.assign(nl.numGates(), kNoDPos);
}

void Podem::updateD(uint32_t g) {
  const bool d = hasD(gval_[g], fval_[g]);
  uint32_t& pos = d_pos_[g];
  if (d == (pos != kNoDPos)) return;
  if (d) {
    pos = static_cast<uint32_t>(d_list_.size());
    d_list_.push_back(g);
  } else {
    const uint32_t last = d_list_.back();
    d_list_[pos] = last;
    d_pos_[last] = pos;
    d_list_.pop_back();
    pos = kNoDPos;
  }
}

void Podem::fixSource(GateId id, bool value) {
  requireSource(*nl_, id, "Podem::fixSource");
  fixed_.emplace_back(id, value ? 1 : 0);
  is_assignable_[id.v] = 0;
  baseline_dirty_ = true;
}

void Podem::rebuildBaseline() {
  baseline_.assign(nl_->numGates(), kVX);
  nl_->forEachGate([&](GateId id, const Gate& g) {
    if (g.kind == CellKind::kConst0) baseline_[id.v] = kV0;
    if (g.kind == CellKind::kConst1) baseline_[id.v] = kV1;
  });
  for (const auto& [id, v] : fixed_) baseline_[id.v] = v;
  cn_.eval3(baseline_.data());
  baseline_dirty_ = false;
}

uint8_t Podem::evalFaulty3(uint32_t op) const {
  if (cn_.opGate(op) == fault_.gate.v) {
    if (fault_.pin == fault::kOutputPin) return faulty_const_;
    return cn_.evalOp3(op, [&](size_t slot, uint32_t src) -> uint8_t {
      return slot == fault_.pin ? faulty_const_ : fval_[src];
    });
  }
  return cn_.evalOp3(op,
                     [&](size_t, uint32_t src) { return fval_[src]; });
}

void Podem::setupFault() {
  // Two memcpys restore the fault-free all-X state; the faulty machine
  // then diverges only where the site forcing propagates.
  std::copy(baseline_.begin(), baseline_.end(), gval_.begin());
  std::copy(baseline_.begin(), baseline_.end(), fval_.begin());
  for (uint32_t g : d_list_) d_pos_[g] = kNoDPos;
  d_list_.clear();
  trail_.clear();
  const uint32_t s = fault_.gate.v;
  const uint32_t op = cn_.opOf(fault_.gate);
  if (fault_.pin == fault::kOutputPin) {
    if (fval_[s] != faulty_const_) {
      fval_[s] = faulty_const_;
      updateD(s);
      propagateFrom(s);
    }
  } else if (op != CompiledNetlist::kNoOp) {
    const uint8_t nf = evalFaulty3(op);
    if (nf != fval_[s]) {
      fval_[s] = nf;
      updateD(s);
      propagateFrom(s);
    }
  }
  // The site forcing is part of the search's floor state, not an
  // undoable implication.
  trail_.clear();
}

void Podem::propagateFrom(uint32_t start) {
  ++serial_;
  size_t queued = 0;
  uint32_t min_level = static_cast<uint32_t>(level_queue_.size());
  auto schedule = [&](uint32_t g) {
    for (const CompiledNetlist::FanoutEntry& e : cn_.combFanout(g)) {
      if (queued_stamp_[e.gate] == serial_) continue;
      queued_stamp_[e.gate] = serial_;
      level_queue_[e.level].push_back(e.gate);
      min_level = std::min(min_level, e.level);
      ++queued;
    }
  };
  schedule(start);
  for (uint32_t l = min_level; queued > 0 && l < level_queue_.size(); ++l) {
    auto& bucket = level_queue_[l];
    for (size_t i = 0; i < bucket.size(); ++i) {
      const uint32_t g = bucket[i];
      --queued;
      const uint32_t op = cn_.opOf(GateId{g});
      const uint8_t ng =
          cn_.evalOp3(op, [&](size_t, uint32_t src) { return gval_[src]; });
      const uint8_t nf = evalFaulty3(op);
      if (ng == gval_[g] && nf == fval_[g]) continue;
      ++implications_used_;
      trail_.push_back({g, gval_[g], fval_[g]});
      gval_[g] = ng;
      fval_[g] = nf;
      updateD(g);
      schedule(g);
    }
    bucket.clear();
  }
}

void Podem::assign(GateId source, uint8_t v) {
  const uint32_t s = source.v;
  trail_.push_back({s, gval_[s], fval_[s]});
  gval_[s] = v;
  // Source-site stuck faults keep their forced value; comb sites are
  // forced inside evalFaulty3.
  if (source == fault_.gate && fault_.pin == fault::kOutputPin &&
      cn_.opOf(source) == CompiledNetlist::kNoOp) {
    fval_[s] = faulty_const_;
  } else {
    fval_[s] = v;
  }
  updateD(s);
  propagateFrom(s);
}

void Podem::undoTo(size_t mark) {
  while (trail_.size() > mark) {
    const TrailEntry& e = trail_.back();
    gval_[e.gate] = e.g;
    fval_[e.gate] = e.f;
    updateD(e.gate);
    trail_.pop_back();
  }
}

bool Podem::faultActivated() const {
  const uint8_t need = fault_.type == fault::FaultType::kStuckAt1 ? 0 : 1;
  if (fault_.pin == fault::kOutputPin) {
    return gval_[fault_.gate.v] == need;
  }
  const GateId src = nl_->gate(fault_.gate).fanins[fault_.pin];
  return gval_[src.v] == need;
}

bool Podem::faultAtObserved() const {
  // O(|D|): a D on an observed net means that net is both observed and
  // in d_list_ (D values only arise inside the fault cone).
  for (uint32_t g : d_list_) {
    if (is_observed_[g] != 0) return true;
  }
  return false;
}

bool Podem::xPathExists() {
  // BFS inside the cone over gates that are X in either machine, starting
  // from gates carrying a D, looking for an observed net reachable through
  // X-valued gates. Epoch-stamped visited set: no per-call allocation.
  ++xpath_serial_;
  xpath_queue_.clear();
  auto seen_get = [&](uint32_t g) { return xpath_stamp_[g] == xpath_serial_; };
  auto seen_set = [&](uint32_t g) { xpath_stamp_[g] = xpath_serial_; };
  for (uint32_t g : d_list_) {
    if (!seen_get(g)) {
      seen_set(g);
      xpath_queue_.push_back(GateId{g});
    }
  }
  // A pin fault's D lives inside the site gate until it propagates; once
  // the activation value is justified, the site itself is a D source even
  // though no net carries a D yet.
  if (fault_.pin != fault::kOutputPin && faultActivated() &&
      !seen_get(fault_.gate.v)) {
    seen_set(fault_.gate.v);
    xpath_queue_.push_back(fault_.gate);
  }
  // An X-ish seed that is itself observed already has a zero-length
  // X-path (e.g. a pin fault on a PO-driving gate whose output is still
  // unresolved).
  for (const GateId g : xpath_queue_) {
    if (is_observed_[g.v] != 0 && (gval_[g.v] == kVX || fval_[g.v] == kVX)) {
      return true;
    }
  }
  while (!xpath_queue_.empty()) {
    const GateId g = xpath_queue_.back();
    xpath_queue_.pop_back();
    for (const CompiledNetlist::FanoutEntry& e : cn_.combFanout(g.v)) {
      const uint32_t t = e.gate;
      if (in_cone_[t] == 0 || seen_get(t)) continue;
      const bool xish = gval_[t] == kVX || fval_[t] == kVX;
      if (!xish) continue;
      if (is_observed_[t] != 0) return true;
      seen_set(t);
      xpath_queue_.push_back(GateId{t});
    }
  }
  // A D sitting directly on an observed X-ish net was handled above; also
  // accept a D source that is itself observed (success path catches it).
  return false;
}

std::optional<std::pair<GateId, uint8_t>> Podem::resolveFaultyX(GateId net) {
  // Descend through the not-yet-resolved faulty-machine cone to a source
  // the good machine can still assign. Resolving such a source can turn a
  // faulty-X input of a frontier gate into a D, enabling propagation the
  // good-machine-only backtrace cannot reach.
  GateId cur = net;
  size_t guard = nl_->numGates();
  while (guard-- > 0) {
    const uint32_t op = cn_.opOf(cur);
    if (op == CompiledNetlist::kNoOp) {
      if (is_assignable_[cur.v] != 0 && gval_[cur.v] == kVX) {
        const bool high = (cop_.c1[cur.v] >= 0.5) != saltBit(cur);
        return std::make_pair(cur, static_cast<uint8_t>(high ? 1 : 0));
      }
      return std::nullopt;
    }
    GateId next;
    for (uint32_t f : cn_.opFanins(op)) {
      if (fval_[f] == kVX) {
        next = GateId{f};
        break;
      }
    }
    if (!next.valid()) return std::nullopt;
    cur = next;
  }
  return std::nullopt;
}

std::optional<std::pair<GateId, uint8_t>> Podem::propagationObjective(
    GateId gate) {
  const uint32_t op = cn_.opOf(gate);
  const auto fanins = cn_.opFanins(op);
  switch (cn_.opcode(op)) {
    case OpCode::kAnd2:
    case OpCode::kNand2:
    case OpCode::kAndN:
    case OpCode::kNandN:
    case OpCode::kOr2:
    case OpCode::kNor2:
    case OpCode::kOrN:
    case OpCode::kNorN: {
      const OpCode oc = cn_.opcode(op);
      const uint8_t noncontrolling =
          (oc == OpCode::kAnd2 || oc == OpCode::kNand2 ||
           oc == OpCode::kAndN || oc == OpCode::kNandN)
              ? 1
              : 0;
      for (uint32_t f : fanins) {
        if (gval_[f] == kVX) {
          return std::make_pair(GateId{f}, noncontrolling);
        }
      }
      break;
    }
    case OpCode::kXor2:
    case OpCode::kXnor2:
    case OpCode::kXorN:
    case OpCode::kXnorN:
      for (uint32_t f : fanins) {
        if (gval_[f] == kVX) {
          return std::make_pair(
              GateId{f}, static_cast<uint8_t>(saltBit(GateId{f}) ? 1 : 0));
        }
      }
      break;
    case OpCode::kMux2: {
      const uint32_t sel = fanins[2];
      if (gval_[sel] == kVX) {
        // Steer toward a data pin carrying D if one is known.
        const uint32_t d1 = fanins[1];
        const bool d1_has_d = hasD(gval_[d1], fval_[d1]);
        return std::make_pair(GateId{sel},
                              static_cast<uint8_t>(d1_has_d ? 1 : 0));
      }
      const uint32_t data = gval_[sel] == 1 ? fanins[1] : fanins[0];
      if (gval_[data] == kVX) {
        return std::make_pair(
            GateId{data}, static_cast<uint8_t>(saltBit(GateId{data}) ? 1 : 0));
      }
      break;
    }
    default:  // kBuf / kNot: output follows input; no good-machine choice
      break;
  }
  // No good-machine-X input to drive: try resolving a faulty-machine-X
  // input instead.
  for (uint32_t f : fanins) {
    if (fval_[f] == kVX) {
      if (auto r = resolveFaultyX(GateId{f})) return r;
    }
  }
  return std::nullopt;
}

std::optional<std::pair<GateId, uint8_t>> Podem::objective() {
  block_reason_ = BlockReason::kNone;
  const uint8_t activate_v =
      fault_.type == fault::FaultType::kStuckAt1 ? 0 : 1;
  // 1. Activation objective.
  GateId act_net = fault_.gate;
  if (fault_.pin != fault::kOutputPin) {
    act_net = nl_->gate(fault_.gate).fanins[fault_.pin];
  }
  if (gval_[act_net.v] == kVX) return std::make_pair(act_net, activate_v);
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
  // The D-frontier is the X-ish-output combinational fanout of the
  // D-carrier set (a fanout of a D gate has a D input by definition),
  // plus the activated site of a pin fault (its internal forced pin is
  // the D source). Collected from d_list_, never by scanning the cone.
  frontier_.clear();
  ++xpath_serial_;  // reuse the epoch stamp as the dedup set
  auto consider = [&](GateId id) {
    if (xpath_stamp_[id.v] == xpath_serial_) return;
    xpath_stamp_[id.v] = xpath_serial_;
    if (cn_.opOf(id) == CompiledNetlist::kNoOp) return;
    if (gval_[id.v] == kVX || fval_[id.v] == kVX) frontier_.push_back(id);
  };
  for (uint32_t g : d_list_) {
    for (const sim::CompiledNetlist::FanoutEntry& e : cn_.combFanout(g)) {
      if (in_cone_[e.gate] != 0) consider(GateId{e.gate});
    }
  }
  if (fault_.pin != fault::kOutputPin) consider(fault_.gate);
  std::sort(frontier_.begin(), frontier_.end(), [&](GateId a, GateId b) {
    if (cop_.obs[a.v] != cop_.obs[b.v]) return cop_.obs[a.v] > cop_.obs[b.v];
    return a.v < b.v;
  });
  for (GateId fg : frontier_) {
    if (auto obj = propagationObjective(fg)) return obj;
  }
  // A D is alive and an X-path exists, but no actionable assignment was
  // found. This block is heuristic, so exhausting the search from here
  // must not be reported as a redundancy proof.
  block_reason_ = BlockReason::kNoActionableFrontier;
  return std::nullopt;
}

std::pair<GateId, uint8_t> Podem::backtrace(GateId net, uint8_t v) {
  while (true) {
    if (is_assignable_[net.v] != 0) return {net, v};
    const uint32_t op = cn_.opOf(net);
    if (op == CompiledNetlist::kNoOp) return {GateId{}, v};  // dead end
    const auto fanins = cn_.opFanins(op);
    switch (cn_.opcode(op)) {
      case OpCode::kBuf:
        net = GateId{fanins[0]};
        break;
      case OpCode::kNot:
        net = GateId{fanins[0]};
        v = inv3(v);
        break;
      case OpCode::kAnd2:
      case OpCode::kNand2:
      case OpCode::kAndN:
      case OpCode::kNandN:
      case OpCode::kOr2:
      case OpCode::kNor2:
      case OpCode::kOrN:
      case OpCode::kNorN: {
        const OpCode oc = cn_.opcode(op);
        const bool inverting = oc == OpCode::kNand2 || oc == OpCode::kNandN ||
                               oc == OpCode::kNor2 || oc == OpCode::kNorN;
        const uint8_t side_v = inverting ? inv3(v) : v;
        const bool and_like = oc == OpCode::kAnd2 || oc == OpCode::kNand2 ||
                              oc == OpCode::kAndN || oc == OpCode::kNandN;
        // For AND: output 0 needs one 0-input (pick easiest-to-0 = lowest
        // c1); output 1 needs all 1s (pick hardest-to-1 = lowest c1).
        // For OR the dual: both cases pick highest c1.
        GateId pick;
        const bool flip = saltBit(net);
        const bool pick_low = and_like != flip;
        double best = pick_low ? 2.0 : -1.0;
        for (uint32_t f : fanins) {
          if (gval_[f] != kVX) continue;
          const double c1 = cop_.c1[f];
          if (pick_low ? c1 < best : c1 > best) {
            best = c1;
            pick = GateId{f};
          }
        }
        if (!pick.valid()) return {GateId{}, v};
        net = pick;
        v = side_v;
        break;
      }
      case OpCode::kXor2:
      case OpCode::kXnor2:
      case OpCode::kXorN:
      case OpCode::kXnorN: {
        const OpCode oc = cn_.opcode(op);
        uint8_t parity =
            (oc == OpCode::kXnor2 || oc == OpCode::kXnorN) ? 1 : 0;
        GateId pick;
        for (uint32_t f : fanins) {
          if (gval_[f] == kVX) {
            if (!pick.valid()) pick = GateId{f};
          } else {
            parity ^= gval_[f];
          }
        }
        if (!pick.valid()) return {GateId{}, v};
        net = pick;
        v = static_cast<uint8_t>(v ^ parity);
        break;
      }
      case OpCode::kMux2: {
        const uint32_t sel = fanins[2];
        if (gval_[sel] != kVX) {
          net = GateId{gval_[sel] == 1 ? fanins[1] : fanins[0]};
          // v unchanged
        } else {
          // Prefer a data input already at the wanted value.
          const uint32_t d0 = fanins[0];
          const uint32_t d1 = fanins[1];
          if (gval_[d0] == v) {
            net = GateId{sel};
            v = 0;
          } else if (gval_[d1] == v) {
            net = GateId{sel};
            v = 1;
          } else if (gval_[d0] == kVX) {
            net = GateId{d0};
          } else if (gval_[d1] == kVX) {
            net = GateId{d1};
          } else {
            net = GateId{sel};
            v = 0;
          }
        }
        break;
      }
    }
  }
}

AtpgStatus Podem::generate(const fault::Fault& f, TestCube& out) {
  OBS_SPAN("atpg.target");
  const AtpgStatus status = generateImpl(f, out);
  OBS_COUNT("atpg.targets", 1);
  OBS_COUNT("atpg.backtracks", backtracks_used_);
  OBS_COUNT("atpg.implications", implications_used_);
  OBS_COUNT("atpg.restarts", restarts_used_);
  switch (status) {
    case AtpgStatus::kDetected:
      OBS_COUNT("atpg.cubes", 1);
      break;
    case AtpgStatus::kUntestable:
      OBS_COUNT("atpg.untestable", 1);
      break;
    case AtpgStatus::kAborted:
      OBS_COUNT("atpg.aborts", 1);
      break;
  }
  return status;
}

AtpgStatus Podem::generateImpl(const fault::Fault& f, TestCube& out) {
  fault_ = f;
  backtracks_used_ = 0;
  implications_used_ = 0;
  restarts_used_ = 0;
  faulty_const_ =
      f.type == fault::FaultType::kStuckAt1 ? kV1 : kV0;

  // DFF data-pin faults: justification-only (the capture itself observes).
  const Gate& site_gate = nl_->gate(f.gate);
  const bool direct =
      f.pin != fault::kOutputPin && site_gate.kind == CellKind::kDff;
  if (direct && (site_gate.flags & kFlagScanCell) == 0) {
    return AtpgStatus::kUntestable;
  }

  if (baseline_dirty_) rebuildBaseline();

  // Fault output cone and the observed nets inside it.
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
      for (const CompiledNetlist::FanoutEntry& e : cn_.combFanout(g.v)) {
        if (in_cone_[e.gate] != 0) continue;
        in_cone_[e.gate] = 1;
        cone_list_.push_back(GateId{e.gate});
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
    if (attempt > 0) ++restarts_used_;
    salt_ = attempt == 0
                ? 0
                : (0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(attempt));
    last = searchOnce(direct, out);
    if (last != AtpgStatus::kAborted) return last;
  }
  return last;
}

bool Podem::saltBit(GateId g) const {
  if (salt_ == 0) return false;
  uint64_t h = salt_ ^ (static_cast<uint64_t>(g.v) * 0xD1B54A32D192ED03ULL);
  h ^= h >> 33;
  return (h & 1u) != 0;
}

AtpgStatus Podem::searchOnce(bool direct, TestCube& out) {
  const Gate& site_gate = nl_->gate(fault_.gate);
  setupFault();

  stack_.clear();
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
      for (const Decision& d : stack_) {
        out.care_sources.push_back(d.source);
        out.care_values.push_back(d.value);
      }
      return AtpgStatus::kDetected;
    }

    std::optional<std::pair<GateId, uint8_t>> obj;
    if (direct) {
      if (gval_[direct_net.v] == kVX) {
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
        stack_.push_back(
            {src, val, false, static_cast<uint32_t>(trail_.size())});
        assign(src, val);
        continue;
      }
    }

    // Backtrack: undo the top decision's implications in O(changed) via
    // the trail, flip its value if untried, else pop and keep undoing.
    bool resumed = false;
    while (!stack_.empty()) {
      Decision& top = stack_.back();
      undoTo(top.trail_mark);
      if (!top.tried_both) {
        top.tried_both = true;
        top.value = inv3(top.value);
        assign(top.source, top.value);
        ++backtracks_used_;
        if (++backtracks > static_cast<size_t>(opts_.backtrack_limit)) {
          undoTo(0);  // restore the post-setup floor before giving up
          return AtpgStatus::kAborted;
        }
        resumed = true;
        break;
      }
      stack_.pop_back();
    }
    if (!resumed && stack_.empty()) {
      return proof_complete ? AtpgStatus::kUntestable
                            : AtpgStatus::kAborted;
    }
  }
}

}  // namespace lbist::atpg
