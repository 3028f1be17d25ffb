#include "fault/inject.hpp"

#include <map>
#include <stdexcept>
#include <utility>

namespace lbist::fault {

namespace {

bool isStuckAt(const Fault& f) {
  return f.type == FaultType::kStuckAt0 || f.type == FaultType::kStuckAt1;
}

/// The net a stuck-at at `f` forces: the gate itself for an output
/// fault, the driver of the pin for a pin fault. Throws
/// std::invalid_argument when the gate or the pin is out of range.
GateId faultSiteNet(const Netlist& nl, const Fault& f) {
  if (!f.gate.valid() || f.gate.v >= nl.numGates() ||
      (f.pin != kOutputPin && f.pin >= nl.gate(f.gate).fanins.size())) {
    throw std::invalid_argument("fault site out of range");
  }
  return f.pin == kOutputPin ? f.gate : nl.gate(f.gate).fanins[f.pin];
}

}  // namespace

void injectStuckAt(Netlist& nl, const Fault& f) {
  if (!isStuckAt(f)) {
    throw std::invalid_argument(
        "only stuck-at faults can be hardwired into a zero-delay netlist");
  }
  const GateId tied = nl.addConst(f.type == FaultType::kStuckAt1);
  if (f.pin == kOutputPin) {
    nl.replaceAllUses(f.gate, tied);
  } else {
    nl.setFanin(f.gate, f.pin, tied);
  }
}

std::vector<LaneHypothesis> injectStuckAtLanes(
    Netlist& nl, std::span<const Fault> hypotheses) {
  if (hypotheses.empty() || hypotheses.size() > kMaxLaneHypotheses) {
    throw std::invalid_argument(
        "injectStuckAtLanes: a pass holds 1 to 64 hypotheses");
  }
  for (const Fault& f : hypotheses) {
    if (!isStuckAt(f)) {
      throw std::invalid_argument(
          "injectStuckAtLanes: only stuck-at faults have lanes");
    }
    (void)faultSiteNet(nl, f);
  }
  // One force cell per distinct (gate, pin) site. Each lane carries one
  // hypothesis, so when two sites chain (an output fault feeding a pin
  // fault's force cell) every lane still sees only its own force.
  std::map<std::pair<uint32_t, uint8_t>, std::pair<GateId, GateId>> sites;
  std::vector<LaneHypothesis> out;
  out.reserve(hypotheses.size());
  for (const Fault& f : hypotheses) {
    auto [it, fresh] = sites.try_emplace({f.gate.v, f.pin});
    if (fresh) {
      const GateId keep = nl.addInput({});
      const GateId force = nl.addInput({});
      const GateId site = faultSiteNet(nl, f);
      const GateId masked = nl.addGate(CellKind::kAnd, {site, keep});
      const GateId cell = nl.addGate(CellKind::kOr, {masked, force});
      if (f.pin == kOutputPin) {
        nl.replaceAllUses(f.gate, cell);
        nl.setFanin(masked, 0, f.gate);  // undo the self-loop just made
      } else {
        nl.setFanin(f.gate, f.pin, cell);
      }
      it->second = {keep, force};
    }
    out.push_back(LaneHypothesis{it->second.first, it->second.second,
                                 f.type == FaultType::kStuckAt1});
  }
  return out;
}

}  // namespace lbist::fault
