#include "sim/pulse_program.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "sim/seqsim.hpp"

namespace lbist::sim {

namespace {

constexpr uint8_t kVariable = 2;

/// Calls `fn(gate)` for each needed fanin of op `op` under `lv` (see the
/// file comment of pulse_program.hpp for the pruning rules).
template <typename Fn>
void forEachNeeded(const CompiledNetlist& c, uint32_t op,
                   const std::vector<uint8_t>& lv, Fn&& fn) {
  const std::span<const uint32_t> f = c.opFanins(op);
  uint8_t controlling = kVariable;
  switch (c.opcode(op)) {
    case OpCode::kMux2:
      if (lv[f[2]] != kVariable) {
        fn(f[2]);
        fn(f[lv[f[2]]]);
        return;
      }
      break;
    case OpCode::kAnd2:
    case OpCode::kNand2:
    case OpCode::kAndN:
    case OpCode::kNandN:
      controlling = 0;
      break;
    case OpCode::kOr2:
    case OpCode::kNor2:
    case OpCode::kOrN:
    case OpCode::kNorN:
      controlling = 1;
      break;
    default:
      break;
  }
  if (controlling != kVariable) {
    for (uint32_t g : f) {
      if (lv[g] == controlling) {
        fn(g);
        return;
      }
    }
  }
  for (uint32_t g : f) fn(g);
}

void checkHeld(const Netlist& nl, std::span<const HeldInput> held,
               std::vector<uint8_t>& seen) {
  for (const HeldInput& h : held) {
    if (!h.gate.valid() || h.gate.v >= nl.numGates() ||
        nl.gate(h.gate).kind != CellKind::kInput) {
      throw std::invalid_argument("PulseAnalysis: held gate is not an input");
    }
    if (seen[h.gate.v] != 0) {
      throw std::invalid_argument("PulseAnalysis: input held twice");
    }
    seen[h.gate.v] = 1;
  }
}

}  // namespace

PulseAnalysis::PulseAnalysis(const SeqSimulator& sim,
                             std::span<const HeldInput> run_held,
                             std::span<const GateId> observed)
    : sim_(&sim), run_held_(run_held.begin(), run_held.end()) {
  const Netlist& nl = sim.netlist();
  const CompiledNetlist& c = sim.compiled();
  std::vector<uint8_t> seen(nl.numGates(), 0);
  checkHeld(nl, run_held_, seen);

  // Liveness fixpoint: walk the needed-fanin closure back from the D pin
  // of every live DFF; each DFF output it reaches becomes live in turn.
  // One visited mark per gate keeps the whole walk linear.
  const std::vector<uint8_t> lv = levels(run_held_);
  live_.assign(nl.numGates(), 0);
  std::vector<uint8_t> visited(nl.numGates(), 0);
  std::vector<uint32_t> live_queue;
  std::vector<uint32_t> stack;
  auto visit = [&](uint32_t g) {
    if (visited[g] != 0) return;
    visited[g] = 1;
    stack.push_back(g);
  };
  for (GateId dff : observed) {
    if (dff.v >= nl.numGates() || nl.gate(dff).kind != CellKind::kDff) {
      throw std::invalid_argument("PulseAnalysis: observed gate is not a DFF");
    }
    if (live_[dff.v] == 0) {
      live_[dff.v] = 1;
      live_queue.push_back(dff.v);
    }
  }
  while (!live_queue.empty()) {
    const uint32_t dff = live_queue.back();
    live_queue.pop_back();
    visit(nl.gate(GateId{dff}).fanins[0].v);
    while (!stack.empty()) {
      const uint32_t g = stack.back();
      stack.pop_back();
      const uint32_t op = c.opOf(GateId{g});
      if (op != CompiledNetlist::kNoOp) {
        forEachNeeded(c, op, lv, visit);
      } else if (nl.gate(GateId{g}).kind == CellKind::kDff &&
                 live_[g] == 0) {
        live_[g] = 1;
        live_queue.push_back(g);
      }
    }
  }
  for (GateId dff : nl.dffs()) {
    if (live_[dff.v] != 0) live_dffs_.push_back(dff);
  }
}

std::vector<uint8_t> PulseAnalysis::levels(
    std::span<const HeldInput> held) const {
  const Netlist& nl = sim_->netlist();
  const CompiledNetlist& c = sim_->compiled();
  std::vector<uint8_t> lv(nl.numGates(), kVariable);
  nl.forEachGate([&](GateId id, const Gate& g) {
    if (g.kind == CellKind::kConst0) lv[id.v] = 0;
    if (g.kind == CellKind::kConst1) lv[id.v] = 1;
  });
  for (const HeldInput& h : held) lv[h.gate.v] = h.high ? 1 : 0;

  // Stream order is topological, so every fanin level is final when an
  // op is reached. An op is constant when all of its needed fanins are;
  // pruned fanins are masked by the constant ones, so reading them as 0
  // does not change the result.
  for (uint32_t op = 0; op < c.numOps(); ++op) {
    bool constant = true;
    forEachNeeded(c, op, lv,
                  [&](uint32_t g) { constant &= lv[g] != kVariable; });
    if (!constant) continue;
    const uint64_t word = c.evalOp(op, [&](size_t, uint32_t g) {
      return lv[g] == 1 ? ~uint64_t{0} : uint64_t{0};
    });
    lv[c.opGate(op)] = static_cast<uint8_t>(word & 1u);
  }
  return lv;
}

PulseProgram PulseAnalysis::program(
    std::span<const DomainId> domains,
    std::span<const HeldInput> pulse_held) const {
  const Netlist& nl = sim_->netlist();
  const CompiledNetlist& c = sim_->compiled();
  std::vector<uint8_t> seen(nl.numGates(), 0);
  for (const HeldInput& h : run_held_) seen[h.gate.v] = 1;
  checkHeld(nl, pulse_held, seen);

  PulseProgram p;
  p.held = run_held_;
  p.held.insert(p.held.end(), pulse_held.begin(), pulse_held.end());
  const std::vector<uint8_t> lv = levels(p.held);

  std::vector<uint8_t> visited(nl.numGates(), 0);
  std::vector<uint32_t> stack;
  auto visit = [&](uint32_t g) {
    if (visited[g] != 0) return;
    visited[g] = 1;
    stack.push_back(g);
  };
  // Loads follow SeqSimulator::pulse: domains in the order given, DFFs
  // in netlist order within a domain.
  for (DomainId d : domains) {
    for (GateId dff : live_dffs_) {
      if (nl.gate(dff).domain != d) continue;
      const uint32_t driver = nl.gate(dff).fanins[0].v;
      p.dffs.push_back(dff.v);
      p.d_drivers.push_back(driver);
      visit(driver);
    }
  }
  while (!stack.empty()) {
    const uint32_t g = stack.back();
    stack.pop_back();
    const uint32_t op = c.opOf(GateId{g});
    if (op != CompiledNetlist::kNoOp) {
      p.ops.push_back(op);
      forEachNeeded(c, op, lv, visit);
    }
    // The pulse constants only prune further, so the closure never
    // reaches a DFF the run-constant liveness walk did not.
    assert(nl.gate(GateId{g}).kind != CellKind::kDff || live_[g] != 0);
  }
  std::sort(p.ops.begin(), p.ops.end());
  return p;
}

}  // namespace lbist::sim
