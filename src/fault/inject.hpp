// Structural fault injection: permanently rewires a netlist so it behaves
// as a defective die. Used to validate end-to-end detection through the
// real signature path (inject -> run BIST session -> Result must be fail).
//
// injectStuckAtLanes is the word-parallel sibling: one netlist carries up
// to 64 stuck-at hypotheses at once, one per bit lane of the simulator's
// 64-bit words (parallel fault simulation, Seshu 1965). Each hypothesis
// site gets a force cell (site AND K0) OR K1, where K0 and K1 are new
// primary inputs whose lane words choose, per lane, whether the site is
// read as itself, as 0 or as 1. Site rewiring follows injectStuckAt
// exactly, so lane l of a lane session (core::BistSession) is
// bit-identical to a session on injectStuckAt's die of hypothesis l.
#pragma once

#include <span>
#include <vector>

#include "fault/fault.hpp"
#include "netlist/netlist.hpp"

namespace lbist::fault {

/// Hardwires a stuck-at fault into `nl`: an output fault replaces every
/// use of the site net with a constant; a pin fault ties just that pin.
/// Transition faults cannot be hardwired into a zero-delay netlist and
/// are rejected.
void injectStuckAt(Netlist& nl, const Fault& f);

/// The mask inputs that select one hypothesis's lane at its site's force
/// cell (keep AND site) OR force.
struct LaneHypothesis {
  GateId keep;   // K0: a lane whose bit is 0 reads the site as 0
  GateId force;  // K1: a lane whose bit is 1 reads the site as 1
  bool stuck_high = false;
};

/// Most hypotheses one lane netlist carries: one per bit of a word.
inline constexpr size_t kMaxLaneHypotheses = 64;

/// Adds one force cell per distinct site of `hypotheses` to `nl` and
/// returns, per hypothesis in order, the masks of its site. An output
/// fault moves every use of the gate onto the force cell; a pin fault
/// rewires only that pin (injectStuckAt's semantics). With K0 all ones and
/// K1 all zeros every force cell passes its site through, so unselected
/// lanes are the good machine. Throws std::invalid_argument for an empty
/// or over-long (> kMaxLaneHypotheses) list, a transition fault, or a
/// gate or pin out of range.
[[nodiscard]] std::vector<LaneHypothesis> injectStuckAtLanes(
    Netlist& nl, std::span<const Fault> hypotheses);

}  // namespace lbist::fault
