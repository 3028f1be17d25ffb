// Pulse programs: the ops one clock pulse actually needs.
//
// A full pulse (SeqSimulator::pulse) re-evaluates every combinational gate
// before the pulsed flip-flops load their D values. A run that holds most
// of its primary inputs fixed needs far less: in a BIST session the slow
// scan enable stays high for the whole shift window, so on a shift edge
// every scan mux ignores the functional logic and the next state of the
// whole core is a function of the scan path alone.
//
// PulseAnalysis captures that. It is built once per netlist from
//  * the run constants: primary inputs held at one level for the whole
//    run (tie cells are constant by kind), and
//  * the observed flip-flops: the DFFs whose states the caller reads.
// Every other primary input, every DFF output and every X-source is a
// variable source.
//
// Constant propagation over the compiled op stream gives each gate a
// level (0, 1 or variable) and a set of *needed* fanins: a mux whose
// select is constant needs only the select and the selected input, an
// AND/NAND with a constant-0 input and an OR/NOR with a constant-1 input
// need only that input, every other op needs all of its fanins. The
// pruned fanins cannot change the op's value, so evaluating the op with
// stale words on them is still exact.
//
// A DFF is *live* when it is observed or when its output reaches the D
// pin of a live DFF through needed fanins under the run constants alone.
// Dead DFFs (e.g. X-bounded non-scan flops blocked by AND(q, !test_mode))
// can never influence an observed state, so programs neither load them
// nor evaluate their cones.
//
// program(domains, pulse_held) adds the inputs fixed for one kind of
// pulse (e.g. scan enable high for shift edges), takes the backward
// closure of needed fanins from the D pins of the pulsed live DFFs, and
// keeps the closure's ops in stream order. Each program op reads only
// sources and earlier program ops (or pruned fanins), so by induction
// every value a program computes equals the full pass's value, and a
// program pulse leaves every live DFF in the state a full pulse would.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace lbist::sim {

class SeqSimulator;

/// A primary input held at one logic level.
struct HeldInput {
  GateId gate;
  bool high = false;
};

/// The work of one clock pulse (see the file comment).
struct PulseProgram {
  /// Compiled op indices to evaluate, in stream order.
  std::vector<uint32_t> ops;
  /// Live DFFs of the pulsed domains, with the gate driving each D pin
  /// (parallel arrays), so loading them never reads a Gate record.
  std::vector<uint32_t> dffs;
  std::vector<uint32_t> d_drivers;
  /// Every input level the program was built under (run constants plus
  /// the pulse's own). The simulator's inputs must hold these levels
  /// whenever the program runs.
  std::vector<HeldInput> held;
};

/// Constant propagation and liveness for one netlist under fixed run
/// constants; a factory of pulse programs (see the file comment).
class PulseAnalysis {
 public:
  /// Analyzes `sim`'s netlist and compiled tables. `run_held` are the
  /// primary inputs fixed for the whole run; `observed` are the DFFs
  /// whose states the caller reads. Throws std::invalid_argument when a
  /// held gate is not a primary input or is listed twice, or when an
  /// observed gate is not a DFF.
  PulseAnalysis(const SeqSimulator& sim, std::span<const HeldInput> run_held,
                std::span<const GateId> observed);

  /// Every live DFF, in netlist DFF order.
  [[nodiscard]] const std::vector<GateId>& liveDffs() const {
    return live_dffs_;
  }

  /// The program of one pulse of `domains` with the run constants plus
  /// `pulse_held` fixed. Throws std::invalid_argument when `pulse_held`
  /// repeats a run-held input or names a non-input gate.
  [[nodiscard]] PulseProgram program(
      std::span<const DomainId> domains,
      std::span<const HeldInput> pulse_held) const;

 private:
  /// Per-gate levels (0, 1, or kVariable) with `held` inputs fixed.
  [[nodiscard]] std::vector<uint8_t> levels(
      std::span<const HeldInput> held) const;

  const SeqSimulator* sim_;
  std::vector<HeldInput> run_held_;
  std::vector<uint8_t> live_;  // per gate: 1 for live DFFs
  std::vector<GateId> live_dffs_;
};

}  // namespace lbist::sim
