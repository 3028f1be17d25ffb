// Multi-clock-domain sequential simulators (two- and three-valued).
//
// A "pulse" is one active clock edge delivered to a *set* of domains at
// the same instant: combinational logic is evaluated from the current
// state, then exactly the flip-flops of the pulsed domains load their D
// values. The BIST clock-gating block (src/bist/clocking.*) lowers its
// edge timeline onto sequences of pulse() calls, which is what makes the
// double-capture scheme and inter-domain capture staggering (paper
// Fig. 2) cycle-accurate in simulation.
//
// A pulse can also run a pulse program (sim/pulse_program.hpp): only the
// ops the pulsed live flip-flops' next states need are evaluated, which
// leaves every live DFF exactly where a full pulse would. After a program
// pulse only that program's gates (and the sources) are current; every
// other gate keeps its word from an earlier evaluation until the next full
// pulse or settle().
#pragma once

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "sim/pulse_program.hpp"
#include "sim/sim2v.hpp"
#include "sim/sim3v.hpp"

namespace lbist::sim {

/// Two-valued sequential simulator: word-parallel state + per-domain
/// clock pulses over the compiled combinational core.
class SeqSimulator {
 public:
  /// Binds the netlist; DFF states start at 0.
  explicit SeqSimulator(const Netlist& nl);

  /// Sets a primary-input word for subsequent evaluation.
  void setInput(GateId pi, uint64_t word) { sim_.setSource(pi, word); }
  /// Overwrites one DFF's state word (scan load).
  void setState(GateId dff, uint64_t word) { sim_.setSource(dff, word); }
  /// Current state word of a DFF.
  [[nodiscard]] uint64_t state(GateId dff) const { return sim_.value(dff); }

  /// Sets every DFF state to `word` (per-lane broadcast).
  void resetState(uint64_t word = 0);

  /// If seeded, X-source outputs are re-randomized before every pulse,
  /// modelling their nondeterminism in two-valued simulation.
  void randomizeXSources(uint64_t seed);

  /// One active edge for each domain in `domains` simultaneously.
  void pulse(std::span<const DomainId> domains);
  /// Single-domain convenience overload of pulse().
  void pulse(DomainId domain) { pulse({&domain, 1}); }
  /// One active edge for every domain (classic synchronous cycle).
  void pulseAll() { pulse(all_domains_); }
  /// One active edge that evaluates only `program`'s ops and loads only
  /// its DFFs. The inputs must hold the program's held levels; the
  /// program must come from a PulseAnalysis of this simulator's netlist.
  /// Live DFFs end bit-identical to the matching full pulse.
  void pulse(const PulseProgram& program);

  /// Evaluates combinational logic without clocking anything (to inspect
  /// steady-state values, e.g. PO reads between pulses).
  void settle() { sim_.eval(); }

  /// Value word of any gate as of the last evaluation: after a full
  /// pulse() or settle() every gate is current; after a program pulse
  /// only that program's gates and the sources are.
  [[nodiscard]] uint64_t value(GateId id) const { return sim_.value(id); }
  /// The bound netlist.
  [[nodiscard]] const Netlist& netlist() const { return sim_.netlist(); }
  /// The compiled tables pulse programs index into.
  [[nodiscard]] const CompiledNetlist& compiled() const {
    return sim_.compiled();
  }

 private:
  void drawXSources();

  Simulator2v sim_;
  std::vector<std::vector<GateId>> dffs_by_domain_;
  std::vector<DomainId> all_domains_;
  std::vector<uint64_t> next_;  // captured D values, one per pulsed DFF
  std::mt19937_64 xrng_;
  bool randomize_x_ = false;
};

/// Three-valued counterpart of SeqSimulator (power-on X analysis,
/// X-bounding verification).
class SeqSimulator3v {
 public:
  /// Binds the netlist; DFF states start at X.
  explicit SeqSimulator3v(const Netlist& nl);

  /// Sets a primary-input word for subsequent evaluation.
  void setInput(GateId pi, Word3v w) { sim_.setSource(pi, w); }
  /// Overwrites one DFF's state word (scan load).
  void setState(GateId dff, Word3v w) { sim_.setSource(dff, w); }
  /// Current state word of a DFF.
  [[nodiscard]] Word3v state(GateId dff) const { return sim_.value(dff); }

  /// Sets every DFF state to unknown (power-on).
  void resetStateAllX();
  /// Sets every DFF state to a known word (per-lane broadcast).
  void resetState(uint64_t word);

  /// One active edge for each domain in `domains` simultaneously.
  void pulse(std::span<const DomainId> domains);
  /// Single-domain convenience overload of pulse().
  void pulse(DomainId domain) { pulse({&domain, 1}); }
  /// One active edge for every domain (classic synchronous cycle).
  void pulseAll() { pulse(all_domains_); }
  /// Evaluates combinational logic without clocking anything.
  void settle() { sim_.eval(); }

  /// Value word of any gate after the last pulse()/settle().
  [[nodiscard]] Word3v value(GateId id) const { return sim_.value(id); }
  /// The bound netlist.
  [[nodiscard]] const Netlist& netlist() const { return sim_.netlist(); }

 private:
  Simulator3v sim_;
  std::vector<std::vector<GateId>> dffs_by_domain_;
  std::vector<DomainId> all_domains_;
  std::vector<Word3v> next_;
};

}  // namespace lbist::sim
