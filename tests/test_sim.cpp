// Two- and three-valued simulators, sequential engine, waveforms.
#include <gtest/gtest.h>

#include <random>
#include <sstream>

#include "core/architect.hpp"
#include "fault/inject.hpp"
#include "gen/ipcore.hpp"
#include "gen/refcircuits.hpp"
#include "sim/pulse_program.hpp"
#include "sim/seqsim.hpp"
#include "sim/sim2v.hpp"
#include "sim/sim3v.hpp"
#include "sim/waveform.hpp"

namespace lbist {
namespace {

// c17 reference function (from the NAND structure).
std::pair<bool, bool> c17Reference(bool i1, bool i2, bool i3, bool i4,
                                   bool i5) {
  const bool g1 = !(i1 && i3);
  const bool g2 = !(i3 && i4);
  const bool g3 = !(i2 && g2);
  const bool g4 = !(g2 && i5);
  const bool g5 = !(g1 && g3);
  const bool g6 = !(g3 && g4);
  return {g5, g6};
}

TEST(Sim2v, C17MatchesTruthTable) {
  Netlist nl = gen::buildC17();
  sim::Simulator2v sim(nl);
  // All 32 input combinations in parallel lanes.
  for (int bit = 0; bit < 5; ++bit) {
    uint64_t w = 0;
    for (int lane = 0; lane < 32; ++lane) {
      if ((lane >> bit) & 1) w |= uint64_t{1} << lane;
    }
    sim.setSource(nl.inputs()[static_cast<size_t>(bit)], w);
  }
  sim.eval();
  for (int lane = 0; lane < 32; ++lane) {
    const auto [e1, e2] =
        c17Reference((lane >> 0) & 1, (lane >> 1) & 1, (lane >> 2) & 1,
                     (lane >> 3) & 1, (lane >> 4) & 1);
    EXPECT_EQ((sim.value(nl.outputs()[0].driver) >> lane) & 1,
              static_cast<uint64_t>(e1));
    EXPECT_EQ((sim.value(nl.outputs()[1].driver) >> lane) & 1,
              static_cast<uint64_t>(e2));
  }
}

class AdderWidth : public ::testing::TestWithParam<int> {};

TEST_P(AdderWidth, AddsCorrectlyAcrossRandomLanes) {
  const int n = GetParam();
  Netlist nl = gen::buildRippleAdder(n);
  sim::Simulator2v sim(nl);
  std::mt19937_64 rng(42 + static_cast<uint64_t>(n));

  // 64 random (a, b, cin) triples, bit i of operand in its own PI word.
  std::vector<uint64_t> a_bits(static_cast<size_t>(n));
  std::vector<uint64_t> b_bits(static_cast<size_t>(n));
  for (auto& w : a_bits) w = rng();
  for (auto& w : b_bits) w = rng();
  const uint64_t cin = rng();
  for (int i = 0; i < n; ++i) {
    sim.setSource(*nl.findGateByName("a" + std::to_string(i)),
                  a_bits[static_cast<size_t>(i)]);
    sim.setSource(*nl.findGateByName("b" + std::to_string(i)),
                  b_bits[static_cast<size_t>(i)]);
  }
  sim.setSource(*nl.findGateByName("cin"), cin);
  sim.eval();

  for (int lane = 0; lane < 64; ++lane) {
    uint64_t a = 0;
    uint64_t b = 0;
    for (int i = 0; i < n; ++i) {
      a |= ((a_bits[static_cast<size_t>(i)] >> lane) & 1) << i;
      b |= ((b_bits[static_cast<size_t>(i)] >> lane) & 1) << i;
    }
    const uint64_t expect = a + b + ((cin >> lane) & 1);
    for (int i = 0; i < n; ++i) {
      const GateId s = nl.outputs()[static_cast<size_t>(i)].driver;
      EXPECT_EQ((sim.value(s) >> lane) & 1, (expect >> i) & 1)
          << "lane " << lane << " sum bit " << i;
    }
    const GateId cout = nl.outputs()[static_cast<size_t>(n)].driver;
    EXPECT_EQ((sim.value(cout) >> lane) & 1, (expect >> n) & 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, AdderWidth,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 24, 32));

TEST(Sim3v, ControllingValuesSuppressX) {
  Netlist nl;
  const GateId a = nl.addInput("a");
  const GateId x = nl.addXSource("x");
  const GateId and_g = nl.addGate(CellKind::kAnd, {a, x});
  const GateId or_g = nl.addGate(CellKind::kOr, {a, x});
  const GateId xor_g = nl.addGate(CellKind::kXor, {a, x});
  nl.addOutput(and_g, "o_and");
  nl.addOutput(or_g, "o_or");
  nl.addOutput(xor_g, "o_xor");

  sim::Simulator3v sim(nl);
  sim.setSource(a, {0, 0});  // a = 0
  sim.eval();
  EXPECT_EQ(sim.value(and_g).x, 0u) << "0 AND X must be 0";
  EXPECT_EQ(sim.value(and_g).v, 0u);
  EXPECT_EQ(sim.value(or_g).x, ~uint64_t{0}) << "0 OR X is X";
  EXPECT_EQ(sim.value(xor_g).x, ~uint64_t{0}) << "XOR never masks X";

  sim.setSource(a, {~uint64_t{0}, 0});  // a = 1
  sim.eval();
  EXPECT_EQ(sim.value(or_g).x, 0u) << "1 OR X must be 1";
  EXPECT_EQ(sim.value(or_g).v, ~uint64_t{0});
  EXPECT_EQ(sim.value(and_g).x, ~uint64_t{0}) << "1 AND X is X";
}

TEST(Sim3v, MuxWithUnknownSelect) {
  Netlist nl;
  const GateId d0 = nl.addInput("d0");
  const GateId d1 = nl.addInput("d1");
  const GateId x = nl.addXSource("sel");
  const GateId mux = nl.addGate(CellKind::kMux2, {d0, d1, x});
  nl.addOutput(mux, "y");
  sim::Simulator3v sim(nl);
  // d0 == d1 == 1: output known 1 despite X select.
  sim.setSource(d0, {~uint64_t{0}, 0});
  sim.setSource(d1, {~uint64_t{0}, 0});
  sim.eval();
  EXPECT_EQ(sim.value(mux).x, 0u);
  EXPECT_EQ(sim.value(mux).v, ~uint64_t{0});
  // d0 != d1: X.
  sim.setSource(d0, {0, 0});
  sim.eval();
  EXPECT_EQ(sim.value(mux).x, ~uint64_t{0});
}

TEST(Sim3v, AgreesWithSim2vWhenNoX) {
  Netlist nl = gen::buildMiniAlu(6);
  sim::Simulator2v s2(nl);
  sim::Simulator3v s3(nl);
  std::mt19937_64 rng(7);
  for (GateId pi : nl.inputs()) {
    const uint64_t w = rng();
    s2.setSource(pi, w);
    s3.setSource(pi, {w, 0});
  }
  for (GateId ff : nl.dffs()) {
    const uint64_t w = rng();
    s2.setSource(ff, w);
    s3.setSource(ff, {w, 0});
  }
  s2.eval();
  s3.eval();
  nl.forEachGate([&](GateId id, const Gate&) {
    EXPECT_EQ(s3.value(id).x, 0u);
    EXPECT_EQ(s3.value(id).v, s2.value(id)) << "gate " << nl.gateName(id);
  });
}

TEST(SeqSim, CounterCounts) {
  Netlist nl = gen::buildCounter(6);
  sim::SeqSimulator sim(nl);
  sim.resetState(0);
  sim.setInput(*nl.findGateByName("en"), ~uint64_t{0});
  for (int t = 1; t <= 20; ++t) {
    sim.pulseAll();
    uint64_t count = 0;
    for (int i = 0; i < 6; ++i) {
      count |= (sim.state(*nl.findGateByName("q" + std::to_string(i))) & 1)
               << i;
    }
    EXPECT_EQ(count, static_cast<uint64_t>(t % 64)) << "cycle " << t;
  }
}

TEST(SeqSim, DisabledCounterHolds) {
  Netlist nl = gen::buildCounter(4);
  sim::SeqSimulator sim(nl);
  sim.resetState(0);
  sim.setInput(*nl.findGateByName("en"), 0);
  for (int t = 0; t < 5; ++t) sim.pulseAll();
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(sim.state(*nl.findGateByName("q" + std::to_string(i))), 0u);
  }
}

TEST(SeqSim, PerDomainPulsesOnlyTouchThatDomain) {
  Netlist nl = gen::buildTwoDomainPipe(4);
  sim::SeqSimulator sim(nl);
  sim.resetState(0);
  sim.setInput(*nl.findGateByName("en"), ~uint64_t{0});
  for (int i = 0; i < 4; ++i) {
    sim.setInput(*nl.findGateByName("thr" + std::to_string(i)), 0);
  }
  // Pulse only the fast domain: samplers (slow domain) must hold 0.
  sim.pulse(DomainId{0});
  sim.pulse(DomainId{0});
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(sim.state(*nl.findGateByName("smp" + std::to_string(i))), 0u);
  }
  // Counter advanced to 2.
  EXPECT_EQ(sim.state(*nl.findGateByName("cnt1")) & 1, 1u);
  // Now pulse the slow domain: samplers capture the counter value.
  sim.pulse(DomainId{1});
  EXPECT_EQ(sim.state(*nl.findGateByName("smp1")) & 1, 1u);
  EXPECT_EQ(sim.state(*nl.findGateByName("smp0")) & 1, 0u);
}

// -- pulse programs ---------------------------------------------------------

/// A small BIST-ready core: X-bounded X-sources and non-scan flops, IO
/// wrappers, `domains` clock domains.
core::BistReadyCore programTestCore(uint64_t seed = 4711, int domains = 2) {
  gen::IpCoreSpec spec;
  spec.seed = seed;
  spec.target_comb_gates = 220;
  spec.target_ffs = 20;
  spec.num_inputs = 6;
  spec.num_outputs = 5;
  spec.num_domains = domains;
  spec.num_xsources = 2;
  spec.num_noscan_ffs = 2;
  core::LbistConfig cfg;
  cfg.num_chains = 3;
  cfg.test_points = 3;
  cfg.tpi.warmup_patterns = 64;
  cfg.tpi.guidance_patterns = 32;
  return core::buildBistReadyCore(gen::generateIpCore(spec), cfg);
}

/// The BIST session's run constants: every input but the SI ports and SE
/// held, at 0, with test_mode at 1.
std::vector<sim::HeldInput> sessionHeld(const core::BistReadyCore& ready,
                                        const Netlist& die) {
  std::vector<sim::HeldInput> held;
  for (GateId pi : die.inputs()) {
    bool driven = pi == ready.scan.se_port;
    for (const dft::ScanChain& c : ready.scan.chains) {
      driven |= pi == c.si_port;
    }
    if (!driven) held.push_back({pi, pi == ready.scan.test_mode_port});
  }
  return held;
}

/// Drives a full-pulse simulator and a program-pulse simulator through
/// the same seeded interleaving of shift pulses (SE=1, all domains) and
/// capture pulses (SE=0, one domain), with random initial states, random
/// SI words and randomized X-sources, and compares every live DFF after
/// every pulse. Returns the number of live DFFs.
size_t expectProgramsMatchFullPulses(const core::BistReadyCore& ready,
                                     const Netlist& die, uint64_t seed,
                                     int pulses) {
  sim::SeqSimulator full(die);
  sim::SeqSimulator prog(die);
  const std::vector<sim::HeldInput> held = sessionHeld(ready, die);
  std::vector<GateId> scan_cells;
  for (const dft::ScanChain& c : ready.scan.chains) {
    scan_cells.insert(scan_cells.end(), c.cells.begin(), c.cells.end());
  }
  const sim::PulseAnalysis analysis(prog, held, scan_cells);
  const sim::HeldInput se_high{ready.scan.se_port, true};
  const sim::HeldInput se_low{ready.scan.se_port, false};
  std::vector<DomainId> all;
  std::vector<sim::PulseProgram> capture;
  for (uint16_t d = 0; d < die.numDomains(); ++d) {
    all.push_back(DomainId{d});
    capture.push_back(analysis.program({&all.back(), 1}, {&se_low, 1}));
  }
  const sim::PulseProgram shift = analysis.program(all, {&se_high, 1});

  std::mt19937_64 rng(seed);
  for (GateId pi : die.inputs()) {
    full.setInput(pi, 0);
    prog.setInput(pi, 0);
  }
  for (const sim::HeldInput& h : held) {
    full.setInput(h.gate, h.high ? ~uint64_t{0} : 0);
    prog.setInput(h.gate, h.high ? ~uint64_t{0} : 0);
  }
  for (GateId dff : die.dffs()) {
    const uint64_t w = rng();
    full.setState(dff, w);
    prog.setState(dff, w);
  }
  full.randomizeXSources(seed);
  prog.randomizeXSources(seed);

  for (int t = 0; t < pulses; ++t) {
    const bool shift_pulse = rng() % 3 != 0;
    full.setInput(ready.scan.se_port, shift_pulse ? ~uint64_t{0} : 0);
    prog.setInput(ready.scan.se_port, shift_pulse ? ~uint64_t{0} : 0);
    for (const dft::ScanChain& c : ready.scan.chains) {
      const uint64_t w = rng();
      full.setInput(c.si_port, w);
      prog.setInput(c.si_port, w);
    }
    if (shift_pulse) {
      full.pulseAll();
      prog.pulse(shift);
    } else {
      const DomainId d{static_cast<uint16_t>(rng() % all.size())};
      full.pulse(d);
      prog.pulse(capture[d.v]);
    }
    for (GateId dff : analysis.liveDffs()) {
      if (full.state(dff) != prog.state(dff)) {
        ADD_FAILURE() << "pulse " << t << (shift_pulse ? " (shift)" : "")
                      << ": live DFF " << die.gateName(dff) << " differs";
        return analysis.liveDffs().size();
      }
    }
  }
  return analysis.liveDffs().size();
}

TEST(PulseProgram, GoodDieShiftProgramIsTheScanPath) {
  const core::BistReadyCore ready = programTestCore();
  const Netlist& nl = ready.netlist;
  sim::SeqSimulator s(nl);
  std::vector<GateId> scan_cells;
  for (const dft::ScanChain& c : ready.scan.chains) {
    scan_cells.insert(scan_cells.end(), c.cells.begin(), c.cells.end());
  }
  const sim::PulseAnalysis analysis(s, sessionHeld(ready, nl), scan_cells);
  // X-bounded non-scan flops are blocked by AND(q, !test_mode): dead.
  EXPECT_EQ(analysis.liveDffs().size(), scan_cells.size());
  for (GateId dff : analysis.liveDffs()) {
    EXPECT_TRUE(nl.hasFlag(dff, kFlagScanCell));
  }
  std::vector<DomainId> all;
  for (uint16_t d = 0; d < nl.numDomains(); ++d) all.push_back(DomainId{d});
  const sim::HeldInput se_high{ready.scan.se_port, true};
  const sim::PulseProgram shift = analysis.program(all, {&se_high, 1});
  // SE=1: each scan cell loads its chain predecessor through its mux.
  EXPECT_EQ(shift.ops.size(), scan_cells.size());
  for (uint32_t op : shift.ops) {
    EXPECT_TRUE(nl.hasFlag(GateId{s.compiled().opGate(op)}, kFlagScanMux));
  }
  EXPECT_EQ(shift.dffs.size(), scan_cells.size());
  // Held inputs must be inputs, and never held twice.
  const sim::HeldInput dup{ready.scan.test_mode_port, true};
  EXPECT_THROW((void)analysis.program(all, {&dup, 1}), std::invalid_argument);
  const sim::HeldInput not_input{scan_cells[0], true};
  EXPECT_THROW((void)analysis.program(all, {&not_input, 1}),
               std::invalid_argument);
}

/// The differential on `ready`'s good die and on one die per stuck-at of
/// the DFT gates (see below) and of a seeded sample of functional gates.
void expectProgramsMatchOnInjectedDies(const core::BistReadyCore& ready) {
  const Netlist& nl = ready.netlist;
  expectProgramsMatchFullPulses(ready, nl, 1, 200);

  // Every stuck-at on every pin (and output) of the scan muxes, the
  // X-bounding ANDs and their !test_mode inverter, and the IO-wrapper
  // bypass muxes, plus a seeded sample of functional faults.
  std::vector<fault::Fault> faults;
  auto allPins = [&](GateId g) {
    for (fault::FaultType t :
         {fault::FaultType::kStuckAt0, fault::FaultType::kStuckAt1}) {
      faults.push_back({g, fault::kOutputPin, t});
      for (size_t pin = 0; pin < nl.gate(g).fanins.size(); ++pin) {
        faults.push_back({g, static_cast<uint8_t>(pin), t});
      }
    }
  };
  std::vector<GateId> functional;
  size_t scan_muxes = 0, bypass_muxes = 0;
  nl.forEachGate([&](GateId id, const Gate& g) {
    if (!isCombinational(g.kind)) return;
    if (nl.hasFlag(id, kFlagScanMux)) {
      allPins(id);
      ++scan_muxes;
    } else if (g.kind == CellKind::kMux2 && nl.hasFlag(id, kFlagDftInserted)) {
      allPins(id);
      ++bypass_muxes;
    } else if (!nl.hasFlag(id, kFlagDftInserted)) {
      functional.push_back(id);
    }
  });
  ASSERT_GT(scan_muxes, 0u);
  ASSERT_GT(bypass_muxes, 0u);
  ASSERT_FALSE(ready.xbound.blocking_gates.empty());
  for (GateId and_gate : ready.xbound.blocking_gates) allPins(and_gate);
  allPins(nl.gate(ready.xbound.blocking_gates[0]).fanins[1]);  // !test_mode
  std::mt19937_64 pick(99);
  for (int i = 0; i < 60; ++i) {
    allPins(functional[pick() % functional.size()]);
  }

  size_t widened = 0;
  for (size_t i = 0; i < faults.size(); ++i) {
    Netlist die = nl;
    fault::injectStuckAt(die, faults[i]);
    SCOPED_TRACE(faults[i].describe(nl));
    const size_t live = expectProgramsMatchFullPulses(ready, die, 7 + i, 40);
    if (live > ready.scan.scan_cells) ++widened;
    if (::testing::Test::HasFailure()) return;
  }
  // Freed X-bounding ANDs must have made their non-scan flops live.
  EXPECT_GT(widened, 0u);
}

TEST(PulseProgram, MatchesFullPulsesOnGoodAndInjectedDies) {
  expectProgramsMatchOnInjectedDies(programTestCore());
  expectProgramsMatchOnInjectedDies(programTestCore(1234, 3));
}

TEST(SeqSim3v, PowerOnXClearsAfterLoad) {
  Netlist nl = gen::buildCounter(4);
  sim::SeqSimulator3v sim(nl);
  sim.resetStateAllX();
  sim.setInput(*nl.findGateByName("en"), {~uint64_t{0}, 0});
  sim.settle();
  EXPECT_NE(sim.value(nl.outputs()[0].driver).x, 0u);
  sim.resetState(0);
  sim.settle();
  nl.forEachGate([&](GateId id, const Gate&) {
    EXPECT_EQ(sim.value(id).x, 0u);
  });
}

TEST(Waveform, EdgesAndValueQueries) {
  sim::Waveform wf;
  const auto clk = wf.addSignal("clk");
  wf.pulse(clk, 100, 10);
  wf.pulse(clk, 200, 10);
  EXPECT_EQ(wf.valueAt(clk, 99), sim::WireValue::kLow);
  EXPECT_EQ(wf.valueAt(clk, 105), sim::WireValue::kHigh);
  EXPECT_EQ(wf.valueAt(clk, 150), sim::WireValue::kLow);
  const auto rises = wf.risingEdges(clk);
  ASSERT_EQ(rises.size(), 2u);
  EXPECT_EQ(rises[0], 100u);
  EXPECT_EQ(rises[1], 200u);
  EXPECT_EQ(wf.endTime(), 210u);
}

TEST(Waveform, VcdContainsDefinitionsAndChanges) {
  sim::Waveform wf;
  const auto s = wf.addSignal("se", sim::WireValue::kHigh);
  wf.change(s, 500, sim::WireValue::kLow);
  std::ostringstream os;
  wf.writeVcd(os, "tb");
  const std::string vcd = os.str();
  EXPECT_NE(vcd.find("$var wire 1 ! se $end"), std::string::npos);
  EXPECT_NE(vcd.find("#500"), std::string::npos);
}

TEST(Waveform, AsciiRenderShowsActivity) {
  sim::Waveform wf;
  const auto clk = wf.addSignal("clk");
  for (uint64_t t = 0; t < 1000; t += 100) wf.pulse(clk, t + 50, 20);
  const std::string art = wf.renderAscii(80);
  EXPECT_NE(art.find("clk"), std::string::npos);
  EXPECT_NE(art.find('/'), std::string::npos);
}

}  // namespace
}  // namespace lbist
