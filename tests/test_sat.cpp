// SAT-based ATPG: the CDCL engine proven correct differentially against
// the PODEM engines, exhaustive input enumeration, and the fault
// simulator.
//
// The contract under test (ARCHITECTURE.md contract 7, "engine
// agreement"): any two ATPG engines must agree on detectable vs
// redundant for every fault they both complete on; every cube any
// engine emits must be verified by fault simulation; and a SAT UNSAT
// verdict must be confirmed by exhaustive enumeration wherever
// enumeration is feasible (<= 16 assignable sources).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "atpg/podem.hpp"
#include "atpg/podem_interp.hpp"
#include "atpg/sat.hpp"
#include "atpg/topup.hpp"
#include "fault/fsim.hpp"
#include "gen/ipcore.hpp"
#include "gen/refcircuits.hpp"
#include "netlist/levelize.hpp"
#include "sim/compiled.hpp"

namespace lbist::atpg {
namespace {

std::vector<GateId> poDrivers(const Netlist& nl) {
  std::vector<GateId> obs;
  for (const OutputPort& po : nl.outputs()) obs.push_back(po.driver);
  std::sort(obs.begin(), obs.end());
  obs.erase(std::unique(obs.begin(), obs.end()), obs.end());
  return obs;
}

struct ScanSetup {
  std::vector<GateId> observed;
  std::vector<GateId> assignable;
};

/// Full-scan harness: every DFF scannable, observation at POs plus every
/// scan cell's D input, stimulus at PIs plus scan-cell outputs.
ScanSetup scanSetup(Netlist& nl) {
  for (GateId dff : nl.dffs()) nl.setFlag(dff, kFlagScanCell);
  ScanSetup s;
  s.observed = poDrivers(nl);
  for (GateId dff : nl.dffs()) s.observed.push_back(nl.gate(dff).fanins[0]);
  std::sort(s.observed.begin(), s.observed.end());
  s.observed.erase(std::unique(s.observed.begin(), s.observed.end()),
                   s.observed.end());
  s.assignable.assign(nl.inputs().begin(), nl.inputs().end());
  for (GateId dff : nl.dffs()) s.assignable.push_back(dff);
  return s;
}

/// Simulates a cube (X-filled with zeros) and checks the fault is seen
/// at an observed net — the ground-truth check for every emitted cube.
bool cubeDetects(const Netlist& nl, const TestCube& cube,
                 const fault::Fault& f, const std::vector<GateId>& obs) {
  fault::FaultList all = fault::FaultList::enumerateStuckAt(
      nl, {.collapse = false, .include_pin_faults = true,
           .mark_chain_faults = false});
  size_t idx = all.size();
  for (size_t i = 0; i < all.size(); ++i) {
    if (all.record(i).fault == f) idx = i;
  }
  if (idx == all.size()) return false;

  fault::FaultSimulator fsim(nl, all, obs, fault::FsimOptions{1, false});
  nl.forEachGate([&](GateId id, const Gate& g) {
    if (g.kind == CellKind::kInput || g.kind == CellKind::kDff) {
      fsim.setSource(id, 0);
    }
  });
  for (size_t i = 0; i < cube.care_sources.size(); ++i) {
    fsim.setSource(cube.care_sources[i],
                   cube.care_values[i] != 0 ? ~uint64_t{0} : 0);
  }
  fsim.simulateBlockStuckAt(0, 1);
  return all.record(idx).status == fault::FaultStatus::kDetected;
}

/// Exhaustive ground truth for small circuits: simulates every one of
/// the 2^|assignable| binary stimulus vectors (64 per PPSFP block) and
/// reports whether any of them detects `f`.
bool exhaustiveDetects(const Netlist& nl, const fault::Fault& f,
                       const std::vector<GateId>& obs,
                       const std::vector<GateId>& assignable) {
  const size_t n = assignable.size();
  EXPECT_LE(n, 16u) << "exhaustive enumeration capped at 2^16 vectors";
  fault::FaultList all = fault::FaultList::enumerateStuckAt(
      nl, {.collapse = false, .include_pin_faults = true,
           .mark_chain_faults = false});
  size_t idx = all.size();
  for (size_t i = 0; i < all.size(); ++i) {
    if (all.record(i).fault == f) idx = i;
  }
  if (idx == all.size()) return false;

  fault::FaultSimulator fsim(nl, all, obs, fault::FsimOptions{1, false});
  const uint64_t total = uint64_t{1} << n;
  for (uint64_t base = 0; base < total; base += 64) {
    const int lanes = static_cast<int>(std::min<uint64_t>(64, total - base));
    nl.forEachGate([&](GateId id, const Gate& g) {
      if (g.kind == CellKind::kInput || g.kind == CellKind::kDff) {
        fsim.setSource(id, 0);
      }
    });
    for (size_t i = 0; i < n; ++i) {
      uint64_t word = 0;
      for (int lane = 0; lane < lanes; ++lane) {
        if (((base + static_cast<uint64_t>(lane)) >> i) & 1u) {
          word |= uint64_t{1} << lane;
        }
      }
      fsim.setSource(assignable[i], word);
    }
    fsim.simulateBlockStuckAt(static_cast<int64_t>(base), lanes);
    if (all.record(idx).status == fault::FaultStatus::kDetected) return true;
  }
  return false;
}

// ------------------------------------------------------ basic soundness

TEST(SatEngine, C17EveryFaultCubedVerifiedAndAgreesWithPodem) {
  Netlist nl = gen::buildC17();
  const auto obs = poDrivers(nl);
  std::vector<GateId> assignable(nl.inputs().begin(), nl.inputs().end());
  SatEngine sat(nl, obs, assignable);
  Podem podem(nl, obs, assignable);

  fault::FaultList fl = fault::FaultList::enumerateStuckAt(nl);
  for (size_t i = 0; i < fl.size(); ++i) {
    TestCube sat_cube;
    TestCube podem_cube;
    const AtpgStatus sat_st = sat.generate(fl.record(i).fault, sat_cube);
    const AtpgStatus podem_st =
        podem.generate(fl.record(i).fault, podem_cube);
    EXPECT_EQ(sat_st, AtpgStatus::kDetected)
        << "c17 is fully testable: " << fl.describe(nl, i);
    EXPECT_EQ(sat_st, podem_st) << fl.describe(nl, i);
    EXPECT_TRUE(cubeDetects(nl, sat_cube, fl.record(i).fault, obs))
        << "SAT cube fails to detect " << fl.describe(nl, i);
  }
  EXPECT_EQ(sat.engineStats().cubes, fl.size());
  EXPECT_EQ(sat.engineStats().redundant, 0u);
  EXPECT_EQ(sat.engineStats().aborted, 0u);
}

TEST(SatEngine, ProvesRedundancyAndExhaustiveEnumerationConfirms) {
  // z = a OR (a AND b): the AND output s-a-0 is classically redundant.
  Netlist nl;
  const GateId a = nl.addInput("a");
  const GateId b = nl.addInput("b");
  const GateId and_g = nl.addGate(CellKind::kAnd, {a, b});
  const GateId or_g = nl.addGate(CellKind::kOr, {a, and_g});
  nl.addOutput(or_g, "z");
  const auto obs = poDrivers(nl);
  const std::vector<GateId> assignable = {a, b};

  SatEngine sat(nl, obs, assignable);
  TestCube cube;
  const fault::Fault sa0{and_g, fault::kOutputPin,
                         fault::FaultType::kStuckAt0};
  EXPECT_EQ(sat.generate(sa0, cube), AtpgStatus::kUntestable);
  EXPECT_FALSE(exhaustiveDetects(nl, sa0, obs, assignable))
      << "exhaustive enumeration contradicts the UNSAT verdict";
  EXPECT_EQ(sat.engineStats().redundant, 1u);

  const fault::Fault sa1{and_g, fault::kOutputPin,
                         fault::FaultType::kStuckAt1};
  EXPECT_EQ(sat.generate(sa1, cube), AtpgStatus::kDetected);
  EXPECT_TRUE(cubeDetects(nl, cube, sa1, obs));
}

TEST(SatEngine, HonorsFixedSources) {
  Netlist nl;
  const GateId a = nl.addInput("a");
  const GateId b = nl.addInput("b");
  const GateId g = nl.addGate(CellKind::kAnd, {a, b});
  nl.addOutput(g, "z");
  SatEngine sat(nl, poDrivers(nl), {a, b});
  sat.fixSource(b, false);
  TestCube cube;
  // g s-a-0 requires a=b=1: impossible with b held 0.
  EXPECT_EQ(
      sat.generate(
          fault::Fault{g, fault::kOutputPin, fault::FaultType::kStuckAt0},
          cube),
      AtpgStatus::kUntestable);
  EXPECT_EQ(
      sat.generate(
          fault::Fault{g, fault::kOutputPin, fault::FaultType::kStuckAt1},
          cube),
      AtpgStatus::kDetected);
  for (size_t i = 0; i < cube.care_sources.size(); ++i) {
    EXPECT_NE(cube.care_sources[i].v, b.v)
        << "fixed source leaked into a cube";
  }
}

TEST(SatEngine, MiniAluVerdictsMatchExhaustiveEnumeration) {
  // Mux2/Xor/And/Or-rich circuit small enough to enumerate completely:
  // every SAT verdict — detected AND untestable — is checked against
  // the 2^8 ground truth, which pins the CNF encoding of every cell
  // kind the ALU uses.
  Netlist nl = gen::buildMiniAlu(2);
  const ScanSetup s = scanSetup(nl);
  ASSERT_LE(s.assignable.size(), 16u);

  SatEngine sat(nl, s.observed, s.assignable);
  fault::FaultList fl = fault::FaultList::enumerateStuckAt(nl);
  size_t checked = 0;
  for (size_t i = 0; i < fl.size(); ++i) {
    if (fl.record(i).status != fault::FaultStatus::kUndetected) continue;
    TestCube cube;
    const AtpgStatus st = sat.generate(fl.record(i).fault, cube);
    ASSERT_NE(st, AtpgStatus::kAborted)
        << "tiny miters must never exhaust the conflict budget: "
        << fl.describe(nl, i);
    const bool truth =
        exhaustiveDetects(nl, fl.record(i).fault, s.observed, s.assignable);
    EXPECT_EQ(st == AtpgStatus::kDetected, truth) << fl.describe(nl, i);
    if (st == AtpgStatus::kDetected) {
      EXPECT_TRUE(cubeDetects(nl, cube, fl.record(i).fault, s.observed))
          << fl.describe(nl, i);
    }
    ++checked;
  }
  EXPECT_GT(checked, 50u);
}

// ------------------------------------------------- cross-engine fuzzing

TEST(SatEngine, FuzzRandomCircuitsAgreeWithInterpretedPodem) {
  // Seeded sweep of generated circuits x every undetected stuck-at
  // fault: a cube on one side and a completed-proof verdict on the
  // other is an instant failure. Aborts make no claim and are skipped
  // from the equality check (but a SAT cube still forbids a PODEM
  // redundancy proof and vice versa).
  for (uint64_t seed = 11; seed <= 13; ++seed) {
    gen::IpCoreSpec spec;
    spec.seed = seed;
    spec.target_comb_gates = 220;
    spec.target_ffs = 16;
    spec.num_inputs = 8;
    spec.num_outputs = 6;
    spec.num_domains = 1;
    spec.num_xsources = 0;
    spec.num_noscan_ffs = 0;
    spec.resistant_fraction = 0.1;
    Netlist nl = gen::generateIpCore(spec);
    const ScanSetup s = scanSetup(nl);

    SatEngine sat(nl, s.observed, s.assignable);
    PodemInterpreted interp(nl, s.observed, s.assignable);
    fault::FaultList fl = fault::FaultList::enumerateStuckAt(nl);
    size_t compared = 0;
    for (size_t i = 0; i < fl.size(); ++i) {
      if (fl.record(i).status != fault::FaultStatus::kUndetected) continue;
      TestCube sat_cube;
      TestCube interp_cube;
      const AtpgStatus sat_st = sat.generate(fl.record(i).fault, sat_cube);
      const AtpgStatus interp_st =
          interp.generate(fl.record(i).fault, interp_cube);
      if (sat_st == AtpgStatus::kDetected) {
        EXPECT_TRUE(
            cubeDetects(nl, sat_cube, fl.record(i).fault, s.observed))
            << "seed " << seed << ": " << fl.describe(nl, i);
        EXPECT_NE(interp_st, AtpgStatus::kUntestable)
            << "seed " << seed << ": SAT cube vs PODEM redundancy proof on "
            << fl.describe(nl, i);
      }
      if (sat_st == AtpgStatus::kUntestable) {
        EXPECT_NE(interp_st, AtpgStatus::kDetected)
            << "seed " << seed << ": SAT UNSAT vs PODEM cube on "
            << fl.describe(nl, i);
      }
      if (sat_st != AtpgStatus::kAborted &&
          interp_st != AtpgStatus::kAborted) {
        EXPECT_EQ(sat_st, interp_st)
            << "seed " << seed << ": " << fl.describe(nl, i);
        ++compared;
      }
    }
    EXPECT_GT(compared, 100u) << "seed " << seed;
  }
}

// -------------------------------------- the PODEM-hard / SAT-easy trap

TEST(SatTrap, XorTrapAbortsPodemButSatRefutesAndEnumerationAgrees) {
  // The PR 8 gotcha, now constructible on demand: an inconsistent
  // random 3-XOR system is exponential for chronological backtracking
  // but a few hundred conflicts for clause learning.
  Netlist nl = gen::buildXorTrap(14, 24, 0xA11CE);
  const auto obs = poDrivers(nl);
  std::vector<GateId> assignable(nl.inputs().begin(), nl.inputs().end());
  const fault::Fault sa0{obs[0], fault::kOutputPin,
                         fault::FaultType::kStuckAt0};

  // PODEM burns its whole default budget (including restarts) and gives
  // up without a verdict.
  Podem podem(nl, obs, assignable);
  TestCube cube;
  EXPECT_EQ(podem.generate(sa0, cube), AtpgStatus::kAborted);

  // CDCL proves redundancy well inside its budget.
  SatEngine sat(nl, obs, assignable);
  EXPECT_EQ(sat.generate(sa0, cube), AtpgStatus::kUntestable);
  EXPECT_LT(sat.engineStats().conflicts, SatOptions{}.conflict_limit / 10);

  // Exhaustive enumeration (2^14 vectors) confirms the proof.
  EXPECT_FALSE(exhaustiveDetects(nl, sa0, obs, assignable));

  // The satisfiable variant of the same system yields a verified cube.
  Netlist sat_nl = gen::buildXorTrap(14, 24, 0xA11CE, /*satisfiable=*/true);
  const auto sat_obs = poDrivers(sat_nl);
  std::vector<GateId> sat_pis(sat_nl.inputs().begin(),
                              sat_nl.inputs().end());
  SatEngine sat2(sat_nl, sat_obs, sat_pis);
  const fault::Fault sat_sa0{sat_obs[0], fault::kOutputPin,
                             fault::FaultType::kStuckAt0};
  EXPECT_EQ(sat2.generate(sat_sa0, cube), AtpgStatus::kDetected);
  EXPECT_TRUE(cubeDetects(sat_nl, cube, sat_sa0, sat_obs));
}

// ------------------------------------------------- escalation in topup

TEST(TopUpEscalation, ResolvesEveryStrandedTargetOnTheTrap) {
  // Without escalation the trap's redundant output fault strands as an
  // abort; with escalation every stranded target ends as a verified
  // cube or a redundancy proof and nothing is left unresolved.
  Netlist nl = gen::buildXorTrap(14, 24, 0xBEEF);
  const auto obs = poDrivers(nl);
  std::vector<GateId> assignable(nl.inputs().begin(), nl.inputs().end());

  TopUpConfig cfg;
  cfg.threads = 1;
  {
    fault::FaultList stranded_fl = fault::FaultList::enumerateStuckAt(nl);
    fault::FaultSimulator fsim(nl, stranded_fl, obs);
    const TopUpResult r =
        runTopUp(nl, stranded_fl, fsim, obs, assignable, {}, cfg);
    EXPECT_GT(r.aborted, 0u) << "the trap must strand PODEM";
    EXPECT_EQ(r.proven_redundant, 0u);
  }

  fault::FaultList fl = fault::FaultList::enumerateStuckAt(nl);
  cfg.sat_escalate = true;
  fault::FaultSimulator fsim(nl, fl, obs);
  const TopUpResult r = runTopUp(nl, fl, fsim, obs, assignable, {}, cfg);
  EXPECT_EQ(r.aborted, 0u) << "every stranded target must be resolved";
  EXPECT_GT(r.sat_escalated, 0u);
  EXPECT_GT(r.proven_redundant, 0u);
  EXPECT_EQ(r.final_coverage.redundant, r.proven_redundant);
  // Redundant faults leave the test-coverage denominator.
  EXPECT_GT(r.final_coverage.testCoveragePercent(),
            r.final_coverage.faultCoveragePercent());
  size_t redundant_status = 0;
  for (size_t i = 0; i < fl.size(); ++i) {
    if (fl.record(i).status == fault::FaultStatus::kRedundant) {
      ++redundant_status;
      // Each proof is double-checked exhaustively (14 inputs).
      EXPECT_FALSE(
          exhaustiveDetects(nl, fl.record(i).fault, obs, assignable))
          << fl.describe(nl, i);
    }
  }
  EXPECT_EQ(redundant_status, r.proven_redundant);
}

TEST(TopUpEscalation, BitIdenticalAcrossThreadCounts) {
  gen::IpCoreSpec spec;
  spec.seed = 77;
  spec.target_comb_gates = 900;
  spec.target_ffs = 48;
  spec.num_inputs = 12;
  spec.num_outputs = 10;
  spec.num_domains = 1;
  spec.num_xsources = 0;
  spec.num_noscan_ffs = 0;
  spec.resistant_fraction = 0.15;
  Netlist nl = gen::generateIpCore(spec);
  const ScanSetup s = scanSetup(nl);
  fault::FaultList base = fault::FaultList::enumerateStuckAt(nl);
  {
    // Short random phase so the escalation sweep starts from a
    // realistic hard tail rather than the full universe.
    fault::FaultSimulator fsim(nl, base, s.observed);
    fsim.markUnobservable();
    std::mt19937_64 rng(5);
    for (int64_t b = 0; b < 256; b += 64) {
      for (GateId src : s.assignable) fsim.setSource(src, rng());
      fsim.simulateBlockStuckAt(b, 64);
    }
  }

  struct Run {
    TopUpResult result;
    fault::FaultList fl;
  };
  std::vector<Run> runs;
  for (uint32_t threads : {1u, 2u, 4u, 0u}) {
    Run run{.result = {}, .fl = base};
    TopUpConfig cfg;
    cfg.threads = threads;
    cfg.sat_escalate = true;
    fault::FaultSimulator fsim(nl, run.fl, s.observed);
    run.result =
        runTopUp(nl, run.fl, fsim, s.observed, s.assignable, {}, cfg);
    runs.push_back(std::move(run));
  }
  ASSERT_GT(runs[0].result.sat_escalated, 0u)
      << "the sweep must actually exercise the escalation path";

  const Run& ref = runs[0];
  for (size_t r = 1; r < runs.size(); ++r) {
    const Run& run = runs[r];
    EXPECT_EQ(run.result.targeted, ref.result.targeted);
    EXPECT_EQ(run.result.atpg_detected, ref.result.atpg_detected);
    EXPECT_EQ(run.result.fortuitous_detected,
              ref.result.fortuitous_detected);
    EXPECT_EQ(run.result.proven_untestable, ref.result.proven_untestable);
    EXPECT_EQ(run.result.proven_redundant, ref.result.proven_redundant);
    EXPECT_EQ(run.result.aborted, ref.result.aborted);
    EXPECT_EQ(run.result.backtracks, ref.result.backtracks);
    EXPECT_EQ(run.result.sat_escalated, ref.result.sat_escalated);
    EXPECT_EQ(run.result.sat_detected, ref.result.sat_detected);
    EXPECT_EQ(run.result.sat_conflicts, ref.result.sat_conflicts);
    EXPECT_EQ(run.result.sat_learned, ref.result.sat_learned);
    EXPECT_EQ(run.result.patterns_before_compact,
              ref.result.patterns_before_compact);
    EXPECT_EQ(run.result.final_coverage, ref.result.final_coverage);
    ASSERT_EQ(run.result.patterns.size(), ref.result.patterns.size());
    for (size_t p = 0; p < ref.result.patterns.size(); ++p) {
      EXPECT_EQ(run.result.patterns[p].sources,
                ref.result.patterns[p].sources);
      EXPECT_EQ(run.result.patterns[p].values,
                ref.result.patterns[p].values);
    }
    ASSERT_EQ(run.result.aborted_targets.size(),
              ref.result.aborted_targets.size());
    for (size_t a = 0; a < ref.result.aborted_targets.size(); ++a) {
      EXPECT_EQ(run.result.aborted_targets[a].fault_index,
                ref.result.aborted_targets[a].fault_index);
      EXPECT_EQ(run.result.aborted_targets[a].backtracks,
                ref.result.aborted_targets[a].backtracks);
    }
    for (size_t i = 0; i < base.size(); ++i) {
      ASSERT_EQ(run.fl.record(i).status, ref.fl.record(i).status)
          << "fault " << i;
      ASSERT_EQ(run.fl.record(i).first_detect_pattern,
                ref.fl.record(i).first_detect_pattern)
          << "drop order diverged at fault " << i;
      ASSERT_EQ(run.fl.record(i).detect_count,
                ref.fl.record(i).detect_count)
          << "fault " << i;
    }
  }
}

TEST(TopUpEscalation, PrimarySatEngineRecordsRedundantStatus) {
  // SAT as the primary engine: its completed UNSAT proofs land as
  // kRedundant, never the heuristic kUntestable bucket, and no fault is
  // left unresolved.
  Netlist nl;
  const GateId a = nl.addInput("a");
  const GateId b = nl.addInput("b");
  const GateId and_g = nl.addGate(CellKind::kAnd, {a, b});
  const GateId or_g = nl.addGate(CellKind::kOr, {a, and_g});
  nl.addOutput(or_g, "z");
  const auto obs = poDrivers(nl);
  const std::vector<GateId> assignable = {a, b};

  fault::FaultList fl = fault::FaultList::enumerateStuckAt(nl);
  fault::FaultSimulator fsim(nl, fl, obs);
  TopUpConfig cfg;
  cfg.threads = 1;
  cfg.engine = AtpgEngine::kSat;
  const TopUpResult r = runTopUp(nl, fl, fsim, obs, assignable, {}, cfg);
  EXPECT_EQ(r.aborted, 0u);
  EXPECT_EQ(r.proven_untestable, 0u)
      << "a SAT primary never reports heuristic untestability";
  EXPECT_GT(r.proven_redundant, 0u);
  EXPECT_GT(r.atpg_detected, 0u);
  bool saw_redundant = false;
  for (size_t i = 0; i < fl.size(); ++i) {
    saw_redundant |=
        fl.record(i).status == fault::FaultStatus::kRedundant;
    EXPECT_NE(fl.record(i).status, fault::FaultStatus::kUndetected)
        << fl.describe(nl, i);
  }
  EXPECT_TRUE(saw_redundant);
}

// ----------------------------------------- deterministic solver reruns

TEST(SatEngine, RerunsAreBitIdentical) {
  // Two engines constructed identically produce identical verdicts,
  // cubes, and stats over the same fault stream — the purity the
  // escalation path's thread-invariance rests on.
  Netlist nl = gen::buildXorTrap(10, 14, 0x5EED, /*satisfiable=*/true);
  const auto obs = poDrivers(nl);
  std::vector<GateId> assignable(nl.inputs().begin(), nl.inputs().end());
  fault::FaultList fl = fault::FaultList::enumerateStuckAt(nl);

  SatEngine e1(nl, obs, assignable);
  SatEngine e2(nl, obs, assignable);
  for (size_t i = 0; i < fl.size(); ++i) {
    TestCube c1;
    TestCube c2;
    const AtpgStatus s1 = e1.generate(fl.record(i).fault, c1);
    const AtpgStatus s2 = e2.generate(fl.record(i).fault, c2);
    ASSERT_EQ(s1, s2) << fl.describe(nl, i);
    ASSERT_EQ(e1.backtracksUsed(), e2.backtracksUsed())
        << fl.describe(nl, i);
    ASSERT_EQ(c1.care_sources, c2.care_sources) << fl.describe(nl, i);
    ASSERT_EQ(c1.care_values, c2.care_values) << fl.describe(nl, i);
  }
  EXPECT_EQ(e1.engineStats().conflicts, e2.engineStats().conflicts);
  EXPECT_EQ(e1.engineStats().learned, e2.engineStats().learned);
}

TEST(SatEngine, HistoryIndependent) {
  // One engine solving the targets forward, the same engine shape
  // solving them in reverse, and a fresh engine per target must agree
  // on every status, cube, conflict count and learned-clause count: a
  // solve is a function of its formula alone, never of what the engine
  // solved before.
  struct Outcome {
    AtpgStatus status;
    TestCube cube;
    size_t conflicts;
    uint64_t learned;
  };
  auto solveOn = [](SatEngine& e, const fault::Fault& f) {
    const uint64_t learned_before = e.engineStats().learned;
    Outcome o{};
    o.status = e.generate(f, o.cube);
    o.conflicts = e.backtracksUsed();
    o.learned = e.engineStats().learned - learned_before;
    return o;
  };

  gen::IpCoreSpec spec;
  spec.seed = 12;
  spec.target_comb_gates = 220;
  spec.target_ffs = 16;
  spec.num_inputs = 8;
  spec.num_outputs = 6;
  spec.num_domains = 1;
  spec.num_xsources = 0;
  spec.num_noscan_ffs = 0;
  spec.resistant_fraction = 0.1;
  Netlist core = gen::generateIpCore(spec);
  const ScanSetup s = scanSetup(core);
  Netlist trap = gen::buildXorTrap(10, 14, 0x5EED, /*satisfiable=*/true);
  const auto trap_obs = poDrivers(trap);
  const std::vector<GateId> trap_pis(trap.inputs().begin(),
                                     trap.inputs().end());

  struct Case {
    const Netlist* nl;
    std::vector<GateId> observed;
    std::vector<GateId> assignable;
    std::vector<GateId> fixed;  // held at 1
    size_t stride;              // every stride-th collapsed fault
  };
  const std::vector<Case> cases = {
      {&core, s.observed, s.assignable, {s.assignable[0]}, 4},
      {&trap, trap_obs, trap_pis, {}, 1},
  };
  for (const Case& c : cases) {
    const Netlist& nl = *c.nl;
    auto makeEngine = [&] {
      auto e = std::make_unique<SatEngine>(nl, c.observed, c.assignable);
      for (GateId g : c.fixed) e->fixSource(g, true);
      return e;
    };
    const fault::FaultList fl = fault::FaultList::enumerateStuckAt(nl);
    std::vector<fault::Fault> targets;
    for (size_t i = 0; i < fl.size(); i += c.stride) {
      targets.push_back(fl.record(i).fault);
    }
    const size_t n = targets.size();
    std::vector<Outcome> forward(n);
    std::vector<Outcome> reversed(n);
    std::vector<Outcome> fresh(n);
    auto fwd = makeEngine();
    for (size_t i = 0; i < n; ++i) forward[i] = solveOn(*fwd, targets[i]);
    auto rev = makeEngine();
    for (size_t i = n; i-- > 0;) reversed[i] = solveOn(*rev, targets[i]);
    for (size_t i = 0; i < n; ++i) {
      fresh[i] = solveOn(*makeEngine(), targets[i]);
    }
    size_t detected = 0;
    size_t untestable = 0;
    uint64_t conflicts = 0;
    for (size_t i = 0; i < n; ++i) {
      for (const std::vector<Outcome>* other : {&reversed, &fresh}) {
        const Outcome& o = (*other)[i];
        const std::string what = targets[i].describe(nl);
        ASSERT_EQ(o.status, forward[i].status) << what;
        ASSERT_EQ(o.cube.care_sources, forward[i].cube.care_sources) << what;
        ASSERT_EQ(o.cube.care_values, forward[i].cube.care_values) << what;
        ASSERT_EQ(o.conflicts, forward[i].conflicts) << what;
        ASSERT_EQ(o.learned, forward[i].learned) << what;
      }
      detected += forward[i].status == AtpgStatus::kDetected ? 1 : 0;
      untestable += forward[i].status == AtpgStatus::kUntestable ? 1 : 0;
      conflicts += forward[i].conflicts;
    }
    EXPECT_GT(detected, 0u);
    EXPECT_GT(conflicts, 0u) << "the sweep must exercise the search";
    if (&nl == &core) {
      EXPECT_GT(untestable, 0u) << "the fixed source must block targets";
    }
  }
}

// --------------------------------------------- pinned miter formulas

// FNV-1a over 64-bit words.
struct Fnv {
  uint64_t h = 0xcbf29ce484222325ull;
  void add(uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
};

/// Digest of every stuck-at miter of `nl` (uncollapsed, pin faults
/// included): flags, variable count, every clause in order, and the
/// stimulus list.
uint64_t miterDigest(const Netlist& nl, const std::vector<GateId>& observed,
                     const std::vector<GateId>& assignable,
                     const std::vector<std::pair<GateId, bool>>& fixed) {
  const Levelized lev(nl);
  const sim::CompiledNetlist cn(nl, lev);
  MiterEncoder enc(nl, cn, observed, assignable);
  for (const auto& [g, v] : fixed) enc.fixSource(g, v);
  const fault::FaultList fl = fault::FaultList::enumerateStuckAt(
      nl, {.collapse = false, .include_pin_faults = true,
           .mark_chain_faults = false});
  Fnv d;
  FaultMiter m;
  for (size_t i = 0; i < fl.size(); ++i) {
    enc.encodeFault(fl.record(i).fault, m);
    d.add(m.trivially_untestable ? 1 : 0);
    d.add(m.direct ? 1 : 0);
    d.add(m.cnf.contradiction() ? 1 : 0);
    d.add(m.cnf.numVars());
    d.add(m.cnf.numClauses());
    for (size_t c = 0; c < m.cnf.numClauses(); ++c) {
      const std::span<const CnfLit> lits = m.cnf.clause(c);
      d.add(lits.size());
      for (CnfLit l : lits) d.add(l);
    }
    d.add(m.stimulus.size());
    for (const StimulusVar& sv : m.stimulus) {
      d.add(sv.source.v);
      d.add(sv.var);
    }
  }
  return d.h;
}

TEST(MiterEncoder, PinnedFormulaDigests) {
  // The encoder's output is pinned formula by formula: variable
  // numbering, clause order and literal order all feed the solver's
  // decisions, so any change here moves cubes, conflict counts and
  // top-up pattern sets. A deliberate encoding change re-pins these
  // values and says why.
  Netlist c17 = gen::buildC17();
  const auto c17_obs = poDrivers(c17);
  const std::vector<GateId> c17_pis(c17.inputs().begin(), c17.inputs().end());

  Netlist alu = gen::buildMiniAlu(2);
  const ScanSetup alu_s = scanSetup(alu);

  gen::IpCoreSpec spec;
  spec.seed = 11;
  spec.target_comb_gates = 220;
  spec.target_ffs = 16;
  spec.num_inputs = 8;
  spec.num_outputs = 6;
  spec.num_domains = 1;
  spec.num_xsources = 0;
  spec.num_noscan_ffs = 0;
  spec.resistant_fraction = 0.1;
  Netlist core = gen::generateIpCore(spec);
  const ScanSetup core_s = scanSetup(core);

  const std::vector<uint64_t> got = {
      miterDigest(c17, c17_obs, c17_pis, {}),
      miterDigest(c17, c17_obs, c17_pis, {{c17_pis[1], true}}),
      miterDigest(alu, alu_s.observed, alu_s.assignable, {}),
      miterDigest(alu, alu_s.observed, alu_s.assignable,
                  {{alu.inputs()[0], false}, {alu.dffs()[0], true}}),
      miterDigest(core, core_s.observed, core_s.assignable, {}),
      miterDigest(core, core_s.observed, core_s.assignable,
                  {{core.inputs()[0], false}, {core.dffs()[0], true}}),
  };
  const std::vector<uint64_t> want = {
      0x2ddb47e61534038bull, 0xcc4986ec590adfd9ull, 0xaa9fd6a550a77182ull,
      0x79cd48ff4e0f3791ull, 0xebbb76de8b91b8fbull, 0x76bf0cb1ae294af6ull,
  };
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i])
        << "digest " << i << " = 0x" << std::hex << got[i];
  }
}

}  // namespace
}  // namespace lbist::atpg

// ----------------------------------------------------- ADL regression
// PR 8 gotcha: ADL does not find atpg::runTopUp from TUs living in
// sibling lbist namespaces (no parameter type is declared in
// lbist::atpg once the config is defaulted). This block compiles a
// qualified call from inside lbist::robust, pinning the documented
// spelling for non-atpg callers.
namespace lbist::robust {
namespace {

atpg::TopUpResult topUpFromRobustNamespace(
    const Netlist& nl, fault::FaultList& fl, fault::FaultSimulator& fsim,
    const std::vector<GateId>& obs, const std::vector<GateId>& asg) {
  // An unqualified `runTopUp(...)` would not compile here.
  return atpg::runTopUp(nl, fl, fsim, obs, asg, {});
}

TEST(AdlRegression, QualifiedRunTopUpCompilesFromRobustNamespace) {
  Netlist nl = gen::buildC17();
  std::vector<GateId> obs;
  for (const OutputPort& po : nl.outputs()) obs.push_back(po.driver);
  std::sort(obs.begin(), obs.end());
  obs.erase(std::unique(obs.begin(), obs.end()), obs.end());
  std::vector<GateId> assignable(nl.inputs().begin(), nl.inputs().end());
  fault::FaultList fl = fault::FaultList::enumerateStuckAt(nl);
  fault::FaultSimulator fsim(nl, fl, obs);
  const atpg::TopUpResult r =
      topUpFromRobustNamespace(nl, fl, fsim, obs, assignable);
  EXPECT_GT(r.targeted, 0u);
  EXPECT_EQ(r.final_coverage.faultCoveragePercent(), 100.0);
}

}  // namespace
}  // namespace lbist::robust
