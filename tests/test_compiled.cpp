// Differential tests for the compiled simulation kernel and the
// structural-collapsing / stem-CPT fault-simulation engines.
//
// The contract under test: every engine configuration — interpreted vs
// compiled good machine; per-fault vs stem-CPT block engine; collapsing
// on vs off; 1/2/4 worker threads — produces bit-identical values,
// detection masks, drop order, and observer streams. The reference for
// masks is a brute-force per-fault full resimulation.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include "fault/collapse.hpp"
#include "fault/fault.hpp"
#include "fault/fsim.hpp"
#include "gen/ipcore.hpp"
#include "gen/refcircuits.hpp"
#include "sim/sim2v.hpp"

namespace lbist {
namespace {

using fault::BlockEngine;
using fault::FaultList;
using fault::FaultSimulator;
using fault::FaultStatus;
using fault::FsimOptions;

Netlist makeIpCore(uint64_t seed, size_t gates) {
  gen::IpCoreSpec spec;
  spec.seed = seed;
  spec.target_comb_gates = gates;
  spec.target_ffs = gates / 12;
  spec.num_inputs = 24;
  spec.num_outputs = 16;
  spec.num_domains = 2;
  spec.num_xsources = 0;
  spec.num_noscan_ffs = 0;
  return gen::generateIpCore(spec);
}

std::vector<Netlist> referenceCircuits() {
  std::vector<Netlist> nets;
  nets.push_back(gen::buildC17());
  nets.push_back(gen::buildRippleAdder(48));
  nets.push_back(gen::buildCounter(24));
  nets.push_back(gen::buildMiniAlu(16));
  nets.push_back(gen::buildTwoDomainPipe(12));
  nets.push_back(makeIpCore(7, 600));
  nets.push_back(makeIpCore(23, 900));
  return nets;
}

// ---------------------------------------------------------------------
// Compiled linear sweep vs interpreted gate-record walk.

TEST(Compiled, MatchesInterpretedEverywhere) {
  std::mt19937_64 rng(1234);
  for (const Netlist& nl : referenceCircuits()) {
    sim::Simulator2v compiled_sim(nl);
    sim::Simulator2v interp_sim(nl);
    for (int round = 0; round < 8; ++round) {
      for (GateId pi : nl.inputs()) {
        const uint64_t w = rng();
        compiled_sim.setSource(pi, w);
        interp_sim.setSource(pi, w);
      }
      for (GateId dff : nl.dffs()) {
        const uint64_t w = rng();
        compiled_sim.setSource(dff, w);
        interp_sim.setSource(dff, w);
      }
      compiled_sim.eval();
      interp_sim.evalInterpreted();
      nl.forEachGate([&](GateId id, const Gate&) {
        ASSERT_EQ(compiled_sim.value(id), interp_sim.value(id))
            << nl.name() << " gate " << id.v << " round " << round;
      });
    }
  }
}

// ---------------------------------------------------------------------
// Fault-simulation campaign snapshots.

class MaskRecorder final : public fault::DetectionObserver {
 public:
  struct Event {
    size_t fault_index;
    int64_t pattern_base;
    std::vector<uint64_t> detect_mask;
    friend bool operator==(const Event&, const Event&) = default;
  };
  void onDetectionMask(size_t fault_index, int64_t pattern_base,
                       sim::LaneMask detect_mask) override {
    events.push_back(
        {fault_index, pattern_base,
         std::vector<uint64_t>(detect_mask.data(),
                               detect_mask.data() + detect_mask.words())});
  }
  std::vector<Event> events;
};

struct CampaignResult {
  std::vector<FaultStatus> status;
  std::vector<uint32_t> detect_count;
  std::vector<int64_t> first_detect;
  std::vector<size_t> newly_per_block;
  std::vector<std::vector<size_t>> live_order_per_block;
  std::vector<MaskRecorder::Event> mask_events;
  fault::Coverage coverage;

  friend bool operator==(const CampaignResult&,
                         const CampaignResult&) = default;
};

CampaignResult runCampaign(const Netlist& nl, bool transition,
                           uint32_t threads, bool collapse,
                           BlockEngine engine, uint32_t n_detect = 2,
                           int n_blocks = 8) {
  FaultList faults = transition ? FaultList::enumerateTransition(nl)
                                : FaultList::enumerateStuckAt(nl);
  FsimOptions opts;
  opts.n_detect = n_detect;
  opts.threads = threads;
  opts.min_faults_per_thread = 1;  // force real sharding on small nets
  opts.collapse = collapse;
  opts.engine = engine;
  FaultSimulator fsim(nl, faults, fault::fullObservationSet(nl), opts);
  MaskRecorder recorder;
  fsim.setDetectionObserver(&recorder);

  CampaignResult res;
  std::mt19937_64 rng(99);
  int64_t base = 0;
  for (int b = 0; b < n_blocks; ++b) {
    for (GateId pi : nl.inputs()) fsim.setSource(pi, rng());
    for (GateId dff : nl.dffs()) fsim.setSource(dff, rng());
    const size_t newly =
        transition ? fsim.simulateBlockTransition(base)
                   : fsim.simulateBlockStuckAt(base);
    res.newly_per_block.push_back(newly);
    res.live_order_per_block.emplace_back(fsim.activeFaults().begin(),
                                          fsim.activeFaults().end());
    base += 64;
  }
  for (size_t i = 0; i < faults.size(); ++i) {
    res.status.push_back(faults.record(i).status);
    res.detect_count.push_back(faults.record(i).detect_count);
    res.first_detect.push_back(faults.record(i).first_detect_pattern);
  }
  res.mask_events = std::move(recorder.events);
  res.coverage = faults.coverage();
  return res;
}

TEST(EngineDifferential, StuckAtAllConfigurationsBitIdentical) {
  for (const Netlist& nl : referenceCircuits()) {
    const CampaignResult ref = runCampaign(nl, /*transition=*/false,
                                           /*threads=*/1, /*collapse=*/false,
                                           BlockEngine::kPerFault);
    for (const bool collapse : {false, true}) {
      for (const BlockEngine engine :
           {BlockEngine::kPerFault, BlockEngine::kStemCpt,
            BlockEngine::kAuto}) {
        for (const uint32_t threads : {1u, 2u, 4u}) {
          const CampaignResult got =
              runCampaign(nl, false, threads, collapse, engine);
          ASSERT_EQ(ref, got)
              << nl.name() << " collapse=" << collapse << " engine="
              << static_cast<int>(engine) << " threads=" << threads;
        }
      }
    }
  }
}

TEST(EngineDifferential, TransitionAllConfigurationsBitIdentical) {
  for (const Netlist& nl : referenceCircuits()) {
    const CampaignResult ref = runCampaign(nl, /*transition=*/true,
                                           /*threads=*/1, /*collapse=*/false,
                                           BlockEngine::kPerFault);
    for (const bool collapse : {false, true}) {
      for (const BlockEngine engine :
           {BlockEngine::kPerFault, BlockEngine::kStemCpt}) {
        const CampaignResult got =
            runCampaign(nl, true, /*threads=*/2, collapse, engine);
        ASSERT_EQ(ref, got) << nl.name() << " collapse=" << collapse
                            << " engine=" << static_cast<int>(engine);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Brute-force mask reference: full faulty-machine resimulation per
// fault, compared against one no-drop block of each engine.

uint64_t bruteForceMask(const Netlist& nl,
                        const std::vector<uint64_t>& sources,
                        const fault::Fault& f, std::span<const GateId> obs) {
  sim::Simulator2v good(nl);
  sim::Simulator2v bad(nl);
  nl.forEachGate([&](GateId id, const Gate& g) {
    if (isSource(g.kind) && g.kind != CellKind::kConst0 &&
        g.kind != CellKind::kConst1) {
      good.setSource(id, sources[id.v]);
      bad.setSource(id, sources[id.v]);
    }
  });
  good.eval();
  const uint64_t forced =
      f.type == fault::FaultType::kStuckAt1 ? ~uint64_t{0} : uint64_t{0};
  const Levelized lev(nl);
  auto vals = bad.rawValues();
  if (f.pin == fault::kOutputPin) vals[f.gate.v] = forced;
  for (GateId id : lev.combOrder()) {
    const Gate& g = nl.gate(id);
    uint64_t v;
    if (id == f.gate && f.pin != fault::kOutputPin) {
      std::vector<uint64_t> ins;
      for (size_t s = 0; s < g.fanins.size(); ++s) {
        ins.push_back(s == f.pin ? forced : vals[g.fanins[s].v]);
      }
      v = evalWord2v(g.kind, ins);
    } else {
      v = bad.evalGate(id);
    }
    if (id == f.gate && f.pin == fault::kOutputPin) v = forced;
    vals[id.v] = v;
  }
  uint64_t detect = 0;
  for (GateId o : obs) detect |= vals[o.v] ^ good.value(o);
  return detect;
}

TEST(EngineDifferential, MasksMatchBruteForceResimulation) {
  std::mt19937_64 rng(4242);
  for (const Netlist& nl :
       {gen::buildC17(), gen::buildCounter(16), gen::buildMiniAlu(8)}) {
    const std::vector<GateId> obs = fault::fullObservationSet(nl);
    std::vector<uint64_t> sources(nl.numGates(), 0);
    nl.forEachGate([&](GateId id, const Gate& g) {
      if (isSource(g.kind)) sources[id.v] = rng();
    });

    for (const BlockEngine engine :
         {BlockEngine::kPerFault, BlockEngine::kStemCpt}) {
      FaultList faults = FaultList::enumerateStuckAt(nl);
      FsimOptions opts;
      opts.n_detect = 1;
      opts.drop_detected = false;
      opts.engine = engine;
      FaultSimulator fsim(nl, faults, obs, opts);
      MaskRecorder recorder;
      fsim.setDetectionObserver(&recorder);
      nl.forEachGate([&](GateId id, const Gate& g) {
        if (isSource(g.kind) && g.kind != CellKind::kConst0 &&
            g.kind != CellKind::kConst1) {
          fsim.setSource(id, sources[id.v]);
        }
      });
      fsim.simulateBlockStuckAt(0);

      std::vector<uint64_t> got(faults.size(), 0);
      for (const auto& e : recorder.events) {
        got[e.fault_index] |= e.detect_mask.front();  // W = 1 here
      }
      for (size_t i = 0; i < faults.size(); ++i) {
        const fault::Fault& f = faults.record(i).fault;
        const Gate& g = nl.gate(f.gate);
        uint64_t expected;
        if (f.pin != fault::kOutputPin && g.kind == CellKind::kDff) {
          // Capture-pin faults detect at scan unload only; the raw
          // netlists here have no scan cells, so the engine reports 0.
          expected = 0;
        } else {
          expected = bruteForceMask(nl, sources, f, obs);
        }
        ASSERT_EQ(got[i], expected)
            << nl.name() << " engine=" << static_cast<int>(engine)
            << " fault " << i << " (" << f.describe(nl) << ")";
      }
    }
  }
}

// ---------------------------------------------------------------------
// Staged capture (the diagnosis dictionary path) with collapsing on/off.

std::vector<MaskRecorder::Event> runStaged(const Netlist& nl, bool collapse,
                                           uint32_t threads) {
  std::vector<std::vector<GateId>> stages(nl.numDomains());
  for (GateId dff : nl.dffs()) {
    stages[nl.gate(dff).domain.v].push_back(dff);
  }
  FaultList faults = FaultList::enumerateStuckAt(nl);
  FsimOptions opts;
  opts.drop_detected = false;
  opts.threads = threads;
  opts.min_faults_per_thread = 1;
  opts.collapse = collapse;
  FaultSimulator fsim(nl, faults, fault::fullObservationSet(nl), opts);
  MaskRecorder recorder;
  fsim.setDetectionObserver(&recorder);
  std::mt19937_64 rng(5);
  int64_t base = 0;
  for (int b = 0; b < 4; ++b) {
    for (GateId pi : nl.inputs()) fsim.setSource(pi, rng());
    for (GateId dff : nl.dffs()) fsim.setSource(dff, rng());
    fsim.simulateBlockStuckAtStaged(base, 64, stages);
    base += 64;
  }
  return std::move(recorder.events);
}

TEST(EngineDifferential, StagedCaptureCollapseInvariant) {
  // 356 faults in 324 classes: at 2, 3 and 4 threads neither compute set
  // is a multiple of the chunk count, so the chunks differ in size.
  const Netlist nl = gen::buildTwoDomainPipe(16);
  const size_t n_faults = FaultList::enumerateStuckAt(nl).size();
  for (const size_t threads : {2u, 3u, 4u}) {
    ASSERT_NE(n_faults % (fault::kChunksPerWorker * threads), 0u);
  }
  const auto ref = runStaged(nl, /*collapse=*/false, 1);
  EXPECT_FALSE(ref.empty());
  for (const bool collapse : {false, true}) {
    for (const uint32_t threads : {1u, 2u, 3u, 4u}) {
      EXPECT_EQ(ref, runStaged(nl, collapse, threads))
          << "collapse=" << collapse << " threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------
// Reach observer: folding must step aside and deliver true per-fault
// cones, identical to a collapse-off run.

class ReachRecorder final : public fault::ReachObserver {
 public:
  struct Event {
    size_t fault_index;
    std::vector<GateId> touched;
    friend bool operator==(const Event&, const Event&) = default;
  };
  void onFaultEffects(size_t fault_index,
                      std::span<const GateId> touched) override {
    events.push_back({fault_index, {touched.begin(), touched.end()}});
  }
  std::vector<Event> events;
};

TEST(EngineDifferential, ReachObserverUnaffectedByCollapse) {
  const Netlist nl = gen::buildMiniAlu(12);
  std::vector<ReachRecorder::Event> ref;
  for (const bool collapse : {false, true}) {
    FaultList faults = FaultList::enumerateStuckAt(nl);
    FsimOptions opts;
    opts.collapse = collapse;
    FaultSimulator fsim(nl, faults, fault::fullObservationSet(nl), opts);
    ReachRecorder recorder;
    fsim.setReachObserver(&recorder);
    std::mt19937_64 rng(31);
    for (GateId pi : nl.inputs()) fsim.setSource(pi, rng());
    for (GateId dff : nl.dffs()) fsim.setSource(dff, rng());
    fsim.simulateBlockStuckAt(0);
    if (!collapse) {
      ref = std::move(recorder.events);
      EXPECT_FALSE(ref.empty());
    } else {
      EXPECT_EQ(ref, recorder.events);
    }
  }
}

TEST(EngineDifferential, StagedCaptureRejectsReachObserver) {
  // Staged capture carries fault effects across pulses and has no
  // per-fault reach cone to report: attaching an observer is a caller
  // error in every build type, and nothing may be simulated or decided.
  const Netlist nl = gen::buildTwoDomainPipe(8);
  std::vector<std::vector<GateId>> stages(nl.numDomains());
  for (GateId dff : nl.dffs()) {
    stages[nl.gate(dff).domain.v].push_back(dff);
  }
  FaultList faults = FaultList::enumerateStuckAt(nl);
  FaultSimulator fsim(nl, faults, fault::fullObservationSet(nl));
  ReachRecorder recorder;
  fsim.setReachObserver(&recorder);
  std::mt19937_64 rng(17);
  for (GateId pi : nl.inputs()) fsim.setSource(pi, rng());
  for (GateId dff : nl.dffs()) fsim.setSource(dff, rng());
  const size_t live = fsim.liveFaultCount();
  EXPECT_THROW(fsim.simulateBlockStuckAtStaged(0, 64, stages),
               std::logic_error);
  EXPECT_TRUE(recorder.events.empty());
  EXPECT_EQ(fsim.liveFaultCount(), live);
  EXPECT_EQ(faults.coverage().detected, 0u);

  fsim.setReachObserver(nullptr);
  EXPECT_GT(fsim.simulateBlockStuckAtStaged(0, 64, stages), 0u);
}

// ---------------------------------------------------------------------
// Collapse-map structural properties.

TEST(CollapseMap, FoldsBufferChainsOntoDownstreamStem) {
  // a -> BUF -> NOT -> AND(, b) -> PO: the a/buf/not stems are one
  // chain; polarity flips through the NOT.
  Netlist nl("chain");
  const GateId a = nl.addInput("a");
  const GateId b = nl.addInput("b");
  const GateId buf = nl.addGate(CellKind::kBuf, {a});
  const GateId inv = nl.addGate(CellKind::kNot, {buf});
  const GateId g = nl.addGate(CellKind::kAnd, {inv, b});
  nl.addOutput(g, "y");

  FaultList faults = FaultList::enumerateStuckAt(nl);
  const std::vector<GateId> obs{g};
  const fault::CollapseMap cm = fault::buildCollapseMap(nl, faults, obs);

  auto indexOf = [&](GateId gate, fault::FaultType t) -> size_t {
    for (size_t i = 0; i < faults.size(); ++i) {
      const fault::Fault& f = faults.record(i).fault;
      if (f.gate == gate && f.pin == fault::kOutputPin && f.type == t) {
        return i;
      }
    }
    ADD_FAILURE() << "stem fault not found";
    return 0;
  };
  using fault::FaultType;
  const size_t and_sa0 = indexOf(g, FaultType::kStuckAt0);
  // a sa0 == buf sa0 == inv sa1; inv sa0 == AND-out sa0 (controlling).
  EXPECT_EQ(cm.representative(indexOf(a, FaultType::kStuckAt0)),
            cm.representative(indexOf(buf, FaultType::kStuckAt0)));
  EXPECT_EQ(cm.representative(indexOf(inv, FaultType::kStuckAt0)), and_sa0);
  EXPECT_EQ(cm.representative(indexOf(a, FaultType::kStuckAt1)),
            cm.representative(indexOf(inv, FaultType::kStuckAt0)));
  // Idempotence and accounting.
  for (size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(cm.representative(cm.representative(i)), cm.representative(i));
  }
  EXPECT_EQ(cm.stats().total, faults.size());
  EXPECT_EQ(cm.stats().classes + cm.stats().folded, faults.size());
  EXPECT_LT(cm.stats().classes, faults.size());
  // The observed AND stem must not fold anywhere, and its sa1 stem is
  // dominance-prunable only if a non-controlling pin fault exists (the
  // pin faults here collapsed away at enumeration, branch-free nets).
  EXPECT_EQ(cm.representative(and_sa0), and_sa0);
}

TEST(CollapseMap, ObservedStemsDoNotFoldForward) {
  // a -> BUF -> PO, with the BUF input net also observed: the a stem is
  // directly visible, so folding it onto the BUF stem would lose its
  // own-site detection.
  Netlist nl("observed");
  const GateId a = nl.addInput("a");
  const GateId buf = nl.addGate(CellKind::kBuf, {a});
  nl.addOutput(buf, "y");
  FaultList faults = FaultList::enumerateStuckAt(nl);

  const std::vector<GateId> obs_both{a, buf};
  const fault::CollapseMap cm = fault::buildCollapseMap(nl, faults, obs_both);
  for (size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(cm.representative(i), i) << "observed stem folded";
  }
}

TEST(CollapseMap, MarksDominancePrunableStems) {
  // Uncollapsed enumeration keeps the AND input-pin faults; in-j sa1
  // dominance-covers out sa1.
  Netlist nl("dom");
  const GateId a = nl.addInput("a");
  const GateId b = nl.addInput("b");
  const GateId g = nl.addGate(CellKind::kAnd, {a, b});
  nl.addOutput(g, "y");
  fault::FaultListOptions opts;
  opts.collapse = false;
  FaultList faults = FaultList::enumerateStuckAt(nl, opts);
  const std::vector<GateId> obs{g};
  const fault::CollapseMap cm = fault::buildCollapseMap(nl, faults, obs);

  size_t prunable = 0;
  for (size_t i = 0; i < faults.size(); ++i) {
    if (cm.dominancePrunable(i)) {
      ++prunable;
      const fault::Fault& f = faults.record(i).fault;
      EXPECT_EQ(f.gate, g);
      EXPECT_EQ(f.pin, fault::kOutputPin);
      EXPECT_EQ(f.type, fault::FaultType::kStuckAt1);
    }
  }
  EXPECT_EQ(prunable, 1u);
  EXPECT_EQ(cm.stats().dominance_prunable, 1u);
}

// Uncollapsed-enumeration universes must also be engine-invariant (pin
// faults that the default enumeration folds are exercised here).
TEST(EngineDifferential, UncollapsedUniverseBitIdentical) {
  const Netlist nl = gen::buildMiniAlu(12);
  fault::FaultListOptions fopts;
  fopts.collapse = false;
  auto run = [&](bool collapse, BlockEngine engine) {
    FaultList faults = FaultList::enumerateStuckAt(nl, fopts);
    FsimOptions opts;
    opts.n_detect = 2;
    opts.collapse = collapse;
    opts.engine = engine;
    FaultSimulator fsim(nl, faults, fault::fullObservationSet(nl), opts);
    MaskRecorder recorder;
    fsim.setDetectionObserver(&recorder);
    std::mt19937_64 rng(77);
    int64_t base = 0;
    for (int b = 0; b < 6; ++b) {
      for (GateId pi : nl.inputs()) fsim.setSource(pi, rng());
      for (GateId dff : nl.dffs()) fsim.setSource(dff, rng());
      fsim.simulateBlockStuckAt(base);
      base += 64;
    }
    return std::move(recorder.events);
  };
  const auto ref = run(false, BlockEngine::kPerFault);
  EXPECT_FALSE(ref.empty());
  EXPECT_EQ(ref, run(true, BlockEngine::kPerFault));
  EXPECT_EQ(ref, run(false, BlockEngine::kStemCpt));
  EXPECT_EQ(ref, run(true, BlockEngine::kStemCpt));
}

}  // namespace
}  // namespace lbist
