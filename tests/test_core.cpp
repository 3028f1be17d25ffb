// End-to-end: LbistArchitect flow, cycle-accurate BistSession, coverage
// flow, JTAG-driven LbistTop, and Table 1 reporting.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/architect.hpp"
#include "core/flow.hpp"
#include "core/lbist_top.hpp"
#include "core/pattern_source.hpp"
#include "core/report.hpp"
#include "core/session.hpp"
#include "core/thread_pool.hpp"
#include "dft/xbound.hpp"
#include "fault/fault.hpp"
#include "fault/inject.hpp"
#include "gen/ipcore.hpp"
#include "gen/soc.hpp"
#include "netlist/stats.hpp"
#include "sim/sim2v.hpp"
#include "soc/chip.hpp"

namespace lbist::core {
namespace {

Netlist testCore(uint64_t seed = 2024, int domains = 2) {
  gen::IpCoreSpec spec;
  spec.seed = seed;
  spec.target_comb_gates = 900;
  spec.target_ffs = 70;
  spec.num_inputs = 12;
  spec.num_outputs = 10;
  spec.num_domains = domains;
  spec.num_xsources = 2;
  spec.num_noscan_ffs = 2;
  return gen::generateIpCore(spec);
}

LbistConfig smallConfig() {
  LbistConfig cfg;
  cfg.num_chains = 4;
  cfg.test_points = 8;
  cfg.tpi.warmup_patterns = 256;
  cfg.tpi.guidance_patterns = 128;
  return cfg;
}

TEST(Architect, BuildsBistReadyCore) {
  const Netlist core = testCore();
  const BistReadyCore ready = buildBistReadyCore(core, smallConfig());
  EXPECT_EQ(ready.netlist.validate(), "");
  EXPECT_EQ(ready.scan.chains.size(), 4u);
  EXPECT_EQ(ready.domain_bist.size(), 2u);
  EXPECT_LE(ready.observe_cells.size(), 8u);
  EXPECT_GT(ready.observe_cells.size(), 0u);
  EXPECT_GT(ready.overheadPercent(), 0.0);
  // X sources blocked.
  EXPECT_EQ(ready.xbound.bounded_xsources, 2u);
  EXPECT_TRUE(dft::verifyNoXToObservation(ready.netlist).empty());
}

TEST(Architect, MisrAtLeastChainCountWithoutCompactor) {
  const Netlist core = testCore();
  LbistConfig cfg = smallConfig();
  cfg.num_chains = 6;
  cfg.misr_min_length = 4;
  cfg.use_space_compactor = false;
  const BistReadyCore ready = buildBistReadyCore(core, cfg);
  for (const DomainBist& db : ready.domain_bist) {
    EXPECT_GE(db.odc.misr_length,
              static_cast<int>(db.chain_indices.size()))
        << "paper: no compactor means MISR length >= chains";
  }
}

TEST(Architect, CopAndNoneTpiMethods) {
  const Netlist core = testCore(7);
  LbistConfig cfg = smallConfig();
  cfg.tpi_method = TpiMethod::kCop;
  const BistReadyCore cop = buildBistReadyCore(core, cfg);
  EXPECT_EQ(cop.observe_cells.size(), 8u);
  cfg.tpi_method = TpiMethod::kNone;
  const BistReadyCore none = buildBistReadyCore(core, cfg);
  EXPECT_TRUE(none.observe_cells.empty());
}

TEST(Session, GoldenRunIsDeterministicAndFinishes) {
  const Netlist core = testCore();
  const BistReadyCore ready = buildBistReadyCore(core, smallConfig());
  BistSession s1(ready, ready.netlist);
  BistSession s2(ready, ready.netlist);
  SessionOptions opts;
  opts.patterns = 8;
  const SessionResult r1 = s1.run(opts);
  const SessionResult r2 = s2.run(opts);
  EXPECT_TRUE(r1.finish);
  EXPECT_EQ(r1.patterns_done, 8);
  EXPECT_EQ(r1.signatures, r2.signatures);
  EXPECT_EQ(r1.signatures.size(), ready.domain_bist.size());
  EXPECT_EQ(r1.shift_pulses,
            static_cast<uint64_t>(8 * ready.shiftCyclesPerPattern()));
  // Two capture pulses per domain per pattern (double capture).
  EXPECT_EQ(r1.capture_pulses, static_cast<uint64_t>(8 * 2 * 2));
}

TEST(Session, InjectedFaultFlipsResult) {
  const Netlist core = testCore(4242);
  const BistReadyCore ready = buildBistReadyCore(core, smallConfig());
  SessionOptions opts;
  opts.patterns = 16;

  BistSession golden_session(ready, ready.netlist);
  const SessionResult golden = golden_session.run(opts);

  // Good die against golden: pass.
  BistSession good_die(ready, ready.netlist);
  const SessionResult good = good_die.run(opts, &golden);
  EXPECT_TRUE(good.result_pass);

  // Defective die: pick an easily-excited site (a scan cell's D driver)
  // and verify Result fails through the real signature path.
  Netlist bad = ready.netlist;
  GateId site;
  for (GateId dff : ready.netlist.dffs()) {
    if (ready.netlist.hasFlag(dff, kFlagScanCell)) {
      site = ready.netlist.gate(dff).fanins[0];
      break;
    }
  }
  ASSERT_TRUE(site.valid());
  fault::injectStuckAt(
      bad, fault::Fault{site, fault::kOutputPin,
                        fault::FaultType::kStuckAt1});
  BistSession bad_die(ready, bad);
  const SessionResult failed = bad_die.run(opts, &golden);
  EXPECT_TRUE(failed.finish);
  EXPECT_FALSE(failed.result_pass) << "stuck scan data must corrupt a MISR";
}

TEST(Session, SingleCaptureModeRuns) {
  const Netlist core = testCore(11);
  LbistConfig cfg = smallConfig();
  cfg.timing.double_capture = false;
  const BistReadyCore ready = buildBistReadyCore(core, cfg);
  BistSession s(ready, ready.netlist);
  SessionOptions opts;
  opts.patterns = 4;
  const SessionResult r = s.run(opts);
  EXPECT_TRUE(r.finish);
  EXPECT_EQ(r.capture_pulses, static_cast<uint64_t>(4 * 2 * 1));
}

/// One line per session run: the per-domain signature hex strings, then
/// every checkpoint as "@patterns" followed by its MISR words in hex.
std::string sessionFingerprint(const SessionResult& r) {
  std::string s;
  for (const std::string& sig : r.signatures) s += sig + " ";
  char buf[24];
  for (const SignatureCheckpoint& cp : r.checkpoints) {
    s += "@" + std::to_string(cp.patterns_done);
    for (const std::vector<uint64_t>& words : cp.domain_words) {
      for (uint64_t w : words) {
        std::snprintf(buf, sizeof(buf), ":%llx",
                      static_cast<unsigned long long>(w));
        s += buf;
      }
    }
  }
  return s;
}

/// The dies of the pinned-output test for one core: good, scan-mux select
/// tied to 0, one X-bounding AND freed, and a seeded functional fault.
std::vector<Netlist> pinnedDies(const BistReadyCore& ready, uint64_t seed) {
  const Netlist& nl = ready.netlist;
  std::vector<Netlist> dies(4, nl);
  const std::vector<GateId>& chain = ready.scan.chains[0].cells;
  const GateId mux = nl.gate(chain[chain.size() / 2]).fanins[0];
  fault::injectStuckAt(
      dies[1], fault::Fault{mux, 2, fault::FaultType::kStuckAt0});
  fault::injectStuckAt(
      dies[2], fault::Fault{ready.xbound.blocking_gates.back(), 1,
                            fault::FaultType::kStuckAt1});
  std::vector<GateId> functional;
  nl.forEachGate([&](GateId id, const Gate& g) {
    if (isCombinational(g.kind) && !nl.hasFlag(id, kFlagDftInserted)) {
      functional.push_back(id);
    }
  });
  fault::injectStuckAt(
      dies[3], fault::Fault{functional[seed % functional.size()],
                            fault::kOutputPin, fault::FaultType::kStuckAt1});
  return dies;
}

// Session output pinned bit-for-bit: signatures and checkpoint words of a
// small generated chip's cores, good and defective dies, with double
// capture on and off and interval windows off and every 8 patterns. The
// values were recorded from the reference full-evaluation session; any
// faster session path must reproduce them exactly.
TEST(Session, PinnedSignaturesAndCheckpoints) {
  gen::SocSpec spec;
  spec.name = "pinchip";
  spec.seed = 31;
  spec.num_cores = 3;
  spec.min_comb_gates = 250;
  spec.max_comb_gates = 500;
  spec.min_ffs = 24;
  spec.max_ffs = 40;
  spec.max_domains = 2;
  LbistConfig cfg;
  cfg.test_points = 4;
  cfg.tpi.warmup_patterns = 64;
  cfg.tpi.guidance_patterns = 32;
  soc::Chip chip("pinchip");
  soc::appendGeneratedCores(chip, spec, cfg);

  // Per core and die: double capture at interval 0 and 8, then single
  // capture at interval 0 and 8.
  const std::vector<std::string> expected = {
      // core 0, good die
      "000000000000e2e7 000000000007d8d0 ",
      "000000000000e2e7 000000000007d8d0 @8:674c5:6f62d@16:45333:230e0",
      "0000000000027e11 000000000004e2c3 ",
      "0000000000027e11 000000000004e2c3 @8:39ed8:4f61@16:55b10:5b36e",
      // core 0, scan-mux select stuck-at-0
      "000000000002fb36 000000000001b5b8 ",
      "000000000002fb36 000000000001b5b8 @8:5c490:4d64f@16:238bd:cdd2",
      "0000000000041eef 00000000000250e3 ",
      "0000000000041eef 00000000000250e3 @8:29fd4:575@16:1e3ad:55ca5",
      // core 0, X-bounding AND freed
      "000000000000e2e7 000000000007d8d0 ",
      "000000000000e2e7 000000000007d8d0 @8:674c5:6f62d@16:45333:230e0",
      "0000000000027e11 000000000004e2c3 ",
      "0000000000027e11 000000000004e2c3 @8:39ed8:4f61@16:55b10:5b36e",
      // core 0, functional stuck-at-1
      "0000000000070c1b 0000000000012e1f ",
      "0000000000070c1b 0000000000012e1f @8:19ad9:210c7@16:4895a:104fd",
      "0000000000050974 0000000000027716 ",
      "0000000000050974 0000000000027716 @8:64850:695b4@16:25d93:171bc",
      // core 1, good die
      "000000000000083c 000000000006a7cb ",
      "000000000000083c 000000000006a7cb @8:3a200:6ad67@16:6cb94:33b23",
      "0000000000027fed 0000000000036428 ",
      "0000000000027fed 0000000000036428 @8:3d81:47b94@16:17456:41c20",
      // core 1, scan-mux select stuck-at-0
      "0000000000065ef3 0000000000024383 ",
      "0000000000065ef3 0000000000024383 @8:b39a:4f319@16:2684e:43b69",
      "000000000004f998 00000000000222a2 ",
      "000000000004f998 00000000000222a2 @8:2f616:14160@16:7e1b5:7ad7d",
      // core 1, X-bounding AND freed
      "000000000003fbf9 000000000006a7cb ",
      "000000000003fbf9 000000000006a7cb @8:3a200:6ad67@16:4461d:33b23",
      "0000000000027fed 0000000000036428 ",
      "0000000000027fed 0000000000036428 @8:3d81:47b94@16:17456:41c20",
      // core 1, functional stuck-at-1
      "0000000000072514 0000000000061d28 ",
      "0000000000072514 0000000000061d28 @8:3a200:6ad67@16:4c438:18c9",
      "000000000005f408 000000000001fe45 ",
      "000000000005f408 000000000001fe45 @8:3d81:47b94@16:5c935:70307",
      // core 2, good die
      "0000000000025760 0000000000034aa5 ",
      "0000000000025760 0000000000034aa5 @8:44311:794be@16:23e66:1fcbe",
      "000000000002528c 00000000000535fc ",
      "000000000002528c 00000000000535fc @8:541de:50eb8@16:67cf6:33c6e",
      // core 2, scan-mux select stuck-at-0
      "000000000005c809 000000000005febd ",
      "000000000005c809 000000000005febd @8:387f3:4d369@16:29337:26055",
      "00000000000302e9 0000000000010081 ",
      "00000000000302e9 0000000000010081 @8:15b0a:37ded@16:d941:6bb6c",
      // core 2, X-bounding AND freed
      "0000000000025760 0000000000034aa5 ",
      "0000000000025760 0000000000034aa5 @8:44311:794be@16:23e66:1fcbe",
      "000000000002528c 00000000000535fc ",
      "000000000002528c 00000000000535fc @8:541de:50eb8@16:67cf6:33c6e",
      // core 2, functional stuck-at-1
      "000000000003d0bf 00000000000177bf ",
      "000000000003d0bf 00000000000177bf @8:542ac:3611b@16:4a019:fc6e",
      "000000000001bb40 000000000001e58f ",
      "000000000001bb40 000000000001e58f @8:1eea7:5a531@16:1cef1:4f19d",
  };
  std::vector<std::string> actual;
  for (size_t c = 0; c < chip.numCores(); ++c) {
    const BistReadyCore& ready = chip.core(c);
    const std::vector<Netlist> dies = pinnedDies(ready, 1000 + c);
    for (const Netlist& die : dies) {
      for (bool double_capture : {true, false}) {
        for (int64_t interval : {int64_t{0}, int64_t{8}}) {
          SessionOptions opts;
          opts.patterns = 20;
          opts.signature_interval = interval;
          bist::AtSpeedTimingConfig timing = ready.config.timing;
          timing.double_capture = double_capture;
          opts.timing_override = timing;
          BistSession session(ready, die);
          actual.push_back(sessionFingerprint(session.run(opts)));
        }
      }
    }
  }
  std::string dump;
  for (const std::string& a : actual) dump += "      \"" + a + "\",\n";
  EXPECT_EQ(actual, expected) << "actual:\n" << dump;
}

// One session object run repeatedly, with the options changing between
// runs, must match a fresh session every time: run() resets everything a
// previous run touched (diagnosis reuses its golden session this way).
TEST(Session, ReusedSessionMatchesFreshSession) {
  const Netlist core = testCore(303);
  const BistReadyCore ready = buildBistReadyCore(core, smallConfig());
  Netlist bad = ready.netlist;
  fault::injectStuckAt(
      bad, fault::Fault{ready.xbound.blocking_gates.back(), 1,
                        fault::FaultType::kStuckAt1});

  std::vector<SessionOptions> runs(6);
  runs[0].patterns = 12;
  runs[1].patterns = 5;
  runs[1].signature_interval = 2;
  runs[2].patterns = 9;
  runs[2].final_unload = false;
  runs[3].patterns = 12;
  runs[3].capture_order = {DomainId{1}, DomainId{0}};
  bist::AtSpeedTimingConfig single = ready.config.timing;
  single.double_capture = false;
  runs[4].patterns = 7;
  runs[4].signature_interval = 3;
  runs[4].timing_override = single;
  runs[5] = runs[0];

  const Netlist* dies[] = {&ready.netlist, &bad};
  for (const Netlist* die : dies) {
    BistSession reused(ready, *die);
    for (size_t i = 0; i < runs.size(); ++i) {
      // Alternate with and without a golden reference, too.
      BistSession golden_session(ready, ready.netlist);
      const SessionResult golden = golden_session.run(runs[i]);
      const SessionResult* ref = i % 2 == 0 ? &golden : nullptr;
      const SessionResult a = reused.run(runs[i], ref);
      const SessionResult b = BistSession(ready, *die).run(runs[i], ref);
      SCOPED_TRACE("run " + std::to_string(i));
      EXPECT_EQ(a.signatures, b.signatures);
      EXPECT_EQ(a.signature_words, b.signature_words);
      EXPECT_EQ(a.checkpoints, b.checkpoints);
      EXPECT_EQ(a.patterns_done, b.patterns_done);
      EXPECT_EQ(a.shift_pulses, b.shift_pulses);
      EXPECT_EQ(a.capture_pulses, b.capture_pulses);
      EXPECT_EQ(a.session_ps, b.session_ps);
      EXPECT_EQ(a.finish, b.finish);
      EXPECT_EQ(a.result_pass, b.result_pass);
    }
  }
}

// The lane contract over a whole stuck-at universe: every fault of a
// small three-domain core runs as a lane through runHypotheses, in passes
// of 64 in universe order, and lane l must be the session of
// injectStuckAt's die of hypothesis l, bit for bit: signatures, every
// interval-1 checkpoint and pulse counts. The sites whose faults change
// what the pulse programs prune are named first so they are covered
// whatever the enumeration keeps, and share a pass with functional
// sites: scan enable, test_mode, a scan-mux select, a scan cell's
// output, a chain's scan-out cell and an X-bounding gate.
TEST(Session, LaneHypothesesMatchInjectedDies) {
  gen::IpCoreSpec spec;
  spec.seed = 77;
  spec.target_comb_gates = 220;
  spec.target_ffs = 24;
  spec.num_inputs = 8;
  spec.num_outputs = 6;
  spec.num_domains = 3;
  spec.num_xsources = 2;
  spec.num_noscan_ffs = 2;
  LbistConfig cfg;
  cfg.num_chains = 3;
  cfg.test_points = 4;
  cfg.tpi.warmup_patterns = 64;
  cfg.tpi.guidance_patterns = 32;
  const BistReadyCore ready =
      buildBistReadyCore(gen::generateIpCore(spec), cfg);
  const Netlist& nl = ready.netlist;
  ASSERT_EQ(nl.numDomains(), 3u);
  ASSERT_FALSE(ready.xbound.blocking_gates.empty());

  const dft::ScanChain& chain = ready.scan.chains[0];
  const GateId cell = chain.cells[chain.cells.size() / 2];
  const GateId mux = nl.gate(cell).fanins[0];
  ASSERT_TRUE(nl.hasFlag(mux, kFlagScanMux));
  using fault::Fault;
  using fault::FaultType;
  std::vector<Fault> hypotheses = {
      {ready.scan.se_port, fault::kOutputPin, FaultType::kStuckAt0},
      {ready.scan.se_port, fault::kOutputPin, FaultType::kStuckAt1},
      {ready.scan.test_mode_port, fault::kOutputPin, FaultType::kStuckAt0},
      {mux, 2, FaultType::kStuckAt1},
      {mux, 2, FaultType::kStuckAt0},
      {cell, fault::kOutputPin, FaultType::kStuckAt1},
      {chain.so_driver, fault::kOutputPin, FaultType::kStuckAt0},
      {ready.xbound.blocking_gates.back(), 1, FaultType::kStuckAt1},
      {ready.xbound.blocking_gates.front(), fault::kOutputPin,
       FaultType::kStuckAt1},
  };
  const fault::FaultList universe = fault::FaultList::enumerateStuckAt(nl);
  for (size_t i = 0; i < universe.size(); ++i) {
    hypotheses.push_back(universe.record(i).fault);
  }

  SessionOptions opts;
  opts.patterns = 10;
  opts.signature_interval = 1;
  size_t passes = 0;
  const std::vector<SessionResult> lanes =
      BistSession(ready, nl).runHypotheses(hypotheses, opts, &passes);
  ASSERT_EQ(lanes.size(), hypotheses.size());
  EXPECT_EQ(passes, (hypotheses.size() + 63) / 64);
  for (size_t h = 0; h < hypotheses.size(); ++h) {
    Netlist die = nl;
    fault::injectStuckAt(die, hypotheses[h]);
    const SessionResult want = BistSession(ready, die).run(opts);
    const SessionResult& lane = lanes[h];
    SCOPED_TRACE(hypotheses[h].describe(nl));
    EXPECT_EQ(lane.signatures, want.signatures);
    EXPECT_EQ(lane.signature_words, want.signature_words);
    EXPECT_EQ(lane.checkpoints, want.checkpoints);
    EXPECT_EQ(lane.finish, want.finish);
    EXPECT_EQ(lane.shift_pulses, want.shift_pulses);
    EXPECT_EQ(lane.capture_pulses, want.capture_pulses);
  }
}

TEST(Flow, RandomPhaseReachesReasonableCoverage) {
  const Netlist core = testCore(100, 1);
  const BistReadyCore ready = buildBistReadyCore(core, smallConfig());
  CoverageFlow flow(ready);
  const RandomPhaseResult res = flow.runRandomPhase(2048);
  EXPECT_GT(res.coverage.faultCoveragePercent(), 70.0);
  EXPECT_LT(res.coverage.faultCoveragePercent(), 100.0);
  EXPECT_EQ(res.patterns, 2048);
}

TEST(Flow, TopUpRaisesCoverageBeyondRandom) {
  const Netlist core = testCore(101, 1);
  const BistReadyCore ready = buildBistReadyCore(core, smallConfig());
  CoverageFlow flow(ready);
  const RandomPhaseResult rand_res = flow.runRandomPhase(1024);
  const atpg::TopUpResult topup = flow.runTopUp();
  EXPECT_GT(topup.final_coverage.faultCoveragePercent(),
            rand_res.coverage.faultCoveragePercent());
  EXPECT_GT(topup.final_coverage.testCoveragePercent(), 95.0);
}

// Serial reference for PrpgPatternSource: per domain, the
// Prpg::nextSlice stream BistSession::shiftCycle consumes, one lane, one
// shift cycle and one chain at a time. Returns per-gate rows of stride W
// for the next `lanes` patterns (lanes past `lanes` zero).
class SerialPrpgReference {
 public:
  explicit SerialPrpgReference(const BistReadyCore& core) : core_(&core) {
    for (const DomainBist& db : core.domain_bist) prpgs_.emplace_back(db.prpg);
  }

  std::vector<uint64_t> nextBlock(int lanes, size_t lane_words) {
    std::vector<uint64_t> rows(core_->netlist.numGates() * lane_words, 0);
    const int shift_cycles = core_->shiftCyclesPerPattern();
    for (int lane = 0; lane < lanes; ++lane) {
      const size_t word = static_cast<size_t>(lane) / 64;
      const uint64_t bit = uint64_t{1} << (lane % 64);
      for (size_t i = 0; i < prpgs_.size(); ++i) {
        const DomainBist& db = core_->domain_bist[i];
        std::vector<uint8_t> slice(db.chain_indices.size());
        for (int k = 0; k < shift_cycles; ++k) {
          prpgs_[i].nextSlice(slice);
          // Bit of cycle k lands in cell L-1-k (last bit nearest SI).
          const size_t cell_pos = static_cast<size_t>(shift_cycles - 1 - k);
          for (size_t c = 0; c < slice.size(); ++c) {
            const dft::ScanChain& chain =
                core_->scan.chains[db.chain_indices[c]];
            if (cell_pos < chain.cells.size() && slice[c] != 0) {
              rows[chain.cells[cell_pos].v * lane_words + word] |= bit;
            }
          }
        }
      }
    }
    return rows;
  }

 private:
  const BistReadyCore* core_;
  std::vector<bist::Prpg> prpgs_;
};

// Loads successive blocks of sizes 1, 63, 64, 65 and 64*W (those that
// fit) through PrpgPatternSource and compares every DFF row read back
// from the simulator with the serial reference — same stimulus per
// pattern, same stream continuity across blocks.
void expectSourceMatchesSerialStream(const BistReadyCore& core,
                                     const std::string& label) {
  for (const size_t w : {size_t{1}, size_t{4}, size_t{8}}) {
    SCOPED_TRACE(label + " W=" + std::to_string(w));
    PrpgPatternSource source(core, w);
    SerialPrpgReference reference(core);
    sim::Simulator2v sim(core.netlist, w);
    int block = 0;
    for (const int lanes : {1, 63, 64, 65, static_cast<int>(64 * w)}) {
      if (static_cast<size_t>(lanes) > source.lanes()) continue;
      source.loadBlock(sim, lanes);
      const std::vector<uint64_t> expected = reference.nextBlock(lanes, w);
      size_t mismatched = 0;
      for (GateId dff : core.netlist.dffs()) {
        const sim::LaneMask row = sim.valueRow(dff);
        for (size_t i = 0; i < w; ++i) {
          if (row.word(i) != expected[dff.v * w + i]) ++mismatched;
        }
      }
      EXPECT_EQ(mismatched, 0u) << "block " << block << ": " << lanes;
      ++block;
    }
    EXPECT_GE(block, 3) << "stream continuity needs successive blocks";
  }
}

TEST(Flow, PrpgExactStatesMatchSessionShift) {
  const Netlist netlist = testCore(55);
  const BistReadyCore ready = buildBistReadyCore(netlist, smallConfig());
  ASSERT_EQ(ready.domain_bist.size(), 2u);
  const size_t window = static_cast<size_t>(ready.shiftCyclesPerPattern());
  bool short_chain = false;
  for (const dft::ScanChain& c : ready.scan.chains) {
    short_chain |= c.cells.size() < window;
  }
  ASSERT_TRUE(short_chain) << "need a chain shorter than the shift window";
  expectSourceMatchesSerialStream(ready, "direct");

  // Same core behind space expanders: fewer phase-shifter channels than
  // chains in every domain that has at least two chains.
  BistReadyCore expanded = ready;
  bool any_expander = false;
  for (DomainBist& db : expanded.domain_bist) {
    if (db.prpg.chains < 2) continue;
    db.prpg.ps_channels = db.prpg.chains - 1;
    any_expander |= bist::Prpg(db.prpg).expander() != nullptr;
  }
  ASSERT_TRUE(any_expander);
  expectSourceMatchesSerialStream(expanded, "expander");
}

TEST(Flow, PatternSourceRejectsOversizedBlock) {
  const Netlist netlist = testCore(56);
  const BistReadyCore ready = buildBistReadyCore(netlist, smallConfig());
  PrpgPatternSource source(ready, 1);
  sim::Simulator2v sim(ready.netlist, 1);
  const int too_many = static_cast<int>(source.lanes()) + 1;
  EXPECT_THROW(source.loadBlock(sim, too_many), std::invalid_argument);
  EXPECT_THROW(source.loadBlock(sim, -1), std::invalid_argument);
  EXPECT_NO_THROW(source.loadBlock(sim, static_cast<int>(source.lanes())));
}

TEST(Flow, TransitionUniverseWorks) {
  const Netlist core = testCore(102, 1);
  const BistReadyCore ready = buildBistReadyCore(core, smallConfig());
  CoverageFlow flow(ready, /*transition=*/true);
  const RandomPhaseResult res = flow.runRandomPhase(1024);
  EXPECT_GT(res.coverage.faultCoveragePercent(), 20.0);
}

TEST(LbistTopJtag, FullJtagDrivenSelfTest) {
  const Netlist core = testCore(900);
  const BistReadyCore ready = buildBistReadyCore(core, smallConfig());

  // Golden signatures from a direct session run.
  BistSession golden_session(ready, ready.netlist);
  SessionOptions opts;
  opts.patterns = 5;
  const SessionResult golden = golden_session.run(opts);

  LbistTop top(ready, ready.netlist);
  top.setGoldenSignatures(golden.signatures);
  jtag::TapDriver driver(top.tap());
  driver.reset();

  // CTRL: start=1, patterns=5.
  std::vector<uint8_t> ctrl(LbistTop::kCtrlBits, 0);
  ctrl[0] = 1;
  ctrl[1] = 1;  // bit0 of pattern count
  ctrl[3] = 1;  // bit2 -> 4: total 5
  driver.loadInstruction(LbistTop::kOpcodeCtrl);
  driver.shiftData(ctrl);

  // STATUS: finish=1, result=1.
  driver.loadInstruction(LbistTop::kOpcodeStatus);
  const auto status = driver.shiftData({0, 0});
  EXPECT_EQ(status[0], 1) << "Finish";
  EXPECT_EQ(status[1], 1) << "Result (pass)";

  // Signatures unload for diagnosis.
  size_t sig_bits = 0;
  for (const DomainBist& db : ready.domain_bist) {
    sig_bits += static_cast<size_t>(db.odc.misr_length);
  }
  driver.loadInstruction(LbistTop::kOpcodeSignature);
  const auto sig = driver.shiftData(std::vector<uint8_t>(sig_bits, 0));
  EXPECT_EQ(sig.size(), sig_bits);
  bool any = false;
  for (uint8_t b : sig) any = any || b != 0;
  EXPECT_TRUE(any) << "signatures should be non-trivial";
}

TEST(LbistTopJtag, FailingDieReportsResultZero) {
  const Netlist core = testCore(901);
  const BistReadyCore ready = buildBistReadyCore(core, smallConfig());
  BistSession golden_session(ready, ready.netlist);
  SessionOptions opts;
  opts.patterns = 5;
  const SessionResult golden = golden_session.run(opts);

  Netlist bad = ready.netlist;
  GateId site;
  for (GateId dff : ready.netlist.dffs()) {
    if (ready.netlist.hasFlag(dff, kFlagScanCell)) {
      site = ready.netlist.gate(dff).fanins[0];
      break;
    }
  }
  fault::injectStuckAt(bad, fault::Fault{site, fault::kOutputPin,
                                         fault::FaultType::kStuckAt0});

  LbistTop top(ready, bad);
  top.setGoldenSignatures(golden.signatures);
  jtag::TapDriver driver(top.tap());
  driver.reset();
  std::vector<uint8_t> ctrl(LbistTop::kCtrlBits, 0);
  ctrl[0] = 1;
  ctrl[1] = 1;
  ctrl[3] = 1;
  driver.loadInstruction(LbistTop::kOpcodeCtrl);
  driver.shiftData(ctrl);
  driver.loadInstruction(LbistTop::kOpcodeStatus);
  const auto status = driver.shiftData({0, 0});
  EXPECT_EQ(status[0], 1) << "Finish";
  EXPECT_EQ(status[1], 0) << "Result must be fail";
}

TEST(Report, Table1RendersAllRows) {
  const Netlist core = testCore(555, 1);
  const NetlistStats stats = computeStats(core);
  const BistReadyCore ready = buildBistReadyCore(core, smallConfig());
  CoverageFlow flow(ready);
  const RandomPhaseResult rp = flow.runRandomPhase(512);
  const atpg::TopUpResult tu = flow.runTopUp();
  const Table1Column col = buildTable1Column(stats, ready, rp, tu, 12.3);

  EXPECT_EQ(col.random_patterns, 512);
  EXPECT_GT(col.fault_coverage_2, col.fault_coverage_1);
  const std::string table = renderTable1({&col, 1});
  for (const char* row :
       {"Gate Count", "# of FFs", "# of Scan Chains", "Max. Chain Length",
        "# of Clock Domains", "Frequency", "# of PRPGs", "PRPG Length",
        "# of MISRs", "MISR Length", "# of Test Points",
        "# of Random Patterns", "Fault Coverage 1", "CPU Time", "Overhead",
        "# of Top-Up Patterns", "Fault Coverage 2"}) {
    EXPECT_NE(table.find(row), std::string::npos) << row;
  }
}

TEST(Report, DurationFormatting) {
  EXPECT_EQ(formatDuration(43.0), "43s");
  EXPECT_EQ(formatDuration(25 * 60 + 43), "25m43s");
  EXPECT_EQ(formatDuration(2 * 3600 + 26 * 60 + 48), "2h26m48s");
}

TEST(ThreadPool, ThrowingJobSurfacesAtMergePointNotTerminate) {
  // A throwing shard must never escape a worker thread (std::terminate)
  // or strand the dispatch accounting: all other shards still run, and
  // the exception resurfaces on the calling thread after the round.
  for (unsigned threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    std::atomic<unsigned> ran{0};
    try {
      pool.run(8, [&](unsigned shard) {
        if (shard == 3) throw std::runtime_error("job 3 failed");
        ++ran;
      });
      FAIL() << "exception swallowed (threads=" << threads << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "job 3 failed") << "threads=" << threads;
    }
    EXPECT_EQ(ran.load(), 7u)
        << "non-throwing shards all completed (threads=" << threads << ")";

    // The pool survives the round: the next dispatch works normally.
    std::atomic<unsigned> again{0};
    pool.run(4, [&](unsigned) { ++again; });
    EXPECT_EQ(again.load(), 4u) << "threads=" << threads;
  }
}

TEST(ThreadPool, LowestThrowingShardWins) {
  // With several throwing shards the surfaced exception is the lowest
  // shard's, independent of thread scheduling.
  ThreadPool pool(4);
  for (int round = 0; round < 5; ++round) {
    try {
      pool.run(8, [&](unsigned shard) {
        if (shard % 2 == 1) {
          throw std::runtime_error("shard " + std::to_string(shard));
        }
      });
      FAIL() << "exception swallowed";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "shard 1");
    }
  }
}

TEST(Architecture, DescribeListsFig1Blocks) {
  const Netlist core = testCore(77);
  const BistReadyCore ready = buildBistReadyCore(core, smallConfig());
  const std::string desc = describeArchitecture(ready);
  EXPECT_NE(desc.find("Controller"), std::string::npos);
  EXPECT_NE(desc.find("Clock gating"), std::string::npos);
  EXPECT_NE(desc.find("Boundary-Scan TAP"), std::string::npos);
  EXPECT_NE(desc.find("PRPG1"), std::string::npos);
  EXPECT_NE(desc.find("MISR1"), std::string::npos);
  EXPECT_NE(desc.find("observation points"), std::string::npos);
}

}  // namespace
}  // namespace lbist::core
