// Observability layer: deterministic counter merging, the trace
// writer's format guarantees, and — the load-bearing half — the
// ARCHITECTURE.md contract 5 differentials: whole fsim / top-up ATPG /
// SoC-campaign runs with every instrument enabled must be bit-identical
// (detection state, pattern sets, checkpoint bytes) to the same runs
// with everything off.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "atpg/topup.hpp"
#include "fault/fault.hpp"
#include "fault/fsim.hpp"
#include "gen/refcircuits.hpp"
#include "gen/soc.hpp"
#include "obs/obs.hpp"
#include "soc/campaign.hpp"
#include "soc/chip.hpp"
#include "soc/power.hpp"
#include "soc/schedule.hpp"

namespace lbist {
namespace {

/// Flips every instrument together — counters/timers, trace, series,
/// event log — and clears any shard state the previous test (or run
/// leg) left behind. Calling from the test thread also makes it the
/// series owner, matching how a bench main arms the sampler.
void obsAll(bool on) {
  obs::setMetricsEnabled(on);
  obs::setTraceEnabled(on);
  obs::setSeriesEnabled(on);
  obs::setEventsEnabled(on);
  obs::resetAll();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(ObsCounters, MergeIsIndependentOfThreadSplit) {
  obs::setMetricsEnabled(true);
  const uint32_t id = obs::counterId("test.merge_total");
  const auto runSplit = [&](unsigned n_threads) {
    obs::resetAll();
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < n_threads; ++t) {
      workers.emplace_back([&, t] {
        for (uint64_t i = t; i < 1000; i += n_threads) obs::addCount(id, i);
      });
    }
    for (std::thread& w : workers) w.join();
    return obs::counterValue("test.merge_total");
  };
  // Same work split across 1, 3, and 8 shards: summation is commutative,
  // so the merged total cannot depend on the split.
  const uint64_t expect = 999ull * 1000ull / 2ull;
  EXPECT_EQ(runSplit(1), expect);
  EXPECT_EQ(runSplit(3), expect);
  EXPECT_EQ(runSplit(8), expect);
  obsAll(false);
}

TEST(ObsCounters, SnapshotIsSortedAndResetKeepsNames) {
  obs::setMetricsEnabled(true);
  obs::resetAll();
  OBS_COUNT("test.zebra", 2);
  OBS_COUNT("test.alpha", 1);
  const std::vector<obs::CounterValue> snap = obs::counterSnapshot();
  ASSERT_GE(snap.size(), 2u);
  EXPECT_TRUE(std::is_sorted(
      snap.begin(), snap.end(),
      [](const obs::CounterValue& a, const obs::CounterValue& b) {
        return a.name < b.name;
      }));
  EXPECT_EQ(obs::counterValue("test.alpha"), 1u);
  EXPECT_EQ(obs::counterValue("test.zebra"), 2u);

  obs::resetAll();
  // Interned names survive a reset (they are process-stable ids); only
  // the values clear.
  EXPECT_EQ(obs::counterValue("test.alpha"), 0u);
  bool alpha_listed = false;
  for (const obs::CounterValue& c : obs::counterSnapshot()) {
    alpha_listed |= c.name == "test.alpha";
  }
  EXPECT_TRUE(alpha_listed);
  obsAll(false);
}

TEST(ObsCounters, DisabledMacroRecordsNothing) {
  obsAll(false);
  OBS_COUNT("test.gated", 7);
  EXPECT_EQ(obs::counterValue("test.gated"), 0u);
  obs::setMetricsEnabled(true);
  OBS_COUNT("test.gated", 7);
  EXPECT_EQ(obs::counterValue("test.gated"), 7u);
  obsAll(false);
}

TEST(ObsTimers, SpanRecordsCountsDeterministically) {
  obs::setMetricsEnabled(true);
  obs::resetAll();
  for (int i = 0; i < 5; ++i) {
    OBS_SPAN("test.timed_scope");
  }
  bool found = false;
  for (const obs::TimerValue& t : obs::timerSnapshot()) {
    if (t.name != "test.timed_scope") continue;
    found = true;
    EXPECT_EQ(t.count, 5u);
    EXPECT_GE(t.total_seconds, 0.0);
    EXPECT_LE(t.min_seconds, t.max_seconds);
  }
  EXPECT_TRUE(found);
  obsAll(false);
}

TEST(ObsTrace, WriterEmitsPerfettoLoadableNestedEvents) {
  obsAll(true);
  {
    OBS_SPAN("test.outer");
    {
      OBS_SPAN("test.inner");
    }
  }
  std::thread worker([] {
    obs::setThreadName("obs-test-worker");
    OBS_SPAN("test.worker_span");
  });
  worker.join();

  const std::string path = "obs_trace_test.json";
  ASSERT_TRUE(obs::writeTraceJson(path));
  const std::string text = slurp(path);
  std::remove(path.c_str());
  obsAll(false);

  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.front(), '{');
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(text.find("process_name"), std::string::npos);
  EXPECT_NE(text.find("obs-test-worker"), std::string::npos);
  EXPECT_NE(text.find("test.worker_span"), std::string::npos);
  // The writer sorts each track by (begin asc, duration desc), so the
  // enclosing span is emitted before the span it contains — the nesting
  // invariant scripts/check_trace.py re-validates on CI artifacts.
  const size_t outer = text.find("test.outer");
  const size_t inner = text.find("test.inner");
  ASSERT_NE(outer, std::string::npos);
  ASSERT_NE(inner, std::string::npos);
  EXPECT_LT(outer, inner);
}

// ---------------------------------------------------------------------
// Time series: work-anchored counter deltas, owner-thread sampling,
// and byte-identical series JSON for every thread split.
// ---------------------------------------------------------------------

TEST(ObsSeries, RecordsWorkAnchoredCounterDeltas) {
  obs::setMetricsEnabled(true);
  obs::setSeriesEnabled(true);
  obs::resetAll();
  OBS_COUNT("test.series_ctr", 3);
  OBS_SAMPLE("test.series_point", 64);
  OBS_COUNT("test.series_ctr", 5);
  OBS_SAMPLE("test.series_point", 128);
  OBS_SAMPLE("test.series_point", 192);  // nothing moved since last
  bool found = false;
  for (const obs::SeriesValue& sv : obs::seriesSnapshot()) {
    if (sv.name != "test.series_point") continue;
    found = true;
    ASSERT_EQ(sv.samples.size(), 3u);
    EXPECT_EQ(sv.samples[0].work, 64);
    EXPECT_EQ(sv.samples[1].work, 128);
    EXPECT_EQ(sv.samples[2].work, 192);
    ASSERT_EQ(sv.samples[0].deltas.size(), 1u);
    EXPECT_EQ(sv.samples[0].deltas[0].first, "test.series_ctr");
    EXPECT_EQ(sv.samples[0].deltas[0].second, 3u);
    ASSERT_EQ(sv.samples[1].deltas.size(), 1u);
    EXPECT_EQ(sv.samples[1].deltas[0].second, 5u);
    // A quiet interval still records its work anchor (the rate curve
    // needs the x value), just with no counter movement.
    EXPECT_TRUE(sv.samples[2].deltas.empty());
    EXPECT_EQ(sv.dropped, 0u);
  }
  EXPECT_TRUE(found);
  obsAll(false);
}

TEST(ObsSeries, OnlyTheOwnerThreadRecordsSamples) {
  obs::setMetricsEnabled(true);
  obs::setSeriesEnabled(true);
  obs::resetAll();
  // A worker hitting a sample site mid-flight must silently no-op: its
  // sibling shards are live, so totals there are not quiescent.
  std::thread worker([] { OBS_SAMPLE("test.owner_point", 1); });
  worker.join();
  OBS_SAMPLE("test.owner_point", 2);
  for (const obs::SeriesValue& sv : obs::seriesSnapshot()) {
    if (sv.name != "test.owner_point") continue;
    ASSERT_EQ(sv.samples.size(), 1u);
    EXPECT_EQ(sv.samples[0].work, 2);
  }
  obsAll(false);
}

/// One 4-block fsim campaign at `threads`, returning the series JSON
/// bytes. Counter totals at block boundaries are merged sums of
/// per-fault work, so the sampled deltas — and the emitted bytes —
/// cannot depend on the shard split.
std::string fsimSeriesJson(const Netlist& nl, unsigned threads) {
  obsAll(true);
  fault::FaultList faults = fault::FaultList::enumerateStuckAt(nl);
  fault::FsimOptions opts;
  opts.threads = threads;
  opts.min_faults_per_thread = 1;
  opts.engine = fault::BlockEngine::kPerFault;
  fault::FaultSimulator fsim(nl, faults, fault::fullObservationSet(nl),
                             opts);
  for (size_t b = 0; b < 4; ++b) {
    std::mt19937_64 rng(0xAB5'0BE5u + b);
    for (GateId pi : nl.inputs()) fsim.setSourceWord(pi, 0, rng());
    for (GateId dff : nl.dffs()) fsim.setSourceWord(dff, 0, rng());
    fsim.simulateBlockStuckAt(static_cast<int64_t>(b) * 64);
  }
  const std::string path = "obs_series_t" + std::to_string(threads) + ".json";
  EXPECT_TRUE(obs::writeSeriesJson(path));
  const std::string text = slurp(path);
  std::remove(path.c_str());
  obsAll(false);
  return text;
}

TEST(ObsSeries, FsimSeriesBytesAreIndependentOfThreadCount) {
  const Netlist nl = gen::buildMiniAlu(32);
  const std::string t1 = fsimSeriesJson(nl, 1);
  const std::string t2 = fsimSeriesJson(nl, 2);
  const std::string t4 = fsimSeriesJson(nl, 4);
  ASSERT_FALSE(t1.empty());
  EXPECT_NE(t1.find("\"fsim.block\""), std::string::npos);
  EXPECT_NE(t1.find("\"work\": ["), std::string::npos);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t4);
}

// ---------------------------------------------------------------------
// Event log: epoch ordering, deterministic shared commits, gauges, and
// the unified writer API.
// ---------------------------------------------------------------------

TEST(ObsEvents, SharedCommitsLandDeterministicallyWithinAnEpoch) {
  obs::setEventsEnabled(true);
  obs::resetAll();
  obs::Event("phase").field("name", "p").field("state", "begin").commit();
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([t] {
      obs::Event("inject")
          .field("point", "x")
          .field("idx", static_cast<int64_t>(t))
          .commitShared();
    });
  }
  for (std::thread& w : workers) w.join();
  obs::Event("phase").field("name", "p").field("state", "end").commit();
  const std::vector<std::string> lines = obs::eventLines();
  ASSERT_EQ(lines.size(), 6u);
  // Serial commits bracket the epoch; the racing shared commits sort by
  // content between them, so the log reads identically however the OS
  // interleaved the workers.
  EXPECT_NE(lines[0].find("\"state\":\"begin\""), std::string::npos);
  for (int i = 1; i <= 4; ++i) {
    EXPECT_NE(lines[i].find("\"ev\":\"inject\""), std::string::npos) << i;
  }
  EXPECT_TRUE(std::is_sorted(lines.begin() + 1, lines.begin() + 5));
  EXPECT_NE(lines[5].find("\"state\":\"end\""), std::string::npos);
  obsAll(false);
}

TEST(ObsEvents, DisabledLogRecordsNothing) {
  obsAll(false);
  obs::Event("phase").field("name", "gated").commit();
  EXPECT_TRUE(obs::eventLines().empty());
}

TEST(ObsGauges, HighWaterTracksPeakAndResetKeepsBalance) {
  obs::setMetricsEnabled(true);
  obs::resetAll();
  OBS_GAUGE_ADD("test.gauge", 100);
  OBS_GAUGE_ADD("test.gauge", 50);
  OBS_GAUGE_SUB("test.gauge", 120);
  obs::GaugeValue g = obs::gaugeValue("test.gauge");
  EXPECT_EQ(g.current, 30);
  EXPECT_EQ(g.peak, 150);
  obs::resetAll();
  g = obs::gaugeValue("test.gauge");
  // Live RAII charges survive a reset (releases must stay balanced);
  // only the high-water restarts, from the live balance.
  EXPECT_EQ(g.current, 30);
  EXPECT_EQ(g.peak, 30);
  OBS_GAUGE_SUB("test.gauge", 30);
  EXPECT_EQ(obs::gaugeValue("test.gauge").current, 0);
  obsAll(false);
}

TEST(ObsGauges, GaugeChargeBalancesAcrossCopyAndMove) {
  obs::setMetricsEnabled(true);
  obs::resetAll();
  const uint32_t id = obs::gaugeId("test.charge");
  {
    obs::GaugeCharge a(id, 64);
    EXPECT_EQ(obs::gaugeValue("test.charge").current, 64);
    obs::GaugeCharge b(a);  // a copy owns a copy of the allocation
    EXPECT_EQ(obs::gaugeValue("test.charge").current, 128);
    const obs::GaugeCharge c(std::move(a));  // a move transfers it
    EXPECT_EQ(obs::gaugeValue("test.charge").current, 128);
  }
  const obs::GaugeValue g = obs::gaugeValue("test.charge");
  EXPECT_EQ(g.current, 0);
  EXPECT_EQ(g.peak, 128);
  obsAll(false);
}

TEST(ObsWriters, PathOverloadsShareTheOpenAndErrorPath) {
  obs::setMetricsEnabled(true);
  obs::resetAll();
  OBS_COUNT("test.writer_ctr", 1);
  const std::string path = "obs_writers_test.json";
  ASSERT_TRUE(obs::writeCountersJson(path));
  const std::string text = slurp(path);
  std::remove(path.c_str());
  EXPECT_NE(text.find("\"counters\""), std::string::npos);
  EXPECT_NE(text.find("\"test.writer_ctr\": 1"), std::string::npos);
  // Every writer reports an unopenable path the same way: false, no
  // crash, no partial file.
  const std::string bad = "obs_no_such_dir/out.json";
  EXPECT_FALSE(obs::writeCountersJson(bad));
  EXPECT_FALSE(obs::writeTraceJson(bad));
  EXPECT_FALSE(obs::writeSeriesJson(bad));
  EXPECT_FALSE(obs::writeGaugesJson(bad));
  EXPECT_FALSE(obs::writeEventsJsonl(bad));
  obsAll(false);
}

// ---------------------------------------------------------------------
// Contract 5 differentials: instruments on vs off, bit-identical runs.
// ---------------------------------------------------------------------

struct FsimState {
  std::vector<fault::FaultStatus> status;
  std::vector<uint32_t> detect_count;
  std::vector<int64_t> first_detect;
  size_t newly = 0;

  friend bool operator==(const FsimState&, const FsimState&) = default;
};

/// One 8-block stuck-at campaign on 2 worker threads; `batched` selects
/// the batch dispatcher vs the sequential per-block loop. Patterns are
/// seeded per block so both paths consume identical stimulus.
FsimState runFsimCampaign(const Netlist& nl, bool batched) {
  fault::FaultList faults = fault::FaultList::enumerateStuckAt(nl);
  fault::FsimOptions opts;
  opts.threads = 2;
  opts.min_faults_per_thread = 1;
  // Pin the per-fault engine: kAuto would route this small dense net to
  // stem-CPT, whose batch call degenerates to the sequential loop — the
  // batched leg must exercise the real batch dispatcher.
  opts.engine = fault::BlockEngine::kPerFault;
  fault::FaultSimulator fsim(nl, faults, fault::fullObservationSet(nl),
                             opts);
  constexpr size_t kBlocks = 8;
  FsimState res;
  const auto fill = [&nl](auto& sink, size_t block) {
    std::mt19937_64 rng(0x0B5'CAFEu + block);
    for (GateId pi : nl.inputs()) sink.setSourceWord(pi, 0, rng());
    for (GateId dff : nl.dffs()) sink.setSourceWord(dff, 0, rng());
  };
  if (batched) {
    res.newly = fsim.simulateBatchStuckAt(
        0, kBlocks, [&](size_t b, sim::Simulator2v& sim) -> int {
          fill(sim, b);
          return 64;
        });
  } else {
    for (size_t b = 0; b < kBlocks; ++b) {
      fill(fsim, b);
      res.newly +=
          fsim.simulateBlockStuckAt(static_cast<int64_t>(b) * 64);
    }
  }
  for (size_t i = 0; i < faults.size(); ++i) {
    const fault::FaultRecord& rec = faults.record(i);
    res.status.push_back(rec.status);
    res.detect_count.push_back(rec.detect_count);
    res.first_detect.push_back(rec.first_detect_pattern);
  }
  return res;
}

TEST(ObsNeutrality, FsimSequentialAndBatchedAreBitIdentical) {
  const Netlist nl = gen::buildMiniAlu(32);
  for (const bool batched : {false, true}) {
    obsAll(false);
    const FsimState off = runFsimCampaign(nl, batched);
    obsAll(true);
    const FsimState on = runFsimCampaign(nl, batched);
    // The instrumented leg must actually have counted something — a
    // silent no-op instrumentation pass would make this test vacuous.
    EXPECT_GT(obs::counterValue(batched ? "fsim.batch_dispatches"
                                        : "fsim.blocks"),
              0u)
        << "batched=" << batched;
    EXPECT_GT(obs::counterValue("fsim.events_popped"), 0u);
    obsAll(false);
    EXPECT_TRUE(off == on) << "batched=" << batched;
  }
}

struct TopUpState {
  std::vector<std::vector<GateId>> pattern_sources;
  std::vector<std::vector<uint8_t>> pattern_values;
  std::vector<fault::FaultStatus> status;
  size_t targeted = 0;
  size_t atpg_detected = 0;
  size_t backtracks = 0;
  size_t patterns_before_compact = 0;

  friend bool operator==(const TopUpState&, const TopUpState&) = default;
};

TopUpState runTopUpCampaign(const Netlist& nl) {
  fault::FaultList faults = fault::FaultList::enumerateStuckAt(nl);
  std::vector<GateId> assignable(nl.inputs().begin(), nl.inputs().end());
  for (GateId dff : nl.dffs()) assignable.push_back(dff);
  const std::vector<GateId> observed = fault::fullObservationSet(nl);
  fault::FaultSimulator fsim(nl, faults, observed);
  atpg::TopUpConfig cfg;
  cfg.threads = 2;
  const atpg::TopUpResult res =
      atpg::runTopUp(nl, faults, fsim, observed, assignable, {}, cfg);

  TopUpState out;
  for (const atpg::TopUpPattern& p : res.patterns) {
    out.pattern_sources.push_back(p.sources);
    out.pattern_values.push_back(p.values);
  }
  for (size_t i = 0; i < faults.size(); ++i) {
    out.status.push_back(faults.record(i).status);
  }
  out.targeted = res.targeted;
  out.atpg_detected = res.atpg_detected;
  out.backtracks = res.backtracks;
  out.patterns_before_compact = res.patterns_before_compact;
  return out;
}

TEST(ObsNeutrality, TopUpAtpgIsBitIdentical) {
  const Netlist nl = gen::buildMiniAlu(32);
  obsAll(false);
  const TopUpState off = runTopUpCampaign(nl);
  obsAll(true);
  const TopUpState on = runTopUpCampaign(nl);
  EXPECT_GT(obs::counterValue("atpg.targets"), 0u);
  EXPECT_GT(obs::counterValue("atpg.cubes"), 0u);
  EXPECT_GT(obs::counterValue("atpg.rounds"), 0u);
  obsAll(false);
  EXPECT_FALSE(off.pattern_sources.empty());
  EXPECT_TRUE(off == on);
}

struct SocState {
  std::vector<std::string> core_names;
  std::vector<bool> core_pass;
  std::vector<std::vector<std::string>> core_sigs;
  std::vector<uint64_t> core_tcks;
  size_t failures = 0;
  size_t executed_groups = 0;
  bool complete = false;
  std::string checkpoint;

  friend bool operator==(const SocState&, const SocState&) = default;
};

SocState runSocCampaign(soc::CampaignRunner& runner,
                        const std::string& ckpt_path,
                        std::ostream* progress, unsigned threads = 2) {
  soc::CampaignOptions opts;
  opts.threads = threads;
  opts.checkpoint_path = ckpt_path;
  opts.progress = progress;
  const soc::CampaignResult res = runner.run(opts);

  SocState out;
  for (const soc::CoreRunResult& c : res.cores) {
    out.core_names.push_back(c.name);
    out.core_pass.push_back(c.pass);
    out.core_sigs.push_back(c.signatures);
    out.core_tcks.push_back(c.tcks);
  }
  out.failures = res.failures;
  out.executed_groups = res.executed_groups;
  out.complete = res.complete;
  out.checkpoint = slurp(ckpt_path);
  std::remove(ckpt_path.c_str());
  return out;
}

TEST(ObsNeutrality, SocCampaignAndCheckpointBytesAreBitIdentical) {
  constexpr int64_t kPatterns = 16;
  gen::SocSpec spec;
  spec.name = "obschip";
  spec.seed = 7;
  spec.num_cores = 4;
  spec.min_comb_gates = 250;
  spec.max_comb_gates = 550;
  spec.min_ffs = 24;
  spec.max_ffs = 48;
  spec.max_domains = 2;
  core::LbistConfig cfg;
  cfg.test_points = 4;
  cfg.tpi.warmup_patterns = 64;
  cfg.tpi.guidance_patterns = 32;
  soc::Chip chip("obschip");
  appendGeneratedCores(chip, spec, cfg);
  chip.characterizeGolden(kPatterns);

  core::SessionOptions session;
  session.patterns = kPatterns;
  // A sub-total budget forces multiple groups, so the heartbeat fires
  // more than once and the merge crosses group boundaries.
  const std::vector<soc::CoreSession> sessions =
      buildCoreSessions(chip, session, 64);
  const soc::TestSchedule sched =
      soc::Scheduler(std::max(peakSessionPower(sessions),
                              totalSessionPower(sessions) / 2.0))
          .build(sessions);
  soc::CampaignRunner runner(chip, sched, session);

  obsAll(false);
  const SocState off =
      runSocCampaign(runner, "obs_soc_off.txt", /*progress=*/nullptr);
  obsAll(true);
  std::ostringstream heartbeat;
  const SocState on = runSocCampaign(runner, "obs_soc_on.txt", &heartbeat);
  // The PRPG-driven power estimator is the prpg.* counter site (core
  // sessions clock their PRPGs directly); re-run it under the enabled
  // instruments to confirm the block loads are tallied.
  (void)buildCoreSessions(chip, session, 64);
  EXPECT_EQ(obs::counterValue("soc.cores_run"), 4u);
  EXPECT_EQ(obs::counterValue("soc.groups"), sched.groups.size());
  EXPECT_GT(obs::counterValue("prpg.block_loads"), 0u);
  // The new instruments all saw traffic in the on-leg: series samples
  // at the group merges, structured events, and memory gauges.
  bool group_series = false;
  for (const obs::SeriesValue& sv : obs::seriesSnapshot()) {
    if (sv.name == "soc.group") group_series = !sv.samples.empty();
  }
  EXPECT_TRUE(group_series);
  bool saw_core_result = false;
  for (const std::string& line : obs::eventLines()) {
    if (line.find("\"ev\":\"core_result\"") != std::string::npos) {
      saw_core_result = true;
    }
  }
  EXPECT_TRUE(saw_core_result);
  EXPECT_GT(obs::gaugeValue("sim.compiled_bytes").peak, 0);
  EXPECT_GT(obs::gaugeValue("soc.ckpt_wal_bytes").peak, 0);
  obsAll(false);

  // The acceptance leg: a 4-thread campaign with series + events +
  // gauges all enabled must match the all-off baseline byte for byte —
  // results, signatures, and checkpoint.
  obsAll(true);
  const SocState on4 =
      runSocCampaign(runner, "obs_soc_on4.txt", /*progress=*/nullptr, 4);
  obsAll(false);
  EXPECT_TRUE(off == on4);

  EXPECT_TRUE(off == on);
  EXPECT_FALSE(off.checkpoint.empty());
  // One heartbeat line per merged group, and the stream is pure output:
  // writing it did not perturb the bytes compared above.
  const std::string hb = heartbeat.str();
  EXPECT_EQ(static_cast<size_t>(std::count(hb.begin(), hb.end(), '\n')),
            sched.groups.size());
  EXPECT_NE(hb.find("[campaign] group 1/"), std::string::npos);
  // The heartbeat upgrade: every line now carries a throughput figure
  // and an ETA alongside the original fields.
  EXPECT_NE(hb.find(" tck/s"), std::string::npos);
  EXPECT_NE(hb.find("eta "), std::string::npos);
}

/// One full checkpointed campaign at `threads` on a freshly generated
/// 4-core chip, returning the deterministic event log bytes.
std::string socCampaignEvents(unsigned threads) {
  gen::SocSpec spec;
  spec.name = "obschip_ev";
  spec.seed = 11;
  spec.num_cores = 4;
  spec.min_comb_gates = 150;
  spec.max_comb_gates = 300;
  spec.min_ffs = 16;
  spec.max_ffs = 32;
  spec.max_domains = 2;
  core::LbistConfig cfg;
  cfg.test_points = 4;
  cfg.tpi.warmup_patterns = 64;
  cfg.tpi.guidance_patterns = 32;
  soc::Chip chip(spec.name);
  appendGeneratedCores(chip, spec, cfg);
  constexpr int64_t kPatterns = 8;
  chip.characterizeGolden(kPatterns);
  core::SessionOptions session;
  session.patterns = kPatterns;
  const std::vector<soc::CoreSession> sessions =
      buildCoreSessions(chip, session, 64);
  const soc::TestSchedule sched =
      soc::Scheduler(std::max(peakSessionPower(sessions),
                              totalSessionPower(sessions) / 2.0))
          .build(sessions);
  soc::CampaignRunner runner(chip, sched, session);

  obsAll(true);
  soc::CampaignOptions opts;
  opts.threads = threads;
  opts.checkpoint_path = "obs_ev_ckpt_t" + std::to_string(threads) + ".txt";
  (void)runner.run(opts);
  const std::string path = "obs_ev_t" + std::to_string(threads) + ".jsonl";
  EXPECT_TRUE(obs::writeEventsJsonl(path));
  const std::string text = slurp(path);
  std::remove(path.c_str());
  std::remove(opts.checkpoint_path.c_str());
  obsAll(false);
  return text;
}

TEST(ObsEvents, CampaignLogBytesAreIndependentOfThreadCount) {
  const std::string t1 = socCampaignEvents(1);
  const std::string t2 = socCampaignEvents(2);
  const std::string t4 = socCampaignEvents(4);
  ASSERT_FALSE(t1.empty());
  EXPECT_NE(t1.find("\"ev\":\"core_result\""), std::string::npos);
  EXPECT_NE(t1.find("\"ev\":\"group_done\""), std::string::npos);
  EXPECT_NE(t1.find("\"ev\":\"checkpoint_rewrite\""), std::string::npos);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t4);
}

}  // namespace
}  // namespace lbist
