// Differential tests for the multi-word lane fabric (sim/lane.hpp).
//
// The contract under test, from fsim.hpp: at a fixed lane width W the
// campaign result is bit-identical across thread counts, engines,
// collapsing, and batched vs sequential dispatch; across widths
// W in {1, 4, 8}, no-drop detection rows, final statuses, and
// first-detect patterns are invariant (pattern p receives the same
// stimulus regardless of how many lanes each block packs), while
// detect_count at drop time may legally differ because wider blocks
// merge more patterns before the drop decision. The mask reference is a
// brute-force per-fault full resimulation, one 64-lane word at a time.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/architect.hpp"
#include "diag/dictionary.hpp"
#include "fault/fault.hpp"
#include "fault/fsim.hpp"
#include "gen/ipcore.hpp"
#include "gen/refcircuits.hpp"
#include "obs/obs.hpp"
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

// Per-pattern stimulus, stored width-independently: one bit per
// (source, pattern), packed 64 patterns per word. Whatever the lane
// width, pattern p always receives bit p of its source's stream.
struct Stimulus {
  std::vector<GateId> sources;
  std::vector<std::vector<uint64_t>> words;  // [source][pattern / 64]
};

Stimulus makeStimulus(const Netlist& nl, size_t n_words, uint64_t seed) {
  Stimulus st;
  st.sources.assign(nl.inputs().begin(), nl.inputs().end());
  st.sources.insert(st.sources.end(), nl.dffs().begin(), nl.dffs().end());
  std::mt19937_64 rng(seed);
  st.words.resize(st.sources.size());
  for (auto& row : st.words) {
    row.resize(n_words);
    for (uint64_t& w : row) w = rng();
  }
  return st;
}

/// Accumulates full per-fault detection rows, pattern-indexed — the
/// width-independent ground truth the cross-width assertions compare.
class RowObserver final : public fault::DetectionObserver {
 public:
  RowObserver(size_t n_faults, size_t n_words)
      : rows(n_faults, std::vector<uint64_t>(n_words, 0)) {}
  void onDetectionMask(size_t fault_index, int64_t pattern_base,
                       sim::LaneMask mask) override {
    auto& row = rows[fault_index];
    const size_t base = static_cast<size_t>(pattern_base) / 64;
    for (size_t wi = 0; wi < mask.words() && base + wi < row.size(); ++wi) {
      row[base + wi] |= mask.word(wi);
    }
  }
  std::vector<std::vector<uint64_t>> rows;
};

struct CampaignState {
  std::vector<FaultStatus> status;
  std::vector<uint32_t> detect_count;
  std::vector<int64_t> first_detect;
  std::vector<std::vector<uint64_t>> rows;

  friend bool operator==(const CampaignState&,
                         const CampaignState&) = default;
};

struct CampaignConfig {
  uint32_t lane_words = 1;
  uint32_t threads = 1;
  BlockEngine engine = BlockEngine::kPerFault;
  bool collapse = true;
  bool drop = true;
  uint32_t n_detect = 2;
  bool batched = false;  // simulateBatch* calls vs per-block calls
  size_t batch_blocks = 0;  // blocks per simulateBatch* call (0 = all)
  bool staged = false;   // per-domain staged capture (dictionary path)
  bool transition = false;
};

CampaignState runLaneCampaign(const Netlist& nl, const Stimulus& st,
                              int64_t n_patterns,
                              const CampaignConfig& cfg) {
  FaultList faults = cfg.transition ? FaultList::enumerateTransition(nl)
                                    : FaultList::enumerateStuckAt(nl);
  FsimOptions opts;
  opts.n_detect = cfg.n_detect;
  opts.drop_detected = cfg.drop;
  opts.threads = cfg.threads;
  opts.min_faults_per_thread = 1;  // force real sharding on small nets
  opts.collapse = cfg.collapse;
  opts.engine = cfg.engine;
  opts.lane_words = cfg.lane_words;
  FaultSimulator fsim(nl, faults, fault::fullObservationSet(nl), opts);
  const size_t n_words = st.words.empty() ? 0 : st.words[0].size();
  RowObserver observer(faults.size(), n_words);
  fsim.setDetectionObserver(&observer);

  std::vector<std::vector<GateId>> stages(nl.numDomains());
  for (GateId dff : nl.dffs()) {
    stages[nl.gate(dff).domain.v].push_back(dff);
  }

  const int64_t block_lanes = static_cast<int64_t>(fsim.lanes());
  const auto loadInto = [&](auto& sink, int64_t block_base, int lanes) {
    const size_t word0 = static_cast<size_t>(block_base) / 64;
    const size_t words = (static_cast<size_t>(lanes) + 63) / 64;
    for (size_t k = 0; k < st.sources.size(); ++k) {
      for (size_t wi = 0; wi < fsim.laneWords(); ++wi) {
        sink.setSourceWord(st.sources[k], wi,
                           wi < words ? st.words[k][word0 + wi] : 0);
      }
    }
  };

  if (cfg.batched) {
    const size_t total_blocks = static_cast<size_t>(
        (n_patterns + block_lanes - 1) / block_lanes);
    const size_t per_call =
        cfg.batch_blocks == 0 ? total_blocks : cfg.batch_blocks;
    for (size_t first = 0; first < total_blocks; first += per_call) {
      const size_t n_blocks = std::min(per_call, total_blocks - first);
      const auto load = [&](size_t b, sim::Simulator2v& sim) -> int {
        const int64_t base = static_cast<int64_t>(first + b) * block_lanes;
        const int lanes = static_cast<int>(
            std::min<int64_t>(block_lanes, n_patterns - base));
        loadInto(sim, base, lanes);
        return lanes;
      };
      const int64_t base = static_cast<int64_t>(first) * block_lanes;
      if (cfg.transition) {
        fsim.simulateBatchTransition(base, n_blocks, load);
      } else {
        fsim.simulateBatchStuckAt(base, n_blocks, load);
      }
    }
  } else {
    for (int64_t base = 0; base < n_patterns; base += block_lanes) {
      const int lanes = static_cast<int>(
          std::min<int64_t>(block_lanes, n_patterns - base));
      loadInto(fsim, base, lanes);
      if (cfg.transition) {
        fsim.simulateBlockTransition(base, lanes);
      } else if (cfg.staged) {
        fsim.simulateBlockStuckAtStaged(base, lanes, stages);
      } else {
        fsim.simulateBlockStuckAt(base, lanes);
      }
    }
  }

  CampaignState res;
  for (size_t i = 0; i < faults.size(); ++i) {
    res.status.push_back(faults.record(i).status);
    res.detect_count.push_back(faults.record(i).detect_count);
    res.first_detect.push_back(faults.record(i).first_detect_pattern);
  }
  res.rows = std::move(observer.rows);
  return res;
}

std::vector<Netlist> laneCircuits() {
  std::vector<Netlist> nets;
  nets.push_back(gen::buildCounter(16));
  nets.push_back(gen::buildMiniAlu(8));
  return nets;
}

// ---------------------------------------------------------------------
// Good-machine widening: every word of a wide pass equals a narrow pass
// fed that word's stimulus.

TEST(LaneDifferential, GoodSimWideMatchesNarrow) {
  for (const Netlist& nl : {gen::buildC17(), gen::buildMiniAlu(8),
                            makeIpCore(7, 1'200)}) {
    const Stimulus st = makeStimulus(nl, 8, 123);
    for (const size_t W : {size_t{4}, size_t{8}}) {
      sim::Simulator2v wide(nl, W);
      for (size_t k = 0; k < st.sources.size(); ++k) {
        for (size_t wi = 0; wi < W; ++wi) {
          wide.setSourceWord(st.sources[k], wi, st.words[k][wi]);
        }
      }
      wide.eval();
      for (size_t wi = 0; wi < W; ++wi) {
        sim::Simulator2v narrow(nl);
        for (size_t k = 0; k < st.sources.size(); ++k) {
          narrow.setSource(st.sources[k], st.words[k][wi]);
        }
        narrow.eval();
        nl.forEachGate([&](GateId id, const Gate&) {
          ASSERT_EQ(wide.valueWord(id, wi), narrow.value(id))
              << nl.name() << " W=" << W << " word " << wi << " gate "
              << id.v;
        });
      }
    }
  }
}

// ---------------------------------------------------------------------
// No-drop rows: bit-identical across widths, engines, thread counts,
// and collapsing — the strongest form of the cross-width contract.

TEST(LaneDifferential, NoDropRowsInvariantAcrossWidthsEnginesThreads) {
  for (const Netlist& nl : laneCircuits()) {
    const int64_t n_patterns = 512;
    const Stimulus st = makeStimulus(nl, 8, 99);

    CampaignConfig ref_cfg;
    ref_cfg.drop = false;
    const CampaignState ref = runLaneCampaign(nl, st, n_patterns, ref_cfg);

    for (const uint32_t W : {1u, 4u, 8u}) {
      for (const uint32_t threads : {1u, 2u, 4u}) {
        for (const BlockEngine engine :
             {BlockEngine::kPerFault, BlockEngine::kStemCpt}) {
          for (const bool collapse : {true, false}) {
            CampaignConfig cfg;
            cfg.lane_words = W;
            cfg.threads = threads;
            cfg.engine = engine;
            cfg.collapse = collapse;
            cfg.drop = false;
            const CampaignState got =
                runLaneCampaign(nl, st, n_patterns, cfg);
            ASSERT_EQ(got.rows, ref.rows)
                << nl.name() << " W=" << W << " threads=" << threads
                << " engine=" << static_cast<int>(engine)
                << " collapse=" << collapse;
            ASSERT_EQ(got.status, ref.status);
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Dropping campaigns: at fixed W everything (including detect_count and
// the observer stream) is invariant across threads and engines; across
// widths, statuses and first-detect patterns still match exactly.

TEST(LaneDifferential, DropCampaignInvariants) {
  for (const Netlist& nl : laneCircuits()) {
    const int64_t n_patterns = 512;
    const Stimulus st = makeStimulus(nl, 8, 7);

    std::vector<CampaignState> per_width;
    for (const uint32_t W : {1u, 4u, 8u}) {
      CampaignConfig base_cfg;
      base_cfg.lane_words = W;
      const CampaignState base =
          runLaneCampaign(nl, st, n_patterns, base_cfg);
      per_width.push_back(base);

      for (const uint32_t threads : {2u, 4u}) {
        for (const BlockEngine engine :
             {BlockEngine::kPerFault, BlockEngine::kStemCpt}) {
          CampaignConfig cfg = base_cfg;
          cfg.threads = threads;
          cfg.engine = engine;
          ASSERT_EQ(runLaneCampaign(nl, st, n_patterns, cfg), base)
              << nl.name() << " W=" << W << " threads=" << threads
              << " engine=" << static_cast<int>(engine);
        }
      }
    }

    for (size_t i = 1; i < per_width.size(); ++i) {
      ASSERT_EQ(per_width[i].status, per_width[0].status) << nl.name();
      ASSERT_EQ(per_width[i].first_detect, per_width[0].first_detect)
          << nl.name();
    }
  }
}

// ---------------------------------------------------------------------
// Batched dispatch vs the sequential per-block loop: bit-identical at
// every width and thread count, including the observer stream order
// (rows here, full event equality in test_compiled at W=1).

TEST(LaneDifferential, BatchMatchesSequential) {
  const Netlist nl = makeIpCore(3, 1'500);
  const Stimulus st = makeStimulus(nl, 16, 5);

  // 1,000 patterns leave the last W=4 block partial (232 of 256 lanes).
  // kAuto in 2-block batches starts dense — those batches run block by
  // block on stem-CPT — and moves to the batched per-fault dispatcher
  // once dropping thins the live set.
  struct Input {
    uint32_t lane_words;
    int64_t n_patterns;
    BlockEngine engine;
    size_t batch_blocks;
  };
  const Input inputs[] = {
      {1, 1'024, BlockEngine::kPerFault, 0},
      {4, 1'024, BlockEngine::kPerFault, 0},
      {8, 1'024, BlockEngine::kPerFault, 0},
      {4, 1'000, BlockEngine::kPerFault, 0},
      {1, 1'024, BlockEngine::kAuto, 2},
  };
  for (const Input& in : inputs) {
    for (const uint32_t threads : {1u, 2u}) {
      for (const bool transition : {false, true}) {
        CampaignConfig seq;
        seq.lane_words = in.lane_words;
        seq.threads = threads;
        seq.engine = in.engine;
        seq.transition = transition;
        CampaignConfig bat = seq;
        bat.batched = true;
        bat.batch_blocks = in.batch_blocks;
        obs::setMetricsEnabled(true);
        obs::resetAll();
        const CampaignState batched =
            runLaneCampaign(nl, st, in.n_patterns, bat);
        const bool both_routes =
            obs::counterValue("fsim.blocks_stem_cpt") > 0 &&
            obs::counterValue("fsim.batch_dispatches") > 0;
        obs::setMetricsEnabled(false);
        ASSERT_EQ(batched, runLaneCampaign(nl, st, in.n_patterns, seq))
            << "W=" << in.lane_words << " patterns=" << in.n_patterns
            << " engine=" << static_cast<int>(in.engine)
            << " threads=" << threads << " transition=" << transition;
        if (in.engine == BlockEngine::kAuto && threads > 1) {
          EXPECT_TRUE(both_routes)
              << "kAuto batches must start on stem-CPT and end batched"
              << " (transition=" << transition << ")";
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Blocks wider than the lane fabric are caller errors, not clamps: a
// clamped block would let the caller's pattern numbering run past
// patterns that were never simulated.

TEST(LaneDifferential, OversizedBlocksRejected) {
  const Netlist nl = gen::buildMiniAlu(8);
  std::vector<std::vector<GateId>> stages(nl.numDomains());
  for (GateId dff : nl.dffs()) {
    stages[nl.gate(dff).domain.v].push_back(dff);
  }
  for (const uint32_t W : {1u, 4u}) {
    for (const uint32_t threads : {1u, 2u}) {
      FaultList faults = FaultList::enumerateStuckAt(nl);
      FsimOptions opts;
      opts.lane_words = W;
      opts.threads = threads;
      opts.engine = BlockEngine::kPerFault;
      FaultSimulator fsim(nl, faults, fault::fullObservationSet(nl), opts);
      const int lanes = static_cast<int>(fsim.lanes());
      EXPECT_THROW(fsim.simulateBlockStuckAt(0, lanes + 1),
                   std::invalid_argument);
      EXPECT_THROW(fsim.simulateBlockTransition(0, lanes + 1),
                   std::invalid_argument);
      EXPECT_THROW(fsim.simulateBlockStuckAtStaged(0, lanes + 1, stages),
                   std::invalid_argument);
      const auto oversized = [&](size_t, sim::Simulator2v&) {
        return lanes + 1;
      };
      EXPECT_THROW(fsim.simulateBatchStuckAt(0, 4, oversized),
                   std::invalid_argument);
      EXPECT_THROW(fsim.simulateBatchTransition(0, 4, oversized),
                   std::invalid_argument);
      EXPECT_EQ(faults.coverage().detected, 0u)
          << "W=" << W << " threads=" << threads;

      // Exactly lanes() patterns is a full block, not an error.
      std::mt19937_64 rng(3);
      for (GateId pi : nl.inputs()) fsim.setSource(pi, rng());
      for (GateId dff : nl.dffs()) fsim.setSource(dff, rng());
      EXPECT_GT(fsim.simulateBlockStuckAt(0, lanes), 0u);
    }
  }
}

// ---------------------------------------------------------------------
// Staged capture (the dictionary path) across widths.

TEST(LaneDifferential, StagedCaptureRowsAcrossWidths) {
  const Netlist nl = makeIpCore(11, 1'200);
  const int64_t n_patterns = 512;
  const Stimulus st = makeStimulus(nl, 8, 31);

  CampaignConfig ref_cfg;
  ref_cfg.drop = false;
  ref_cfg.staged = true;
  const CampaignState ref = runLaneCampaign(nl, st, n_patterns, ref_cfg);

  for (const uint32_t W : {4u, 8u}) {
    for (const uint32_t threads : {1u, 2u}) {
      CampaignConfig cfg = ref_cfg;
      cfg.lane_words = W;
      cfg.threads = threads;
      const CampaignState got = runLaneCampaign(nl, st, n_patterns, cfg);
      ASSERT_EQ(got.rows, ref.rows) << "W=" << W << " threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------
// Brute-force reference at width 4: every word of a wide no-drop block's
// detection row equals the full faulty-machine resimulation of that
// word's 64 patterns (same reference as test_compiled, widened).

uint64_t bruteForceMaskWord(const Netlist& nl, const Stimulus& st,
                            size_t word, const fault::Fault& f,
                            std::span<const GateId> obs) {
  sim::Simulator2v good(nl);
  sim::Simulator2v bad(nl);
  for (size_t k = 0; k < st.sources.size(); ++k) {
    good.setSource(st.sources[k], st.words[k][word]);
    bad.setSource(st.sources[k], st.words[k][word]);
  }
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

TEST(LaneDifferential, WideMasksMatchBruteForceResimulation) {
  for (const Netlist& nl : {gen::buildC17(), gen::buildMiniAlu(8)}) {
    const std::vector<GateId> obs = fault::fullObservationSet(nl);
    constexpr uint32_t kW = 4;
    const Stimulus st = makeStimulus(nl, kW, 4242);

    for (const BlockEngine engine :
         {BlockEngine::kPerFault, BlockEngine::kStemCpt}) {
      CampaignConfig cfg;
      cfg.lane_words = kW;
      cfg.engine = engine;
      cfg.drop = false;
      cfg.n_detect = 1;
      const CampaignState got =
          runLaneCampaign(nl, st, kW * 64, cfg);

      const FaultList faults = FaultList::enumerateStuckAt(nl);
      for (size_t i = 0; i < faults.size(); ++i) {
        const fault::Fault& f = faults.record(i).fault;
        const Gate& g = nl.gate(f.gate);
        for (size_t wi = 0; wi < kW; ++wi) {
          uint64_t expected;
          if (f.pin != fault::kOutputPin && g.kind == CellKind::kDff) {
            // Capture-pin faults detect at scan unload only; the raw
            // netlists here have no scan cells, so the engine reports 0.
            expected = 0;
          } else {
            expected = bruteForceMaskWord(nl, st, wi, f, obs);
          }
          ASSERT_EQ(got.rows[i][wi], expected)
              << nl.name() << " engine=" << static_cast<int>(engine)
              << " fault " << i << " word " << wi << " ("
              << f.describe(nl) << ")";
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Dictionary rows: bit-identical across lane widths and thread counts
// (the diag consumer of the widened observer rows).

TEST(LaneDifferential, DictionaryRowsInvariantAcrossWidths) {
  core::LbistConfig cfg;
  cfg.num_chains = 2;
  cfg.tpi_method = core::TpiMethod::kNone;
  cfg.test_points = 0;
  const core::BistReadyCore core =
      core::buildBistReadyCore(gen::buildCounter(16), cfg);
  const int64_t n_patterns = 96;  // deliberately not a block multiple

  fault::FaultList ref_faults =
      fault::FaultList::enumerateStuckAt(core.netlist);
  const diag::ResponseDictionary ref = diag::buildResponseDictionary(
      core, ref_faults, n_patterns, /*threads=*/1);

  for (const uint32_t W : {4u, 8u}) {
    for (const uint32_t threads : {1u, 2u}) {
      fault::FaultList faults =
          fault::FaultList::enumerateStuckAt(core.netlist);
      const diag::ResponseDictionary dict = diag::buildResponseDictionary(
          core, faults, n_patterns, threads, /*transition=*/false,
          /*stats=*/nullptr, /*min_faults_per_thread=*/1,
          /*lane_words=*/W);
      ASSERT_EQ(dict.faults(), ref.faults());
      for (size_t i = 0; i < dict.faults(); ++i) {
        const auto got = dict.row(i);
        const auto want = ref.row(i);
        ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(),
                               want.end()))
            << "W=" << W << " threads=" << threads << " fault " << i;
      }
    }
  }
}

}  // namespace
}  // namespace lbist
