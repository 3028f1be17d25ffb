#include "atpg/topup.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <functional>
#include <memory>
#include <random>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "atpg/podem_interp.hpp"
#include "core/thread_pool.hpp"
#include "obs/obs.hpp"
#include "robust/robust.hpp"

namespace lbist::atpg {

namespace {

constexpr size_t kBatchTargets = 16;  // targets per generate/simulate round

TopUpPattern fillCube(const TestCube& cube,
                      const std::vector<GateId>& assignable,
                      std::mt19937_64& rng) {
  TopUpPattern pat;
  pat.sources = assignable;
  pat.values.resize(assignable.size());
  std::unordered_map<uint32_t, uint8_t> care;
  for (size_t i = 0; i < cube.care_sources.size(); ++i) {
    care[cube.care_sources[i].v] = cube.care_values[i];
  }
  for (size_t i = 0; i < assignable.size(); ++i) {
    const auto it = care.find(assignable[i].v);
    pat.values[i] =
        it != care.end() ? it->second : static_cast<uint8_t>(rng() & 1u);
  }
  return pat;
}

/// Constructs an `Engine` and holds the fixed sources on it.
template <typename Engine, typename Options>
std::unique_ptr<Engine> makeFixed(
    const Netlist& nl, const std::vector<GateId>& observed,
    const std::vector<GateId>& assignable, const Options& opts,
    const std::vector<std::pair<GateId, bool>>& fixed_sources) {
  auto engine = std::make_unique<Engine>(nl, observed, assignable, opts);
  for (const auto& [id, v] : fixed_sources) engine->fixSource(id, v);
  return engine;
}

std::unique_ptr<PodemEngine> makeEngine(
    const TopUpConfig& cfg, const Netlist& nl,
    const std::vector<GateId>& observed,
    const std::vector<GateId>& assignable,
    const std::vector<std::pair<GateId, bool>>& fixed_sources) {
  switch (cfg.engine) {
    case AtpgEngine::kInterpreted:
      return makeFixed<PodemInterpreted>(nl, observed, assignable, cfg.atpg,
                                         fixed_sources);
    case AtpgEngine::kSat:
      return makeFixed<SatEngine>(nl, observed, assignable, cfg.sat,
                                  fixed_sources);
    case AtpgEngine::kCompiled:
      break;
  }
  return makeFixed<Podem>(nl, observed, assignable, cfg.atpg, fixed_sources);
}

/// DetectionObserver accumulating one detection-bit row per tracked
/// fault (bit p of row = pattern p detects it), fed full masks by a
/// dropping-disabled simulation.
class RowRecorder final : public fault::DetectionObserver {
 public:
  RowRecorder(std::vector<std::vector<uint64_t>>& rows,
              const std::vector<uint32_t>& fault_to_row)
      : rows_(&rows), fault_to_row_(&fault_to_row) {}

  void onDetectionMask(size_t fault_index, int64_t pattern_base,
                       sim::LaneMask detect_mask) override {
    const uint32_t r = (*fault_to_row_)[fault_index];
    if (r == kNoRow) return;
    std::vector<uint64_t>& row = (*rows_)[r];
    const size_t base = static_cast<size_t>(pattern_base) / 64;
    const size_t n =
        std::min(detect_mask.words(), row.size() > base ? row.size() - base : 0);
    for (size_t wi = 0; wi < n; ++wi) row[base + wi] |= detect_mask.word(wi);
  }

  static constexpr uint32_t kNoRow = 0xffffffffu;

 private:
  std::vector<std::vector<uint64_t>>* rows_;
  const std::vector<uint32_t>* fault_to_row_;
};

/// Reverse-order fault-simulation compaction (TopUpConfig::reverse_compact):
/// re-simulates the merged pattern set with dropping disabled to get the
/// complete per-pattern detection row of every fault top-up newly
/// detected, then keeps — scanning from the last pattern backwards —
/// only patterns that contribute a still-needed detection. `n_detect`
/// is the driving simulator's target: each fault is credited up to
/// min(n_detect, detections available in the set), so single-detect
/// coverage AND the n-detect multiplicity the uncompacted set provided
/// are both preserved by construction.
void reverseCompact(const Netlist& nl, const fault::FaultList& faults,
                    const std::vector<fault::FaultStatus>& status_before,
                    const std::vector<GateId>& observed,
                    const std::vector<GateId>& assignable,
                    const std::vector<std::pair<GateId, bool>>& fixed_sources,
                    uint32_t n_detect, TopUpResult& result) {
  std::vector<size_t> topup_faults;
  std::vector<uint32_t> fault_to_row(faults.size(), RowRecorder::kNoRow);
  for (size_t i = 0; i < faults.size(); ++i) {
    if (status_before[i] == fault::FaultStatus::kUndetected &&
        faults.record(i).status == fault::FaultStatus::kDetected) {
      fault_to_row[i] = static_cast<uint32_t>(topup_faults.size());
      topup_faults.push_back(i);
    }
  }
  const size_t n_pat = result.patterns.size();
  if (topup_faults.empty() || n_pat <= 1) return;
  OBS_SPAN("atpg.reverse_compact");

  const size_t n_blocks = (n_pat + 63) / 64;
  std::vector<std::vector<uint64_t>> rows(
      topup_faults.size(), std::vector<uint64_t>(n_blocks, 0));
  RowRecorder recorder(rows, fault_to_row);

  // Scratch copy: statuses are irrelevant to mask recording (the
  // observer fires from the serial merge regardless), but the simulation
  // must not touch the caller's n-detect bookkeeping.
  fault::FaultList scratch = faults;
  fault::FsimOptions opts;
  opts.drop_detected = false;
  opts.threads = 1;
  fault::FaultSimulator sim(nl, scratch, observed, opts);
  sim.setDetectionObserver(&recorder);
  sim.restrictActiveSet(topup_faults);

  std::vector<uint64_t> lane_words(assignable.size());
  for (size_t b = 0; b < n_blocks; ++b) {
    const size_t lo = b * 64;
    const size_t lanes = std::min<size_t>(64, n_pat - lo);
    std::fill(lane_words.begin(), lane_words.end(), 0);
    for (size_t lane = 0; lane < lanes; ++lane) {
      const TopUpPattern& pat = result.patterns[lo + lane];
      for (size_t i = 0; i < assignable.size(); ++i) {
        if (pat.values[i] != 0) lane_words[i] |= uint64_t{1} << lane;
      }
    }
    for (GateId pi : nl.inputs()) sim.setSource(pi, 0);
    for (GateId dff : nl.dffs()) sim.setSource(dff, 0);
    for (size_t i = 0; i < assignable.size(); ++i) {
      sim.setSource(assignable[i], lane_words[i]);
    }
    for (const auto& [id, v] : fixed_sources) {
      sim.setSource(id, v ? ~uint64_t{0} : 0);
    }
    sim.simulateBlockStuckAt(static_cast<int64_t>(lo),
                             static_cast<int>(lanes));
  }

  // Greedy reverse credit: pattern p survives iff some fault still
  // needs one of its detections; kept detections then count. need[r]
  // starts at the fault's preserved multiplicity — n_detect, capped at
  // what the uncompacted set actually delivers.
  auto bit = [&](size_t row, size_t p) {
    return (rows[row][p / 64] >> (p % 64)) & 1u;
  };
  std::vector<uint32_t> need(topup_faults.size(), 0);
  for (size_t r = 0; r < rows.size(); ++r) {
    uint32_t avail = 0;
    for (uint64_t w : rows[r]) {
      avail += static_cast<uint32_t>(std::popcount(w));
    }
    need[r] = std::min(n_detect, avail);
  }
  std::vector<uint8_t> keep(n_pat, 0);
  for (size_t p = n_pat; p-- > 0;) {
    bool needed = false;
    for (size_t r = 0; r < rows.size(); ++r) {
      if (need[r] > 0 && bit(r, p) != 0) needed = true;
    }
    if (!needed) continue;
    keep[p] = 1;
    for (size_t r = 0; r < rows.size(); ++r) {
      if (need[r] > 0 && bit(r, p) != 0) --need[r];
    }
  }

  std::vector<TopUpPattern> kept;
  kept.reserve(n_pat);
  for (size_t p = 0; p < n_pat; ++p) {
    if (keep[p] != 0) kept.push_back(std::move(result.patterns[p]));
  }
  result.patterns = std::move(kept);
}

}  // namespace

TopUpResult runTopUp(const Netlist& nl, fault::FaultList& faults,
                     fault::FaultSimulator& fsim,
                     const std::vector<GateId>& observed,
                     const std::vector<GateId>& assignable,
                     const std::vector<std::pair<GateId, bool>>& fixed_sources,
                     const TopUpConfig& cfg) {
  OBS_SPAN("atpg.topup");
  TopUpResult result;
  const unsigned n_threads =
      cfg.threads != 0
          ? cfg.threads
          : std::max(1u, std::thread::hardware_concurrency());
  // Single-thread runs skip pool dispatch entirely (same convention as
  // the fault simulator's inline path); results are identical either
  // way. One engine per shard, constructed lazily inside the first
  // round so the construction work itself parallelizes. Engines are
  // deterministic per (netlist, observed, assignable, options, fault),
  // so which OS thread serves a shard never changes any cube.
  std::unique_ptr<core::ThreadPool> pool;
  if (n_threads > 1) pool = std::make_unique<core::ThreadPool>(n_threads);
  auto runShards = [&](const std::function<void(unsigned)>& fn) {
    if (pool != nullptr) {
      pool->run(n_threads, fn);
    } else {
      fn(0);
    }
  };
  std::vector<std::unique_ptr<PodemEngine>> engines(n_threads);
  // Escalation engines (TopUpConfig::sat_escalate), one per shard and
  // lazy like the primaries; escalation is a no-op when the primary is
  // already the SAT engine.
  const bool escalate = cfg.sat_escalate && cfg.engine != AtpgEngine::kSat;
  std::vector<std::unique_ptr<SatEngine>> sat_engines(n_threads);

  std::mt19937_64 fill_rng(cfg.fill_seed);

  std::vector<uint8_t> tried(faults.size(), 0);
  std::vector<fault::FaultStatus> status_before(faults.size());
  for (size_t i = 0; i < faults.size(); ++i) {
    status_before[i] = faults.record(i).status;
  }
  int64_t pattern_base = 0;

  // Dominance-prunable faults are deferred: their tests come for free
  // with the faults they dominate. Once the main pass runs dry the
  // deferral is lifted and any survivors are targeted directly.
  const fault::CollapseMap& cmap = fsim.collapseMap();
  bool defer_prunable =
      cfg.dominance_prune && !cmap.representatives().empty();

  std::vector<size_t> targets;
  std::vector<TestCube> cubes;
  std::vector<AtpgStatus> statuses;
  std::vector<size_t> backtracks;
  std::vector<double> gen_seconds;
  std::vector<uint8_t> escalated;
  std::vector<size_t> sat_conflicts;
  std::vector<size_t> sat_learned;

  while (true) {
    if (cfg.max_patterns != 0 && result.patterns.size() >= cfg.max_patterns) {
      break;
    }
    OBS_SPAN("atpg.round");
    // --- pick the round's targets serially, in fault-list order ----------
    targets.clear();
    for (size_t fi = 0; fi < faults.size() && targets.size() < kBatchTargets;
         ++fi) {
      const fault::FaultRecord& rec = faults.record(fi);
      if (tried[fi] != 0 ||
          rec.status != fault::FaultStatus::kUndetected) {
        continue;
      }
      if (defer_prunable && cmap.dominancePrunable(fi)) continue;
      tried[fi] = 1;
      targets.push_back(fi);
    }
    if (targets.empty()) {
      if (defer_prunable) {
        defer_prunable = false;  // second pass: target the deferred residue
        continue;
      }
      break;
    }
    result.targeted += targets.size();

    // --- parallel cube generation, sharded by target index ---------------
    cubes.assign(targets.size(), TestCube{});
    statuses.assign(targets.size(), AtpgStatus::kAborted);
    backtracks.assign(targets.size(), 0);
    gen_seconds.assign(targets.size(), 0.0);
    escalated.assign(targets.size(), 0);
    sat_conflicts.assign(targets.size(), 0);
    sat_learned.assign(targets.size(), 0);
    runShards([&](unsigned shard) {
      if (engines[shard] == nullptr) {
        engines[shard] =
            makeEngine(cfg, nl, observed, assignable, fixed_sources);
      }
      PodemEngine& engine = *engines[shard];
      for (size_t k = shard; k < targets.size(); k += n_threads) {
        // Keyed by fault name so a plan can strand one specific target
        // deterministically regardless of which shard serves it. kHang
        // models a pathological search exhausting its backtrack budget
        // without spending the wall time; kThrow surfaces through the
        // pool's merge-point rethrow.
        const robust::FaultAction act = ROBUST_POINT(
            "atpg.target.generate",
            faults.record(targets[k]).fault.describe(nl),
            robust::kCanThrow | robust::kCanHang);
        if (act == robust::FaultAction::kThrow) {
          throw std::runtime_error(
              "injected engine failure on target '" +
              faults.record(targets[k]).fault.describe(nl) + "'");
        }
        if (act == robust::FaultAction::kHang) {
          statuses[k] = AtpgStatus::kAborted;
          backtracks[k] = static_cast<size_t>(cfg.atpg.backtrack_limit);
        } else {
          SatEngine* primary_sat =
              cfg.engine == AtpgEngine::kSat ? static_cast<SatEngine*>(&engine)
                                             : nullptr;
          const uint64_t learned_before =
              primary_sat != nullptr ? primary_sat->engineStats().learned : 0;
          const auto t0 = std::chrono::steady_clock::now();
          statuses[k] =
              engine.generate(faults.record(targets[k]).fault, cubes[k]);
          const auto t1 = std::chrono::steady_clock::now();
          gen_seconds[k] = std::chrono::duration<double>(t1 - t0).count();
          backtracks[k] = engine.backtracksUsed();
          if (primary_sat != nullptr) {
            // A primary-SAT "backtrack" is a CDCL conflict; mirror it
            // into the solver columns so BENCH_atpg reads the same keys
            // whether SAT ran as primary or as escalation.
            sat_conflicts[k] = backtracks[k];
            sat_learned[k] = static_cast<size_t>(
                primary_sat->engineStats().learned - learned_before);
          }
        }
        if (statuses[k] != AtpgStatus::kAborted || !escalate) continue;
        // Escalation: the primary burned its budget; the same fault
        // goes to the CDCL engine, whose answer is a cube, a
        // redundancy proof, or (conflict budget gone too) a rarer
        // second abort. Per-target solver work is recorded here and
        // summed in the serial merge, keeping the totals independent
        // of which shard ran the solve.
        if (sat_engines[shard] == nullptr) {
          sat_engines[shard] = makeFixed<SatEngine>(
              nl, observed, assignable, cfg.sat, fixed_sources);
        }
        SatEngine& sat = *sat_engines[shard];
        escalated[k] = 1;
        const uint64_t learned_before = sat.engineStats().learned;
        const auto s0 = std::chrono::steady_clock::now();
        statuses[k] =
            sat.generate(faults.record(targets[k]).fault, cubes[k]);
        const auto s1 = std::chrono::steady_clock::now();
        gen_seconds[k] += std::chrono::duration<double>(s1 - s0).count();
        sat_conflicts[k] = sat.backtracksUsed();
        sat_learned[k] = static_cast<size_t>(sat.engineStats().learned -
                                             learned_before);
      }
    });

    // --- serial merge in fault-list order ---------------------------------
    std::vector<TestCube> batch;
    size_t batch_targets = 0;
    for (size_t k = 0; k < targets.size(); ++k) {
      result.backtracks += backtracks[k];
      result.atpg_seconds += gen_seconds[k];
      if (escalated[k] != 0) ++result.sat_escalated;
      result.sat_conflicts += sat_conflicts[k];
      result.sat_learned += sat_learned[k];
      if (escalated[k] != 0 && obs::eventsEnabled()) {
        // Emitted from the serial merge, but commitShared: runTopUp may
        // itself run inside a campaign worker, and the content (fault,
        // verdict, solver work) is deterministic while the interleaving
        // across cores is not.
        obs::Event("sat_escalate")
            .field("fault", faults.record(targets[k]).fault.describe(nl))
            .field("verdict",
                   statuses[k] == AtpgStatus::kDetected     ? "detected"
                   : statuses[k] == AtpgStatus::kUntestable ? "redundant"
                                                            : "aborted")
            .field("conflicts", static_cast<uint64_t>(sat_conflicts[k]))
            .field("learned", static_cast<uint64_t>(sat_learned[k]))
            .commitShared();
      }
      // A kUntestable verdict from a completed CDCL search (primary-SAT
      // or escalation) is a redundancy proof; only PODEM's exhausted
      // tree keeps the legacy kUntestable accounting.
      const bool sat_verdict =
          escalated[k] != 0 || cfg.engine == AtpgEngine::kSat;
      switch (statuses[k]) {
        case AtpgStatus::kUntestable:
          if (sat_verdict) {
            faults.record(targets[k]).status = fault::FaultStatus::kRedundant;
            ++result.proven_redundant;
            OBS_COUNT("atpg.redundant", 1);
            if (obs::eventsEnabled()) {
              obs::Event("redundant_proof")
                  .field("fault",
                         faults.record(targets[k]).fault.describe(nl))
                  .commitShared();
            }
          } else {
            faults.record(targets[k]).status = fault::FaultStatus::kUntestable;
            ++result.proven_untestable;
          }
          continue;
        case AtpgStatus::kAborted:
          ++result.aborted;
          // Structured budget report, built here in the serial merge so
          // the order is fault-list order for every thread count. An
          // escalated abort reports the solver's conflict budget — the
          // cost of the search that actually gave up.
          result.aborted_targets.push_back(TopUpResult::TargetAbort{
              targets[k],
              escalated[k] != 0 ? sat_conflicts[k] : backtracks[k]});
          OBS_COUNT("atpg.aborts", 1);
          continue;
        case AtpgStatus::kDetected:
          ++result.atpg_detected;
          if (escalated[k] != 0) ++result.sat_detected;
          ++batch_targets;
          break;
      }
      if (cfg.compact) {
        bool merged = false;
        for (TestCube& existing : batch) {
          if (existing.compatibleWith(cubes[k])) {
            existing.mergeFrom(cubes[k]);
            merged = true;
            break;
          }
        }
        if (!merged) batch.push_back(std::move(cubes[k]));
      } else {
        batch.push_back(std::move(cubes[k]));
      }
    }
    if (obs::metricsEnabled()) {
      // Transient charge of the solvers' clause-arena high-water at the
      // round's quiescent point: the gauge peak records the footprint
      // without holding a balance across rounds. The per-shard sum is
      // deterministic at a fixed thread count (targets shard as k % n).
      uint64_t sat_arena = 0;
      for (unsigned s = 0; s < n_threads; ++s) {
        if (sat_engines[s] != nullptr) {
          sat_arena += sat_engines[s]->engineStats().arena_peak_bytes;
        }
        if (cfg.engine == AtpgEngine::kSat && engines[s] != nullptr) {
          sat_arena += static_cast<SatEngine*>(engines[s].get())
                           ->engineStats()
                           .arena_peak_bytes;
        }
      }
      if (sat_arena != 0) {
        OBS_GAUGE_ADD("atpg.sat_arena_bytes",
                      static_cast<int64_t>(sat_arena));
        OBS_GAUGE_SUB("atpg.sat_arena_bytes",
                      static_cast<int64_t>(sat_arena));
      }
    }
    // Rate-curve anchor: one sample per merged round, work-indexed by
    // the cumulative target count (the top-up unit of work).
    OBS_SAMPLE("atpg.round", result.targeted);
    if (batch.empty()) continue;  // round produced only aborts/proofs
    OBS_COUNT("atpg.rounds", 1);
    OBS_COUNT("atpg.patterns", batch.size());

    // --- fill, store, and fault-simulate the batch ------------------------
    std::vector<uint64_t> lane_words(assignable.size(), 0);
    for (size_t lane = 0; lane < batch.size(); ++lane) {
      TopUpPattern pat = fillCube(batch[lane], assignable, fill_rng);
      for (size_t i = 0; i < assignable.size(); ++i) {
        if (pat.values[i] != 0) lane_words[i] |= uint64_t{1} << lane;
      }
      result.patterns.push_back(std::move(pat));
    }
    fsim.refreshActiveSet();
    for (GateId pi : nl.inputs()) fsim.setSource(pi, 0);
    for (GateId dff : nl.dffs()) fsim.setSource(dff, 0);
    for (size_t i = 0; i < assignable.size(); ++i) {
      fsim.setSource(assignable[i], lane_words[i]);
    }
    for (const auto& [id, v] : fixed_sources) {
      fsim.setSource(id, v ? ~uint64_t{0} : 0);
    }
    const size_t detected = fsim.simulateBlockStuckAt(
        pattern_base, static_cast<int>(batch.size()));
    pattern_base += static_cast<int64_t>(batch.size());
    result.fortuitous_detected +=
        detected > batch_targets ? detected - batch_targets : 0;
  }

  result.patterns_before_compact = result.patterns.size();
  if (cfg.reverse_compact) {
    reverseCompact(nl, faults, status_before, observed, assignable,
                   fixed_sources, fsim.options().n_detect, result);
  }
  result.final_coverage = faults.coverage();
  return result;
}

}  // namespace lbist::atpg
