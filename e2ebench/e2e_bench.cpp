// End-to-end benchmark for the three user flows of the library:
//
//   signoff_sa  Table-1 stuck-at sign-off of one Core-X-shaped IP core:
//               architect (X-bound, fault-simulation-based TPI, scan, BIST
//               sizing) -> 20K-pattern random phase -> top-up ATPG with
//               SAT escalation, on one worker thread. Top-up dominates.
//   atspeed_tf  Launch-on-capture transition coverage of a larger
//               Core-X-shaped core: architect -> wide-lane, multi-thread
//               PPSFP random phase, no top-up. Fault simulation dominates.
//   die_floor   The bench_soc8 chip on a test floor: seeded dies back to
//               back (closed loop, one client), a quarter of them carrying
//               one injected stuck-at defect; every die goes through the
//               chip campaign and every failing core through diagnosis.
//
// Each layer is measured from outside: the benchmark times its own calls
// into the public functions of src/gen, src/core, src/atpg, src/soc,
// src/diag and src/fault, and names the spans after those modules. With
// --trace 1 the spans are also recorded (and written as a Chrome
// trace-event file Perfetto loads), the src/obs counters and span
// histograms are switched on for the traced passes, and the per-layer
// table is derived from both. Untraced passes provide the end-to-end
// numbers; in a traced run half the passes stay untraced so the tracing
// overhead can be measured on the same inputs.
//
// Every pass is checked: repeated passes (traced or not) must produce
// bit-identical coverage, fault statuses, pattern sets, die verdicts and
// candidate lists, top-up patterns must re-detect what top-up claims,
// defect-free dies must pass, and only the core carrying a defect may
// fail. Any failed check makes `correct` false.
//
// Usage: e2e_bench --workload W --seed N --seconds S --trace 0|1
//                  --max-threads T --out results.json
//                  [--trace-out trace.json]
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "atpg/topup.hpp"
#include "core/architect.hpp"
#include "core/flow.hpp"
#include "core/pattern_source.hpp"
#include "core/session.hpp"
#include "diag/diagnoser.hpp"
#include "fault/fault.hpp"
#include "fault/fsim.hpp"
#include "fault/inject.hpp"
#include "gen/ipcore.hpp"
#include "gen/soc.hpp"
#include "obs/obs.hpp"
#include "soc/campaign.hpp"
#include "soc/chip.hpp"
#include "soc/schedule.hpp"

namespace {

using namespace lbist;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------ utilities

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Process CPU time (user + system, all threads) in seconds.
double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The fastest of repeated runs of the same work. The benchmark's host is
/// shared: on a 4-vCPU VM a fixed single-thread loop took 0.19 to 0.36 s
/// within a minute. Such swings only ever slow a run, so the fastest
/// repeat is the steady estimate of what the work costs.
double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/// The highest order statistic with at least ten samples above it; with
/// ten or fewer samples there is no such percentile and the maximum is
/// reported instead (the sample count printed beside it says so).
double tail(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v.size() > 10 ? v[v.size() - 11] : v.back();
}

/// FNV-1a, 64-bit: the digest every bit-identity check compares.
struct Digest {
  uint64_t h = 0xCBF2'9CE4'8422'2325ULL;
  void bytes(const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x0000'0100'0000'01B3ULL;
    }
  }
  template <typename T>
  void add(const T& v) {
    bytes(&v, sizeof(v));
  }
  void str(const std::string& s) {
    add(s.size());
    bytes(s.data(), s.size());
  }
};

uint64_t mixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E37'79B9'7F4A'7C15ULL + salt;
  z = (z ^ (z >> 30)) * 0xBF58'476D'1CE4'E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D0'49BB'1331'11EBULL;
  return z ^ (z >> 31);
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

// --------------------------------------------------------------- spans

/// One benchmark-side span: a timed call into a layer's public function.
struct SpanRecord {
  std::string name;
  std::string layer;
  double ts_us = 0.0;
  double dur_us = 0.0;
  int id = 0;
  int parent = -1;
};

/// In-memory span store; written out once when the benchmark ends.
struct Tracer {
  bool on = false;
  Clock::time_point epoch = Clock::now();
  std::vector<SpanRecord> spans;
  std::vector<int> stack;
};
Tracer g_tracer;

/// Times one call into a layer and, while tracing, records it as a span
/// whose parent is the innermost open span.
class Span {
 public:
  Span(const char* layer, const char* name) : t0_(Clock::now()) {
    if (!g_tracer.on) return;
    id_ = static_cast<int>(g_tracer.spans.size());
    SpanRecord r;
    r.name = name;
    r.layer = layer;
    r.ts_us =
        std::chrono::duration<double, std::micro>(t0_ - g_tracer.epoch)
            .count();
    r.id = id_;
    r.parent = g_tracer.stack.empty() ? -1 : g_tracer.stack.back();
    g_tracer.spans.push_back(std::move(r));
    g_tracer.stack.push_back(id_);
  }
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (idempotent) and returns its duration in seconds.
  double stop() {
    if (!stopped_) {
      seconds_ = secondsSince(t0_);
      stopped_ = true;
      if (id_ >= 0) {
        g_tracer.spans[static_cast<size_t>(id_)].dur_us = seconds_ * 1e6;
        g_tracer.stack.pop_back();
      }
    }
    return seconds_;
  }

 private:
  Clock::time_point t0_;
  int id_ = -1;
  bool stopped_ = false;
  double seconds_ = 0.0;
};

/// Self time per layer over the spans recorded since `first_span`.
std::map<std::string, double> layerSelfSeconds(size_t first_span) {
  std::vector<double> child_us(g_tracer.spans.size(), 0.0);
  for (size_t i = first_span; i < g_tracer.spans.size(); ++i) {
    const SpanRecord& s = g_tracer.spans[i];
    if (s.parent >= 0) child_us[static_cast<size_t>(s.parent)] += s.dur_us;
  }
  std::map<std::string, double> self;
  for (size_t i = first_span; i < g_tracer.spans.size(); ++i) {
    const SpanRecord& s = g_tracer.spans[i];
    self[s.layer] += std::max(0.0, s.dur_us - child_us[i]) * 1e-6;
  }
  return self;
}

/// Wall time covered by the root spans recorded since `first_span`.
double rootSeconds(size_t first_span) {
  double us = 0.0;
  for (size_t i = first_span; i < g_tracer.spans.size(); ++i) {
    if (g_tracer.spans[i].parent < 0) us += g_tracer.spans[i].dur_us;
  }
  return us * 1e-6;
}

bool writeTrace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  std::fprintf(f,
               "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
               "\"tid\": 1, \"args\": {\"name\": \"e2e_bench main\"}}");
  for (const SpanRecord& s : g_tracer.spans) {
    std::fprintf(f,
                 ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                 "\"args\": {\"id\": %d, \"parent\": %d}}",
                 jsonEscape(s.name).c_str(), jsonEscape(s.layer).c_str(),
                 s.ts_us, s.dur_us, s.id, s.parent);
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
  return true;
}

// -------------------------------------------------------------- results

struct Metric {
  double value = 0.0;
  std::string unit;
  size_t n = 0;  // samples behind the value
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

struct Results {
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  std::map<std::string, double> share_pct;  // layer -> % of traced wall
  double traced_wall_s = 0.0;  // root-span wall the shares divide
  std::vector<Check> checks;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  size_t passes = 0;
  size_t traced_passes = 0;
  unsigned threads = 1;  // worker threads the workload ran with

  void check(const std::string& name, bool ok, const std::string& detail) {
    // Keep one row per check name; a later failure overrides a pass.
    for (Check& c : checks) {
      if (c.name == name) {
        if (c.ok && !ok) {
          c.ok = false;
          c.detail = detail;
        }
        return;
      }
    }
    checks.push_back({name, ok, detail});
  }
  [[nodiscard]] bool correct() const {
    return std::all_of(checks.begin(), checks.end(),
                       [](const Check& c) { return c.ok; });
  }
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned threads = 1;
  std::string out;
  std::string trace_out;
};

/// The obs counters, timer totals and gauge peaks since the last
/// obs::resetAll (taken after the traced passes).
struct ObsView {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> timer_s;
  std::map<std::string, int64_t> gauge_peak;

  static ObsView snapshot() {
    ObsView v;
    for (const auto& c : obs::counterSnapshot()) v.counters[c.name] = c.value;
    for (const auto& t : obs::timerSnapshot()) {
      v.timer_s[t.name] = t.total_seconds;
    }
    for (const auto& g : obs::gaugeSnapshot()) v.gauge_peak[g.name] = g.peak;
    return v;
  }
  [[nodiscard]] double count(const std::string& k) const {
    const auto it = counters.find(k);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  }
  [[nodiscard]] double timer(const std::string& k) const {
    const auto it = timer_s.find(k);
    return it == timer_s.end() ? 0.0 : it->second;
  }
  [[nodiscard]] double peak(const std::string& k) const {
    const auto it = gauge_peak.find(k);
    return it == gauge_peak.end() ? 0.0 : static_cast<double>(it->second);
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Switches the benchmark spans and the obs instruments together.
void setTracing(bool on) {
  g_tracer.on = on;
  obs::setMetricsEnabled(on);
}

// ---------------------------------------------------------- core flows

struct FlowWorkload {
  gen::IpCoreSpec spec;
  core::LbistConfig cfg;
  bool transition = false;
  int64_t random_patterns = 0;
  bool topup = false;
  fault::FsimOptions fsim;
  atpg::TopUpConfig topup_cfg;
  int setup_reps = 3;
};

FlowWorkload signoffWorkload(uint64_t seed) {
  FlowWorkload w;
  // Core X at 0.5% of the paper's gate count: 1.1K gates, ~10K faults. The
  // design is fixed (its own generator seed); the workload seed drives the
  // PRPG, TPI sampling and top-up fill streams.
  w.spec = gen::coreXSpec(0.005);
  // The Table-1 configuration (bench/bench_table1.cpp) at this scale.
  w.cfg.num_chains = 100;
  w.cfg.test_points = 5;
  w.cfg.prpg_length = 19;
  w.cfg.tpi.warmup_patterns = 4096;
  w.cfg.tpi.guidance_patterns = 512;
  w.cfg.prpg_seed = mixSeed(seed, 0x9'9E'6);
  w.cfg.tpi.seed = mixSeed(seed, 0x79'1);
  w.random_patterns = 20'000;
  w.topup = true;
  // One worker: top-up rounds wait on their slowest SAT solve, so on a
  // shared host the 4-thread wall time of identical passes varied by
  // +-20% (1 thread: +-6%), too much for a regression gate.
  w.fsim.threads = 1;
  w.topup_cfg.threads = 1;
  w.topup_cfg.sat_escalate = true;
  w.topup_cfg.fill_seed = mixSeed(seed, 0xF'111);
  w.setup_reps = 21;
  return w;
}

FlowWorkload atspeedWorkload(uint64_t seed, unsigned threads) {
  FlowWorkload w;
  // Core X at 10% of the paper's gate count: 22K gates, ~144K transition
  // faults. Fixed design; the seed drives the PRPG and TPI streams.
  w.spec = gen::coreXSpec(0.1);
  w.cfg.num_chains = 100;
  w.cfg.test_points = 100;
  w.cfg.prpg_seed = mixSeed(seed, 0x9'9E'6);
  w.cfg.tpi.seed = mixSeed(seed, 0x79'1);
  w.cfg.prpg_length = 19;
  w.cfg.tpi.warmup_patterns = 4096;
  w.cfg.tpi.guidance_patterns = 512;
  w.transition = true;
  w.random_patterns = 50'000;
  w.fsim.lane_words = 8;
  w.fsim.threads = threads;
  w.setup_reps = 11;
  return w;
}

/// Everything one flow pass produced that the checks compare.
struct FlowPass {
  double flow_s = 0.0;
  double architect_s = 0.0;
  double random_s = 0.0;
  double random_cpu_s = 0.0;
  double topup_s = 0.0;
  double topup_cpu_s = 0.0;
  double fc1 = 0.0;
  double fc2 = 0.0;
  uint64_t digest = 0;
  size_t faults = 0;
  atpg::TopUpResult topup;
};

uint64_t faultDigest(const fault::FaultList& fl) {
  Digest d;
  for (const fault::FaultRecord& r : fl.records()) {
    d.add(static_cast<uint8_t>(r.status));
    d.add(r.first_detect_pattern);
  }
  return d.h;
}

/// Replays the top-up pattern set on the post-random-phase fault list and
/// reports how many top-up detections the patterns fail to reproduce.
size_t topupReplayMisses(const core::BistReadyCore& ready,
                         const core::CoverageFlow& flow,
                         const fault::FaultList& after_random,
                         const atpg::TopUpResult& tu) {
  const Netlist& nl = ready.netlist;
  fault::FaultList replay = after_random;
  fault::FaultSimulator fsim(nl, replay, flow.observed());
  const core::PrpgPatternSource source(ready);
  const std::vector<GateId>& assignable = flow.assignable();
  std::vector<uint64_t> words(assignable.size(), 0);
  int64_t base = 0;
  int lane = 0;
  auto flush = [&] {
    if (lane == 0) return;
    for (GateId pi : nl.inputs()) fsim.setSource(pi, 0);
    for (GateId dff : nl.dffs()) fsim.setSource(dff, 0);
    for (const auto& [pin, high] : source.fixedPins()) {
      fsim.setSource(pin, high ? ~uint64_t{0} : 0);
    }
    for (size_t i = 0; i < assignable.size(); ++i) {
      fsim.setSource(assignable[i], words[i]);
    }
    fsim.refreshActiveSet();
    fsim.simulateBlockStuckAt(base, lane);
    base += lane;
    lane = 0;
    std::fill(words.begin(), words.end(), 0);
  };
  for (const atpg::TopUpPattern& p : tu.patterns) {
    for (size_t i = 0; i < assignable.size() && i < p.values.size(); ++i) {
      if (p.values[i] != 0) words[i] |= uint64_t{1} << lane;
    }
    if (++lane == 64) flush();
  }
  flush();
  size_t misses = 0;
  for (size_t i = 0; i < after_random.size(); ++i) {
    if (after_random.record(i).status == fault::FaultStatus::kUndetected &&
        flow.faults().record(i).status == fault::FaultStatus::kDetected &&
        replay.record(i).status != fault::FaultStatus::kDetected) {
      ++misses;
    }
  }
  return misses;
}

/// Differential check of the wide-lane multi-thread random phase against
/// the one-word single-thread engine over a pattern prefix: first-detect
/// patterns below the prefix must agree fault for fault.
size_t randomPrefixMismatches(const core::BistReadyCore& ready,
                              const FlowWorkload& w,
                              const fault::FaultList& measured) {
  constexpr int64_t kPrefix = 2048;
  fault::FsimOptions ref_opts;
  ref_opts.threads = 1;
  ref_opts.lane_words = 1;
  core::CoverageFlow ref(ready, w.transition, ref_opts);
  (void)ref.runRandomPhase(kPrefix);
  size_t mismatches = measured.size() == ref.faults().size() ? 0 : 1;
  for (size_t i = 0; i < std::min(measured.size(), ref.faults().size());
       ++i) {
    const int64_t a = ref.faults().record(i).first_detect_pattern;
    int64_t b = measured.record(i).first_detect_pattern;
    if (b >= kPrefix) b = -1;
    if (a != b) ++mismatches;
  }
  return mismatches;
}

FlowPass runFlowPass(const Netlist& raw, const FlowWorkload& w,
                     Results& res, bool deep_checks) {
  FlowPass p;
  Span pass("bench", w.topup ? "signoff pass" : "atspeed pass");
  std::optional<core::BistReadyCore> ready;
  {
    Span s("core", "core::buildBistReadyCore");
    ready.emplace(core::buildBistReadyCore(raw, w.cfg));
    p.architect_s = s.stop();
  }
  double construct_s = 0.0;
  std::optional<core::CoverageFlow> flow;
  {
    Span s("fault", "core::CoverageFlow (fault list + fsim compile)");
    flow.emplace(*ready, w.transition, w.fsim);
    construct_s = s.stop();
  }
  core::RandomPhaseResult rp;
  {
    const double c0 = cpuSeconds();
    Span s("fault", "core::CoverageFlow::runRandomPhase");
    rp = flow->runRandomPhase(w.random_patterns);
    p.random_s = s.stop();
    p.random_cpu_s = cpuSeconds() - c0;
  }
  p.fc1 = rp.coverage.faultCoveragePercent();
  p.fc2 = p.fc1;
  std::optional<fault::FaultList> after_random;
  if (deep_checks) after_random.emplace(flow->faults());
  if (w.topup) {
    const double c0 = cpuSeconds();
    Span s("atpg", "atpg::runTopUp (via core::CoverageFlow::runTopUp)");
    p.topup = flow->runTopUp(w.topup_cfg);
    p.topup_s = s.stop();
    p.topup_cpu_s = cpuSeconds() - c0;
    p.fc2 = p.topup.final_coverage.faultCoveragePercent();
  }
  p.flow_s = p.architect_s + construct_s + p.random_s + p.topup_s;
  p.faults = flow->faults().size();
  std::printf(
      "  pass: architect %.3fs  flow-build %.3fs  random %.3fs  top-up "
      "%.3fs  (fc1 %.2f%%, fc2 %.2f%%, %zu top-up patterns, %zu faults)\n",
      p.architect_s, construct_s, p.random_s, p.topup_s, p.fc1, p.fc2,
      p.topup.patterns.size(), p.faults);
  std::fflush(stdout);

  Digest d;
  d.add(faultDigest(flow->faults()));
  d.add(rp.coverage.detected);
  d.add(rp.coverage.total);
  d.add(p.topup.patterns.size());
  d.add(p.topup.aborted);
  d.add(p.topup.sat_escalated);
  for (const atpg::TopUpPattern& tp : p.topup.patterns) {
    d.bytes(tp.values.data(), tp.values.size());
  }
  p.digest = d.h;

  const fault::Coverage now = flow->faults().coverage();
  const fault::Coverage& claimed =
      w.topup ? p.topup.final_coverage : rp.coverage;
  res.check("coverage matches fault statuses", now == claimed,
            "reported coverage disagrees with the fault list");
  res.check("fc2 >= fc1 and within [0, 100]",
            p.fc1 >= 0.0 && p.fc2 >= p.fc1 && p.fc2 <= 100.0,
            "fc1=" + std::to_string(p.fc1) + " fc2=" + std::to_string(p.fc2));
  if (deep_checks && w.topup) {
    const size_t misses =
        topupReplayMisses(*ready, *flow, *after_random, p.topup);
    res.check("top-up patterns re-detect their faults", misses == 0,
              std::to_string(misses) + " top-up detections not reproduced");
  }
  if (deep_checks) {
    const size_t mism = randomPrefixMismatches(*ready, w, *after_random);
    res.check("random phase matches 1-word 1-thread engine", mism == 0,
              std::to_string(mism) + " first-detect mismatches");
  }
  return p;
}

Results runFlowWorkload(const Args& a, const FlowWorkload& w) {
  Results res;
  res.threads = std::max(w.fsim.threads, w.topup ? w.topup_cfg.threads : 1u);
  // Set-up: generating the core from the seed, repeated for a median.
  std::vector<double> setup;
  std::optional<Netlist> raw;
  for (int r = 0; r < w.setup_reps; ++r) {
    raw.reset();
    const bool traced = a.trace && r == w.setup_reps - 1;
    setTracing(traced);
    Span s("gen", "gen::generateIpCore");
    raw.emplace(gen::generateIpCore(w.spec));
    setup.push_back(s.stop());
    setTracing(false);
  }
  const double gen_traced_s = a.trace ? setup.back() : median(setup);
  res.e2e["setup_s"] = {median(setup), "s", setup.size()};

  // Measured passes: untraced only, or untraced/traced alternating.
  std::vector<FlowPass> untraced, traced;
  uint64_t ref_digest = 0;
  obs::resetAll();
  const size_t first_traced_span = g_tracer.spans.size();
  const auto t0 = Clock::now();
  for (size_t i = 0;; ++i) {
    const bool tr = a.trace && i % 2 == 1;
    setTracing(tr);
    FlowPass p = runFlowPass(*raw, w, res, /*deep_checks=*/i == 0);
    setTracing(false);
    if (i == 0) ref_digest = p.digest;
    res.check("passes bit-identical (traced and untraced)",
              p.digest == ref_digest,
              "pass " + std::to_string(i) + " digest differs");
    res.attempted += w.topup ? p.topup.targeted : 1;
    res.failed += w.topup ? p.topup.aborted : 0;
    (tr ? traced : untraced).push_back(std::move(p));
    const double el = secondsSince(t0);
    const bool enough = !a.trace || !traced.empty();
    if (el >= a.seconds && enough) break;
  }
  res.passes = untraced.size();
  res.traced_passes = traced.size();

  auto collect = [](const std::vector<FlowPass>& ps, auto field) {
    std::vector<double> v;
    for (const FlowPass& p : ps) v.push_back(field(p));
    return v;
  };
  const auto flow_v =
      collect(untraced, [](const FlowPass& p) { return p.flow_s; });
  // Every pass repeats the same work (the digest check proves it).
  res.e2e["flow_s"] = {fastest(flow_v), "s", flow_v.size()};
  res.e2e["fc1_pct"] = {untraced.front().fc1, "%", 1};
  res.e2e["fc2_pct"] = {untraced.front().fc2, "%", 1};
  res.e2e["peak_rss_mb"] = {peakRssMb(), "MB", 1};

  if (!a.trace) return res;

  // ----- per-layer table from the traced passes
  const ObsView ov = ObsView::snapshot();
  const double k = static_cast<double>(traced.size());
  const int64_t pats = w.random_patterns;
  auto med = [&](auto field) { return median(collect(traced, field)); };
  const double random_s = med([](const FlowPass& p) { return p.random_s; });
  auto util = [](double cpu, double wall, uint32_t threads) {
    return ratio(cpu, static_cast<double>(std::max(1u, threads)) * wall);
  };
  const size_t n = traced.size();
  auto& L = res.layer;
  L["gen.generate_s"] = {gen_traced_s, "s", 1};
  L["core.architect_s"] = {
      med([](const FlowPass& p) { return p.architect_s; }), "s", n};
  L["core.random_phase_s"] = {random_s, "s", n};
  L["core.random_patterns_per_s"] = {ratio(static_cast<double>(pats), random_s),
                                     "1/s", n};
  L["fault.fsim_busy_s"] = {(ov.timer("fsim.batch") + ov.timer("fsim.block") +
                             ov.timer("fsim.staged_block")) /
                                k,
                            "s", n};
  L["bist.prpg_busy_s"] = {ov.timer("prpg.block_load") / k, "s", n};
  L["fault.events_per_pattern"] = {
      ratio(ov.count("fsim.events_popped"), ov.count("prpg.patterns")),
      "count", n};
  L["fault.cpt_block_frac"] = {
      ratio(ov.count("fsim.blocks_stem_cpt"), ov.count("fsim.blocks")),
      "ratio", n};
  L["fault.faults_dropped"] = {ov.count("fsim.faults_dropped") / k, "count",
                               n};
  L["fault.pool_util"] = {
      med([&](const FlowPass& p) {
        return util(p.random_cpu_s, p.random_s, w.fsim.threads);
      }),
      "ratio", n};
  if (w.topup) {
    const atpg::TopUpResult& tu = traced.front().topup;
    L["atpg.topup_s"] = {med([](const FlowPass& p) { return p.topup_s; }), "s",
                         n};
    L["atpg.podem_busy_s"] = {ov.timer("atpg.target") / k, "s", n};
    L["atpg.sat_busy_s"] = {ov.timer("atpg.sat.solve") / k, "s", n};
    L["atpg.cubes_per_target"] = {
        ratio(ov.count("atpg.cubes") + ov.count("atpg.sat.cubes"),
              ov.count("atpg.targets") + ov.count("atpg.sat.solves")),
        "ratio", n};
    L["atpg.backtracks_per_target"] = {
        ratio(ov.count("atpg.backtracks"), ov.count("atpg.targets")), "count",
        n};
    L["atpg.sat_escalated"] = {static_cast<double>(tu.sat_escalated), "count",
                               n};
    L["atpg.sat_conflicts"] = {static_cast<double>(tu.sat_conflicts), "count",
                               n};
    L["atpg.compaction_ratio"] = {
        ratio(static_cast<double>(tu.patterns.size()),
              static_cast<double>(tu.patterns_before_compact)),
        "ratio", n};
    L["atpg.pool_util"] = {
        med([&](const FlowPass& p) {
          return util(p.topup_cpu_s, p.topup_s, w.topup_cfg.threads);
        }),
        "ratio", n};
    L["atpg.sat_arena_peak_bytes"] = {ov.peak("atpg.sat_arena_bytes"), "bytes",
                                      n};
    L["atpg.topup_patterns"] = {static_cast<double>(tu.patterns.size()),
                                "count", n};
  }
  const double untraced_flow = median(flow_v);
  const double traced_flow = med([](const FlowPass& p) { return p.flow_s; });
  L["obs.overhead_pct"] = {100.0 * (ratio(traced_flow, untraced_flow) - 1.0),
                           "%", n};

  res.traced_wall_s = rootSeconds(first_traced_span);
  for (const auto& [layer, s] : layerSelfSeconds(first_traced_span)) {
    res.share_pct[layer] = 100.0 * ratio(s, res.traced_wall_s);
  }
  return res;
}

// ------------------------------------------------------------ die floor

constexpr int64_t kSessionPatterns = 32;
constexpr int64_t kDiagPatterns = 64;
constexpr size_t kDiesPerLot = 4;  // exactly one defective die per lot

/// The bench_soc8 chip plus everything a test floor prepares before the
/// first die: golden signatures, the half-power schedule, the production
/// session's coverage and one diagnoser (with its dictionary) per core.
struct Floor {
  std::unique_ptr<soc::Chip> chip;
  std::unique_ptr<soc::TestSchedule> schedule;
  std::vector<std::unique_ptr<diag::Diagnoser>> diagnosers;
  std::vector<Netlist> good_dies;
  double fc_pct = 0.0;
  double gen_s = 0.0, architect_s = 0.0, golden_s = 0.0, schedule_s = 0.0;
  double coverage_s = 0.0, dict_s = 0.0;
  size_t dict_bytes = 0;
};

core::SessionOptions floorSession() {
  core::SessionOptions s;
  s.patterns = kSessionPatterns;
  return s;
}

std::unique_ptr<Floor> buildFloor(unsigned threads) {
  auto fl = std::make_unique<Floor>();
  gen::SocSpec spec;
  spec.name = "bench_soc8";
  spec.seed = 20'260'729;
  spec.num_cores = 8;
  core::LbistConfig base;
  base.tpi.warmup_patterns = 256;
  base.tpi.guidance_patterns = 64;

  std::vector<gen::SocCorePlan> plans;
  std::vector<Netlist> raws;
  {
    Span s("gen", "gen::generateSocPlan + gen::generateIpCore x8");
    plans = gen::generateSocPlan(spec);
    for (const gen::SocCorePlan& p : plans) {
      raws.push_back(gen::generateIpCore(p.core));
    }
    fl->gen_s = s.stop();
  }
  fl->chip = std::make_unique<soc::Chip>(spec.name);
  {
    Span s("core", "core::buildBistReadyCore x8");
    // Same per-core sizing as soc::appendGeneratedCores.
    for (size_t i = 0; i < plans.size(); ++i) {
      core::LbistConfig cfg = base;
      cfg.num_chains = plans[i].num_chains;
      cfg.test_points = plans[i].test_points;
      fl->chip->addCore(plans[i].name,
                        core::buildBistReadyCore(raws[i], cfg));
    }
    fl->architect_s = s.stop();
  }
  {
    Span s("soc", "soc::Chip::characterizeGolden");
    fl->chip->characterizeGolden(kSessionPatterns);
    fl->golden_s = s.stop();
  }
  {
    Span s("soc", "soc::buildCoreSessions + soc::Scheduler::build");
    const auto sessions =
        soc::buildCoreSessions(*fl->chip, floorSession(), 128);
    const double budget = soc::totalSessionPower(sessions) / 2.0;
    fl->schedule = std::make_unique<soc::TestSchedule>(
        soc::Scheduler(budget).build(sessions));
    fl->schedule_s = s.stop();
  }
  {
    Span s("fault", "core::CoverageFlow::runRandomPhase x8 (session)");
    size_t det = 0, total = 0;
    for (size_t i = 0; i < fl->chip->numCores(); ++i) {
      core::CoverageFlow flow(fl->chip->core(i));
      const auto rp = flow.runRandomPhase(kSessionPatterns);
      det += rp.coverage.detected + rp.coverage.chain_tested;
      total += rp.coverage.total;
    }
    fl->fc_pct = 100.0 * ratio(static_cast<double>(det),
                               static_cast<double>(total));
    fl->coverage_s = s.stop();
  }
  {
    Span s("diag", "diag::Diagnoser::dictionary x8 (+ golden warm-up)");
    for (size_t i = 0; i < fl->chip->numCores(); ++i) {
      diag::DiagnosisOptions o;
      o.patterns = kDiagPatterns;
      o.threads = threads;
      auto d = std::make_unique<diag::Diagnoser>(fl->chip->core(i), o);
      fl->dict_bytes += d->dictionary().bytes();
      // Caches the golden interval run, as a long-running floor would.
      (void)d->diagnoseDie(fl->chip->core(i).netlist);
      fl->diagnosers.push_back(std::move(d));
    }
    fl->dict_s = s.stop();
  }
  for (size_t i = 0; i < fl->chip->numCores(); ++i) {
    fl->good_dies.push_back(fl->chip->die(i));
  }
  return fl;
}

/// One die of the seeded stream.
struct DiePlan {
  int defective_core = -1;  // -1 = defect-free
  size_t fault_index = 0;   // into that core's diagnoser fault list
};

/// Lots of kDiesPerLot dies with exactly one defect each; the defective
/// core walks a seeded permutation so every run of eight lots hits every
/// core once, and the fault is drawn uniformly from that core's
/// stuck-at universe.
std::vector<DiePlan> planDies(uint64_t seed, size_t lots, const Floor& fl) {
  std::mt19937_64 rng(mixSeed(seed, 0xD1E));
  const size_t n_cores = fl.chip->numCores();
  std::vector<size_t> perm(n_cores);
  std::vector<DiePlan> dies;
  for (size_t lot = 0; lot < lots; ++lot) {
    if (lot % n_cores == 0) {
      for (size_t i = 0; i < n_cores; ++i) perm[i] = i;
      for (size_t i = n_cores; i > 1; --i) {
        std::swap(perm[i - 1], perm[rng() % i]);
      }
    }
    const size_t bad_slot = rng() % kDiesPerLot;
    for (size_t j = 0; j < kDiesPerLot; ++j) {
      DiePlan d;
      if (j == bad_slot) {
        const size_t c = perm[lot % n_cores];
        d.defective_core = static_cast<int>(c);
        d.fault_index = rng() % fl.diagnosers[c]->faults().size();
      }
      dies.push_back(d);
    }
  }
  return dies;
}

struct DieOutcome {
  double test_s = 0.0;   // campaign wall
  double total_s = 0.0;  // reset + inject + campaign + diagnoses
  double campaign_cpu_s = 0.0;
  std::vector<double> diag_s;
  size_t diag_sessions = 0;
  bool escaped = false;
  bool diag_hit = false;
  bool unexplained = false;  // failing die no dictionary fault explains
  uint64_t digest = 0;
};

DieOutcome runDie(Floor& fl, soc::CampaignRunner& runner,
                  const DiePlan& plan, unsigned threads, Results& res) {
  DieOutcome o;
  Span die("bench", plan.defective_core < 0 ? "die" : "defective die");
  soc::Chip& chip = *fl.chip;
  {
    Span s("netlist", "restore good dies");
    for (size_t i = 0; i < chip.numCores(); ++i) chip.die(i) = fl.good_dies[i];
  }
  const auto c = static_cast<size_t>(std::max(plan.defective_core, 0));
  const fault::Fault* injected = nullptr;
  if (plan.defective_core >= 0) {
    injected = &fl.diagnosers[c]->faults().record(plan.fault_index).fault;
    Span s("fault", "fault::injectStuckAt");
    fault::injectStuckAt(chip.die(c), *injected);
  }
  soc::CampaignOptions opts;
  opts.threads = threads;
  const double c0 = cpuSeconds();
  std::optional<soc::CampaignResult> cr;
  {
    Span s("soc", "soc::CampaignRunner::run");
    cr.emplace(runner.run(opts));
    o.test_s = s.stop();
  }
  o.campaign_cpu_s = cpuSeconds() - c0;

  Digest d;
  d.add(plan.defective_core);
  d.add(plan.fault_index);
  size_t failing = 0;
  for (const soc::CoreRunResult& r : cr->cores) {
    res.attempted += 1;
    if (r.error != robust::ErrorCode::kOk) res.failed += 1;
    d.add(r.core_index);
    d.add(r.pass);
    for (const std::string& sig : r.signatures) d.str(sig);
    if (r.pass) continue;
    ++failing;
    res.check("only the defective core fails",
              plan.defective_core >= 0 && r.core_index == c,
              "core " + r.name + " failed on a die without its defect");
    if (r.core_index != c || plan.defective_core < 0) continue;
    res.attempted += 1;
    std::optional<diag::Diagnosis> dg;
    try {
      Span s("diag", "diag::Diagnoser::diagnoseDie");
      dg.emplace(fl.diagnosers[c]->diagnoseDie(chip.die(c)));
      o.diag_s.push_back(s.stop());
    } catch (const std::exception& e) {
      res.failed += 1;
      continue;
    }
    if (dg->candidates.empty()) {
      // No dictionary row overlaps the syndrome. If the dictionary's fault
      // simulation never detects the injected fault, the session caught a
      // defect the fault simulator does not see, and no row can name it:
      // the die is counted in diag.unexplained_dies (and as a miss in
      // diag.hit_frac). A fault the dictionary detects but the diagnosis
      // does not name is a failed diagnosis.
      const int64_t first =
          fl.diagnosers[c]->dictionary().firstDetection(plan.fault_index);
      if (first >= 0) {
        res.failed += 1;
      } else {
        o.unexplained = true;
      }
      std::fprintf(stderr,
                   "e2ebench: core %s, %s: diagnosis named no candidate "
                   "(dictionary first detection %lld)\n",
                   r.name.c_str(), injected->describe(chip.die(c)).c_str(),
                   static_cast<long long>(first));
    }
    o.diag_sessions += dg->session_runs;
    const size_t top = std::min(dg->tied_top, dg->candidates.size());
    for (size_t k = 0; k < top; ++k) {
      if (dg->candidates[k].fault_index == plan.fault_index) o.diag_hit = true;
    }
    d.add(dg->failed);
    d.add(dg->tied_top);
    for (const diag::Candidate& cand : dg->candidates) {
      d.add(cand.fault_index);
      d.add(cand.score);
      d.add(cand.confirmed);
    }
  }
  if (plan.defective_core < 0) {
    res.check("defect-free dies pass", failing == 0,
              std::to_string(failing) + " cores failed on a good die");
  } else {
    o.escaped = failing == 0;
  }
  o.digest = d.h;
  o.total_s = die.stop();
  return o;
}

Results runDieFloor(const Args& a) {
  Results res;
  const unsigned threads = std::max(1u, a.threads);
  res.threads = threads;
  constexpr int kSetupReps = 3;
  std::vector<double> setup;
  std::unique_ptr<Floor> fl;
  for (int r = 0; r < kSetupReps; ++r) {
    fl.reset();
    const bool traced = a.trace && r == kSetupReps - 1;
    // The fault layer works in set-up here (dictionaries, coverage, TPI),
    // so the traced set-up's obs counters stay in the per-layer view.
    if (traced) obs::resetAll();
    setTracing(traced);
    const auto t0 = Clock::now();
    fl = buildFloor(threads);
    setup.push_back(secondsSince(t0));
    setTracing(false);
  }
  res.e2e["setup_s"] = {median(setup), "s", setup.size()};

  soc::CampaignRunner runner(*fl->chip, *fl->schedule, floorSession());
  const size_t n_cores = fl->chip->numCores();
  // Plan far more dies than any run reaches; runs stop on whole rounds of
  // n_cores lots so every core carries the same number of defects.
  const std::vector<DiePlan> plan = planDies(a.seed, 64 * n_cores, *fl);
  const size_t round_dies = n_cores * kDiesPerLot;

  // Untraced runs stop on a whole round once the budget is spent and every
  // core has been diagnosed kMinDiagnoses times (an escaped defect skips
  // its diagnosis), or at three times the budget.
  constexpr size_t kMinDiagnoses = 3;
  auto runDies = [&](size_t max_dies, double budget_s,
                     std::vector<DieOutcome>& out, bool traced) {
    setTracing(traced);
    const auto t0 = Clock::now();
    std::vector<size_t> diagnosed(n_cores, 0);
    for (size_t i = 0; i < max_dies; ++i) {
      out.push_back(runDie(*fl, runner, plan[i], threads, res));
      if (plan[i].defective_core >= 0 && !out.back().diag_s.empty()) {
        ++diagnosed[static_cast<size_t>(plan[i].defective_core)];
      }
      if ((i + 1) % round_dies != 0) continue;
      const double t = secondsSince(t0);
      const bool enough =
          *std::min_element(diagnosed.begin(), diagnosed.end()) >=
          kMinDiagnoses;
      if (t >= 3.0 * budget_s || (t >= budget_s && enough)) break;
    }
    setTracing(false);
    return secondsSince(t0);
  };

  std::vector<DieOutcome> untraced, traced;
  const double budget = a.trace ? a.seconds / 2.0 : a.seconds;
  const double wall = runDies(plan.size(), budget, untraced, false);
  size_t first_traced_span = g_tracer.spans.size();
  if (a.trace) {
    (void)runDies(untraced.size(), 1e30, traced, true);
    for (size_t i = 0; i < traced.size(); ++i) {
      res.check("passes bit-identical (traced and untraced)",
                traced[i].digest == untraced[i].digest,
                "die " + std::to_string(i) + " differs when traced");
    }
  }
  res.passes = untraced.size() / round_dies;
  res.traced_passes = traced.size() / round_dies;

  // One pass of the floor is one round: n_cores lots, one defect per core,
  // each caught and diagnosed. Its time is composed per step, so that
  // neither host stalls nor which defects escape (an escape skips a
  // diagnosis of up to a second) move it: round_dies defect-free die tests
  // (identical work) at their fastest, plus each core's median diagnosis
  // (the work differs from fault to fault).
  std::vector<double> good_die_s;
  std::vector<std::vector<double>> core_diag_s(n_cores);
  for (size_t i = 0; i < untraced.size(); ++i) {
    if (plan[i].defective_core < 0) {
      good_die_s.push_back(untraced[i].total_s);
      continue;
    }
    for (double s : untraced[i].diag_s) {
      core_diag_s[static_cast<size_t>(plan[i].defective_core)].push_back(s);
    }
  }
  double round_s = static_cast<double>(round_dies) * fastest(good_die_s);
  size_t samples = good_die_s.size();
  std::printf("  round: %zu x %.4fs die test (n=%zu); diagnoses:", round_dies,
              fastest(good_die_s), good_die_s.size());
  for (const std::vector<double>& v : core_diag_s) {
    round_s += median(v);
    samples += v.size();
    std::printf(" %.4fs (n=%zu)", median(v), v.size());
  }
  std::printf("\n");
  res.e2e["flow_s"] = {round_s, "s", samples};
  res.e2e["fc1_pct"] = {fl->fc_pct, "%", 1};
  res.e2e["fc2_pct"] = {fl->fc_pct, "%", 1};
  res.e2e["peak_rss_mb"] = {peakRssMb(), "MB", 1};

  // Die-floor outcomes, from the untraced dies.
  std::vector<double> die_ms, diag_ms;
  size_t defective = 0, escapes = 0, hits = 0, diagnosed = 0,
         unexplained = 0;
  for (size_t i = 0; i < untraced.size(); ++i) {
    const DieOutcome& o = untraced[i];
    die_ms.push_back(o.test_s * 1e3);
    for (double s : o.diag_s) diag_ms.push_back(s * 1e3);
    if (plan[i].defective_core >= 0) {
      ++defective;
      escapes += o.escaped ? 1 : 0;
      if (!o.escaped) {
        ++diagnosed;
        hits += o.diag_hit ? 1 : 0;
        unexplained += o.unexplained ? 1 : 0;
      }
    }
  }
  auto& L = res.layer;
  L["soc.die_p50_ms"] = {median(die_ms), "ms", die_ms.size()};
  L["soc.die_tail_ms"] = {tail(die_ms), "ms", die_ms.size()};
  L["soc.dies_per_s"] = {ratio(static_cast<double>(untraced.size()), wall),
                         "1/s", untraced.size()};
  L["soc.escape_frac"] = {
      ratio(static_cast<double>(escapes), static_cast<double>(defective)),
      "ratio", defective};
  L["soc.chip_tcks"] = {static_cast<double>(fl->schedule->total_tcks),
                        "count", 1};
  L["diag.diag_p50_ms"] = {median(diag_ms), "ms", diag_ms.size()};
  L["diag.hit_frac"] = {
      ratio(static_cast<double>(hits), static_cast<double>(diagnosed)),
      "ratio", diagnosed};
  L["diag.unexplained_dies"] = {static_cast<double>(unexplained), "count",
                                diagnosed};
  if (!a.trace) return res;

  // ----- per-layer table from the traced dies and the traced set-up
  const ObsView ov = ObsView::snapshot();
  const double k = static_cast<double>(traced.size());
  const size_t n = traced.size();
  const double session_pats =
      static_cast<double>(kSessionPatterns * static_cast<int64_t>(n_cores));
  L["gen.generate_s"] = {fl->gen_s, "s", 1};
  L["core.architect_s"] = {fl->architect_s, "s", 1};
  L["core.random_phase_s"] = {fl->coverage_s, "s", 1};
  L["core.random_patterns_per_s"] = {ratio(session_pats, fl->coverage_s),
                                     "1/s", 1};
  // Fault and bist layers: totals over the traced set-up and dies.
  L["fault.fsim_busy_s"] = {ov.timer("fsim.batch") + ov.timer("fsim.block") +
                                ov.timer("fsim.staged_block"),
                            "s", 1};
  L["bist.prpg_busy_s"] = {ov.timer("prpg.block_load"), "s", 1};
  L["fault.events_per_pattern"] = {
      ratio(ov.count("fsim.events_popped"), ov.count("prpg.patterns")),
      "count", 1};
  L["fault.cpt_block_frac"] = {
      ratio(ov.count("fsim.blocks_stem_cpt"), ov.count("fsim.blocks")),
      "ratio", 1};
  L["fault.faults_dropped"] = {ov.count("fsim.faults_dropped"), "count", 1};
  std::vector<double> camp_ms, diag_traced_ms;
  double camp_cpu = 0.0, camp_wall = 0.0, traced_wall = 0.0,
         untraced_same = 0.0;
  size_t diag_sessions = 0, diag_count = 0;
  for (size_t i = 0; i < traced.size(); ++i) {
    const DieOutcome& o = traced[i];
    camp_ms.push_back(o.test_s * 1e3);
    camp_cpu += o.campaign_cpu_s;
    camp_wall += o.test_s;
    for (double s : o.diag_s) diag_traced_ms.push_back(s * 1e3);
    diag_sessions += o.diag_sessions;
    diag_count += o.diag_s.size();
    traced_wall += o.total_s;
    untraced_same += untraced[i].total_s;
  }
  L["soc.campaign_ms"] = {median(camp_ms), "ms", n};
  L["soc.session_busy_s"] = {ov.timer("soc.core_session") / k, "s", n};
  L["soc.pool_util"] = {
      ratio(camp_cpu, static_cast<double>(threads) * camp_wall), "ratio", n};
  L["soc.golden_s"] = {fl->golden_s, "s", 1};
  L["soc.schedule_s"] = {fl->schedule_s, "s", 1};
  L["diag.diagnose_ms"] = {median(diag_traced_ms), "ms",
                           diag_traced_ms.size()};
  L["diag.sessions_per_diag"] = {
      ratio(static_cast<double>(diag_sessions),
            static_cast<double>(diag_count)),
      "count", diag_count};
  L["diag.dict_build_s"] = {fl->dict_s, "s", 1};
  L["diag.dict_bytes"] = {static_cast<double>(fl->dict_bytes), "bytes", 1};
  L["obs.overhead_pct"] = {100.0 * (ratio(traced_wall, untraced_same) - 1.0),
                           "%", n};
  res.traced_wall_s = rootSeconds(first_traced_span);
  for (const auto& [layer, s] : layerSelfSeconds(first_traced_span)) {
    res.share_pct[layer] = 100.0 * ratio(s, res.traced_wall_s);
  }
  return res;
}

// ---------------------------------------------------------------- output

/// Every per-layer metric and its unit. A workload that never reaches a
/// layer (no top-up on atspeed_tf, no dies on the core flows) reports
/// that layer's metrics as 0 with n = 0.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"gen.generate_s", "s"},
    {"core.architect_s", "s"},
    {"core.random_phase_s", "s"},
    {"core.random_patterns_per_s", "1/s"},
    {"fault.fsim_busy_s", "s"},
    {"bist.prpg_busy_s", "s"},
    {"fault.events_per_pattern", "count"},
    {"fault.cpt_block_frac", "ratio"},
    {"fault.faults_dropped", "count"},
    {"fault.pool_util", "ratio"},
    {"atpg.topup_s", "s"},
    {"atpg.podem_busy_s", "s"},
    {"atpg.sat_busy_s", "s"},
    {"atpg.cubes_per_target", "ratio"},
    {"atpg.backtracks_per_target", "count"},
    {"atpg.sat_escalated", "count"},
    {"atpg.sat_conflicts", "count"},
    {"atpg.compaction_ratio", "ratio"},
    {"atpg.pool_util", "ratio"},
    {"atpg.sat_arena_peak_bytes", "bytes"},
    {"atpg.topup_patterns", "count"},
    {"soc.campaign_ms", "ms"},
    {"soc.session_busy_s", "s"},
    {"soc.pool_util", "ratio"},
    {"soc.golden_s", "s"},
    {"soc.schedule_s", "s"},
    {"soc.die_p50_ms", "ms"},
    {"soc.die_tail_ms", "ms"},
    {"soc.dies_per_s", "1/s"},
    {"soc.escape_frac", "ratio"},
    {"soc.chip_tcks", "count"},
    {"diag.diagnose_ms", "ms"},
    {"diag.diag_p50_ms", "ms"},
    {"diag.sessions_per_diag", "count"},
    {"diag.hit_frac", "ratio"},
    {"diag.unexplained_dies", "count"},
    {"diag.dict_build_s", "s"},
    {"diag.dict_bytes", "bytes"},
    {"obs.overhead_pct", "%"},
};

/// Adds the bypassed layers' zero rows; a metric filed under a unit other
/// than the table's is a bug in this file and fails the run.
void completeLayerTable(Results& r) {
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it = r.layer.find(name);
    if (it == r.layer.end()) {
      r.layer[name] = {0.0, unit, 0};
    } else {
      r.check("per-layer units match the metric table",
              it->second.unit == unit, std::string(name) + " unit mismatch");
    }
  }
}

void writeMetrics(std::FILE* f, const char* key,
                  const std::map<std::string, Metric>& m) {
  std::fprintf(f, "  \"%s\": {", key);
  bool first = true;
  for (const auto& [name, v] : m) {
    std::fprintf(f, "%s\n    \"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                 "\"n\": %zu}",
                 first ? "" : ",", name.c_str(),
                 std::isfinite(v.value) ? v.value : 0.0, v.unit.c_str(), v.n);
    first = false;
  }
  std::fprintf(f, "\n  }");
}

bool writeResults(const Args& a, const Results& r) {
  std::FILE* f = std::fopen(a.out.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n",
               a.workload.c_str(), static_cast<unsigned long long>(a.seed));
  std::fprintf(f, "  \"trace\": %d,\n  \"threads\": %u,\n", a.trace ? 1 : 0,
               r.threads);
  std::fprintf(f, "  \"compiler\": \"%s\",\n  \"build_type\": \"%s\",\n",
               E2E_COMPILER, E2E_BUILD_TYPE);
  std::fprintf(f, "  \"passes\": %zu,\n  \"traced_passes\": %zu,\n",
               r.passes, r.traced_passes);
  std::fprintf(f, "  \"correct\": %s,\n  \"attempted\": %llu,\n",
               r.correct() ? "true" : "false",
               static_cast<unsigned long long>(r.attempted));
  std::fprintf(f, "  \"failed\": %llu,\n",
               static_cast<unsigned long long>(r.failed));
  std::fprintf(f, "  \"checks\": [");
  for (size_t i = 0; i < r.checks.size(); ++i) {
    const Check& c = r.checks[i];
    std::fprintf(f, "%s\n    {\"name\": \"%s\", \"ok\": %s, \"detail\": \"%s\"}",
                 i == 0 ? "" : ",", jsonEscape(c.name).c_str(),
                 c.ok ? "true" : "false",
                 c.ok ? "" : jsonEscape(c.detail).c_str());
  }
  std::fprintf(f, "\n  ],\n");
  writeMetrics(f, "end_to_end", r.e2e);
  std::fprintf(f, ",\n");
  writeMetrics(f, "per_layer", r.layer);
  std::fprintf(f, ",\n  \"layer_share_pct\": {");
  bool first = true;
  for (const auto& [layer, pct] : r.share_pct) {
    std::fprintf(f, "%s\n    \"%s\": %.6f", first ? "" : ",", layer.c_str(),
                 pct);
    first = false;
  }
  std::fprintf(f, "\n  },\n  \"traced_wall_s\": %.9f,", r.traced_wall_s);
  std::fprintf(f, "\n  \"obs_timers\": {");
  first = true;
  for (const auto& t : obs::timerSnapshot()) {
    std::fprintf(f,
                 "%s\n    \"%s\": {\"count\": %llu, \"total_s\": %.9f}",
                 first ? "" : ",", t.name.c_str(),
                 static_cast<unsigned long long>(t.count), t.total_seconds);
    first = false;
  }
  std::fprintf(f, "\n  },\n");
  obs::writeCountersJson(f, "  ");
  std::fprintf(f, ",\n");
  obs::writeGaugesJson(f, "  ");
  std::fprintf(f, "\n}\n");
  std::fclose(f);
  return true;
}

bool parseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--max-threads") {
      a.threads = static_cast<unsigned>(std::stoul(v));
    } else if (k == "--out") {
      a.out = v;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && !a.out.empty() && argc % 2 == 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parseArgs(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload W --seed N --seconds S "
                 "--trace 0|1 --max-threads T --out FILE [--trace-out FILE]\n");
    return 2;
  }
  Results r;
  try {
    if (a.workload == "signoff_sa") {
      r = runFlowWorkload(a, signoffWorkload(a.seed));
    } else if (a.workload == "atspeed_tf") {
      r = runFlowWorkload(a, atspeedWorkload(a.seed, a.threads));
    } else if (a.workload == "die_floor") {
      r = runDieFloor(a);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 3;
  }
  if (a.trace) completeLayerTable(r);
  if (a.trace && !a.trace_out.empty() && !writeTrace(a.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", a.trace_out.c_str());
    return 3;
  }
  if (!writeResults(a, r)) {
    std::fprintf(stderr, "cannot write %s\n", a.out.c_str());
    return 3;
  }
  return r.correct() ? 0 : 1;
}
