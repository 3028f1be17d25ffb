// Signature-based fault diagnosis: from a failing BIST run to a ranked
// list of candidate fault sites.
//
// Three-stage flow on top of the detect-only pipeline:
//
//  1. NARROW — the golden and failing sessions record interval MISR
//     checkpoints (SessionOptions::signature_interval). Because the MISR
//     is linear, the signature difference D evolves autonomously between
//     checkpoints (D' = A^cycles * D) unless new errors entered, so the
//     set of error-injecting windows falls straight out of the
//     checkpoint trace; binary-search replay of truncated sessions then
//     pins the first failing pattern in O(log n) re-runs.
//  2. MATCH — a response dictionary (per-fault, per-pattern detection
//     bitmaps from the parallel PPSFP engine, see dictionary.hpp) is
//     intersected against the observed failing windows/patterns; exact
//     matches first, then nearest-neighbour Jaccard scoring for
//     unmodeled defects. Candidates that cannot structurally reach every
//     failing clock domain's MISR are pruned (multi-domain sessions).
//  3. CONFIRM — the top stuck-at candidates are injected into a die copy
//     and re-run through the cycle-accurate session; a candidate that
//     reproduces the observed checkpoint trace bit-for-bit is confirmed.
//
// Stuck-at diagnosis runs its sessions single-capture, and the dictionary
// is built with the staged-capture fault simulator
// (FaultSimulator::simulateBlockStuckAtStaged) so the staggered
// per-domain capture order — including fault effects hopping clock
// domains through freshly captured state — matches the die
// cycle-for-cycle. The transition universe keeps the at-speed
// double-capture schedule with a broadside dictionary model.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/architect.hpp"
#include "core/session.hpp"
#include "diag/dictionary.hpp"
#include "fault/fault.hpp"

namespace lbist::diag {

/// Knobs for the three-stage diagnosis flow (see file comment).
struct DiagnosisOptions {
  /// Diagnostic session length. Shorter than a production run: the goal
  /// is resolution per CPU second, not coverage.
  int64_t patterns = 256;
  /// Checkpoint every this many patterns. Smaller windows cost one
  /// stored signature per window per domain but narrow failures faster
  /// (memory/resolution trade-off; 1 = per-pattern resolution).
  int64_t signature_interval = 32;
  /// Worker threads for the dictionary build (results thread-invariant).
  uint32_t threads = 1;
  /// Forwarded to FsimOptions; tests lower it so tiny circuits still
  /// exercise the parallel dictionary path.
  uint32_t min_faults_per_thread = 256;
  /// Diagnose against the transition (launch-on-capture) universe
  /// instead of stuck-at.
  bool transition = false;
  /// Ranked candidates to report.
  size_t max_candidates = 10;
  /// How many top candidates to confirm by injected session replay
  /// (stuck-at universes only; transition faults cannot be hardwired).
  size_t confirm_top = 10;
  /// Pin the first failing pattern by binary-search replay.
  bool locate_first_fail = true;
  /// Re-run both sessions with per-pattern checkpoints to recover the
  /// exact failing-pattern set (2 extra runs). Matching then happens at
  /// pattern granularity instead of window granularity — essential when
  /// a gross defect dirties every window and the window bitmap stops
  /// discriminating. Disable for the ATE-style windows-only flow.
  bool exact_pattern_replay = true;
};

/// What the tester observed: which checkpoint windows injected new MISR
/// errors, optionally refined to exact failing patterns. Window indices
/// 0..C-1 are the interval checkpoints; index C is the final signature
/// (which also covers the unload of the last capture).
struct Syndrome {
  int64_t patterns = 0;
  int64_t signature_interval = 0;
  std::vector<uint8_t> dirty_windows;     // size numWindows()
  std::vector<int64_t> failing_patterns;  // exact set; empty = unknown
  int64_t first_failing_pattern = -1;     // -1 = unknown
  /// Per DomainBist index: 1 if that domain's signature diverged.
  /// Empty = unknown (single-signature testers).
  std::vector<uint8_t> failing_domains;

  /// Checkpoint count incl. the final signature (dirty_windows size).
  [[nodiscard]] size_t numWindows() const {
    return static_cast<size_t>(
        signature_interval > 0 ? patterns / signature_interval + 1 : 1);
  }
  /// True when at least one window injected new MISR errors.
  [[nodiscard]] bool anyDirty() const;
};

/// Checkpoint window whose signature first includes the scanned-out
/// response of `pattern`: capture(p) shifts into the MISR during pattern
/// p+1's shift window, so it lands in window (p+1)/interval, clamped to
/// the final-signature window.
[[nodiscard]] int64_t windowOfPattern(int64_t pattern, int64_t interval,
                                      size_t num_windows);

/// One ranked fault-site hypothesis in a Diagnosis.
struct Candidate {
  size_t fault_index = 0;
  fault::Fault fault;
  std::string description;  // Fault::describe
  double score = 0.0;       // Jaccard of failing sets, [0, 1]
  bool exact_match = false;
  bool first_fail_match = false;
  bool confirmed = false;  // session replay reproduced the trace
};

/// Full diagnosis outcome: syndrome, ranked candidates, and the cost /
/// resolution statistics the diag bench tracks.
struct Diagnosis {
  /// False when the die passed (signatures matched) — no candidates.
  bool failed = false;
  Syndrome syndrome;
  std::vector<Candidate> candidates;  // ranked, best first
  /// Candidates tied with the best pre-confirmation match — the
  /// diagnostic resolution (1 = unambiguous).
  size_t tied_top = 0;
  size_t session_runs = 0;
  size_t faults_simulated = 0;
  double dictionary_seconds = 0.0;
  size_t dictionary_bytes = 0;
  double total_seconds = 0.0;
};

/// Drives the NARROW -> MATCH -> CONFIRM flow for one BIST-ready core,
/// caching the golden run and the response dictionary across calls.
class Diagnoser {
 public:
  /// `core` must outlive the diagnoser (sessions replay against it).
  Diagnoser(const core::BistReadyCore& core, DiagnosisOptions opts = {});

  /// Full flow against a (defective) die netlist: golden + failing
  /// interval runs, window narrowing, binary-search replay, dictionary
  /// match, injected-session confirmation.
  [[nodiscard]] Diagnosis diagnoseDie(const Netlist& bad_die);

  /// Matching only, from an externally observed syndrome (e.g. ATE
  /// checkpoint data). No sessions are run and nothing is confirmed.
  [[nodiscard]] Diagnosis diagnoseSyndrome(const Syndrome& syndrome);

  /// Syndrome a given dictionary fault would produce — lets callers
  /// exercise diagnosis for universes that cannot be hardwired into a
  /// die (transition faults).
  [[nodiscard]] Syndrome syndromeForFault(size_t fault_index);

  /// The fault universe being diagnosed (indices match Candidates).
  [[nodiscard]] const fault::FaultList& faults() const { return faults_; }

  /// The response dictionary (built on first use).
  [[nodiscard]] const ResponseDictionary& dictionary();

  /// The options the diagnoser was constructed with.
  [[nodiscard]] const DiagnosisOptions& options() const { return opts_; }

 private:
  [[nodiscard]] core::SessionOptions sessionOptions() const;
  /// The session bound to the reference netlist, built on first use and
  /// reused by every golden run and probe.
  core::BistSession& goldenSession();
  const core::SessionResult& goldenRun();
  [[nodiscard]] Syndrome extractSyndrome(
      const core::SessionResult& golden,
      const core::SessionResult& failing) const;
  [[nodiscard]] int64_t binarySearchFirstFail(core::BistSession& bad,
                                              int64_t lo, int64_t hi,
                                              size_t& session_runs);
  void ensureDictionary();
  void matchSyndrome(const Syndrome& syndrome, Diagnosis& out);
  void confirmCandidates(const core::SessionResult& observed,
                         Diagnosis& out);
  [[nodiscard]] uint32_t domainReachMask(const fault::Fault& f) const;

  const core::BistReadyCore* core_;
  DiagnosisOptions opts_;
  fault::FaultList faults_;
  std::optional<ResponseDictionary> dict_;
  DictionaryBuildStats dict_stats_;
  std::optional<core::BistSession> golden_session_;
  std::optional<core::SessionResult> golden_;
  // Per DomainBist, per gate: 1 if the gate's sequential backward cone
  // reaches that domain's MISR observation set (capture ordering lets
  // fault effects hop domains through freshly captured state, so only
  // the sequential closure is a safe filter).
  std::vector<std::vector<uint8_t>> domain_reach_;
};

/// Human-readable diagnosis report: verdict, syndrome, ranked sites with
/// match flags, and resolution stats.
[[nodiscard]] std::string renderDiagnosisReport(const Diagnosis& d);

}  // namespace lbist::diag
