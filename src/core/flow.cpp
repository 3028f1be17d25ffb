#include "core/flow.hpp"

#include <algorithm>
#include <chrono>

namespace lbist::core {

namespace {

fault::FaultList makeFaults(const Netlist& nl, bool transition) {
  return transition ? fault::FaultList::enumerateTransition(nl)
                    : fault::FaultList::enumerateStuckAt(nl);
}

std::vector<GateId> makeAssignable(const BistReadyCore& core) {
  std::vector<GateId> out;
  const Netlist& nl = core.netlist;
  for (GateId dff : nl.dffs()) {
    if (nl.hasFlag(dff, kFlagScanCell)) out.push_back(dff);
  }
  // Unwrapped non-control PIs (none with wrap_ios, present without).
  std::vector<GateId> skip;
  skip.push_back(core.scan.se_port);
  if (core.scan.test_mode_port.valid()) {
    skip.push_back(core.scan.test_mode_port);
  }
  for (const dft::ScanChain& c : core.scan.chains) skip.push_back(c.si_port);
  for (GateId pi : nl.inputs()) {
    if (std::find(skip.begin(), skip.end(), pi) != skip.end()) continue;
    if (core.config.wrap_ios) continue;  // wrapped: state covers it
    out.push_back(pi);
  }
  return out;
}

}  // namespace

CoverageFlow::CoverageFlow(const BistReadyCore& core, bool transition,
                           const fault::FsimOptions& fsim_opts)
    : core_(&core),
      transition_(transition),
      faults_(makeFaults(core.netlist, transition)),
      observed_(fault::defaultObservationSet(core.netlist)),
      assignable_(makeAssignable(core)),
      fsim_(core.netlist, faults_, observed_, fsim_opts),
      source_(core, fsim_opts.lane_words) {
  fsim_.markUnobservable();
}

RandomPhaseResult CoverageFlow::runRandomPhase(int64_t n_patterns) {
  const auto t0 = std::chrono::steady_clock::now();
  RandomPhaseResult res;
  res.patterns = n_patterns;
  const int64_t block_lanes = static_cast<int64_t>(fsim_.lanes());
  const auto batch = static_cast<int64_t>(fault::kBatchBlocks);
  for (int64_t base = 0; base < n_patterns;) {
    const int64_t blocks_left =
        (n_patterns - base + block_lanes - 1) / block_lanes;
    const size_t n_blocks =
        static_cast<size_t>(std::min(batch, blocks_left));
    const auto load = [&](size_t b, sim::Simulator2v& sim) -> int {
      const int64_t blk_base = base + static_cast<int64_t>(b) * block_lanes;
      const int lanes = static_cast<int>(
          std::min<int64_t>(block_lanes, n_patterns - blk_base));
      source_.loadBlock(sim, lanes);
      return lanes;
    };
    if (transition_) {
      fsim_.simulateBatchTransition(base, n_blocks, load);
    } else {
      fsim_.simulateBatchStuckAt(base, n_blocks, load);
    }
    base += static_cast<int64_t>(n_blocks) * block_lanes;
  }
  res.coverage = faults_.coverage();
  res.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return res;
}

atpg::TopUpResult CoverageFlow::runTopUp(const atpg::TopUpConfig& cfg) {
  return atpg::runTopUp(core_->netlist, faults_, fsim_, observed_,
                        assignable_, source_.fixedPins(), cfg);
}

}  // namespace lbist::core
