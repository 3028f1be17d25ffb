#include "core/session.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/obs.hpp"

namespace lbist::core {

BistSession::BistSession(const BistReadyCore& core, const Netlist& die)
    : BistSession(core, die, {}) {}

BistSession::BistSession(const BistReadyCore& core, const Netlist& die,
                         std::span<const fault::LaneHypothesis> lanes)
    : core_(&core), die_(&die), sim_(die) {
  // Injected faults may append tie or force cells, so the die can be
  // larger than the reference; it must never be smaller.
  if (die.numGates() < core.netlist.numGates() ||
      die.numDomains() != core.netlist.numDomains()) {
    throw std::invalid_argument(
        "die must be structurally compatible with the BIST-ready core");
  }
  if (lanes.size() > fault::kMaxLaneHypotheses) {
    throw std::invalid_argument("a lane session runs at most 64 lanes");
  }
  lanes_ = std::max<size_t>(1, lanes.size());
  for (const DomainBist& db : core.domain_bist) {
    prpgs_.emplace_back(db.prpg);
    odcs_.emplace_back(db.odc);
    slice_.emplace_back(db.chain_indices.size(), 0);
    so_words_.emplace_back(db.chain_indices.size(), 0);
  }

  // Run constants: run() drives every primary input to 0 and test_mode
  // to 1; only the SI ports (PRPG data), SE and the lane masks that
  // differ between lanes are not fixed.
  std::vector<uint8_t> driven(die.numGates(), 0);
  std::vector<GateId> scan_cells;
  for (const dft::ScanChain& chain : core.scan.chains) {
    driven[chain.si_port.v] = 1;
    scan_cells.insert(scan_cells.end(), chain.cells.begin(),
                      chain.cells.end());
  }
  driven[core.scan.se_port.v] = 1;
  const std::optional<GateId> tm_named = die.findGateByName("test_mode");
  auto isTestMode = [&](GateId pi) {
    return pi == core.scan.test_mode_port || pi == tm_named;
  };

  // Lane masks: keep words start all ones and force words all zeros (the
  // good machine, which unused lanes stay); each lane clears its keep
  // bit or sets its force bit. A mask must be a primary input the session
  // neither drives nor holds as test_mode, or the run would override it.
  std::vector<uint8_t> is_mask(die.numGates(), 0);
  std::vector<uint64_t> mask_word(die.numGates(), 0);
  auto claim = [&](GateId g, uint64_t init) {
    if (!g.valid() || g.v >= die.numGates() ||
        die.gate(g).kind != CellKind::kInput || driven[g.v] != 0 ||
        isTestMode(g)) {
      throw std::invalid_argument(
          "lane mask is not a free primary input of the die");
    }
    if (is_mask[g.v] == 0) mask_word[g.v] = init;
    is_mask[g.v] = 1;
  };
  for (size_t l = 0; l < lanes.size(); ++l) {
    claim(lanes[l].keep, ~uint64_t{0});
    claim(lanes[l].force, 0);
    const uint64_t bit = uint64_t{1} << l;
    if (lanes[l].stuck_high) {
      mask_word[lanes[l].force.v] |= bit;
    } else {
      mask_word[lanes[l].keep.v] &= ~bit;
    }
  }
  const uint64_t used =
      lanes_ == 64 ? ~uint64_t{0} : (uint64_t{1} << lanes_) - 1;

  for (GateId pi : die.inputs()) {
    if (driven[pi.v] != 0) continue;
    if (is_mask[pi.v] != 0) {
      // A mask uniform across the used lanes is a run constant; unused
      // lanes then follow it, and no result reads them.
      const uint64_t w = mask_word[pi.v] & used;
      if (w != 0 && w != used) {
        lane_masks_.emplace_back(pi, mask_word[pi.v]);
        continue;
      }
      held_.push_back(sim::HeldInput{pi, w != 0});
      continue;
    }
    held_.push_back(sim::HeldInput{pi, isTestMode(pi)});
  }

  // The scan cells are all the session observes (the SO reads). SE is
  // high on every shift edge and low on every launch and capture edge.
  const sim::PulseAnalysis analysis(sim_, held_, scan_cells);
  const sim::HeldInput se_high{core.scan.se_port, true};
  const sim::HeldInput se_low{core.scan.se_port, false};
  std::vector<DomainId> all;
  for (uint16_t d = 0; d < die.numDomains(); ++d) {
    all.push_back(DomainId{d});
    capture_programs_.push_back(
        analysis.program({&all.back(), 1}, {&se_low, 1}));
  }
  shift_program_ = analysis.program(all, {&se_high, 1});
}

void BistSession::pulse(const sim::PulseProgram& program) {
  sim_.pulse(program);
  ++pulses_;
  ops_evaluated_ += program.ops.size();
}

void BistSession::seedPrpgs() {
  for (size_t i = 0; i < prpgs_.size(); ++i) {
    prpgs_[i].loadSeed(core_->domain_bist[i].prpg.seed);
    odcs_[i].reset();
  }
}

void BistSession::shiftCycle() {
  // PRPG outputs feed the SI ports; MISRs compact the SO values present
  // before the edge; then one shift edge clocks every domain, the PRPGs
  // and the MISRs together (they share the slow shift clock).
  for (size_t i = 0; i < prpgs_.size(); ++i) {
    const DomainBist& db = core_->domain_bist[i];
    for (size_t c = 0; c < db.chain_indices.size(); ++c) {
      const dft::ScanChain& chain =
          core_->scan.chains[db.chain_indices[c]];
      so_words_[i][c] = sim_.state(chain.so_driver);
    }
    odcs_[i].compact(so_words_[i]);
    prpgs_[i].nextSlice(slice_[i]);
    for (size_t c = 0; c < db.chain_indices.size(); ++c) {
      const dft::ScanChain& chain =
          core_->scan.chains[db.chain_indices[c]];
      sim_.setInput(chain.si_port, slice_[i][c] != 0 ? ~uint64_t{0} : 0);
    }
  }
  pulse(shift_program_);
}

SessionResult BistSession::run(const SessionOptions& opts,
                               const SessionResult* golden) {
  return std::move(runLanes(opts, golden).front());
}

std::vector<SessionResult> BistSession::runLanes(
    const SessionOptions& opts, const SessionResult* golden) {
  std::vector<SessionResult> res(lanes_);

  // Reset: known state everywhere (hardware gets this from the first full
  // shift window; starting from zero keeps the golden run reproducible).
  sim_.resetState(0);
  for (GateId pi : die_->inputs()) sim_.setInput(pi, 0);
  for (const sim::HeldInput& h : held_) {
    if (h.high) sim_.setInput(h.gate, ~uint64_t{0});
  }
  for (const auto& [mask, word] : lane_masks_) sim_.setInput(mask, word);
  seedPrpgs();
  pulses_ = 0;
  ops_evaluated_ = 0;

  bist::BistController ctrl;
  ctrl.setSignatureInterval(opts.signature_interval);
  ctrl.start();
  ctrl.seedsLoaded();

  const int shift_cycles = core_->shiftCyclesPerPattern();
  const bist::AtSpeedTimingConfig& timing =
      opts.timing_override ? *opts.timing_override : core_->config.timing;
  bist::BistSchedule sched(die_->domains(), timing, shift_cycles,
                           opts.patterns, opts.capture_order);

  auto snapshot = [&]() {
    for (size_t l = 0; l < lanes_; ++l) {
      SignatureCheckpoint cp;
      cp.patterns_done = ctrl.patternsDone();
      for (const bist::LaneOdc& odc : odcs_) {
        cp.domain_words.push_back(odc.signature(static_cast<int>(l)));
      }
      res[l].checkpoints.push_back(std::move(cp));
    }
  };

  uint64_t session_ps = 0;
  while (auto ev = sched.next()) {
    ctrl.onEvent(*ev);
    if (ctrl.checkpointDue()) snapshot();
    switch (ev->kind) {
      case bist::ScheduleEvent::Kind::kShiftPulse:
        sim_.setInput(core_->scan.se_port, ~uint64_t{0});
        shiftCycle();
        break;
      case bist::ScheduleEvent::Kind::kSeFall:
        sim_.setInput(core_->scan.se_port, 0);
        break;
      case bist::ScheduleEvent::Kind::kLaunchPulse:
      case bist::ScheduleEvent::Kind::kCapturePulse:
        pulse(capture_programs_[ev->domain.v]);
        break;
      case bist::ScheduleEvent::Kind::kSeRise:
        sim_.setInput(core_->scan.se_port, ~uint64_t{0});
        break;
      case bist::ScheduleEvent::Kind::kPatternEnd:
        break;
      case bist::ScheduleEvent::Kind::kSessionEnd:
        session_ps = ev->time_ps;
        break;
    }
  }

  // Final unload: shift the last captured responses into the MISRs.
  if (opts.final_unload) {
    sim_.setInput(core_->scan.se_port, ~uint64_t{0});
    for (int s = 0; s < shift_cycles; ++s) shiftCycle();
  }

  for (size_t l = 0; l < lanes_; ++l) {
    SessionResult& r = res[l];
    r.patterns_done = ctrl.patternsDone();
    r.shift_pulses = ctrl.shiftPulses();
    r.capture_pulses = ctrl.capturePulses();
    r.session_ps = session_ps;
    for (const bist::LaneOdc& odc : odcs_) {
      r.signature_words.push_back(odc.signature(static_cast<int>(l)));
      r.signatures.push_back(bist::WideMisr::hex(r.signature_words.back()));
    }
    const bool match =
        golden != nullptr && golden->signatures == r.signatures;
    ctrl.setSignatureMatch(match);
    r.finish = ctrl.finish();
    r.result_pass = ctrl.result();
  }
  OBS_COUNT("session.pulses", pulses_);
  OBS_COUNT("session.ops_evaluated", ops_evaluated_);
  return res;
}

std::vector<SessionResult> BistSession::runHypotheses(
    std::span<const fault::Fault> hypotheses, const SessionOptions& opts,
    size_t* passes) const {
  std::vector<SessionResult> out;
  out.reserve(hypotheses.size());
  constexpr size_t kLanes = fault::kMaxLaneHypotheses;
  for (size_t b = 0; b < hypotheses.size(); b += kLanes) {
    const std::span<const fault::Fault> pass =
        hypotheses.subspan(b, std::min(kLanes, hypotheses.size() - b));
    Netlist die = *die_;
    const std::vector<fault::LaneHypothesis> lanes =
        fault::injectStuckAtLanes(die, pass);
    for (SessionResult& r : BistSession(*core_, die, lanes).runLanes(opts)) {
      out.push_back(std::move(r));
    }
    if (passes != nullptr) ++*passes;
  }
  return out;
}

}  // namespace lbist::core
