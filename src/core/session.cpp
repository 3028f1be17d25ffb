#include "core/session.hpp"

#include <stdexcept>

#include "obs/obs.hpp"

namespace lbist::core {

BistSession::BistSession(const BistReadyCore& core, const Netlist& die)
    : core_(&core), die_(&die), sim_(die) {
  // Injected faults may append tie cells, so the die can be slightly
  // larger than the reference; it must never be smaller.
  if (die.numGates() < core.netlist.numGates() ||
      die.numDomains() != core.netlist.numDomains()) {
    throw std::invalid_argument(
        "die must be structurally compatible with the BIST-ready core");
  }
  for (const DomainBist& db : core.domain_bist) {
    prpgs_.emplace_back(db.prpg);
    odcs_.emplace_back(db.odc);
    slice_.emplace_back(db.chain_indices.size(), 0);
    so_slice_.emplace_back(db.chain_indices.size(), 0);
  }

  // Run constants: run() drives every primary input to 0 and test_mode
  // to 1; only the SI ports (PRPG data) and SE change during a run.
  std::vector<uint8_t> driven(die.numGates(), 0);
  std::vector<GateId> scan_cells;
  for (const dft::ScanChain& chain : core.scan.chains) {
    driven[chain.si_port.v] = 1;
    scan_cells.insert(scan_cells.end(), chain.cells.begin(),
                      chain.cells.end());
  }
  driven[core.scan.se_port.v] = 1;
  const std::optional<GateId> tm_named = die.findGateByName("test_mode");
  for (GateId pi : die.inputs()) {
    if (driven[pi.v] != 0) continue;
    held_.push_back(sim::HeldInput{
        pi, pi == core.scan.test_mode_port || pi == tm_named});
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
      so_slice_[i][c] =
          static_cast<uint8_t>(sim_.state(chain.so_driver) & 1u);
    }
    odcs_[i].compact(so_slice_[i]);
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
  SessionResult res;

  // Reset: known state everywhere (hardware gets this from the first full
  // shift window; starting from zero keeps the golden run reproducible).
  sim_.resetState(0);
  for (GateId pi : die_->inputs()) sim_.setInput(pi, 0);
  for (const sim::HeldInput& h : held_) {
    if (h.high) sim_.setInput(h.gate, ~uint64_t{0});
  }
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
    SignatureCheckpoint cp;
    cp.patterns_done = ctrl.patternsDone();
    for (bist::Odc& odc : odcs_) cp.domain_words.push_back(odc.signature());
    res.checkpoints.push_back(std::move(cp));
  };

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
        res.session_ps = ev->time_ps;
        break;
    }
  }

  // Final unload: shift the last captured responses into the MISRs.
  if (opts.final_unload) {
    sim_.setInput(core_->scan.se_port, ~uint64_t{0});
    for (int s = 0; s < shift_cycles; ++s) shiftCycle();
  }

  res.patterns_done = ctrl.patternsDone();
  res.shift_pulses = ctrl.shiftPulses();
  res.capture_pulses = ctrl.capturePulses();
  for (bist::Odc& odc : odcs_) {
    res.signatures.push_back(odc.signatureHex());
    res.signature_words.push_back(odc.signature());
  }

  bool match = golden != nullptr;
  if (golden != nullptr) {
    if (golden->signatures.size() != res.signatures.size()) {
      match = false;
    } else {
      for (size_t i = 0; i < res.signatures.size(); ++i) {
        if (res.signatures[i] != golden->signatures[i]) match = false;
      }
    }
  }
  ctrl.setSignatureMatch(match);
  res.finish = ctrl.finish();
  res.result_pass = ctrl.result();
  OBS_COUNT("session.pulses", pulses_);
  OBS_COUNT("session.ops_evaluated", ops_evaluated_);
  return res;
}

}  // namespace lbist::core
