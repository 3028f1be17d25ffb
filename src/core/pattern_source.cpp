#include "core/pattern_source.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "obs/obs.hpp"
#include "sim/lane.hpp"

namespace lbist::core {

PrpgPatternSource::PrpgPatternSource(const BistReadyCore& core,
                                     size_t lane_words)
    : core_(&core), lane_words_(lane_words) {
  if (!sim::isSupportedLaneWords(lane_words)) {
    throw std::invalid_argument("PrpgPatternSource: unsupported lane_words");
  }
  const Netlist& nl = core.netlist;
  std::vector<uint32_t> dff_ordinal(nl.numGates(), 0);
  for (size_t i = 0; i < nl.dffs().size(); ++i) {
    dff_ordinal[nl.dffs()[i].v] = static_cast<uint32_t>(i);
  }
  const size_t cycles = static_cast<size_t>(core.shiftCyclesPerPattern());
  for (const DomainBist& db : core.domain_bist) {
    Domain d{bist::Prpg(db.prpg), {}, {}, {}};
    d.plan = d.prpg.slicedPlan(static_cast<int>(cycles));
    const size_t chains = db.chain_indices.size();
    d.words.resize(cycles * chains);
    for (size_t k = 0; k < cycles; ++k) {
      // The bit injected at cycle k ends up in cell (L-1-k) of each
      // chain (closest-to-SI cell receives the last bit).
      const size_t cell_pos = cycles - 1 - k;
      for (size_t c = 0; c < chains; ++c) {
        const dft::ScanChain& chain = core.scan.chains[db.chain_indices[c]];
        if (cell_pos < chain.cells.size()) {
          d.cells.emplace_back(static_cast<uint32_t>(k * chains + c),
                               dff_ordinal[chain.cells[cell_pos].v]);
        }
      }
    }
    domains_.push_back(std::move(d));
  }
  fixed_.emplace_back(core.scan.se_port, false);
  if (core.scan.test_mode_port.valid()) {
    fixed_.emplace_back(core.scan.test_mode_port, true);
  }
  cell_words_.assign(nl.dffs().size() * lane_words_, 0);
}

void PrpgPatternSource::computeCellWords(int lanes) {
  if (lanes < 0 || static_cast<size_t>(lanes) > this->lanes()) {
    throw std::invalid_argument(
        "PrpgPatternSource: lanes must be in [0, lanes()]");
  }
  OBS_SPAN("prpg.block_load");
  OBS_COUNT("prpg.block_loads", 1);
  OBS_COUNT("prpg.patterns", static_cast<uint64_t>(lanes));
  // A full block rewrites every scan-cell word; a short one leaves the
  // lanes past `lanes` zero.
  if (static_cast<size_t>(lanes) < this->lanes()) {
    std::fill(cell_words_.begin(), cell_words_.end(), 0);
  }
  for (Domain& d : domains_) {
    for (size_t w = 0; w * 64 < static_cast<size_t>(lanes); ++w) {
      const int patterns = std::min(64, lanes - static_cast<int>(w * 64));
      d.prpg.nextLaneWord(d.plan, patterns, d.words);
      for (const auto& [src, ordinal] : d.cells) {
        cell_words_[size_t{ordinal} * lane_words_ + w] = d.words[src];
      }
    }
  }
}

namespace {

/// One source-application path for every sink exposing
/// setSource(GateId, uint64_t) + setSourceRow(GateId, const uint64_t*)
/// — the overloads below must never drift. Constant-across-lanes pins
/// (PIs, fixed control) broadcast; DFFs copy their stride-W rows, found
/// by DFF ordinal.
template <typename Sink>
void applySources(const BistReadyCore& core, size_t lane_words,
                  const std::vector<uint64_t>& cell_words,
                  const std::vector<std::pair<GateId, bool>>& fixed,
                  Sink& sink) {
  const Netlist& nl = core.netlist;
  for (GateId pi : nl.inputs()) sink.setSource(pi, 0);
  const std::span<const GateId> dffs = nl.dffs();
  for (size_t i = 0; i < dffs.size(); ++i) {
    sink.setSourceRow(dffs[i], cell_words.data() + i * lane_words);
  }
  for (const auto& [id, v] : fixed) {
    sink.setSource(id, v ? ~uint64_t{0} : 0);
  }
}

}  // namespace

void PrpgPatternSource::loadBlock(fault::FaultSimulator& fsim, int lanes) {
  assert(fsim.laneWords() == lane_words_ &&
         "pattern source / simulator lane width mismatch");
  computeCellWords(lanes);
  applySources(*core_, lane_words_, cell_words_, fixed_, fsim);
}

void PrpgPatternSource::loadBlock(sim::Simulator2v& sim, int lanes) {
  assert(sim.laneWords() == lane_words_ &&
         "pattern source / simulator lane width mismatch");
  computeCellWords(lanes);
  applySources(*core_, lane_words_, cell_words_, fixed_, sim);
}

}  // namespace lbist::core
