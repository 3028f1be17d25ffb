#include "sim/sim2v.hpp"

#include <cassert>
#include <stdexcept>

namespace lbist::sim {

Simulator2v::Simulator2v(const Netlist& nl, size_t lane_words)
    : nl_(&nl), lev_(nl), compiled_(nl, lev_), lane_words_(lane_words) {
  if (!isSupportedLaneWords(lane_words)) {
    throw std::invalid_argument("Simulator2v: unsupported lane_words");
  }
  values_.assign(nl.numGates() * lane_words_, 0);
  if (obs::metricsEnabled()) {
    lane_charge_ = obs::GaugeCharge(
        obs::gaugeId("sim.lane_bytes"),
        static_cast<int64_t>(values_.size() * sizeof(uint64_t)));
  }
  nl.forEachGate([&](GateId id, const Gate& g) {
    if (g.kind == CellKind::kConst1) setSource(id, ~uint64_t{0});
  });
}

void Simulator2v::eval() {
  switch (lane_words_) {
    case 1:
      compiled_.evalW<1>(values_.data());
      break;
    case 4:
      compiled_.evalW<4>(values_.data());
      break;
    case 8:
      compiled_.evalW<8>(values_.data());
      break;
    default:
      assert(false && "unsupported lane width");
  }
}

void Simulator2v::evalOps(std::span<const uint32_t> ops) {
  switch (lane_words_) {
    case 1:
      compiled_.evalOpsW<1>(values_.data(), ops);
      break;
    case 4:
      compiled_.evalOpsW<4>(values_.data(), ops);
      break;
    case 8:
      compiled_.evalOpsW<8>(values_.data(), ops);
      break;
    default:
      assert(false && "unsupported lane width");
  }
}

uint64_t Simulator2v::evalGate(GateId id, size_t wi) const {
  const Gate& g = nl_->gate(id);
  const size_t w = lane_words_;
  const auto val = [&](GateId f) { return values_[size_t{f.v} * w + wi]; };
  // Fast paths for the common arities avoid building a span.
  switch (g.kind) {
    case CellKind::kBuf:
      return val(g.fanins[0]);
    case CellKind::kNot:
      return ~val(g.fanins[0]);
    case CellKind::kMux2: {
      const uint64_t d0 = val(g.fanins[0]);
      const uint64_t d1 = val(g.fanins[1]);
      const uint64_t s = val(g.fanins[2]);
      return (d0 & ~s) | (d1 & s);
    }
    case CellKind::kAnd:
    case CellKind::kNand: {
      uint64_t acc = val(g.fanins[0]);
      for (size_t i = 1; i < g.fanins.size(); ++i) {
        acc &= val(g.fanins[i]);
      }
      return g.kind == CellKind::kNand ? ~acc : acc;
    }
    case CellKind::kOr:
    case CellKind::kNor: {
      uint64_t acc = val(g.fanins[0]);
      for (size_t i = 1; i < g.fanins.size(); ++i) {
        acc |= val(g.fanins[i]);
      }
      return g.kind == CellKind::kNor ? ~acc : acc;
    }
    case CellKind::kXor:
    case CellKind::kXnor: {
      uint64_t acc = val(g.fanins[0]);
      for (size_t i = 1; i < g.fanins.size(); ++i) {
        acc ^= val(g.fanins[i]);
      }
      return g.kind == CellKind::kXnor ? ~acc : acc;
    }
    case CellKind::kInput:
    case CellKind::kConst0:
    case CellKind::kConst1:
    case CellKind::kXSource:
    case CellKind::kDff:
      // Sources hold the words set by setSource() (constants were fixed at
      // construction); a full pass must not disturb them.
      return val(id);
  }
  assert(false && "unknown cell kind in evalGate");
  return val(id);
}

void Simulator2v::evalInterpreted() {
  for (GateId id : lev_.combOrder()) {
    for (size_t wi = 0; wi < lane_words_; ++wi) {
      values_[size_t{id.v} * lane_words_ + wi] = evalGate(id, wi);
    }
  }
}

}  // namespace lbist::sim
