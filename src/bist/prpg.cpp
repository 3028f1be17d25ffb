#include "bist/prpg.hpp"

#include <array>
#include <bit>
#include <stdexcept>

namespace lbist::bist {

namespace {

int shifterChannels(const PrpgConfig& cfg) {
  if (cfg.ps_channels == 0) return cfg.chains;
  if (cfg.ps_channels < 0 || cfg.ps_channels > cfg.chains) {
    throw std::invalid_argument("ps_channels must be in [1, chains]");
  }
  return cfg.ps_channels;
}

}  // namespace

Prpg::Prpg(const PrpgConfig& cfg)
    : cfg_(cfg),
      lfsr_(cfg.length, cfg.seed),
      shifter_(lfsr_, shifterChannels(cfg), cfg.shifter) {
  if (cfg_.chains <= 0) {
    throw std::invalid_argument("Prpg needs >= 1 chain");
  }
  if (shifter_.channels() < cfg_.chains) {
    expander_.emplace(shifter_.channels(), cfg_.chains);
  }
  ps_out_.resize(static_cast<size_t>(shifter_.channels()));
  ps_words_.resize(static_cast<size_t>(shifter_.channels()));
}

void Prpg::loadSeed(uint64_t seed) {
  lfsr_.setState(seed);
  cycles_ = 0;
}

void Prpg::nextSlice(std::span<uint8_t> chain_bits) {
  if (chain_bits.size() != static_cast<size_t>(cfg_.chains)) {
    throw std::invalid_argument("chain_bits size != chains");
  }
  shifter_.outputs(lfsr_.state(), ps_out_);
  if (expander_) {
    expander_->apply(ps_out_, chain_bits);
  } else {
    std::copy(ps_out_.begin(), ps_out_.end(), chain_bits.begin());
  }
  lfsr_.step();
  ++cycles_;
}

namespace {

/// Appends the set-bit positions of `mask` as one CSR row.
void appendMaskRow(uint64_t mask, std::vector<uint32_t>& begin,
                   std::vector<uint8_t>& idx) {
  for (; mask != 0; mask &= mask - 1) {
    idx.push_back(static_cast<uint8_t>(std::countr_zero(mask)));
  }
  begin.push_back(static_cast<uint32_t>(idx.size()));
}

/// XOR of words[idx[e]] over the entries of CSR row `row`.
template <typename Index>
uint64_t xorRow(const std::vector<uint32_t>& begin,
                const std::vector<Index>& idx, size_t row,
                const uint64_t* words) {
  uint64_t acc = 0;
  for (uint32_t e = begin[row]; e < begin[row + 1]; ++e) {
    acc ^= words[idx[e]];
  }
  return acc;
}

}  // namespace

Prpg::SlicedPlan Prpg::slicedPlan(int cycles_per_pattern) const {
  if (cycles_per_pattern < 0) {
    throw std::invalid_argument("slicedPlan: negative cycles per pattern");
  }
  SlicedPlan plan;
  plan.cycles_ = cycles_per_pattern;
  plan.length_ = cfg_.length;
  plan.channels_ = shifter_.channels();
  plan.chains_ = cfg_.chains;
  const Gf2Matrix a = lfsr_.transitionMatrix();
  plan.jump_ = a.pow(static_cast<uint64_t>(cycles_per_pattern));
  plan.next_begin_.push_back(0);
  for (int i = 0; i < a.dim(); ++i) {
    appendMaskRow(a.row(i), plan.next_begin_, plan.next_idx_);
  }
  plan.tap_begin_.push_back(0);
  for (int c = 0; c < shifter_.channels(); ++c) {
    appendMaskRow(shifter_.taps(c), plan.tap_begin_, plan.tap_idx_);
  }
  if (expander_) {
    plan.exp_begin_.push_back(0);
    for (int j = 0; j < expander_->outputs(); ++j) {
      for (int t : expander_->taps(j)) {
        plan.exp_idx_.push_back(static_cast<uint32_t>(t));
      }
      plan.exp_begin_.push_back(static_cast<uint32_t>(plan.exp_idx_.size()));
    }
  }
  return plan;
}

void Prpg::nextLaneWord(const SlicedPlan& plan, int patterns,
                        std::span<uint64_t> out) {
  const size_t chains = static_cast<size_t>(cfg_.chains);
  if (plan.length_ != cfg_.length || plan.channels_ != shifter_.channels() ||
      plan.chains_ != cfg_.chains) {
    throw std::invalid_argument("nextLaneWord: plan built for another PRPG");
  }
  if (patterns < 0 || patterns > 64) {
    throw std::invalid_argument("nextLaneWord: patterns must be in [0,64]");
  }
  if (out.size() != static_cast<size_t>(plan.cycles_) * chains) {
    throw std::invalid_argument("nextLaneWord: out size != cycles * chains");
  }
  const size_t n = static_cast<size_t>(cfg_.length);

  // Transpose the lanes' start states into one word per LFSR cell: lane l
  // starts l patterns (l * cycles shift cycles) after the current state.
  std::array<uint64_t, 64> state_a{};
  std::array<uint64_t, 64> state_b{};
  uint64_t* cur = state_a.data();
  uint64_t* nxt = state_b.data();
  uint64_t s = lfsr_.state();
  for (int l = 0; l < patterns; ++l) {
    for (uint64_t m = s; m != 0; m &= m - 1) {
      cur[std::countr_zero(m)] |= uint64_t{1} << l;
    }
    s = plan.jump_.apply(s);
  }

  const size_t channels = static_cast<size_t>(shifter_.channels());
  uint64_t* ps = ps_words_.data();
  for (int k = 0; k < plan.cycles_; ++k) {
    uint64_t* row = out.data() + static_cast<size_t>(k) * chains;
    uint64_t* ch = expander_ ? ps : row;
    for (size_t c = 0; c < channels; ++c) {
      ch[c] = xorRow(plan.tap_begin_, plan.tap_idx_, c, cur);
    }
    if (expander_) {
      for (size_t j = 0; j < chains; ++j) {
        row[j] = xorRow(plan.exp_begin_, plan.exp_idx_, j, ps);
      }
    }
    for (size_t i = 0; i < n; ++i) {
      nxt[i] = xorRow(plan.next_begin_, plan.next_idx_, i, cur);
    }
    std::swap(cur, nxt);
  }

  // `s` is the start state of the pattern after the last lane.
  lfsr_.setState(s);
  cycles_ += static_cast<uint64_t>(patterns) *
             static_cast<uint64_t>(plan.cycles_);
}

uint8_t Prpg::peekChainBit(int chain) const {
  if (!expander_) {
    return static_cast<uint8_t>(
        shifter_.outputBit(chain, lfsr_.state()));
  }
  uint8_t v = 0;
  for (int t : expander_->taps(chain)) {
    v ^= static_cast<uint8_t>(shifter_.outputBit(t, lfsr_.state()));
  }
  return v;
}

double Prpg::gateEquivalents() const {
  double ge = 6.0 * cfg_.length;                       // LFSR flip-flops
  ge += 2.5 * static_cast<double>(shifter_.totalTaps() -
                                  static_cast<size_t>(shifter_.channels()));
  if (expander_) ge += 2.5 * static_cast<double>(expander_->xorCount());
  return ge;
}

Odc::Odc(const OdcConfig& cfg) : cfg_(cfg), misr_(cfg.misr_length) {
  if (cfg_.chains <= 0) {
    throw std::invalid_argument("Odc needs >= 1 chain");
  }
  if (cfg_.use_compactor) {
    compactor_.emplace(cfg_.chains, cfg_.misr_length < cfg_.chains
                                        ? cfg_.misr_length
                                        : cfg_.chains);
    misr_in_.resize(static_cast<size_t>(compactor_->misrInputs()));
  } else if (cfg_.misr_length < cfg_.chains) {
    throw std::invalid_argument(
        "without a space compactor the MISR must be at least as long as "
        "the chain count (this is why the paper's Core X uses a 99-bit "
        "MISR)");
  }
}

void Odc::compact(std::span<const uint8_t> chain_out) {
  if (chain_out.size() != static_cast<size_t>(cfg_.chains)) {
    throw std::invalid_argument("chain_out size != chains");
  }
  if (compactor_) {
    compactor_->apply(chain_out, misr_in_);
    misr_.step(misr_in_);
  } else {
    misr_.step(chain_out);
  }
}

double Odc::gateEquivalents() const {
  double ge = 6.0 * cfg_.misr_length + 2.5 * cfg_.misr_length;  // FF + XOR
  if (compactor_) ge += 2.5 * static_cast<double>(compactor_->xorCount());
  return ge;
}

void InputSelector::setExternalSlice(std::span<const uint8_t> bits) {
  if (bits.size() != external_.size()) {
    throw std::invalid_argument("external slice size != chains");
  }
  std::copy(bits.begin(), bits.end(), external_.begin());
}

void InputSelector::select(Prpg& prpg, std::span<uint8_t> out) {
  if (mode_ == Mode::kRandom) {
    prpg.nextSlice(out);
    return;
  }
  if (out.size() != external_.size()) {
    throw std::invalid_argument("selector span size != chains");
  }
  prpg.nextSlice(discard_);  // PRPG free-runs in external mode
  std::copy(external_.begin(), external_.end(), out.begin());
}

}  // namespace lbist::bist
