#include "bist/spatial.hpp"

namespace lbist::bist {

SpaceExpander::SpaceExpander(int inputs, int outputs) : inputs_(inputs) {
  if (inputs <= 0 || outputs < inputs) {
    throw std::invalid_argument(
        "expander needs outputs >= inputs >= 1");
  }
  taps_.resize(static_cast<size_t>(outputs));
  for (int j = 0; j < outputs; ++j) {
    auto& t = taps_[static_cast<size_t>(j)];
    if (j < inputs) {
      t = {j};
      continue;
    }
    // Distinct pairs: walk strides 1, 2, ... across the input set.
    const int wrap = j - inputs;          // 0-based index among XOR outputs
    const int stride = 1 + wrap / inputs; // grows every `inputs` outputs
    const int a = wrap % inputs;
    const int b = (a + stride) % inputs;
    if (a == b) {
      // Degenerate stride (stride % inputs == 0): fall back to neighbor.
      t = {a, (a + 1) % inputs};
    } else {
      t = {a, b};
    }
  }
}

void SpaceExpander::apply(std::span<const uint8_t> in,
                          std::span<uint8_t> out) const {
  if (in.size() != static_cast<size_t>(inputs_) || out.size() != taps_.size()) {
    throw std::invalid_argument("expander span size mismatch");
  }
  for (size_t j = 0; j < taps_.size(); ++j) {
    uint8_t v = 0;
    for (int t : taps_[j]) v ^= in[static_cast<size_t>(t)];
    out[j] = v & 1u;
  }
}

size_t SpaceExpander::xorCount() const {
  size_t count = 0;
  for (const auto& t : taps_) {
    if (t.size() > 1) count += t.size() - 1;
  }
  return count;
}

SpaceCompactor::SpaceCompactor(int chain_outputs, int misr_inputs)
    : chains_(chain_outputs), misr_(misr_inputs) {
  if (misr_inputs <= 0 || chain_outputs < misr_inputs) {
    throw std::invalid_argument(
        "compactor needs chain_outputs >= misr_inputs >= 1");
  }
}

void SpaceCompactor::apply(std::span<const uint8_t> chain_out,
                           std::span<uint8_t> misr_in) const {
  if (chain_out.size() != static_cast<size_t>(chains_) ||
      misr_in.size() != static_cast<size_t>(misr_)) {
    throw std::invalid_argument("compactor span size mismatch");
  }
  for (int i = 0; i < misr_; ++i) misr_in[static_cast<size_t>(i)] = 0;
  for (int j = 0; j < chains_; ++j) {
    misr_in[static_cast<size_t>(misrInputOf(j))] ^=
        chain_out[static_cast<size_t>(j)] & 1u;
  }
}

uint64_t SpaceCompactor::applyPacked(uint64_t chain_bits) const {
  uint64_t out = 0;
  for (int j = 0; j < chains_; ++j) {
    out ^= ((chain_bits >> j) & 1u) << misrInputOf(j);
  }
  return out;
}

size_t SpaceCompactor::xorCount() const {
  // Each MISR input with k contributing chains costs k-1 XORs.
  size_t count = 0;
  for (int i = 0; i < misr_; ++i) {
    int k = 0;
    for (int j = i; j < chains_; j += misr_) ++k;
    if (k > 1) count += static_cast<size_t>(k - 1);
  }
  return count;
}

}  // namespace lbist::bist
