#include "sim/seqsim.hpp"

#include <cassert>

namespace lbist::sim {

namespace {

std::vector<std::vector<GateId>> groupDffsByDomain(const Netlist& nl) {
  std::vector<std::vector<GateId>> groups(nl.numDomains());
  for (GateId dff : nl.dffs()) {
    groups[nl.gate(dff).domain.v].push_back(dff);
  }
  return groups;
}

std::vector<DomainId> allDomains(const Netlist& nl) {
  std::vector<DomainId> all;
  all.reserve(nl.numDomains());
  for (uint16_t d = 0; d < nl.numDomains(); ++d) all.push_back(DomainId{d});
  return all;
}

}  // namespace

SeqSimulator::SeqSimulator(const Netlist& nl)
    : sim_(nl),
      dffs_by_domain_(groupDffsByDomain(nl)),
      all_domains_(allDomains(nl)) {}

void SeqSimulator::resetState(uint64_t word) {
  for (const auto& group : dffs_by_domain_) {
    for (GateId dff : group) sim_.setSource(dff, word);
  }
}

void SeqSimulator::randomizeXSources(uint64_t seed) {
  xrng_.seed(seed);
  randomize_x_ = true;
}

void SeqSimulator::drawXSources() {
  if (randomize_x_) {
    for (GateId x : sim_.netlist().xsources()) sim_.setSource(x, xrng_());
  }
}

void SeqSimulator::pulse(std::span<const DomainId> domains) {
  drawXSources();
  sim_.eval();
  next_.clear();
  for (DomainId d : domains) {
    for (GateId dff : dffs_by_domain_[d.v]) {
      next_.push_back(sim_.dffNextState(dff));
    }
  }
  size_t i = 0;
  for (DomainId d : domains) {
    for (GateId dff : dffs_by_domain_[d.v]) {
      sim_.setSource(dff, next_[i++]);
    }
  }
}

void SeqSimulator::pulse(const PulseProgram& program) {
#ifndef NDEBUG
  for (const HeldInput& h : program.held) {
    assert(sim_.value(h.gate) == (h.high ? ~uint64_t{0} : uint64_t{0}) &&
           "input departs from the level the pulse program assumes");
  }
#endif
  // Same draws as a full pulse, so the X-source stream does not depend
  // on which kind of pulse ran.
  drawXSources();
  sim_.evalOps(program.ops);
  const size_t n = program.dffs.size();
  next_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    next_[i] = sim_.value(GateId{program.d_drivers[i]});
  }
  for (size_t i = 0; i < n; ++i) {
    sim_.setSource(GateId{program.dffs[i]}, next_[i]);
  }
}

SeqSimulator3v::SeqSimulator3v(const Netlist& nl)
    : sim_(nl),
      dffs_by_domain_(groupDffsByDomain(nl)),
      all_domains_(allDomains(nl)) {}

void SeqSimulator3v::resetStateAllX() {
  for (const auto& group : dffs_by_domain_) {
    for (GateId dff : group) sim_.setSourceAllX(dff);
  }
}

void SeqSimulator3v::resetState(uint64_t word) {
  for (const auto& group : dffs_by_domain_) {
    for (GateId dff : group) sim_.setSource(dff, Word3v{word, 0});
  }
}

void SeqSimulator3v::pulse(std::span<const DomainId> domains) {
  sim_.eval();
  next_.clear();
  for (DomainId d : domains) {
    for (GateId dff : dffs_by_domain_[d.v]) {
      next_.push_back(sim_.dffNextState(dff));
    }
  }
  size_t i = 0;
  for (DomainId d : domains) {
    for (GateId dff : dffs_by_domain_[d.v]) {
      sim_.setSource(dff, next_[i++]);
    }
  }
}

}  // namespace lbist::sim
