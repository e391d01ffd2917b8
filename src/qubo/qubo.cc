#include "qubo/qubo.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/string_util.h"

namespace qmqo {
namespace qubo {

QuboProblem::QuboProblem(int num_vars)
    : num_vars_(num_vars), linear_(static_cast<size_t>(num_vars), 0.0) {
  assert(num_vars >= 0);
}

uint64_t QuboProblem::PairKey(VarId a, VarId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 32) |
         static_cast<uint64_t>(static_cast<uint32_t>(b));
}

void QuboProblem::AddLinear(VarId i, double w) {
  assert(i >= 0 && i < num_vars_);
  linear_[static_cast<size_t>(i)] += w;
  finalized_ = false;
}

void QuboProblem::AddQuadratic(VarId i, VarId j, double w) {
  assert(i >= 0 && i < num_vars_);
  assert(j >= 0 && j < num_vars_);
  assert(i != j && "quadratic term requires distinct variables");
  quadratic_[PairKey(i, j)] += w;
  finalized_ = false;
}

double QuboProblem::quadratic(VarId i, VarId j) const {
  auto it = quadratic_.find(PairKey(i, j));
  return it == quadratic_.end() ? 0.0 : it->second;
}

void QuboProblem::EnsureFinalized() const {
  if (finalized_) return;
  interactions_.clear();
  interactions_.reserve(quadratic_.size());
  for (const auto& [key, w] : quadratic_) {
    Interaction term;
    term.i = static_cast<VarId>(key >> 32);
    term.j = static_cast<VarId>(key & 0xffffffffu);
    term.weight = w;
    interactions_.push_back(term);
  }
  std::sort(interactions_.begin(), interactions_.end(),
            [](const Interaction& a, const Interaction& b) {
              return std::tie(a.i, a.j) < std::tie(b.i, b.j);
            });
  csr_.Build(num_vars_, interactions_);
  finalized_ = true;
}

int QuboProblem::num_interactions() const {
  return static_cast<int>(quadratic_.size());
}

const std::vector<Interaction>& QuboProblem::interactions() const {
  EnsureFinalized();
  return interactions_;
}

NeighborView QuboProblem::neighbors(VarId i) const {
  EnsureFinalized();
  return csr_.row(i);
}

const CsrGraph& QuboProblem::csr() const {
  EnsureFinalized();
  return csr_;
}

double QuboProblem::Energy(const std::vector<uint8_t>& x) const {
  assert(static_cast<int>(x.size()) == num_vars_);
  EnsureFinalized();
  double energy = 0.0;
  for (VarId i = 0; i < num_vars_; ++i) {
    if (x[static_cast<size_t>(i)]) energy += linear_[static_cast<size_t>(i)];
  }
  for (const Interaction& term : interactions_) {
    if (x[static_cast<size_t>(term.i)] && x[static_cast<size_t>(term.j)]) {
      energy += term.weight;
    }
  }
  return energy;
}

double QuboProblem::EnergySpins(const std::vector<int8_t>& spins) const {
  assert(static_cast<int>(spins.size()) == num_vars_);
  EnsureFinalized();
  double energy = 0.0;
  for (VarId i = 0; i < num_vars_; ++i) {
    if (spins[static_cast<size_t>(i)] > 0) {
      energy += linear_[static_cast<size_t>(i)];
    }
  }
  for (const Interaction& term : interactions_) {
    if (spins[static_cast<size_t>(term.i)] > 0 &&
        spins[static_cast<size_t>(term.j)] > 0) {
      energy += term.weight;
    }
  }
  return energy;
}

double QuboProblem::FlipDelta(const std::vector<uint8_t>& x, VarId i) const {
  EnsureFinalized();
  // Local field: linear term plus quadratic terms with currently-set
  // neighbors. Flipping 0->1 adds the field, 1->0 removes it.
  const int32_t* offsets = csr_.row_offsets.data();
  const VarId* ids = csr_.neighbor_ids.data();
  const double* weights = csr_.weights.data();
  double field = linear_[static_cast<size_t>(i)];
  for (int32_t e = offsets[i]; e < offsets[i + 1]; ++e) {
    if (x[static_cast<size_t>(ids[e])]) field += weights[e];
  }
  return x[static_cast<size_t>(i)] ? -field : field;
}

std::pair<double, double> QuboProblem::WeightRange() const {
  double lo = 0.0;
  double hi = 0.0;
  bool first = true;
  auto absorb = [&](double w) {
    if (first) {
      lo = hi = w;
      first = false;
    } else {
      lo = std::min(lo, w);
      hi = std::max(hi, w);
    }
  };
  for (double w : linear_) absorb(w);
  for (const auto& [key, w] : quadratic_) {
    (void)key;
    absorb(w);
  }
  if (first) return {0.0, 0.0};
  return {lo, hi};
}

double QuboProblem::MaxAbsWeight() const {
  auto [lo, hi] = WeightRange();
  return std::max(std::fabs(lo), std::fabs(hi));
}

std::string QuboProblem::Summary() const {
  return StrFormat("QUBO(%d vars, %d interactions)", num_vars_,
                   num_interactions());
}

}  // namespace qubo
}  // namespace qmqo
