#ifndef QMQO_QUBO_QUBO_H_
#define QMQO_QUBO_QUBO_H_

/// \file qubo.h
/// Quadratic unconstrained binary optimization (QUBO) problems.
///
/// A QUBO instance over binary variables x_0..x_{n-1} asks to minimize
///   E(x) = sum_i w_ii x_i + sum_{i<j} w_ij x_i x_j.
/// This is the input format of the D-Wave annealer (Section 3 of the paper)
/// and the output of the logical mapping. The representation is sparse: a
/// dense n x n matrix would waste memory on Chimera-structured problems
/// where each variable touches at most six others.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "qubo/csr.h"
#include "util/status.h"

namespace qmqo {
namespace qubo {

/// A sparse QUBO instance. Build with `AddLinear` / `AddQuadratic`
/// (weights accumulate), then evaluate. Evaluation structures (interaction
/// list, CSR adjacency) are built lazily on first use and invalidated by
/// further mutation; instances are not thread-safe while being mutated.
/// Concurrent *const* access is safe once `Finalize` (or any evaluation
/// accessor) has run — the parallel read engine relies on this.
class QuboProblem {
 public:
  /// Creates an instance with `num_vars` variables and no terms.
  explicit QuboProblem(int num_vars);

  int num_vars() const { return num_vars_; }

  /// Adds `w` to the linear coefficient of x_i.
  void AddLinear(VarId i, double w);

  /// Adds `w` to the quadratic coefficient of x_i * x_j (i != j; the order
  /// of i and j does not matter).
  void AddQuadratic(VarId i, VarId j, double w);

  /// Current linear coefficient of x_i.
  double linear(VarId i) const { return linear_[static_cast<size_t>(i)]; }

  /// Current quadratic coefficient of x_i x_j (0 when absent).
  double quadratic(VarId i, VarId j) const;

  /// Number of distinct nonzero-touched quadratic pairs.
  int num_interactions() const;

  /// All quadratic terms with i < j (sorted lexicographically).
  const std::vector<Interaction>& interactions() const;

  /// Neighbors of variable i as (j, w_ij) pairs (a view into the CSR
  /// arrays, sorted by neighbor id).
  NeighborView neighbors(VarId i) const;

  /// The CSR adjacency used by the annealing kernels. Valid until the next
  /// mutation.
  const CsrGraph& csr() const;

  /// The linear coefficients as a flat array (index = variable id).
  const std::vector<double>& linear_terms() const { return linear_; }

  /// Builds the evaluation structures now (idempotent). Call before
  /// sharing a const reference across threads.
  void Finalize() const { EnsureFinalized(); }

  /// Evaluates E(x); `x` must have `num_vars()` entries of 0/1.
  double Energy(const std::vector<uint8_t>& x) const;

  /// Evaluates E(x) for x_i = (s_i > 0), i.e. directly on a ±1 spin vector
  /// — the annealer read-out path, which skips materializing the byte
  /// assignment just to evaluate it. (A distinct name, not an overload:
  /// braced initializer lists at Energy call sites must stay unambiguous.)
  double EnergySpins(const std::vector<int8_t>& spins) const;

  /// Energy change if x_i were flipped: E(x with flip) − E(x). O(degree(i)).
  double FlipDelta(const std::vector<uint8_t>& x, VarId i) const;

  /// Smallest and largest coefficient over linear and quadratic terms;
  /// (0, 0) for an empty instance. Used by the device weight-range model.
  std::pair<double, double> WeightRange() const;

  /// Largest |coefficient|; 0 for an empty instance.
  double MaxAbsWeight() const;

  /// One-line summary, e.g. "QUBO(12 vars, 30 interactions)".
  std::string Summary() const;

 private:
  static uint64_t PairKey(VarId a, VarId b);
  void EnsureFinalized() const;

  int num_vars_;
  std::vector<double> linear_;
  // Source of truth for mutation and point lookups.
  std::unordered_map<uint64_t, double> quadratic_;

  // Lazily derived evaluation structures.
  mutable bool finalized_ = false;
  mutable std::vector<Interaction> interactions_;
  mutable CsrGraph csr_;
};

}  // namespace qubo
}  // namespace qmqo

#endif  // QMQO_QUBO_QUBO_H_
