#ifndef QMQO_SOLVER_MQO_BNB_H_
#define QMQO_SOLVER_MQO_BNB_H_

/// \file mqo_bnb.h
/// Exact, anytime solver on the *native* MQO model: this repository's
/// LIN-MQO, the exact baseline of the paper's Table 1 (which ran a
/// commercial ILP solver on the MQO instance). It runs a dominance presolve
/// and then a branch-and-bound on what the presolve leaves.
///
/// Presolve: plan a of query q is dominated by plan b of q when
///   c_a - c_b >= sum over queries r != q of max over alive o in r of
///                (s(a,o) - s(b,o)),
/// where a plan of r sharing with neither a nor b differs by 0, and a query
/// with one alive plan contributes that plan's difference exactly. Each
/// dominated plan is dropped; a query left with one plan is fixed; the tests
/// repeat until none succeeds. This is exact by an exchange argument: in any
/// optimum that uses only alive plans, swapping a for b changes the cost by
/// c_b - c_a + sum_r (s(a,o_r) - s(b,o_r)) <= 0, so an optimum survives
/// every removal. On the paper's instances (savings {1,2} times a scale,
/// plan costs spread over 10..50) most plans are never worth choosing, and
/// the presolve fixes all but a handful of queries.
///
/// Search: the fixed plans' savings are folded into the remaining plans'
/// costs, and each connected component of the residual sharing graph (fixing
/// splits it) is searched depth-first over queries in natural (for the paper
/// workload: geometric) order; each level commits one plan of the next
/// query. Bounding: the partial cost (chosen costs minus realized savings)
/// plus, for every undecided query, the cheapest plan under an optimistic
/// saving estimate: savings to already-chosen plans are counted exactly;
/// each undecided-undecided pair is credited once, to its later-ranked
/// endpoint, at the best value over the partner's plans. Optimal per
/// component implies optimal overall.

#include <functional>

#include "mqo/problem.h"
#include "mqo/solution.h"
#include "util/status.h"

namespace qmqo {
namespace solver {

/// Options for `MqoBranchAndBound`.
struct MqoBnbOptions {
  /// Wall-clock budget for presolve and search together; the incumbent is
  /// returned when exceeded.
  double time_limit_ms = 1e12;
  /// Budget of branch nodes (the presolve is not counted).
  int64_t max_nodes = INT64_MAX;
  /// Search connected components of the residual sharing graph
  /// independently.
  bool decompose_components = true;
};

/// Invoked with the greedy warm start, then on every strictly improved
/// incumbent: (elapsed ms, full-problem cost, full solution).
using MqoProgressCallback =
    std::function<void(double, double, const mqo::MqoSolution&)>;

/// Result of a branch-and-bound run.
struct MqoBnbResult {
  mqo::MqoSolution solution{0};
  double cost = 0.0;
  bool proven_optimal = false;
  /// Branch nodes of the search; 0 when the presolve fixed every query.
  int64_t nodes = 0;
  /// Queries the presolve left with one plan (single-plan queries included).
  int fixed_queries = 0;
  /// When the final incumbent was found (ms since start).
  double time_to_best_ms = 0.0;
  /// Total time including the proof of optimality (ms).
  double total_time_ms = 0.0;
};

/// Exact anytime MQO solver: dominance presolve, then branch-and-bound.
class MqoBranchAndBound {
 public:
  explicit MqoBranchAndBound(const MqoBnbOptions& options = MqoBnbOptions())
      : options_(options) {}

  Result<MqoBnbResult> Solve(
      const mqo::MqoProblem& problem,
      const MqoProgressCallback& on_incumbent = nullptr) const;

 private:
  MqoBnbOptions options_;
};

}  // namespace solver
}  // namespace qmqo

#endif  // QMQO_SOLVER_MQO_BNB_H_
