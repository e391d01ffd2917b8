#include "solver/mqo_bnb.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "mqo/clustering.h"
#include "util/stopwatch.h"

namespace qmqo {
namespace solver {
namespace {

using mqo::MqoProblem;
using mqo::MqoSolution;
using mqo::PlanId;
using mqo::QueryId;

/// Greedy solution: each query in order takes its cheapest plan given the
/// plans already taken.
MqoSolution GreedySolution(const MqoProblem& problem) {
  MqoSolution solution(problem.num_queries());
  std::vector<uint8_t> chosen(static_cast<size_t>(problem.num_plans()), 0);
  for (QueryId q = 0; q < problem.num_queries(); ++q) {
    PlanId best = problem.first_plan(q);
    double best_marginal = std::numeric_limits<double>::infinity();
    for (int k = 0; k < problem.num_plans_of(q); ++k) {
      PlanId p = problem.first_plan(q) + k;
      double marginal = problem.plan_cost(p);
      for (const auto& [other, value] : problem.savings_of(p)) {
        if (chosen[static_cast<size_t>(other)]) marginal -= value;
      }
      if (marginal < best_marginal) {
        best_marginal = marginal;
        best = p;
      }
    }
    chosen[static_cast<size_t>(best)] = 1;
    solution.Select(q, best);
  }
  return solution;
}

/// Cost of `solution` restricted to the queries of one component (savings
/// never cross components, so component costs sum to the full cost).
double ComponentCost(const MqoProblem& problem, const MqoSolution& solution,
                     const std::vector<QueryId>& queries) {
  std::vector<uint8_t> chosen(static_cast<size_t>(problem.num_plans()), 0);
  double cost = 0.0;
  for (QueryId q : queries) {
    PlanId p = solution.selected(q);
    cost += problem.plan_cost(p);
    chosen[static_cast<size_t>(p)] = 1;
  }
  for (QueryId q : queries) {
    PlanId p = solution.selected(q);
    for (const auto& [other, value] : problem.savings_of(p)) {
      if (other > p && chosen[static_cast<size_t>(other)]) cost -= value;
    }
  }
  return cost;
}

/// Branch-and-bound over one connected component of the sharing graph.
class ComponentSearch {
 public:
  /// `on_improved(component_cost, picks)` fires for every improvement;
  /// `picks[i]` is the plan chosen for the i-th query in decision order.
  using ImprovedCallback =
      std::function<void(double, const std::vector<PlanId>&)>;

  ComponentSearch(const MqoProblem& problem, std::vector<QueryId> queries,
                  const MqoBnbOptions& options, const Stopwatch& clock,
                  double initial_bound, ImprovedCallback on_improved,
                  int64_t* nodes)
      : problem_(problem),
        queries_(std::move(queries)),
        options_(options),
        clock_(clock),
        on_improved_(std::move(on_improved)),
        nodes_(nodes),
        best_cost_(initial_bound) {
    chosen_.assign(static_cast<size_t>(problem.num_plans()), 0);
    // Decide queries in natural (geometric) order: the paper workload
    // numbers queries by chip location, so this keeps the
    // decided/undecided frontier local and the bound tight.
    std::sort(queries_.begin(), queries_.end());
    decided_.assign(static_cast<size_t>(problem.num_queries()), 0);
    max_future_.assign(static_cast<size_t>(problem.num_queries()), 0.0);
    query_rank_.assign(static_cast<size_t>(problem.num_queries()), -1);
    for (size_t i = 0; i < queries_.size(); ++i) {
      query_rank_[static_cast<size_t>(queries_[i])] = static_cast<int>(i);
    }
  }

  const std::vector<QueryId>& decision_order() const { return queries_; }

  /// Runs the search; returns false when the budget was exhausted
  /// (incumbents reported so far remain valid).
  bool Run() {
    Descend(0, 0.0);
    return !aborted_;
  }

 private:
  /// Optimistic completion cost of plan `p` (of the query ranked
  /// `rank_of_q`): exact savings to chosen plans; for each undecided
  /// partner query ranked earlier, the best single saving at full value.
  /// Crediting every undecided-undecided pair to exactly one endpoint (the
  /// later rank) keeps the bound admissible.
  double OptimisticPlanCost(PlanId p, int rank_of_q) const {
    double cost = problem_.plan_cost(p);
    const auto& savings = problem_.savings_of(p);
    for (const auto& [other, value] : savings) {
      if (chosen_[static_cast<size_t>(other)]) {
        cost -= value;
        continue;
      }
      QueryId oq = problem_.query_of(other);
      if (decided_[static_cast<size_t>(oq)]) continue;  // chose another plan
      // Credit each undecided-undecided pair once: to the later-ranked
      // endpoint (full value), keeping the bound admissible.
      if (query_rank_[static_cast<size_t>(oq)] >= rank_of_q) continue;
      max_future_[static_cast<size_t>(oq)] =
          std::max(max_future_[static_cast<size_t>(oq)], value);
    }
    for (const auto& [other, value] : savings) {
      (void)value;
      QueryId oq = problem_.query_of(other);
      if (max_future_[static_cast<size_t>(oq)] > 0.0) {
        cost -= max_future_[static_cast<size_t>(oq)];
        max_future_[static_cast<size_t>(oq)] = 0.0;
      }
    }
    return cost;
  }

  /// Admissible lower bound on completing the partial solution.
  double RemainderBound(int depth) const {
    double bound = 0.0;
    for (size_t i = static_cast<size_t>(depth); i < queries_.size(); ++i) {
      QueryId q = queries_[i];
      double best = std::numeric_limits<double>::infinity();
      for (int k = 0; k < problem_.num_plans_of(q); ++k) {
        best = std::min(best, OptimisticPlanCost(problem_.first_plan(q) + k,
                                                 static_cast<int>(i)));
      }
      bound += best;
    }
    return bound;
  }

  void Descend(int depth, double partial_cost) {
    if (aborted_) return;
    if ((*nodes_ & 0x3ff) == 0 &&
        clock_.ElapsedMillis() > options_.time_limit_ms) {
      aborted_ = true;
      return;
    }
    if (*nodes_ >= options_.max_nodes) {
      aborted_ = true;
      return;
    }
    ++*nodes_;
    if (depth == static_cast<int>(queries_.size())) {
      if (partial_cost < best_cost_ - 1e-9) {
        best_cost_ = partial_cost;
        on_improved_(partial_cost, trail_);
      }
      return;
    }
    if (partial_cost + RemainderBound(depth) >= best_cost_ - 1e-9) {
      return;
    }
    QueryId q = queries_[static_cast<size_t>(depth)];
    // Cheapest marginal first, so good incumbents arrive early.
    std::vector<std::pair<double, PlanId>> ordered;
    for (int k = 0; k < problem_.num_plans_of(q); ++k) {
      PlanId p = problem_.first_plan(q) + k;
      double marginal = problem_.plan_cost(p);
      for (const auto& [other, value] : problem_.savings_of(p)) {
        if (chosen_[static_cast<size_t>(other)]) marginal -= value;
      }
      ordered.emplace_back(marginal, p);
    }
    std::sort(ordered.begin(), ordered.end());
    decided_[static_cast<size_t>(q)] = 1;
    for (const auto& [marginal, p] : ordered) {
      chosen_[static_cast<size_t>(p)] = 1;
      trail_.push_back(p);
      Descend(depth + 1, partial_cost + marginal);
      trail_.pop_back();
      chosen_[static_cast<size_t>(p)] = 0;
      if (aborted_) break;
    }
    decided_[static_cast<size_t>(q)] = 0;
  }

  const MqoProblem& problem_;
  std::vector<QueryId> queries_;
  const MqoBnbOptions& options_;
  const Stopwatch& clock_;
  ImprovedCallback on_improved_;
  int64_t* nodes_;

  std::vector<uint8_t> chosen_;
  std::vector<uint8_t> decided_;
  std::vector<int> query_rank_;
  std::vector<PlanId> trail_;
  mutable std::vector<double> max_future_;
  double best_cost_;
  bool aborted_ = false;
};

/// Plan-dominance presolve (see mqo_bnb.h): drops dominated plans until no
/// test succeeds. Scratch arrays are per plan and per query, reset lazily by
/// epoch stamps, so one test costs O(deg a + deg b).
class DominancePresolve {
 public:
  explicit DominancePresolve(const MqoProblem& problem)
      : problem_(problem),
        alive_(static_cast<size_t>(problem.num_plans()), 1),
        alive_count_(static_cast<size_t>(problem.num_queries())),
        diff_(static_cast<size_t>(problem.num_plans())),
        plan_epoch_(static_cast<size_t>(problem.num_plans()), 0),
        best_(static_cast<size_t>(problem.num_queries())),
        seen_(static_cast<size_t>(problem.num_queries())),
        query_epoch_(static_cast<size_t>(problem.num_queries()), 0) {
    for (QueryId q = 0; q < problem.num_queries(); ++q) {
      alive_count_[static_cast<size_t>(q)] = problem.num_plans_of(q);
    }
  }

  /// Iterates to a fixpoint: a query is re-examined whenever a query it
  /// shares with loses a plan. Stops early (still exact, just less fixed)
  /// once `clock` passes `time_limit_ms`.
  void Run(const Stopwatch& clock, double time_limit_ms) {
    std::vector<QueryId> queue(static_cast<size_t>(problem_.num_queries()));
    std::vector<uint8_t> queued(queue.size(), 1);
    for (QueryId q = 0; q < problem_.num_queries(); ++q) {
      queue[static_cast<size_t>(q)] = q;
    }
    for (size_t head = 0; head < queue.size(); ++head) {
      if ((head & 0xff) == 0xff && clock.ElapsedMillis() > time_limit_ms) {
        return;
      }
      QueryId q = queue[head];
      queued[static_cast<size_t>(q)] = 0;
      if (!DropDominatedPlans(q)) continue;
      for (int k = 0; k < problem_.num_plans_of(q); ++k) {
        for (const auto& [other, value] :
             problem_.savings_of(problem_.first_plan(q) + k)) {
          (void)value;
          QueryId r = problem_.query_of(other);
          if (!queued[static_cast<size_t>(r)]) {
            queued[static_cast<size_t>(r)] = 1;
            queue.push_back(r);
          }
        }
      }
    }
  }

  bool alive(PlanId p) const { return alive_[static_cast<size_t>(p)]; }
  int alive_count(QueryId q) const {
    return alive_count_[static_cast<size_t>(q)];
  }

 private:
  /// One pass over the plan pairs of `q` suffices: a test never depends on
  /// q's own alive plans, and dominance is transitive, so a plan whose
  /// dominator dies is still tested against the survivor that dominated it.
  bool DropDominatedPlans(QueryId q) {
    bool dropped = false;
    const PlanId first = problem_.first_plan(q);
    const int plans = problem_.num_plans_of(q);
    for (PlanId a = first; a < first + plans; ++a) {
      if (alive_count_[static_cast<size_t>(q)] == 1) break;
      if (!alive(a)) continue;
      for (PlanId b = first; b < first + plans; ++b) {
        if (b == a || !alive(b) || !Dominated(a, b)) continue;
        alive_[static_cast<size_t>(a)] = 0;
        --alive_count_[static_cast<size_t>(q)];
        dropped = true;
        break;
      }
    }
    return dropped;
  }

  /// c_a - c_b >= sum over other queries r of
  /// max over alive o of r of (s(a,o) - s(b,o)).
  bool Dominated(PlanId a, PlanId b) {
    ++epoch_;
    touched_plans_.clear();
    auto accumulate = [&](PlanId p, double sign) {
      for (const auto& [other, value] : problem_.savings_of(p)) {
        const auto o = static_cast<size_t>(other);
        if (!alive_[o]) continue;
        if (plan_epoch_[o] != epoch_) {
          plan_epoch_[o] = epoch_;
          diff_[o] = 0.0;
          touched_plans_.push_back(other);
        }
        diff_[o] += sign * value;
      }
    };
    accumulate(a, 1.0);
    accumulate(b, -1.0);
    touched_queries_.clear();
    for (PlanId o : touched_plans_) {
      const auto r = static_cast<size_t>(problem_.query_of(o));
      const double d = diff_[static_cast<size_t>(o)];
      if (query_epoch_[r] != epoch_) {
        query_epoch_[r] = epoch_;
        best_[r] = d;
        seen_[r] = 1;
        touched_queries_.push_back(static_cast<QueryId>(r));
      } else {
        best_[r] = std::max(best_[r], d);
        ++seen_[r];
      }
    }
    double bound = 0.0;
    for (QueryId query : touched_queries_) {
      const auto r = static_cast<size_t>(query);
      // An alive plan sharing with neither a nor b differs by 0.
      bound += seen_[r] < alive_count_[r] ? std::max(best_[r], 0.0) : best_[r];
    }
    return problem_.plan_cost(a) - problem_.plan_cost(b) >= bound;
  }

  const MqoProblem& problem_;
  std::vector<uint8_t> alive_;
  std::vector<int> alive_count_;

  uint64_t epoch_ = 0;
  std::vector<double> diff_;  // per plan: s(a,o) - s(b,o)
  std::vector<uint64_t> plan_epoch_;
  std::vector<PlanId> touched_plans_;
  std::vector<double> best_;  // per query: max diff over touched plans
  std::vector<int> seen_;     // per query: touched alive plans
  std::vector<uint64_t> query_epoch_;
  std::vector<QueryId> touched_queries_;
};

/// What the presolve leaves: the fixed plans, and a residual problem over the
/// alive plans of the other queries, the fixed plans' savings folded into
/// their costs. Full cost = `fixed_cost` + residual cost.
struct Residual {
  MqoProblem problem;
  std::vector<PlanId> original_plan;  // residual plan -> plan
  std::vector<QueryId> original_query;  // residual query -> query
  std::vector<PlanId> fixed;  // per query: its one alive plan, or -1
  double fixed_cost = 0.0;
  int num_fixed = 0;
};

Result<Residual> BuildResidual(const MqoProblem& problem,
                               const DominancePresolve& presolve) {
  Residual residual;
  residual.fixed.assign(static_cast<size_t>(problem.num_queries()), -1);
  for (QueryId q = 0; q < problem.num_queries(); ++q) {
    if (presolve.alive_count(q) != 1) continue;
    for (int k = 0; k < problem.num_plans_of(q); ++k) {
      PlanId p = problem.first_plan(q) + k;
      if (presolve.alive(p)) residual.fixed[static_cast<size_t>(q)] = p;
    }
    ++residual.num_fixed;
  }
  auto fixed_plan = [&](PlanId p) {
    return residual.fixed[static_cast<size_t>(problem.query_of(p))] == p;
  };
  std::vector<PlanId> residual_plan(static_cast<size_t>(problem.num_plans()),
                                    -1);
  for (QueryId q = 0; q < problem.num_queries(); ++q) {
    if (residual.fixed[static_cast<size_t>(q)] >= 0) {
      residual.fixed_cost +=
          problem.plan_cost(residual.fixed[static_cast<size_t>(q)]);
      continue;
    }
    std::vector<double> costs;
    for (int k = 0; k < problem.num_plans_of(q); ++k) {
      PlanId p = problem.first_plan(q) + k;
      if (!presolve.alive(p)) continue;
      double cost = problem.plan_cost(p);
      for (const auto& [other, value] : problem.savings_of(p)) {
        if (fixed_plan(other)) cost -= value;
      }
      residual_plan[static_cast<size_t>(p)] =
          static_cast<PlanId>(residual.original_plan.size());
      residual.original_plan.push_back(p);
      costs.push_back(cost);
    }
    residual.original_query.push_back(q);
    residual.problem.AddQuery(std::move(costs));
  }
  for (const mqo::Saving& s : problem.savings()) {
    PlanId a = residual_plan[static_cast<size_t>(s.plan_a)];
    PlanId b = residual_plan[static_cast<size_t>(s.plan_b)];
    if (a >= 0 && b >= 0) {
      QMQO_RETURN_IF_ERROR(residual.problem.AddSaving(a, b, s.value));
    } else if (fixed_plan(s.plan_a) && fixed_plan(s.plan_b)) {
      residual.fixed_cost -= s.value;
    }
  }
  return residual;
}

}  // namespace

Result<MqoBnbResult> MqoBranchAndBound::Solve(
    const MqoProblem& problem, const MqoProgressCallback& on_incumbent) const {
  QMQO_RETURN_IF_ERROR(problem.Validate());
  Stopwatch clock;
  MqoBnbResult result;
  // Global greedy warm start: a complete valid incumbent from the outset,
  // so anytime reports always describe full solutions.
  result.solution = GreedySolution(problem);
  result.cost = mqo::EvaluateCost(problem, result.solution);
  result.time_to_best_ms = clock.ElapsedMillis();
  if (on_incumbent) {
    on_incumbent(result.time_to_best_ms, result.cost, result.solution);
  }

  DominancePresolve presolve(problem);
  presolve.Run(clock, options_.time_limit_ms);
  QMQO_ASSIGN_OR_RETURN(const Residual residual,
                        BuildResidual(problem, presolve));
  result.fixed_queries = residual.num_fixed;
  const MqoProblem& rest = residual.problem;

  // The candidate: fixed plans plus a greedy pick for every residual query.
  // The search improves it component by component; it replaces the
  // incumbent whenever its full cost is strictly lower.
  MqoSolution candidate(problem.num_queries());
  for (QueryId q = 0; q < problem.num_queries(); ++q) {
    candidate.Select(q, residual.fixed[static_cast<size_t>(q)]);
  }
  const MqoSolution rest_candidate = GreedySolution(rest);
  for (QueryId q = 0; q < rest.num_queries(); ++q) {
    candidate.Select(residual.original_query[static_cast<size_t>(q)],
                     residual.original_plan[static_cast<size_t>(
                         rest_candidate.selected(q))]);
  }
  double candidate_cost =
      residual.fixed_cost + mqo::EvaluateCost(rest, rest_candidate);
  auto offer_candidate = [&]() {
    if (candidate_cost >= result.cost - 1e-9) return;
    result.solution = candidate;
    result.cost = candidate_cost;
    result.time_to_best_ms = clock.ElapsedMillis();
    if (on_incumbent) {
      on_incumbent(result.time_to_best_ms, result.cost, result.solution);
    }
  };
  offer_candidate();

  mqo::QueryClustering components;
  if (options_.decompose_components) {
    components = mqo::ClusterByConnectedComponents(rest);
  } else if (rest.num_queries() > 0) {
    components.members.emplace_back();
    for (QueryId q = 0; q < rest.num_queries(); ++q) {
      components.members.back().push_back(q);
    }
  }

  bool all_proven = true;
  for (const auto& member_queries : components.members) {
    if (clock.ElapsedMillis() > options_.time_limit_ms) {
      all_proven = false;
      break;
    }
    double current = ComponentCost(rest, rest_candidate, member_queries);
    auto on_improved = [&](double component_cost,
                           const std::vector<PlanId>& picks) {
      candidate_cost += component_cost - current;
      current = component_cost;
      for (PlanId pick : picks) {
        candidate.Select(residual.original_query[static_cast<size_t>(
                             rest.query_of(pick))],
                         residual.original_plan[static_cast<size_t>(pick)]);
      }
      offer_candidate();
    };
    ComponentSearch search(rest, member_queries, options_, clock, current,
                           on_improved, &result.nodes);
    bool proven = search.Run();
    all_proven = all_proven && proven;
  }

  result.cost = mqo::EvaluateCost(problem, result.solution);
  result.proven_optimal = all_proven;
  result.total_time_ms = clock.ElapsedMillis();
  return result;
}

}  // namespace solver
}  // namespace qmqo
