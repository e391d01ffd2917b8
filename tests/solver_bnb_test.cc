// Tests for the exact anytime branch-and-bound solvers (the LIN-MQO and
// LIN-QUB stand-ins).

#include <gtest/gtest.h>

#include "chimera/topology.h"
#include "harness/paper_workload.h"
#include "mqo/brute_force.h"
#include "mqo/generator.h"
#include "qubo/brute_force.h"
#include "solver/mqo_bnb.h"
#include "solver/qubo_bnb.h"
#include "util/rng.h"

namespace qmqo {
namespace solver {
namespace {

struct BnbCase {
  int seed;
  int num_queries;
  int max_plans;
  double sharing;
  bool decompose;
};

class MqoBnbProperty : public ::testing::TestWithParam<BnbCase> {};

TEST_P(MqoBnbProperty, MatchesExhaustiveOptimum) {
  const BnbCase& param = GetParam();
  Rng rng(static_cast<uint64_t>(param.seed));
  mqo::RandomWorkloadOptions options;
  options.num_queries = param.num_queries;
  options.min_plans = 1;
  options.max_plans = param.max_plans;
  options.sharing_probability = param.sharing;
  options.saving_max = 40.0;
  mqo::MqoProblem problem = mqo::GenerateRandomWorkload(options, &rng);
  auto exact = mqo::SolveExhaustive(problem);
  ASSERT_TRUE(exact.ok());

  MqoBnbOptions bnb_options;
  bnb_options.decompose_components = param.decompose;
  MqoBranchAndBound bnb(bnb_options);
  auto result = bnb.Solve(problem);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->proven_optimal);
  EXPECT_NEAR(result->cost, exact->cost, 1e-9);
  EXPECT_TRUE(mqo::ValidateSolution(problem, result->solution).ok());
  EXPECT_NEAR(mqo::EvaluateCost(problem, result->solution), result->cost,
              1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, MqoBnbProperty,
    ::testing::Values(BnbCase{1, 4, 2, 0.3, true},
                      BnbCase{2, 5, 3, 0.5, true},
                      BnbCase{3, 6, 2, 0.7, true},
                      BnbCase{4, 7, 3, 0.2, true},
                      BnbCase{5, 8, 2, 0.4, true},
                      BnbCase{6, 8, 2, 0.4, false},
                      BnbCase{7, 9, 2, 0.3, false},
                      BnbCase{8, 5, 4, 0.6, true},
                      BnbCase{9, 10, 2, 0.15, true},
                      BnbCase{10, 6, 3, 0.9, false},
                      BnbCase{11, 12, 2, 0.1, true},
                      BnbCase{12, 4, 5, 0.8, true}));

TEST(MqoBnbTest, CallbackReportsMonotoneImprovingFullCosts) {
  Rng rng(77);
  mqo::RandomWorkloadOptions options;
  options.num_queries = 10;
  options.min_plans = 2;
  options.max_plans = 3;
  options.sharing_probability = 0.3;
  mqo::MqoProblem problem = mqo::GenerateRandomWorkload(options, &rng);

  double last_cost = 1e300;
  double last_ms = -1.0;
  int calls = 0;
  MqoBranchAndBound bnb;
  auto result = bnb.Solve(
      problem, [&](double ms, double cost, const mqo::MqoSolution& solution) {
        ++calls;
        EXPECT_LT(cost, last_cost);
        EXPECT_GE(ms, last_ms);
        // Reported cost must equal the solution's true cost.
        EXPECT_NEAR(mqo::EvaluateCost(problem, solution), cost, 1e-9);
        last_cost = cost;
        last_ms = ms;
      });
  ASSERT_TRUE(result.ok());
  EXPECT_GE(calls, 1);
  EXPECT_NEAR(result->cost, last_cost, 1e-9);
}

TEST(MqoBnbTest, TimeLimitReturnsValidIncumbent) {
  Rng rng(78);
  mqo::RandomWorkloadOptions options;
  options.num_queries = 40;
  options.min_plans = 2;
  options.max_plans = 2;
  options.sharing_probability = 0.3;
  mqo::MqoProblem problem = mqo::GenerateRandomWorkload(options, &rng);
  MqoBnbOptions bnb_options;
  bnb_options.time_limit_ms = 5.0;
  MqoBranchAndBound bnb(bnb_options);
  auto result = bnb.Solve(problem);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(mqo::ValidateSolution(problem, result->solution).ok());
}

TEST(MqoBnbTest, NodeLimitStopsSearch) {
  Rng rng(79);
  mqo::RandomWorkloadOptions options;
  options.num_queries = 20;
  options.min_plans = 2;
  options.max_plans = 2;
  options.sharing_probability = 0.5;
  mqo::MqoProblem problem = mqo::GenerateRandomWorkload(options, &rng);
  MqoBnbOptions bnb_options;
  bnb_options.max_nodes = 10;
  MqoBranchAndBound bnb(bnb_options);
  auto result = bnb.Solve(problem);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->proven_optimal);
  EXPECT_TRUE(mqo::ValidateSolution(problem, result->solution).ok());
}

TEST(MqoBnbTest, DisconnectedInstancesDecompose) {
  // Two independent 3-query chains; with decomposition the node count
  // should be far below the product of the component search spaces.
  Rng rng(80);
  mqo::ChainWorkloadOptions chain;
  chain.num_queries = 3;
  chain.plans_per_query = 3;
  chain.link_probability = 1.0;
  mqo::MqoProblem a = mqo::GenerateChainWorkload(chain, &rng);
  // Build one problem holding two disjoint copies.
  mqo::MqoProblem combined;
  for (int copy = 0; copy < 2; ++copy) {
    for (mqo::QueryId q = 0; q < a.num_queries(); ++q) {
      std::vector<double> costs;
      for (int k = 0; k < a.num_plans_of(q); ++k) {
        costs.push_back(a.plan_cost(a.first_plan(q) + k));
      }
      combined.AddQuery(std::move(costs));
    }
    int offset = copy * a.num_plans();
    for (const mqo::Saving& s : a.savings()) {
      ASSERT_TRUE(
          combined.AddSaving(s.plan_a + offset, s.plan_b + offset, s.value)
              .ok());
    }
  }
  auto exact = mqo::SolveExhaustive(combined);
  ASSERT_TRUE(exact.ok());
  MqoBranchAndBound bnb;
  auto result = bnb.Solve(combined);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->proven_optimal);
  EXPECT_NEAR(result->cost, exact->cost, 1e-9);
}

mqo::MqoProblem PaperInstance(const chimera::ChimeraGraph& chip, int plans,
                               int num_queries, uint64_t seed) {
  harness::PaperWorkloadOptions options;
  options.plans_per_query = plans;
  options.num_queries = num_queries;
  Rng rng(seed);
  auto instance = harness::GeneratePaperInstance(chip, options, &rng);
  EXPECT_TRUE(instance.ok()) << instance.status().ToString();
  return instance.ok() ? std::move(instance->problem) : mqo::MqoProblem();
}

struct PaperCase {
  int plans;
  int num_queries;
  uint64_t seed;
};

class MqoBnbPaperProperty : public ::testing::TestWithParam<PaperCase> {};

TEST_P(MqoBnbPaperProperty, MatchesExhaustiveOptimum) {
  const PaperCase& param = GetParam();
  chimera::ChimeraGraph chip(4, 4, 4);
  mqo::MqoProblem problem =
      PaperInstance(chip, param.plans, param.num_queries, param.seed);
  ASSERT_EQ(problem.num_queries(), param.num_queries);
  auto exact = mqo::SolveExhaustive(problem);
  ASSERT_TRUE(exact.ok());
  auto result = MqoBranchAndBound().Solve(problem);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->proven_optimal);
  EXPECT_NEAR(result->cost, exact->cost, 1e-9);
  EXPECT_TRUE(mqo::ValidateSolution(problem, result->solution).ok());
}

INSTANTIATE_TEST_SUITE_P(
    SubChip, MqoBnbPaperProperty,
    ::testing::Values(PaperCase{3, 10, 1}, PaperCase{3, 10, 2},
                      PaperCase{4, 9, 3}, PaperCase{4, 9, 4},
                      PaperCase{5, 8, 5}, PaperCase{5, 8, 6}));

TEST(MqoBnbTest, PartialPresolveMatchesExhaustiveOptimum) {
  // Savings up to 40 rival the plan-cost spread, so the presolve fixes only
  // some queries and the search runs on the residual.
  int partial = 0;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(200 + seed);
    mqo::RandomWorkloadOptions options;
    options.num_queries = 10;
    options.min_plans = 2;
    options.max_plans = 3;
    options.sharing_probability = 0.1;
    options.saving_max = 40.0;
    mqo::MqoProblem problem = mqo::GenerateRandomWorkload(options, &rng);
    auto exact = mqo::SolveExhaustive(problem);
    ASSERT_TRUE(exact.ok());
    auto result = MqoBranchAndBound().Solve(problem);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->proven_optimal) << "seed " << seed;
    EXPECT_NEAR(result->cost, exact->cost, 1e-9) << "seed " << seed;
    EXPECT_NEAR(mqo::EvaluateCost(problem, result->solution), result->cost,
                1e-9);
    if (result->fixed_queries > 0 &&
        result->fixed_queries < problem.num_queries()) {
      ++partial;
      EXPECT_GT(result->nodes, 0) << "seed " << seed;
    }
  }
  EXPECT_GT(partial, 0);
}

/// Two queries where greedy picks plan 0 then plan 2 (cost 20), but the
/// presolve fixes plan 2 (plan 3 costs 20 more and shares nothing) and then
/// plan 1 (its saving with plan 2 outweighs its extra cost): optimum 16.
mqo::MqoProblem GreedyTrap() {
  mqo::MqoProblem problem;
  problem.AddQuery({10.0, 11.0});
  problem.AddQuery({10.0, 30.0});
  EXPECT_TRUE(problem.AddSaving(1, 2, 5.0).ok());
  return problem;
}

TEST(MqoBnbTest, PresolveClosesInstanceWithoutBranching) {
  mqo::MqoProblem problem = GreedyTrap();
  auto result = MqoBranchAndBound().Solve(problem);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->proven_optimal);
  EXPECT_EQ(result->nodes, 0);
  EXPECT_EQ(result->fixed_queries, 2);
  EXPECT_EQ(result->cost, 16.0);
  EXPECT_EQ(result->solution.selected(0), 1);
  EXPECT_EQ(result->solution.selected(1), 2);
}

TEST(MqoBnbTest, PresolveClosesPaperInstance) {
  chimera::ChimeraGraph chip(4, 4, 4);
  mqo::MqoProblem problem = PaperInstance(chip, 2, 64, 9000);
  auto result = MqoBranchAndBound().Solve(problem);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->proven_optimal);
  EXPECT_EQ(result->fixed_queries, 64);
  EXPECT_EQ(result->nodes, 0);
  EXPECT_EQ(result->cost, 1357.0);  // the recorded optimum below
}

TEST(MqoBnbTest, CallbackReportsGreedyThenPresolvedIncumbent) {
  mqo::MqoProblem problem = GreedyTrap();
  std::vector<double> costs;
  auto result = MqoBranchAndBound().Solve(
      problem, [&](double, double cost, const mqo::MqoSolution& solution) {
        EXPECT_TRUE(mqo::ValidateSolution(problem, solution).ok());
        EXPECT_EQ(mqo::EvaluateCost(problem, solution), cost);
        costs.push_back(cost);
      });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(costs, (std::vector<double>{20.0, 16.0}));
}

TEST(MqoBnbTest, CallbackContractHoldsWithResidualSearch) {
  // Full-problem costs, greedy first, then strictly improving, on instances
  // where the presolve leaves a residual to search.
  int residual_searched = 0;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(300 + seed);
    mqo::RandomWorkloadOptions options;
    options.num_queries = 12;
    options.min_plans = 2;
    options.max_plans = 4;
    options.sharing_probability = 0.1;
    options.saving_max = 40.0;
    mqo::MqoProblem problem = mqo::GenerateRandomWorkload(options, &rng);
    mqo::MqoSolution greedy(problem.num_queries());
    std::vector<double> costs;
    auto result = MqoBranchAndBound().Solve(
        problem, [&](double, double cost, const mqo::MqoSolution& solution) {
          if (costs.empty()) greedy = solution;
          EXPECT_TRUE(mqo::ValidateSolution(problem, solution).ok());
          EXPECT_NEAR(mqo::EvaluateCost(problem, solution), cost, 1e-9);
          if (!costs.empty()) {
            EXPECT_LT(cost, costs.back());
          }
          costs.push_back(cost);
        });
    ASSERT_TRUE(result.ok());
    ASSERT_FALSE(costs.empty());
    // The first report is the greedy warm start on the full problem.
    std::vector<uint8_t> chosen(static_cast<size_t>(problem.num_plans()), 0);
    for (mqo::QueryId q = 0; q < problem.num_queries(); ++q) {
      mqo::PlanId pick = greedy.selected(q);
      for (int k = 0; k < problem.num_plans_of(q); ++k) {
        mqo::PlanId p = problem.first_plan(q) + k;
        auto marginal = [&](mqo::PlanId plan) {
          double m = problem.plan_cost(plan);
          for (const auto& [other, value] : problem.savings_of(plan)) {
            if (chosen[static_cast<size_t>(other)]) m -= value;
          }
          return m;
        };
        EXPECT_LE(marginal(pick), marginal(p));
      }
      chosen[static_cast<size_t>(pick)] = 1;
    }
    EXPECT_NEAR(result->cost, costs.back(), 1e-9);
    if (result->fixed_queries > 0 && result->nodes > 0) ++residual_searched;
  }
  EXPECT_GT(residual_searched, 0);
}

/// Optima recorded with the branch-and-bound before the presolve existed,
/// pinned with an instance fingerprint (saving count, total plan cost).
struct RecordedOptimum {
  int rows;  // square sub-chip of rows x rows cells
  int plans;
  int num_queries;
  uint64_t seed;
  int num_savings;
  double total_plan_cost;
  double optimum;
};

class MqoBnbRecordedOptima : public ::testing::TestWithParam<RecordedOptimum> {
};

TEST_P(MqoBnbRecordedOptima, ProvesRecordedOptimum) {
  const RecordedOptimum& param = GetParam();
  chimera::ChimeraGraph chip(param.rows, param.rows, 4);
  mqo::MqoProblem problem =
      PaperInstance(chip, param.plans, param.num_queries, param.seed);
  ASSERT_EQ(problem.num_savings(), param.num_savings);
  ASSERT_EQ(problem.total_plan_cost(), param.total_plan_cost);
  auto result = MqoBranchAndBound().Solve(problem);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->proven_optimal);
  EXPECT_EQ(result->cost, param.optimum);
}

INSTANTIATE_TEST_SUITE_P(
    PaperInstances, MqoBnbRecordedOptima,
    ::testing::Values(RecordedOptimum{4, 2, 64, 9000, 288, 3908, 1357},
                      RecordedOptimum{4, 2, 64, 9001, 288, 3900, 1369},
                      RecordedOptimum{4, 2, 64, 9002, 288, 3892, 1446},
                      RecordedOptimum{4, 2, 64, 9003, 288, 3836, 1382},
                      RecordedOptimum{4, 2, 64, 9004, 288, 3958, 1414},
                      RecordedOptimum{4, 2, 64, 9005, 288, 3973, 1426},
                      RecordedOptimum{6, 3, 28, 7000, 174, 2503, 558},
                      RecordedOptimum{6, 4, 28, 7001, 135, 3382, 451},
                      RecordedOptimum{6, 5, 28, 7002, 180, 4310, 494},
                      RecordedOptimum{6, 3, 28, 7003, 174, 2620, 562},
                      RecordedOptimum{6, 4, 28, 7004, 135, 3375, 524},
                      RecordedOptimum{6, 5, 28, 7005, 180, 4071, 418},
                      RecordedOptimum{6, 3, 28, 7006, 174, 2517, 558},
                      RecordedOptimum{6, 4, 28, 7007, 135, 3282, 486},
                      RecordedOptimum{6, 5, 28, 7008, 180, 3918, 417}));

// --------------------------------------------------------------------
// QUBO branch and bound
// --------------------------------------------------------------------

class QuboBnbProperty : public ::testing::TestWithParam<int> {};

TEST_P(QuboBnbProperty, MatchesExhaustiveOptimum) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 700);
  int n = rng.UniformInt(3, 14);
  qubo::QuboProblem problem(n);
  for (int i = 0; i < n; ++i) {
    problem.AddLinear(i, rng.UniformReal(-6.0, 6.0));
    for (int j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(0.4)) {
        problem.AddQuadratic(i, j, rng.UniformReal(-6.0, 6.0));
      }
    }
  }
  auto exact = qubo::SolveExhaustive(problem);
  ASSERT_TRUE(exact.ok());
  QuboBranchAndBound bnb;
  auto result = bnb.Solve(problem);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->proven_optimal);
  EXPECT_NEAR(result->energy, exact->energy, 1e-9);
  EXPECT_NEAR(problem.Energy(result->assignment), result->energy, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuboBnbProperty, ::testing::Range(0, 14));

TEST(QuboBnbTest, RejectsEmptyProblem) {
  qubo::QuboProblem empty(0);
  EXPECT_FALSE(QuboBranchAndBound().Solve(empty).ok());
}

TEST(QuboBnbTest, CallbackCostsAreConsistent) {
  Rng rng(81);
  qubo::QuboProblem problem(10);
  for (int i = 0; i < 10; ++i) {
    problem.AddLinear(i, rng.UniformReal(-3.0, 3.0));
    for (int j = i + 1; j < 10; ++j) {
      if (rng.Bernoulli(0.5)) {
        problem.AddQuadratic(i, j, rng.UniformReal(-3.0, 3.0));
      }
    }
  }
  double last_energy = 1e300;
  QuboBranchAndBound bnb;
  auto result =
      bnb.Solve(problem, [&](double, double energy,
                             const std::vector<uint8_t>& assignment) {
        EXPECT_LT(energy, last_energy);
        EXPECT_NEAR(problem.Energy(assignment), energy, 1e-9);
        last_energy = energy;
      });
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->energy, last_energy, 1e-9);
}

TEST(QuboBnbTest, NodeLimitKeepsIncumbent) {
  Rng rng(82);
  qubo::QuboProblem problem(20);
  for (int i = 0; i < 20; ++i) {
    problem.AddLinear(i, rng.UniformReal(-3.0, 3.0));
    for (int j = i + 1; j < 20; ++j) {
      if (rng.Bernoulli(0.3)) {
        problem.AddQuadratic(i, j, rng.UniformReal(-3.0, 3.0));
      }
    }
  }
  QuboBnbOptions options;
  options.max_nodes = 100;
  QuboBranchAndBound bnb(options);
  auto result = bnb.Solve(problem);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->proven_optimal);
  EXPECT_EQ(result->assignment.size(), 20u);
}

}  // namespace
}  // namespace solver
}  // namespace qmqo
