// Tests for the combinatorial workloads layer: planted-instance
// generators (the planted optimum must be *provable* from the generated
// structure), QUBO formulation identities against graph-native
// objectives, deterministic decode/repair, exact planted-optimum
// recovery by brute force, end-to-end recovery through the resilient
// ladder (SQA/SA + descent), 1/2/4-thread determinism, wire-format
// round-trips with hostile payloads, and service integration including
// the unknown-request-tag rejection path. Chaos-labeled: every seed
// below forks from QMQO_CHAOS_SEED.

#include "workloads/workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "chimera/topology.h"
#include "harness/resilient_solver.h"
#include "qubo/brute_force.h"
#include "service/solve_service.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/status.h"
#include "workloads/coloring.h"
#include "workloads/graph.h"
#include "workloads/max_clique.h"
#include "workloads/max_cut.h"
#include "workloads/serialization.h"

namespace qmqo {
namespace workloads {
namespace {

uint64_t ChaosSeed() {
  const char* env = std::getenv("QMQO_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return 1;
  return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
}

std::vector<uint8_t> RandomBits(int n, Rng* rng) {
  std::vector<uint8_t> bits(static_cast<size_t>(n));
  for (uint8_t& bit : bits) bit = rng->Bernoulli(0.5) ? 1 : 0;
  return bits;
}

// --------------------------------------------------------------------
// Graph container
// --------------------------------------------------------------------

TEST(GraphTest, RejectsMalformedEdges) {
  Graph graph(4);
  EXPECT_FALSE(graph.AddEdge(1, 1).ok());        // self-loop
  EXPECT_FALSE(graph.AddEdge(-1, 2).ok());       // out of range
  EXPECT_FALSE(graph.AddEdge(0, 4).ok());        // out of range
  EXPECT_FALSE(graph.AddEdge(0, 1, 0.0).ok());   // non-positive weight
  EXPECT_FALSE(graph.AddEdge(0, 1, -2.0).ok());  // negative weight
  EXPECT_FALSE(graph.AddEdge(0, 1, 1.0 / 0.0).ok());  // non-finite
  ASSERT_TRUE(graph.AddEdge(0, 1).ok());
  EXPECT_FALSE(graph.AddEdge(1, 0).ok());  // duplicate (either order)
  EXPECT_EQ(graph.num_edges(), 1);
}

TEST(GraphTest, CanonicalStorageAndLookup) {
  Graph graph(5);
  ASSERT_TRUE(graph.AddEdge(3, 1, 2.5).ok());
  ASSERT_TRUE(graph.AddEdge(0, 4).ok());
  EXPECT_TRUE(graph.HasEdge(1, 3));
  EXPECT_TRUE(graph.HasEdge(3, 1));
  EXPECT_FALSE(graph.HasEdge(0, 1));
  EXPECT_DOUBLE_EQ(graph.total_weight(), 3.5);
  for (const Edge& e : graph.edges()) EXPECT_LT(e.u, e.v);
  EXPECT_EQ(graph.degree(1), 1);
  EXPECT_EQ(graph.neighbors(1)[0], 3);
}

// --------------------------------------------------------------------
// Planted-instance generators: the optimum must be provable from the
// generated structure, not just asserted by the generator.
// --------------------------------------------------------------------

TEST(GeneratorTest, PlantedCliqueIsProvablyMaximum) {
  const uint64_t seed = ChaosSeed();
  for (uint64_t salt = 0; salt < 4; ++salt) {
    auto instance = PlantedCliqueGraph(24, 5, 0.3, seed + salt);
    ASSERT_TRUE(instance.ok()) << instance.status().ToString();
    const Graph& graph = instance->graph;
    const std::vector<int>& clique = instance->clique;
    ASSERT_EQ(clique.size(), 5u);
    // The planted set is a clique.
    for (size_t a = 0; a < clique.size(); ++a) {
      for (size_t b = a + 1; b < clique.size(); ++b) {
        EXPECT_TRUE(graph.HasEdge(clique[a], clique[b]));
      }
    }
    // Every vertex outside it has degree <= k-1, so a clique through any
    // outsider has size <= degree+1 <= k: the planted clique is maximum.
    for (int v = 0; v < graph.num_nodes(); ++v) {
      if (std::find(clique.begin(), clique.end(), v) != clique.end()) {
        continue;
      }
      EXPECT_LE(graph.degree(v), 4) << "vertex " << v;
    }
  }
}

TEST(GeneratorTest, PlantedCutIsBipartiteSoCutEqualsTotalWeight) {
  auto instance = PlantedCutGraph(20, 0.4, 5.0, ChaosSeed());
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();
  const Graph& graph = instance->graph;
  ASSERT_EQ(instance->side.size(), 20u);
  EXPECT_GT(graph.num_edges(), 0);
  // Every edge crosses the planted partition, so the planted cut weight
  // equals total_weight() — an upper bound for any cut.
  for (const Edge& e : graph.edges()) {
    EXPECT_NE(instance->side[static_cast<size_t>(e.u)],
              instance->side[static_cast<size_t>(e.v)]);
    EXPECT_GE(e.weight, 1.0);
    EXPECT_LE(e.weight, 5.0);
  }
}

TEST(GeneratorTest, KColorableGraphHasProperColoringAndKClique) {
  auto instance = KColorableGraph(18, 3, 0.4, ChaosSeed());
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();
  const Graph& graph = instance->graph;
  ASSERT_EQ(instance->color.size(), 18u);
  // The planted assignment is proper (k-partite construction).
  for (const Edge& e : graph.edges()) {
    EXPECT_NE(instance->color[static_cast<size_t>(e.u)],
              instance->color[static_cast<size_t>(e.v)]);
  }
  // A k-clique exists (so fewer than k colors cannot suffice): the
  // generator wires one vertex per group into a clique. Find any k
  // mutually adjacent vertices among the first k*2 — cheaper: trust but
  // verify via the generator's contract that nodes 0..k-1 span distinct
  // groups and are mutually adjacent.
  for (int a = 0; a < 3; ++a) {
    for (int b = a + 1; b < 3; ++b) {
      EXPECT_TRUE(graph.HasEdge(a, b)) << a << "," << b;
    }
  }
}

TEST(GeneratorTest, GeneratorsAreDeterministicInSeed) {
  const uint64_t seed = ChaosSeed() + 17;
  auto first = PlantedCliqueGraph(16, 4, 0.5, seed);
  auto second = PlantedCliqueGraph(16, 4, 0.5, seed);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->clique, second->clique);
  ASSERT_EQ(first->graph.num_edges(), second->graph.num_edges());
  for (int i = 0; i < first->graph.num_edges(); ++i) {
    EXPECT_EQ(first->graph.edges()[static_cast<size_t>(i)].u,
              second->graph.edges()[static_cast<size_t>(i)].u);
    EXPECT_EQ(first->graph.edges()[static_cast<size_t>(i)].v,
              second->graph.edges()[static_cast<size_t>(i)].v);
  }
}

TEST(GeneratorTest, RejectsDegenerateParameters) {
  EXPECT_FALSE(PlantedCliqueGraph(4, 1, 0.5, 1).ok());   // clique < 2
  EXPECT_FALSE(PlantedCliqueGraph(4, 5, 0.5, 1).ok());   // clique > n
  EXPECT_FALSE(PlantedCliqueGraph(4, 3, 1.5, 1).ok());   // bad prob
  EXPECT_FALSE(PlantedCutGraph(1, 0.5, 2.0, 1).ok());    // n < 2
  EXPECT_FALSE(PlantedCutGraph(4, 0.5, 0.5, 1).ok());    // weight < 1
  EXPECT_FALSE(KColorableGraph(4, 1, 0.5, 1).ok());      // k < 2
  EXPECT_FALSE(KColorableGraph(4, 5, 0.5, 1).ok());      // k > n
}

// --------------------------------------------------------------------
// Formulation identities: QUBO energy vs graph-native objective.
// --------------------------------------------------------------------

TEST(FormulationTest, MaxCutEnergyIsMinusCutWeightForAnyBits) {
  auto instance = PlantedCutGraph(12, 0.5, 3.0, ChaosSeed() + 3);
  ASSERT_TRUE(instance.ok());
  auto workload = MaxCutWorkload::Create(instance->graph,
                                         instance->graph.total_weight());
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  const MaxCutWorkload& cut = **workload;
  Rng rng(ChaosSeed() + 4);
  for (int trial = 0; trial < 32; ++trial) {
    std::vector<uint8_t> bits = RandomBits(cut.qubo().num_vars(), &rng);
    std::vector<int> side(bits.begin(), bits.end());
    EXPECT_NEAR(cut.qubo().Energy(bits) + cut.energy_offset(),
                -cut.CutWeight(side), 1e-9);
  }
}

TEST(FormulationTest, CliqueEnergyCountsRewardAndConflicts) {
  auto instance = PlantedCliqueGraph(14, 4, 0.4, ChaosSeed() + 5);
  ASSERT_TRUE(instance.ok());
  auto workload = MaxCliqueWorkload::Create(instance->graph, 4);
  ASSERT_TRUE(workload.ok());
  const MaxCliqueWorkload& clique = **workload;
  const Graph& graph = clique.graph();
  Rng rng(ChaosSeed() + 6);
  for (int trial = 0; trial < 32; ++trial) {
    std::vector<uint8_t> bits = RandomBits(graph.num_nodes(), &rng);
    double selected = 0.0;
    double non_edges = 0.0;
    for (int u = 0; u < graph.num_nodes(); ++u) {
      if (!bits[static_cast<size_t>(u)]) continue;
      selected += 1.0;
      for (int v = u + 1; v < graph.num_nodes(); ++v) {
        if (bits[static_cast<size_t>(v)] && !graph.HasEdge(u, v)) {
          non_edges += 1.0;
        }
      }
    }
    // E(x) = -A*|S| + B*(non-edges inside S), A=1, B=2.
    EXPECT_NEAR(clique.qubo().Energy(bits), -selected + 2.0 * non_edges,
                1e-9);
  }
}

TEST(FormulationTest, ColoringEnergyIsZeroExactlyOnProperOneHotColorings) {
  auto instance = KColorableGraph(10, 3, 0.5, ChaosSeed() + 7);
  ASSERT_TRUE(instance.ok());
  auto workload = ColoringWorkload::Create(instance->graph, 3);
  ASSERT_TRUE(workload.ok());
  const ColoringWorkload& coloring = **workload;
  // One-hot encode the planted proper coloring: energy + offset == 0.
  std::vector<uint8_t> bits(
      static_cast<size_t>(coloring.qubo().num_vars()), 0);
  for (int v = 0; v < instance->graph.num_nodes(); ++v) {
    bits[static_cast<size_t>(
        v * 3 + instance->color[static_cast<size_t>(v)])] = 1;
  }
  EXPECT_NEAR(coloring.qubo().Energy(bits) + coloring.energy_offset(), 0.0,
              1e-9);
  // Breaking one edge's colors costs exactly B (= 1) conflict.
  const Edge& e = instance->graph.edges().front();
  std::vector<uint8_t> broken = bits;
  broken[static_cast<size_t>(
      e.u * 3 + instance->color[static_cast<size_t>(e.u)])] = 0;
  broken[static_cast<size_t>(
      e.u * 3 + instance->color[static_cast<size_t>(e.v)])] = 1;
  const double broken_energy =
      coloring.qubo().Energy(broken) + coloring.energy_offset();
  EXPECT_GT(broken_energy, 0.0);
}

// --------------------------------------------------------------------
// Decode / repair: every bitstring becomes a valid domain answer.
// --------------------------------------------------------------------

TEST(DecodeTest, CliqueRepairAlwaysYieldsAClique) {
  auto workload = MaxCliqueWorkload::MakePlanted(16, 4, 0.4, ChaosSeed() + 8);
  ASSERT_TRUE(workload.ok());
  const MaxCliqueWorkload& clique = **workload;
  Rng rng(ChaosSeed() + 9);
  for (int trial = 0; trial < 16; ++trial) {
    WorkloadSolution solution =
        clique.Decode(RandomBits(clique.qubo().num_vars(), &rng));
    EXPECT_TRUE(solution.feasible);
    EXPECT_TRUE(clique.ValidateFeasible(solution).ok());
  }
  // Empty and oversized inputs are repaired too, never a crash.
  EXPECT_TRUE(clique.Decode({}).feasible);
  EXPECT_TRUE(
      clique.Decode(std::vector<uint8_t>(64, 1)).feasible);
}

TEST(DecodeTest, DecodeIsDeterministic) {
  auto workload = MaxCliqueWorkload::MakePlanted(16, 4, 0.4, ChaosSeed() + 8);
  ASSERT_TRUE(workload.ok());
  Rng rng(ChaosSeed() + 10);
  std::vector<uint8_t> bits = RandomBits((*workload)->qubo().num_vars(), &rng);
  WorkloadSolution a = (*workload)->Decode(bits);
  WorkloadSolution b = (*workload)->Decode(bits);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.objective, b.objective);
}

TEST(DecodeTest, ColoringDecodeOfPlantedColoringIsFeasibleWithZeroGap) {
  auto instance = KColorableGraph(12, 3, 0.4, ChaosSeed() + 11);
  ASSERT_TRUE(instance.ok());
  auto workload = ColoringWorkload::Create(instance->graph, 3);
  ASSERT_TRUE(workload.ok());
  std::vector<uint8_t> bits(
      static_cast<size_t>((*workload)->qubo().num_vars()), 0);
  for (int v = 0; v < instance->graph.num_nodes(); ++v) {
    bits[static_cast<size_t>(
        v * 3 + instance->color[static_cast<size_t>(v)])] = 1;
  }
  WorkloadSolution solution = (*workload)->Decode(bits);
  EXPECT_TRUE(solution.feasible);
  EXPECT_TRUE((*workload)->ValidateFeasible(solution).ok());
  EXPECT_DOUBLE_EQ((*workload)->OptimalityGap(solution), 0.0);
}

TEST(DecodeTest, ValidationRejectsMalformedSolutions) {
  auto workload = MaxCliqueWorkload::MakePlanted(10, 3, 0.3, ChaosSeed());
  ASSERT_TRUE(workload.ok());
  WorkloadSolution bogus;
  bogus.labels = {1, 1};  // wrong length
  EXPECT_FALSE((*workload)->ValidateFeasible(bogus).ok());
  // A non-clique selection must be rejected even if labeled feasible.
  const Graph& graph = (*workload)->graph();
  WorkloadSolution fake;
  fake.labels.assign(static_cast<size_t>(graph.num_nodes()), 0);
  int picked = 0;
  for (int u = 0; u < graph.num_nodes() && picked < 2; ++u) {
    for (int v = u + 1; v < graph.num_nodes(); ++v) {
      if (!graph.HasEdge(u, v)) {
        fake.labels[static_cast<size_t>(u)] = 1;
        fake.labels[static_cast<size_t>(v)] = 1;
        fake.objective = 2.0;
        fake.feasible = true;
        picked = 2;
        break;
      }
    }
  }
  if (picked == 2) {
    EXPECT_FALSE((*workload)->ValidateFeasible(fake).ok());
  }
}

// --------------------------------------------------------------------
// Exact planted-optimum recovery (brute force on small instances): the
// formulation's ground state must BE the planted optimum.
// --------------------------------------------------------------------

TEST(ExactRecoveryTest, CliqueGroundStateIsPlantedClique) {
  auto workload = MaxCliqueWorkload::MakePlanted(12, 4, 0.3, ChaosSeed() + 12);
  ASSERT_TRUE(workload.ok());
  auto exact = qubo::SolveExhaustive((*workload)->qubo());
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  // Ground energy of the clique QUBO is exactly -A * omega(G) = -4.
  EXPECT_NEAR(exact->energy, -4.0, 1e-9);
  WorkloadSolution solution = (*workload)->Decode(exact->assignment);
  EXPECT_TRUE(solution.feasible);
  EXPECT_DOUBLE_EQ(solution.objective, 4.0);
  EXPECT_DOUBLE_EQ((*workload)->OptimalityGap(solution), 0.0);
}

TEST(ExactRecoveryTest, CutGroundStateAttainsTotalWeight) {
  auto instance = PlantedCutGraph(12, 0.5, 4.0, ChaosSeed() + 13);
  ASSERT_TRUE(instance.ok());
  auto workload = MaxCutWorkload::Create(instance->graph,
                                         instance->graph.total_weight());
  ASSERT_TRUE(workload.ok());
  auto exact = qubo::SolveExhaustive((*workload)->qubo());
  ASSERT_TRUE(exact.ok());
  // E(x) = -cut(x); the bipartite construction makes total weight
  // attainable, so the ground energy is exactly -total_weight.
  EXPECT_NEAR(exact->energy, -instance->graph.total_weight(), 1e-9);
  WorkloadSolution solution = (*workload)->Decode(exact->assignment);
  EXPECT_TRUE(solution.feasible);
  EXPECT_NEAR(solution.objective, instance->graph.total_weight(), 1e-9);
  EXPECT_NEAR((*workload)->OptimalityGap(solution), 0.0, 1e-9);
}

TEST(ExactRecoveryTest, ColoringGroundStateIsConflictFree) {
  auto workload = ColoringWorkload::MakePlanted(8, 2, 0.4, ChaosSeed() + 14);
  ASSERT_TRUE(workload.ok());
  ASSERT_LE((*workload)->qubo().num_vars(), 16);
  auto exact = qubo::SolveExhaustive((*workload)->qubo());
  ASSERT_TRUE(exact.ok());
  // Proper coloring <=> E + offset == 0, and the instance is 2-colorable.
  EXPECT_NEAR(exact->energy + (*workload)->energy_offset(), 0.0, 1e-9);
  WorkloadSolution solution = (*workload)->Decode(exact->assignment);
  EXPECT_TRUE(solution.feasible);
  EXPECT_DOUBLE_EQ(solution.objective, 0.0);
}

// --------------------------------------------------------------------
// End-to-end through the resilient ladder (`ResilientSolver::Solve` on the
// workload as its target): SQA answers with the device rung gated, the
// decoded answer is feasible, and the planted optimum is recovered on
// these instance sizes.
// --------------------------------------------------------------------

harness::SolvePolicy LadderPolicy() {
  harness::SolvePolicy policy;
  policy.seed = ChaosSeed();
  policy.max_attempts_per_backend = 1;
  policy.sqa_reads = 8;
  policy.sqa_slices = 6;
  policy.sqa_sweeps = 64;
  policy.sa_reads = 16;
  policy.sa_sweeps = 128;
  return policy;
}

TEST(LadderTest, SolveGatesDeviceAndRecoversPlantedOptima) {
  std::vector<std::shared_ptr<Workload>> workloads;
  {
    auto clique =
        MaxCliqueWorkload::MakePlanted(18, 5, 0.35, ChaosSeed() + 20);
    ASSERT_TRUE(clique.ok());
    workloads.push_back(*clique);
    auto cut_instance = PlantedCutGraph(18, 0.4, 3.0, ChaosSeed() + 21);
    ASSERT_TRUE(cut_instance.ok());
    auto cut = MaxCutWorkload::Create(cut_instance->graph,
                                      cut_instance->graph.total_weight());
    ASSERT_TRUE(cut.ok());
    workloads.push_back(*cut);
    auto coloring =
        ColoringWorkload::MakePlanted(15, 3, 0.4, ChaosSeed() + 22);
    ASSERT_TRUE(coloring.ok());
    workloads.push_back(*coloring);
  }
  harness::ResilientSolver solver(LadderPolicy());
  harness::QuantumMqoOptions options;
  for (const auto& workload : workloads) {
    harness::SolveReport report = solver.Solve(*workload, options);
    ASSERT_TRUE(report.ok) << workload->name() << ": "
                           << report.FailureChain();
    // The device rung was gated with a typed skip, not attempted.
    ASSERT_FALSE(report.attempts.empty());
    EXPECT_EQ(report.attempts.front().backend, harness::SolveBackend::kDevice);
    EXPECT_EQ(report.attempts.front().attempt, 0);
    EXPECT_EQ(report.attempts.front().status.code(),
              StatusCode::kUnimplemented);
    EXPECT_EQ(report.backend, harness::SolveBackend::kSqa);
    EXPECT_EQ(static_cast<int>(report.assignment.size()),
              workload->qubo().num_vars());
    WorkloadSolution solution = workload->Decode(report.assignment);
    EXPECT_TRUE(solution.feasible) << workload->name();
    EXPECT_TRUE(workload->ValidateFeasible(solution).ok())
        << workload->name();
    EXPECT_NEAR(workload->OptimalityGap(solution), 0.0, 1e-9)
        << workload->name() << " objective " << solution.objective
        << " vs planted " << workload->known_optimum();
  }
}

TEST(LadderTest, SolveIsBitIdenticalAcrossThreadCounts) {
  auto workload = MaxCliqueWorkload::MakePlanted(20, 5, 0.3, ChaosSeed() + 23);
  ASSERT_TRUE(workload.ok());
  harness::ResilientSolver solver(LadderPolicy());
  std::vector<uint8_t> serial_assignment;
  double serial_energy = 0.0;
  for (int threads : {1, 2, 4}) {
    harness::QuantumMqoOptions options;
    options.device.num_threads = threads;
    harness::SolveReport report = solver.Solve(**workload, options);
    ASSERT_TRUE(report.ok) << report.FailureChain();
    if (threads == 1) {
      serial_assignment = report.assignment;
      serial_energy = report.cost;
      continue;
    }
    EXPECT_EQ(report.assignment, serial_assignment)
        << "threads=" << threads;
    EXPECT_EQ(report.cost, serial_energy) << "threads=" << threads;
  }
}

TEST(LadderTest, ChaosFaultsDegradeToGreedyWhichStillAnswers) {
  util::FaultInjector faults(ChaosSeed());
  util::FaultSpec always;
  always.probability = 1.0;
  faults.Arm("solve.sqa", always);
  faults.Arm("solve.sa", always);

  harness::SolvePolicy policy = LadderPolicy();
  policy.faults = &faults;
  auto workload = MaxCliqueWorkload::MakePlanted(16, 4, 0.3, ChaosSeed() + 24);
  ASSERT_TRUE(workload.ok());
  harness::QuantumMqoOptions options;
  harness::SolveReport report =
      harness::ResilientSolver(policy).Solve(**workload, options);
  ASSERT_TRUE(report.ok) << report.FailureChain();
  EXPECT_EQ(report.backend, harness::SolveBackend::kGreedy);
  EXPECT_GT(report.faults_observed, 0);
  WorkloadSolution solution = (*workload)->Decode(report.assignment);
  EXPECT_TRUE(solution.feasible);
  EXPECT_TRUE((*workload)->ValidateFeasible(solution).ok());
}

// --------------------------------------------------------------------
// Wire format: round-trips and hostile payloads.
// --------------------------------------------------------------------

TEST(SerializationTest, RoundTripsEveryKind) {
  auto clique = MaxCliqueWorkload::MakePlanted(10, 3, 0.4, ChaosSeed() + 30);
  ASSERT_TRUE(clique.ok());
  auto cut_instance = PlantedCutGraph(8, 0.6, 2.5, ChaosSeed() + 31);
  ASSERT_TRUE(cut_instance.ok());
  auto cut = MaxCutWorkload::Create(cut_instance->graph,
                                    cut_instance->graph.total_weight());
  ASSERT_TRUE(cut.ok());
  auto coloring = ColoringWorkload::MakePlanted(9, 3, 0.4, ChaosSeed() + 32);
  ASSERT_TRUE(coloring.ok());
  const std::shared_ptr<Workload> all[] = {*clique, *cut, *coloring};
  for (const auto& original : all) {
    const std::string text = ToText(SpecOf(*original));
    Result<WorkloadSpec> spec = FromText(text);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString() << "\n" << text;
    Result<std::shared_ptr<Workload>> rebuilt = MakeWorkload(*spec);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    EXPECT_EQ((*rebuilt)->kind(), original->kind());
    EXPECT_EQ((*rebuilt)->qubo().num_vars(), original->qubo().num_vars());
    EXPECT_DOUBLE_EQ((*rebuilt)->known_optimum(), original->known_optimum());
    EXPECT_EQ((*rebuilt)->graph().num_edges(), original->graph().num_edges());
    // The rebuilt formulation is numerically identical: equal energies on
    // a probe assignment.
    Rng rng(ChaosSeed() + 33);
    std::vector<uint8_t> bits =
        RandomBits(original->qubo().num_vars(), &rng);
    EXPECT_DOUBLE_EQ((*rebuilt)->qubo().Energy(bits),
                     original->qubo().Energy(bits));
  }
}

TEST(SerializationTest, HostilePayloadsAreTypedRejections) {
  const char* hostile[] = {
      "",                                       // empty
      "workload v2\nend\n",                     // wrong header version
      "workload v1\nend\n",                     // missing type/nodes
      "workload v1\ntype frobnicate\nnodes 4\nend\n",  // unknown type
      "workload v1\ntype max_cut\nnodes 0\nend\n",     // zero nodes
      "workload v1\ntype max_cut\nnodes 99999999\nend\n",  // over cap
      "workload v1\ntype max_cut\nnodes 4\nedge 0 9\nend\n",   // range
      "workload v1\ntype max_cut\nnodes 4\nedge 0 0\nend\n",   // loop
      "workload v1\ntype max_cut\nnodes 4\nedge 0 1 nan\nend\n",
      "workload v1\ntype max_cut\nnodes 4\nedge 0 1 1e999\nend\n",
      "workload v1\ntype max_cut\nnodes 4\nedge a b\nend\n",
      "workload v1\ntype max_cut\nnodes 4\ncolors 2\nend\n",  // colors!=ok
      "workload v1\ntype coloring\nnodes 4\nend\n",  // coloring w/o colors
      "workload v1\ntype max_cut\nnodes 4\noptimum inf\nend\n",
      "workload v1\ntype max_cut\nnodes 4\nbogus 1\nend\n",
      "workload v1\ntype max_cut\nnodes 4\n",  // missing end
      "workload v1\ntype coloring\nnodes 1000000\ncolors 1024\nend\n",
  };
  for (const char* payload : hostile) {
    Result<WorkloadSpec> parsed = FromText(payload);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << payload;
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
          << payload;
    }
  }
  // Clique optimum must be an integer clique size.
  Result<WorkloadSpec> bad_opt = FromText(
      "workload v1\ntype max_clique\nnodes 4\noptimum 2.5\n"
      "edge 0 1\nend\n");
  ASSERT_TRUE(bad_opt.ok());
  EXPECT_FALSE(MakeWorkload(*bad_opt).ok());
}

TEST(SerializationTest, CommentsAndBlankLinesAreIgnored) {
  Result<WorkloadSpec> spec = FromText(
      "# a comment\n\nworkload v1\ntype max_cut\n# another\nnodes 3\n"
      "edge 0 1 2.0\nedge 1 2\nend\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->graph.num_edges(), 2);
  EXPECT_DOUBLE_EQ(spec->graph.total_weight(), 3.0);
}

// --------------------------------------------------------------------
// Service integration: workload requests as first-class request types,
// and the unknown-tag rejection path (a satellite bugfix: unknown tags
// must be typed InvalidArgument, counted, and never parsed as mqo).
// --------------------------------------------------------------------

service::ServiceOptions WorkloadServiceOptions(
    const chimera::ChimeraGraph* graph) {
  service::ServiceOptions options;
  options.graph = graph;
  options.num_threads = 1;
  options.policy = LadderPolicy();
  return options;
}

TEST(ServiceWorkloadTest, SubmitTextRoutesWorkloadsThroughTheLadder) {
  chimera::ChimeraGraph graph(4, 4, 4);
  service::SolveService service(WorkloadServiceOptions(&graph));
  auto clique = MaxCliqueWorkload::MakePlanted(14, 4, 0.35, ChaosSeed() + 40);
  ASSERT_TRUE(clique.ok());
  Result<uint64_t> id = service.SubmitText(ToText(SpecOf(**clique)));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(service.DrainAll(), 1);
  ASSERT_EQ(service.outcomes().size(), 1u);
  const service::SolveOutcome& outcome = service.outcomes().front();
  ASSERT_TRUE(outcome.status.ok()) << outcome.detail;
  ASSERT_NE(outcome.workload, nullptr);
  EXPECT_EQ(outcome.workload->kind(), WorkloadKind::kMaxClique);
  EXPECT_TRUE(outcome.workload_solution.feasible);
  EXPECT_TRUE(
      outcome.workload->ValidateFeasible(outcome.workload_solution).ok());
  EXPECT_NEAR(outcome.workload_gap, 0.0, 1e-9);
  // Workload requests enter past the device rung (no embedding exists).
  EXPECT_GE(outcome.entry_rung, 1);
  EXPECT_NE(outcome.backend, harness::SolveBackend::kDevice);
}

TEST(ServiceWorkloadTest, UnknownRequestTagIsTypedRejectionWithCounter) {
  chimera::ChimeraGraph graph(4, 4, 4);
  service::SolveService service(WorkloadServiceOptions(&graph));
  const char* hostile[] = {
      "frobnicate v1\nend\n",
      "workloadx v1\nend\n",
      "\x01\x02\x03 binary garbage",
      "   \n# only comments\n",
      "mqoo v1\n",
  };
  int64_t expected_invalid = 0;
  for (const char* payload : hostile) {
    Result<uint64_t> id = service.SubmitText(payload);
    ASSERT_FALSE(id.ok()) << "accepted: " << payload;
    EXPECT_EQ(id.status().code(), StatusCode::kInvalidArgument) << payload;
    ++expected_invalid;
    EXPECT_EQ(service.stats().rejected_invalid, expected_invalid) << payload;
  }
  // Nothing was enqueued; the queue never saw the hostile payloads.
  EXPECT_TRUE(service.queue().empty());
  EXPECT_EQ(service.stats().accepted, 0);
  // An oversized payload is rejected before any parsing.
  std::string oversized(size_t{17} << 20, 'x');
  Result<uint64_t> big = service.SubmitText(oversized);
  ASSERT_FALSE(big.ok());
  EXPECT_EQ(big.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServiceWorkloadTest, MixedMqoAndWorkloadRoundsAreDeterministic) {
  auto cut_instance = PlantedCutGraph(12, 0.5, 2.0, ChaosSeed() + 41);
  ASSERT_TRUE(cut_instance.ok());
  auto cut = MaxCutWorkload::Create(cut_instance->graph,
                                    cut_instance->graph.total_weight());
  ASSERT_TRUE(cut.ok());
  auto coloring = ColoringWorkload::MakePlanted(10, 2, 0.4, ChaosSeed() + 42);
  ASSERT_TRUE(coloring.ok());

  std::vector<std::vector<int>> labels_by_threads;
  std::vector<double> costs_by_threads;
  for (int threads : {1, 2, 4}) {
    chimera::ChimeraGraph graph(4, 4, 4);
    service::ServiceOptions options = WorkloadServiceOptions(&graph);
    options.num_threads = threads;
    service::SolveService service(options);
    ASSERT_TRUE(service.Submit(*cut).ok());
    ASSERT_TRUE(service.Submit(*coloring).ok());
    service.DrainAll();
    ASSERT_EQ(service.outcomes().size(), 2u);
    std::vector<int> labels;
    double cost_sum = 0.0;
    for (const service::SolveOutcome& outcome : service.outcomes()) {
      ASSERT_TRUE(outcome.status.ok()) << outcome.detail;
      labels.insert(labels.end(), outcome.workload_solution.labels.begin(),
                    outcome.workload_solution.labels.end());
      cost_sum += outcome.cost;
    }
    labels_by_threads.push_back(std::move(labels));
    costs_by_threads.push_back(cost_sum);
  }
  EXPECT_EQ(labels_by_threads[0], labels_by_threads[1]);
  EXPECT_EQ(labels_by_threads[0], labels_by_threads[2]);
  EXPECT_EQ(costs_by_threads[0], costs_by_threads[1]);
  EXPECT_EQ(costs_by_threads[0], costs_by_threads[2]);
}

TEST(ServiceWorkloadTest, WorkloadAcceptedCounterByKind) {
  chimera::ChimeraGraph graph(4, 4, 4);
  service::SolveService service(WorkloadServiceOptions(&graph));
  auto cut_instance = PlantedCutGraph(8, 0.5, 2.0, ChaosSeed() + 43);
  ASSERT_TRUE(cut_instance.ok());
  auto cut = MaxCutWorkload::Create(cut_instance->graph,
                                    cut_instance->graph.total_weight());
  ASSERT_TRUE(cut.ok());
  ASSERT_TRUE(service.Submit(*cut).ok());
  ASSERT_TRUE(service.Submit(*cut).ok());
  const std::string prometheus = service.metrics().PrometheusText();
  EXPECT_NE(prometheus.find(
                "qmqo_service_workload_accepted_total{kind=\"max_cut\"} 2"),
            std::string::npos)
      << prometheus;
  // Null workloads are invalid, not a crash.
  Result<uint64_t> null_submit = service.Submit(nullptr);
  EXPECT_FALSE(null_submit.ok());
  EXPECT_EQ(null_submit.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace workloads
}  // namespace qmqo
