// Tests for the physical mapping: weight distribution, chain strengths
// (Choi's bound), ground-state chain consistency, and unembedding.

#include <gtest/gtest.h>

#include "embedding/clique_in_cell.h"
#include "embedding/embedded_qubo.h"
#include "embedding/triad.h"
#include "qubo/brute_force.h"
#include "util/rng.h"

namespace qmqo {
namespace embedding {
namespace {

using chimera::ChimeraGraph;

/// Random logical QUBO over n fully-embeddable variables.
qubo::QuboProblem RandomLogical(int n, double density, Rng* rng) {
  qubo::QuboProblem problem(n);
  for (int i = 0; i < n; ++i) {
    problem.AddLinear(i, rng->UniformReal(-10.0, 10.0));
    for (int j = i + 1; j < n; ++j) {
      if (rng->Bernoulli(density)) {
        problem.AddQuadratic(i, j, rng->UniformReal(-10.0, 10.0));
      }
    }
  }
  return problem;
}

TEST(EmbeddedQuboTest, ConsistentAssignmentPreservesEnergy) {
  ChimeraGraph graph(2, 2, 4);
  Rng rng(1);
  qubo::QuboProblem logical = RandomLogical(6, 0.8, &rng);
  auto embedding = TriadEmbedder::Embed(6, graph);
  ASSERT_TRUE(embedding.ok());
  auto embedded = EmbeddedQubo::Create(logical, *embedding, graph);
  ASSERT_TRUE(embedded.ok()) << embedded.status().ToString();

  for (int trial = 0; trial < 64; ++trial) {
    std::vector<uint8_t> logical_x(6);
    for (int i = 0; i < 6; ++i) logical_x[static_cast<size_t>(i)] = (trial >> i) & 1;
    std::vector<uint8_t> physical_x = embedded->EmbedAssignment(logical_x);
    EXPECT_TRUE(embedded->ChainsConsistent(physical_x));
    EXPECT_NEAR(embedded->physical().Energy(physical_x),
                logical.Energy(logical_x), 1e-9)
        << "trial " << trial;
  }
}

TEST(EmbeddedQuboTest, DetectsBrokenChain) {
  ChimeraGraph graph(2, 2, 4);
  Rng rng(3);
  qubo::QuboProblem logical = RandomLogical(5, 0.6, &rng);
  auto embedding = TriadEmbedder::Embed(5, graph);
  ASSERT_TRUE(embedding.ok());
  auto embedded = EmbeddedQubo::Create(logical, *embedding, graph);
  ASSERT_TRUE(embedded.ok());
  std::vector<uint8_t> physical_x =
      embedded->EmbedAssignment({1, 1, 1, 1, 1});
  physical_x[0] ^= 1;  // break one chain
  EXPECT_FALSE(embedded->ChainsConsistent(physical_x));
  EXPECT_GT(embedded->BrokenChainFraction(physical_x), 0.0);
}

TEST(EmbeddedQuboTest, MajorityVoteUnembedRepairsMinorityFlips) {
  ChimeraGraph graph(3, 3, 4);
  // K_9 on a 3x3 block: chains of length 4 — majority is meaningful.
  qubo::QuboProblem logical(9);
  for (int i = 0; i < 9; ++i) logical.AddLinear(i, -1.0);
  auto embedding = TriadEmbedder::Embed(9, graph);
  ASSERT_TRUE(embedding.ok());
  auto embedded = EmbeddedQubo::Create(logical, *embedding, graph);
  ASSERT_TRUE(embedded.ok());
  std::vector<uint8_t> physical_x =
      embedded->EmbedAssignment(std::vector<uint8_t>(9, 1));
  // Flip a single qubit of variable 0's chain: majority still says 1.
  int member = embedded->chain_members(0)[0];
  physical_x[static_cast<size_t>(member)] ^= 1;
  std::vector<uint8_t> decoded = embedded->Unembed(physical_x);
  EXPECT_EQ(decoded, std::vector<uint8_t>(9, 1));
}

TEST(EmbeddedQuboTest, ChainStrengthsArePositive) {
  ChimeraGraph graph(2, 2, 4);
  Rng rng(4);
  qubo::QuboProblem logical = RandomLogical(8, 0.7, &rng);
  auto embedding = TriadEmbedder::Embed(8, graph);
  ASSERT_TRUE(embedding.ok());
  auto embedded = EmbeddedQubo::Create(logical, *embedding, graph);
  ASSERT_TRUE(embedded.ok());
  for (int v = 0; v < 8; ++v) {
    EXPECT_GT(embedded->chain_strength(v), 0.0);
  }
}

TEST(EmbeddedQuboTest, RejectsBadOptions) {
  ChimeraGraph graph(2, 2, 4);
  qubo::QuboProblem logical(2);
  auto embedding = TriadEmbedder::Embed(2, graph);
  ASSERT_TRUE(embedding.ok());
  EmbeddedQuboOptions bad_eps;
  bad_eps.epsilon = 0.0;
  EXPECT_FALSE(EmbeddedQubo::Create(logical, *embedding, graph, bad_eps).ok());
  EmbeddedQuboOptions bad_scale;
  bad_scale.chain_strength_scale = -1.0;
  EXPECT_FALSE(
      EmbeddedQubo::Create(logical, *embedding, graph, bad_scale).ok());
}

TEST(EmbeddedQuboTest, CompactIndexRoundTrip) {
  ChimeraGraph graph(2, 2, 4);
  Rng rng(6);
  qubo::QuboProblem logical = RandomLogical(4, 0.5, &rng);
  auto embedding = TriadEmbedder::Embed(4, graph);
  ASSERT_TRUE(embedding.ok());
  auto embedded = EmbeddedQubo::Create(logical, *embedding, graph);
  ASSERT_TRUE(embedded.ok());
  EXPECT_EQ(embedded->num_physical_vars(), embedding->TotalQubits());
  for (int i = 0; i < embedded->num_physical_vars(); ++i) {
    EXPECT_EQ(embedded->compact_of(embedded->qubit_of(i)), i);
  }
}

// --------------------------------------------------------------------
// The headline guarantee: with Choi's chain strength, the physical ground
// state has consistent chains and decodes to the logical ground state.
// Verified by brute force on instances small enough to enumerate.
// --------------------------------------------------------------------

class GroundStateProperty : public ::testing::TestWithParam<int> {};

TEST_P(GroundStateProperty, PhysicalGroundStateDecodesLogicalOptimum) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 40);
  ChimeraGraph graph(2, 2, 4);
  int n = rng.UniformInt(3, 6);
  qubo::QuboProblem logical = RandomLogical(n, 0.8, &rng);
  auto embedding = TriadEmbedder::Embed(n, graph);
  ASSERT_TRUE(embedding.ok());
  auto embedded = EmbeddedQubo::Create(logical, *embedding, graph);
  ASSERT_TRUE(embedded.ok());
  ASSERT_LE(embedded->num_physical_vars(), 20);

  auto physical_ground = qubo::SolveExhaustive(embedded->physical());
  ASSERT_TRUE(physical_ground.ok());
  auto logical_ground = qubo::SolveExhaustive(logical);
  ASSERT_TRUE(logical_ground.ok());

  // Chains consistent at the physical ground state (Choi's guarantee)...
  EXPECT_TRUE(embedded->ChainsConsistent(physical_ground->assignment));
  // ...and the energies coincide.
  EXPECT_NEAR(physical_ground->energy, logical_ground->energy, 1e-9);
  // The decoded assignment achieves the logical optimum.
  std::vector<uint8_t> decoded = embedded->Unembed(physical_ground->assignment);
  EXPECT_NEAR(logical.Energy(decoded), logical_ground->energy, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroundStateProperty, ::testing::Range(0, 12));

// Ablation sanity: a deliberately weakened chain strength can break the
// guarantee, which is exactly what the chain-strength ablation bench
// demonstrates. Here we only require that weakening never *raises* the
// physical ground energy above the logical optimum (gadgets only add
// non-negative terms for consistent states).
class WeakChainProperty : public ::testing::TestWithParam<int> {};

TEST_P(WeakChainProperty, WeakenedChainsLowerOrKeepGroundEnergy) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 400);
  ChimeraGraph graph(2, 2, 4);
  qubo::QuboProblem logical = RandomLogical(5, 0.9, &rng);
  auto embedding = TriadEmbedder::Embed(5, graph);
  ASSERT_TRUE(embedding.ok());
  EmbeddedQuboOptions weak;
  weak.chain_strength_scale = 0.05;
  auto embedded = EmbeddedQubo::Create(logical, *embedding, graph, weak);
  ASSERT_TRUE(embedded.ok());
  auto physical_ground = qubo::SolveExhaustive(embedded->physical());
  ASSERT_TRUE(physical_ground.ok());
  auto logical_ground = qubo::SolveExhaustive(logical);
  ASSERT_TRUE(logical_ground.ok());
  EXPECT_LE(physical_ground->energy, logical_ground->energy + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WeakChainProperty, ::testing::Range(0, 6));

}  // namespace
}  // namespace embedding
}  // namespace qmqo
