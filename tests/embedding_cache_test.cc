// Tests for the structure-keyed embedding cache: hit/miss semantics,
// bit-identity of re-weighted embeddings (problems, strengths, and device
// samples at any thread count), concurrent-access determinism, the LRU
// eviction bound, and the harness wiring.

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "anneal/dwave_simulator.h"
#include "chimera/topology.h"
#include "embedding/embedding_cache.h"
#include "embedding/triad.h"
#include "harness/mqo_workload.h"
#include "harness/paper_workload.h"
#include "harness/quantum_pipeline.h"
#include "harness/resilient_solver.h"
#include "util/fault.h"
#include "util/rng.h"

namespace qmqo {
namespace embedding {
namespace {

using chimera::ChimeraGraph;

/// Logical QUBO whose interaction *pattern* depends only on
/// `structure_seed` and whose coefficients depend only on `weight_seed` —
/// the cache must hit across weight seeds and miss across structure seeds.
qubo::QuboProblem MakeLogical(int n, uint64_t structure_seed,
                              uint64_t weight_seed) {
  Rng structure(structure_seed);
  Rng weights(weight_seed);
  qubo::QuboProblem problem(n);
  for (int i = 0; i < n; ++i) {
    problem.AddLinear(i, weights.UniformReal(-10.0, 10.0));
    for (int j = i + 1; j < n; ++j) {
      if (structure.Bernoulli(0.6)) {
        double w = 0.0;
        while (w == 0.0) w = weights.UniformReal(-10.0, 10.0);
        problem.AddQuadratic(i, j, w);
      }
    }
  }
  return problem;
}

/// Strict equality of two physical compilations, field by field (EXPECT_EQ
/// on doubles is exact comparison — bit identity modulo signed zeros,
/// which the compile path never produces from nonzero inputs).
void ExpectIdenticalCompile(const EmbeddedQubo& a, const EmbeddedQubo& b) {
  ASSERT_EQ(a.num_physical_vars(), b.num_physical_vars());
  ASSERT_EQ(a.num_logical_vars(), b.num_logical_vars());
  EXPECT_EQ(a.physical().linear_terms(), b.physical().linear_terms());
  const auto& ta = a.physical().interactions();
  const auto& tb = b.physical().interactions();
  ASSERT_EQ(ta.size(), tb.size());
  for (size_t t = 0; t < ta.size(); ++t) {
    EXPECT_EQ(ta[t].i, tb[t].i);
    EXPECT_EQ(ta[t].j, tb[t].j);
    EXPECT_EQ(ta[t].weight, tb[t].weight) << "term " << t;
  }
  EXPECT_EQ(a.physical().csr().weights, b.physical().csr().weights);
  for (int v = 0; v < a.num_logical_vars(); ++v) {
    EXPECT_EQ(a.chain_strength(v), b.chain_strength(v)) << "chain " << v;
    EXPECT_EQ(a.chain_members(v), b.chain_members(v)) << "chain " << v;
  }
  for (int i = 0; i < a.num_physical_vars(); ++i) {
    EXPECT_EQ(a.qubit_of(i), b.qubit_of(i));
  }
}

class EmbeddingCacheTest : public ::testing::Test {
 protected:
  EmbeddingCacheTest() : graph_(2, 2, 4) {
    auto embedding = TriadEmbedder::Embed(kVars, graph_);
    EXPECT_TRUE(embedding.ok()) << embedding.status().ToString();
    embedding_ = *std::move(embedding);
  }

  static constexpr int kVars = 8;
  ChimeraGraph graph_;
  Embedding embedding_{0};
};

TEST_F(EmbeddingCacheTest, HitsOnSameStructureDifferentWeights) {
  EmbeddingCache cache;
  qubo::QuboProblem first = MakeLogical(kVars, /*structure_seed=*/1, 100);
  qubo::QuboProblem second = MakeLogical(kVars, /*structure_seed=*/1, 200);

  bool was_hit = true;
  auto cold = cache.GetOrCreate(first, embedding_, graph_, {}, &was_hit);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_FALSE(was_hit);

  auto warm = cache.GetOrCreate(second, embedding_, graph_, {}, &was_hit);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_TRUE(was_hit);

  EmbeddingCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.bypasses, 0u);
  EXPECT_EQ(cache.size(), 1u);

  // The cached re-weight is indistinguishable from a fresh compile.
  auto fresh = EmbeddedQubo::Create(second, embedding_, graph_);
  ASSERT_TRUE(fresh.ok());
  ExpectIdenticalCompile(*warm, *fresh);
}

TEST_F(EmbeddingCacheTest, MissesOnDifferentStructure) {
  EmbeddingCache cache;
  qubo::QuboProblem first = MakeLogical(kVars, /*structure_seed=*/1, 100);
  qubo::QuboProblem second = MakeLogical(kVars, /*structure_seed=*/2, 100);
  ASSERT_TRUE(cache.GetOrCreate(first, embedding_, graph_).ok());
  bool was_hit = true;
  ASSERT_TRUE(
      cache.GetOrCreate(second, embedding_, graph_, {}, &was_hit).ok());
  EXPECT_FALSE(was_hit);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST_F(EmbeddingCacheTest, DifferentDefectSetsMissEachOther) {
  // Same logical problem and chains, but a defect elsewhere on the chip
  // changes the hardware key (couplers usable for future placements
  // differ), so the entries must not alias.
  qubo::QuboProblem logical = MakeLogical(kVars, 1, 100);
  ChimeraGraph scarred = graph_;
  // Break a qubit no chain uses (chains of an 8-var TRIAD on 2x2 use all
  // cells, so find a qubit outside every chain).
  std::vector<int> owner = embedding_.QubitToVar(scarred);
  chimera::QubitId spare = -1;
  for (chimera::QubitId q = 0; q < scarred.num_qubits(); ++q) {
    if (owner[static_cast<size_t>(q)] == -1) {
      spare = q;
      break;
    }
  }
  ASSERT_GE(spare, 0);
  scarred.SetBroken(spare, true);

  EmbeddingCache cache;
  ASSERT_TRUE(cache.GetOrCreate(logical, embedding_, graph_).ok());
  bool was_hit = true;
  auto second =
      cache.GetOrCreate(logical, embedding_, scarred, {}, &was_hit);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_FALSE(was_hit);
  EXPECT_EQ(cache.size(), 2u);
}

TEST_F(EmbeddingCacheTest, ZeroWeightTermsBypassTheCache) {
  EmbeddingCache cache;
  qubo::QuboProblem logical = MakeLogical(kVars, 1, 100);
  // Add a zero-weight term on a pair the structure does not already use
  // (accumulating 0.0 onto an existing weight would change nothing).
  int zi = -1;
  int zj = -1;
  for (int i = 0; i < kVars && zi < 0; ++i) {
    for (int j = i + 1; j < kVars && zi < 0; ++j) {
      if (logical.quadratic(i, j) == 0.0) {
        zi = i;
        zj = j;
      }
    }
  }
  ASSERT_GE(zi, 0) << "structure seed 1 unexpectedly produced a clique";
  logical.AddQuadratic(zi, zj, 0.0);
  auto compiled = cache.GetOrCreate(logical, embedding_, graph_);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_EQ(cache.stats().bypasses, 1u);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST_F(EmbeddingCacheTest, ReweightedSamplesBitIdenticalAtAnyThreadCount) {
  EmbeddingCache cache;
  qubo::QuboProblem warmup = MakeLogical(kVars, 1, 100);
  qubo::QuboProblem request = MakeLogical(kVars, 1, 200);
  ASSERT_TRUE(cache.GetOrCreate(warmup, embedding_, graph_).ok());
  bool was_hit = false;
  auto cached = cache.GetOrCreate(request, embedding_, graph_, {}, &was_hit);
  ASSERT_TRUE(cached.ok());
  ASSERT_TRUE(was_hit);
  auto fresh = EmbeddedQubo::Create(request, embedding_, graph_);
  ASSERT_TRUE(fresh.ok());

  for (int threads : {1, 2, 4}) {
    anneal::DWaveOptions device;
    device.num_reads = 24;
    device.num_gauges = 2;
    device.sa_sweeps = 16;
    device.record_reads = true;
    device.seed = 99;
    device.num_threads = threads;
    auto from_fresh = anneal::DWaveSimulator(device).Sample(fresh->physical());
    auto from_cache =
        anneal::DWaveSimulator(device).Sample(cached->physical());
    ASSERT_TRUE(from_fresh.ok());
    ASSERT_TRUE(from_cache.ok());
    ASSERT_EQ(from_fresh->raw_reads.size(), from_cache->raw_reads.size());
    std::vector<uint8_t> bytes_fresh;
    std::vector<uint8_t> bytes_cache;
    for (int r = 0; r < from_fresh->raw_reads.size(); ++r) {
      from_fresh->raw_reads[r].CopyBytesTo(&bytes_fresh);
      from_cache->raw_reads[r].CopyBytesTo(&bytes_cache);
      ASSERT_EQ(bytes_fresh, bytes_cache)
          << "read " << r << " at " << threads << " threads";
    }
  }
}

TEST_F(EmbeddingCacheTest, ConcurrentAccessIsDeterministic) {
  EmbeddingCache cache;
  constexpr int kThreads = 8;
  constexpr int kIterations = 4;
  std::vector<Status> failures(kThreads, Status::OK());
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int it = 0; it < kIterations; ++it) {
        uint64_t weight_seed = 1000 + static_cast<uint64_t>(t * 100 + it);
        qubo::QuboProblem logical = MakeLogical(kVars, 1, weight_seed);
        auto compiled = cache.GetOrCreate(logical, embedding_, graph_);
        if (!compiled.ok()) {
          failures[static_cast<size_t>(t)] = compiled.status();
          return;
        }
        auto fresh = EmbeddedQubo::Create(logical, embedding_, graph_);
        if (!fresh.ok()) {
          failures[static_cast<size_t>(t)] = fresh.status();
          return;
        }
        // Same coefficients either way, no matter how the threads raced.
        if (compiled->physical().linear_terms() !=
                fresh->physical().linear_terms() ||
            compiled->physical().csr().weights !=
                fresh->physical().csr().weights) {
          failures[static_cast<size_t>(t)] =
              Status::Internal("cached compile diverged from fresh compile");
          return;
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(failures[static_cast<size_t>(t)].ok())
        << "thread " << t << ": " << failures[static_cast<size_t>(t)].ToString();
  }
  // One structure: every request after the first cold compile(s) hits.
  EmbeddingCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads * kIterations));
  EXPECT_GE(stats.hits, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST_F(EmbeddingCacheTest, EvictionRespectsTheBoundLruFirst) {
  EmbeddingCache::Options options;
  options.max_entries = 2;
  EmbeddingCache cache(options);
  qubo::QuboProblem a = MakeLogical(kVars, 1, 100);
  qubo::QuboProblem b = MakeLogical(kVars, 2, 100);
  qubo::QuboProblem c = MakeLogical(kVars, 3, 100);
  ASSERT_TRUE(cache.GetOrCreate(a, embedding_, graph_).ok());
  ASSERT_TRUE(cache.GetOrCreate(b, embedding_, graph_).ok());
  ASSERT_TRUE(cache.GetOrCreate(c, embedding_, graph_).ok());  // evicts a
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);

  bool was_hit = false;
  ASSERT_TRUE(cache.GetOrCreate(c, embedding_, graph_, {}, &was_hit).ok());
  EXPECT_TRUE(was_hit);  // c stayed
  ASSERT_TRUE(cache.GetOrCreate(a, embedding_, graph_, {}, &was_hit).ok());
  EXPECT_FALSE(was_hit);  // a was the LRU victim
  EXPECT_EQ(cache.stats().evictions, 2u);  // re-inserting a evicted b
  EXPECT_EQ(cache.size(), 2u);
}

TEST_F(EmbeddingCacheTest, ClearDropsEntriesKeepsCounters) {
  EmbeddingCache cache;
  qubo::QuboProblem logical = MakeLogical(kVars, 1, 100);
  ASSERT_TRUE(cache.GetOrCreate(logical, embedding_, graph_).ok());
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
  bool was_hit = true;
  ASSERT_TRUE(
      cache.GetOrCreate(logical, embedding_, graph_, {}, &was_hit).ok());
  EXPECT_FALSE(was_hit);
}

// --------------------------------------------------------------------
// Harness wiring
// --------------------------------------------------------------------

class CachedPipelineTest : public ::testing::Test {
 protected:
  CachedPipelineTest() : graph_(4, 4, 4) {
    Rng rng(11);
    harness::PaperWorkloadOptions workload;
    workload.plans_per_query = 2;
    workload.num_queries = 10;
    auto instance = harness::GeneratePaperInstance(graph_, workload, &rng);
    EXPECT_TRUE(instance.ok()) << instance.status().ToString();
    instance_ = *std::move(instance);
  }

  harness::QuantumMqoOptions SmallOptions() const {
    harness::QuantumMqoOptions options;
    options.device.num_reads = 24;
    options.device.num_gauges = 2;
    options.device.sa_sweeps = 16;
    options.device.seed = 21;
    return options;
  }

  ChimeraGraph graph_;
  harness::PaperInstance instance_{};
};

TEST_F(CachedPipelineTest, PipelineReportsHitAndMatchesUncachedAnswer) {
  auto uncached =
      harness::SolveQuantumMqo(instance_.problem, instance_.embedding,
                               graph_, SmallOptions());
  ASSERT_TRUE(uncached.ok()) << uncached.status().ToString();
  EXPECT_FALSE(uncached->embedding_cache_hit);

  EmbeddingCache cache;
  harness::QuantumMqoOptions options = SmallOptions();
  options.embedding_cache = &cache;
  auto cold = harness::SolveQuantumMqo(instance_.problem, instance_.embedding,
                                       graph_, options);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold->embedding_cache_hit);
  auto warm = harness::SolveQuantumMqo(instance_.problem, instance_.embedding,
                                       graph_, options);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->embedding_cache_hit);

  // Same seed, bit-identical physical problem: identical runs throughout.
  EXPECT_EQ(warm->best_cost, uncached->best_cost);
  EXPECT_EQ(warm->first_read_cost, uncached->first_read_cost);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST_F(CachedPipelineTest, ResilientRetriesReuseTheRequestLayout) {
  // Kill the first device programming cycle: attempt 1 compiles cold and
  // fails in the device, attempt 2 re-weights the cached layout and
  // answers. The caller-provided cache lets the test observe both.
  util::FaultInjector faults(1);
  util::FaultSpec fail_first;
  fail_first.fail_first = 1;
  faults.Arm("device.program", fail_first);

  harness::SolvePolicy policy;
  policy.seed = 5;
  policy.max_attempts_per_backend = 2;
  policy.faults = &faults;

  EmbeddingCache cache;
  harness::QuantumMqoOptions options = SmallOptions();
  options.embedding_cache = &cache;
  auto target = harness::MqoWorkload::Create(instance_.problem,
                                             instance_.embedding, &graph_);
  ASSERT_TRUE(target.ok()) << target.status().ToString();
  harness::SolveReport report =
      harness::ResilientSolver(policy).Solve(**target, options);
  ASSERT_TRUE(report.ok) << report.FailureChain();
  EXPECT_EQ(report.backend, harness::SolveBackend::kDevice);
  EXPECT_EQ(report.total_attempts, 2);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

}  // namespace
}  // namespace embedding
}  // namespace qmqo
