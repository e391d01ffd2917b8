// Microbenchmarks for the preprocessing pipeline (Section 6 of the paper):
// logical mapping, embedding construction, and physical mapping. The paper
// reports 112-135 ms of (unoptimized) preprocessing per 537-query test
// case; these benchmarks measure our implementation and verify the
// O(n * (m*l)^2) growth empirically.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "chimera/topology.h"
#include "embedding/clustered.h"
#include "embedding/embedded_qubo.h"
#include "embedding/triad.h"
#include "harness/paper_workload.h"
#include "mapping/logical_mapping.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace {

using namespace qmqo;

/// Builds the chip + instance pair used by the mapping benchmarks.
harness::PaperInstance MakeInstance(int plans_per_query, int num_queries,
                                    chimera::ChimeraGraph* graph) {
  Rng chip_rng(1);
  *graph = chimera::ChimeraGraph::DWave2XWithDefects(&chip_rng);
  harness::PaperWorkloadOptions options;
  options.plans_per_query = plans_per_query;
  options.num_queries = num_queries;
  Rng rng(7);
  auto instance = harness::GeneratePaperInstance(*graph, options, &rng);
  if (!instance.ok()) std::abort();
  return std::move(*instance);
}

/// Times `body` (a callable returning Status) in a plain loop: one
/// untimed warm-up call, then calls until kMinTimeMs of wall time has
/// passed. Prints the mean wall time per call, one line per case.
template <typename Body>
Status TimeCase(const std::string& name, const std::string& label,
                const Body& body) {
  constexpr double kMinTimeMs = 500.0;
  QMQO_RETURN_IF_ERROR(body());
  int64_t iterations = 0;
  Stopwatch clock;
  do {
    QMQO_RETURN_IF_ERROR(body());
    ++iterations;
  } while (clock.ElapsedMillis() < kMinTimeMs);
  const double ns_per_call =
      clock.ElapsedMillis() * 1e6 / static_cast<double>(iterations);
  std::printf("%-32s %14.0f ns %10lld iterations%s%s\n", name.c_str(),
              ns_per_call, static_cast<long long>(iterations),
              label.empty() ? "" : "  ", label.c_str());
  return Status::OK();
}

}  // namespace

qmqo::Status qmqo::bench::RunMapping() {
  for (int queries : {64, 128, 256, 512}) {
    chimera::ChimeraGraph graph(1, 1, 4);
    harness::PaperInstance instance = MakeInstance(2, queries, &graph);
    QMQO_RETURN_IF_ERROR(TimeCase(
        "LogicalMapping/" + std::to_string(queries),
        "queries=" + std::to_string(queries), [&] {
          return mapping::LogicalMapping::Create(instance.problem).status();
        }));
  }
  for (int queries : {64, 128, 256, 512}) {
    chimera::ChimeraGraph graph(1, 1, 4);
    harness::PaperInstance instance = MakeInstance(2, queries, &graph);
    auto mapping = mapping::LogicalMapping::Create(instance.problem);
    QMQO_RETURN_IF_ERROR(mapping.status());
    QMQO_RETURN_IF_ERROR(TimeCase(
        "PhysicalMapping/" + std::to_string(queries),
        "queries=" + std::to_string(queries), [&] {
          return embedding::EmbeddedQubo::Create(mapping->qubo(),
                                                 instance.embedding, graph)
              .status();
        }));
  }
  {
    // The paper's "preprocessing time" quantity: logical + physical
    // mapping for a full 537-query class instance (theirs: 112-135 ms).
    chimera::ChimeraGraph graph(1, 1, 4);
    harness::PaperInstance instance = MakeInstance(2, 512, &graph);
    QMQO_RETURN_IF_ERROR(
        TimeCase("EndToEndPreprocessing/512", "queries=512", [&]() -> Status {
          auto mapping = mapping::LogicalMapping::Create(instance.problem);
          QMQO_RETURN_IF_ERROR(mapping.status());
          return embedding::EmbeddedQubo::Create(mapping->qubo(),
                                                 instance.embedding, graph)
              .status();
        }));
  }
  // TRIAD construction for K_n: Theorem 3's Theta(n^2/L) qubit growth.
  const chimera::ChimeraGraph intact = chimera::ChimeraGraph::DWave2X();
  for (int n : {8, 16, 32, 48}) {
    auto embedding = embedding::TriadEmbedder::Embed(n, intact);
    QMQO_RETURN_IF_ERROR(embedding.status());
    QMQO_RETURN_IF_ERROR(TimeCase(
        "TriadEmbedding/" + std::to_string(n),
        "qubits=" + std::to_string(embedding->TotalQubits()),
        [&] { return embedding::TriadEmbedder::Embed(n, intact).status(); }));
  }
  // Clustered embedding scales linearly in the cluster count (Theorem 3).
  for (int clusters : {16, 64, 144}) {
    std::vector<int> sizes(static_cast<size_t>(clusters), 4);
    QMQO_RETURN_IF_ERROR(
        TimeCase("ClusteredEmbedding/" + std::to_string(clusters), "", [&] {
          return embedding::ClusteredEmbedder::Embed(sizes, intact).status();
        }));
  }
  Rng rng(1);
  const chimera::ChimeraGraph defective =
      chimera::ChimeraGraph::DWave2XWithDefects(&rng);
  return TimeCase("PairMatching", "", [&] {
    return embedding::PairMatchingEmbedder::MatchPairs(defective).empty()
               ? Status::Internal("no matchable qubit pairs")
               : Status::OK();
  });
}
