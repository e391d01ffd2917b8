// Embedding-pipeline benchmark: the physical-mapping compile on a
// paper-shape clustered workload (3 plans/query on the defective D-Wave 2X
// chip — the 759-variable class of Table 1).
//
// Two paths are timed over the same set of re-weighted logical QUBOs:
//   * uncached: EmbeddedQubo::Create on the CSR pipeline — the compile
//               every device attempt pays,
//   * legacy:   a verbatim replica of the seed's map-based compile
//               (per-qubit adjacency vectors, per-term double-scan coupler
//               placement in both verification and compilation).
//
// The benchmark *fails* (exit 1) unless the legacy compile is bit-identical
// to the CSR compile on every variant. Results go to BENCH_embedding.json
// (uncached/legacy ms, CSR-vs-map speedup), whose gates require
// csr_vs_map_speedup >= 1x and the parity flag.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "chimera/topology.h"
#include "embedding/embedded_qubo.h"
#include "embedding/embedding.h"
#include "harness/paper_workload.h"
#include "mapping/logical_mapping.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace {

using namespace qmqo;
using chimera::ChimeraGraph;
using chimera::QubitId;

// ----------------------------------------------------------------------
// The seed's map-based cold path, replicated verbatim for comparison:
// per-qubit adjacency vectors (the pre-CSR topology layout), per-term
// double-scan coupler placement run twice (once inside VerifyForProblem,
// once in the compile), hash-map accumulation throughout. Same arithmetic
// order as the CSR pipeline, so the physical problem must be
// bit-identical — only the walk order of memory (and the wall time)
// differs.
// ----------------------------------------------------------------------

struct LegacyAdjacency {
  std::vector<std::vector<QubitId>> rows;

  explicit LegacyAdjacency(const ChimeraGraph& graph) {
    rows.resize(static_cast<size_t>(graph.num_qubits()));
    for (QubitId q = 0; q < graph.num_qubits(); ++q) {
      for (QubitId n : graph.Neighbors(q)) {
        rows[static_cast<size_t>(q)].push_back(n);
      }
    }
  }

  bool CouplerUsable(const ChimeraGraph& graph, QubitId a, QubitId b) const {
    const auto& row = rows[static_cast<size_t>(a)];
    return std::binary_search(row.begin(), row.end(), b) &&
           graph.IsWorking(a) && graph.IsWorking(b);
  }
};

Status LegacyVerifyForProblem(const embedding::Embedding& emb,
                              const ChimeraGraph& graph,
                              const LegacyAdjacency& adj,
                              const qubo::QuboProblem& logical) {
  // VerifyStructure, seed edition: ownership scan + BFS with a linear
  // `seen` membership test per chain.
  std::vector<int> owner(static_cast<size_t>(graph.num_qubits()), -1);
  for (int var = 0; var < emb.num_vars(); ++var) {
    const embedding::Chain& chain = emb.chain(var);
    if (chain.qubits.empty()) {
      return Status::FailedPrecondition("empty chain");
    }
    for (QubitId q : chain.qubits) {
      if (q < 0 || q >= graph.num_qubits()) return Status::OutOfRange("qubit");
      if (graph.IsBroken(q)) return Status::FailedPrecondition("broken");
      if (owner[static_cast<size_t>(q)] != -1) {
        return Status::FailedPrecondition("overlap");
      }
      owner[static_cast<size_t>(q)] = var;
    }
    std::deque<QubitId> frontier{chain.qubits.front()};
    std::vector<QubitId> seen{chain.qubits.front()};
    while (!frontier.empty()) {
      QubitId q = frontier.front();
      frontier.pop_front();
      for (QubitId n : adj.rows[static_cast<size_t>(q)]) {
        if (owner[static_cast<size_t>(n)] != var) continue;
        if (graph.IsBroken(n)) continue;
        if (std::find(seen.begin(), seen.end(), n) != seen.end()) continue;
        seen.push_back(n);
        frontier.push_back(n);
      }
    }
    if (static_cast<int>(seen.size()) != chain.size()) {
      return Status::FailedPrecondition("disconnected chain");
    }
  }
  // Per-term double scan: first usable coupler between the two chains.
  for (const qubo::Interaction& term : logical.interactions()) {
    if (term.weight == 0.0) continue;
    bool found = false;
    for (QubitId qa : emb.chain(term.i).qubits) {
      for (QubitId n : adj.rows[static_cast<size_t>(qa)]) {
        if (owner[static_cast<size_t>(n)] == term.j &&
            adj.CouplerUsable(graph, qa, n)) {
          found = true;
          break;
        }
      }
      if (found) break;
    }
    if (!found) return Status::FailedPrecondition("no usable coupler");
  }
  return Status::OK();
}

/// The seed's EmbeddedQubo::Create body, producing the physical problem
/// (chain bookkeeping omitted — the parity check is on the energy formula).
Result<qubo::QuboProblem> LegacyCompile(const qubo::QuboProblem& logical,
                                        const embedding::Embedding& emb,
                                        const ChimeraGraph& graph,
                                        const LegacyAdjacency& adj) {
  const double epsilon = 0.25;
  const double chain_strength_scale = 1.0;
  QMQO_RETURN_IF_ERROR(LegacyVerifyForProblem(emb, graph, adj, logical));

  const int num_vars = logical.num_vars();
  std::vector<QubitId> used;
  for (int var = 0; var < num_vars; ++var) {
    const embedding::Chain& chain = emb.chain(var);
    used.insert(used.end(), chain.qubits.begin(), chain.qubits.end());
  }
  std::sort(used.begin(), used.end());
  std::vector<int> compact_index(static_cast<size_t>(graph.num_qubits()), -1);
  for (size_t i = 0; i < used.size(); ++i) {
    compact_index[static_cast<size_t>(used[i])] = static_cast<int>(i);
  }
  auto compact_of = [&](QubitId q) {
    return compact_index[static_cast<size_t>(q)];
  };

  qubo::QuboProblem physical(static_cast<int>(used.size()));
  std::vector<std::vector<int>> chains(static_cast<size_t>(num_vars));
  for (int var = 0; var < num_vars; ++var) {
    for (QubitId q : emb.chain(var).qubits) {
      chains[static_cast<size_t>(var)].push_back(compact_of(q));
    }
  }
  std::vector<int> owner = emb.QubitToVar(graph);

  // Step 1: distribute linear weights over chains.
  for (int var = 0; var < num_vars; ++var) {
    double w = logical.linear(var);
    const auto& members = chains[static_cast<size_t>(var)];
    if (w == 0.0) continue;
    double share = w / static_cast<double>(members.size());
    for (int member : members) physical.AddLinear(member, share);
  }

  // Step 2: per-term double scan again, placing into the hash map.
  for (const qubo::Interaction& term : logical.interactions()) {
    if (term.weight == 0.0) continue;
    bool placed = false;
    for (QubitId qa : emb.chain(term.i).qubits) {
      for (QubitId n : adj.rows[static_cast<size_t>(qa)]) {
        if (owner[static_cast<size_t>(n)] != term.j) continue;
        if (!adj.CouplerUsable(graph, qa, n)) continue;
        physical.AddQuadratic(compact_of(qa), compact_of(n), term.weight);
        placed = true;
        break;
      }
      if (placed) break;
    }
    if (!placed) return Status::Internal("placement diverged");
  }

  // Choi chain strengths (forces a mid-build finalize, as the seed did).
  std::vector<double> strength(static_cast<size_t>(num_vars), 0.0);
  for (int var = 0; var < num_vars; ++var) {
    const auto& members = chains[static_cast<size_t>(var)];
    double sum_up = 0.0;
    double sum_down = 0.0;
    for (int member : members) {
      double v = physical.linear(member);
      double pos = 0.0;
      double neg = 0.0;
      for (const auto& [other, w] : physical.neighbors(member)) {
        (void)other;
        if (w > 0.0) {
          pos += w;
        } else {
          neg += -w;
        }
      }
      sum_up += std::max(0.0, v + pos);
      sum_down += std::max(0.0, -v + neg);
    }
    double u = std::min(sum_up, sum_down);
    strength[static_cast<size_t>(var)] =
        std::max(epsilon, chain_strength_scale * u + epsilon);
  }

  // Step 3: equality gadgets over BFS spanning trees.
  for (int var = 0; var < num_vars; ++var) {
    const embedding::Chain& chain = emb.chain(var);
    if (chain.size() <= 1) continue;
    double s = strength[static_cast<size_t>(var)];
    std::vector<uint8_t> visited(chain.qubits.size(), 0);
    std::deque<size_t> frontier{0};
    visited[0] = 1;
    int edges = 0;
    while (!frontier.empty()) {
      size_t at = frontier.front();
      frontier.pop_front();
      QubitId qa = chain.qubits[at];
      for (size_t next = 0; next < chain.qubits.size(); ++next) {
        if (visited[next]) continue;
        QubitId qb = chain.qubits[next];
        if (!adj.CouplerUsable(graph, qa, qb)) continue;
        visited[next] = 1;
        frontier.push_back(next);
        physical.AddLinear(compact_of(qa), s);
        physical.AddLinear(compact_of(qb), s);
        physical.AddQuadratic(compact_of(qa), compact_of(qb), -2.0 * s);
        ++edges;
      }
    }
    if (edges != chain.size() - 1) return Status::Internal("tree diverged");
  }
  physical.Finalize();
  return physical;
}

bool IdenticalProblems(const qubo::QuboProblem& a, const qubo::QuboProblem& b) {
  if (a.num_vars() != b.num_vars()) return false;
  if (a.linear_terms() != b.linear_terms()) return false;
  const auto& ta = a.interactions();
  const auto& tb = b.interactions();
  if (ta.size() != tb.size()) return false;
  for (size_t t = 0; t < ta.size(); ++t) {
    if (ta[t].i != tb[t].i || ta[t].j != tb[t].j ||
        ta[t].weight != tb[t].weight) {
      return false;
    }
  }
  return a.csr().weights == b.csr().weights;
}

/// A re-weighted copy of `base`: same interaction pattern, coefficients
/// scaled by per-term factors in [0.5, 1.5] (never zero), fresh linears.
qubo::QuboProblem ReweightedVariant(const qubo::QuboProblem& base,
                                    uint64_t seed) {
  Rng rng(seed);
  qubo::QuboProblem out(base.num_vars());
  for (int i = 0; i < base.num_vars(); ++i) {
    out.AddLinear(i, rng.UniformReal(-10.0, 10.0));
  }
  for (const qubo::Interaction& term : base.interactions()) {
    double w = term.weight == 0.0 ? 1.0 : term.weight;
    out.AddQuadratic(term.i, term.j, w * rng.UniformReal(0.5, 1.5));
  }
  out.Finalize();
  return out;
}

}  // namespace

qmqo::Status qmqo::bench::RunEmbedding() {
  const bool full = bench::FullScale();

  // The paper's 3-plan class on the defective D-Wave 2X: 253 queries,
  // 759 logical variables (Table 1), clamped to what this defect map
  // hosts. The default run scales the query count down so the bench stays
  // fast.
  Rng defects(7);
  ChimeraGraph graph = ChimeraGraph::DWave2XWithDefects(&defects);
  harness::PaperWorkloadOptions workload;
  workload.plans_per_query = 3;
  workload.num_queries = full ? bench::ClampQueries(graph, {3, 253}) : 100;
  Rng workload_rng(11);
  auto instance = harness::GeneratePaperInstance(graph, workload,
                                                 &workload_rng);
  QMQO_RETURN_IF_ERROR(instance.status());
  auto mapping = mapping::LogicalMapping::Create(instance->problem);
  QMQO_RETURN_IF_ERROR(mapping.status());
  const qubo::QuboProblem& base = mapping->qubo();
  base.Finalize();
  std::printf("instance: %d plans over %d queries -> QUBO(%d vars, %d "
              "interactions)\n",
              instance->problem.num_plans(), instance->num_queries,
              base.num_vars(), base.num_interactions());

  // Pre-built re-weighted requests (outside every timed loop: building the
  // logical problem is the caller's cost, not the embedder's).
  const int kVariants = 8;
  std::vector<qubo::QuboProblem> variants;
  variants.reserve(kVariants);
  for (int v = 0; v < kVariants; ++v) {
    variants.push_back(ReweightedVariant(base, 100 + static_cast<uint64_t>(v)));
  }

  const int repeats = full ? 24 : 8;

  // --- CSR compiles. One untimed warm-up touches all the instance memory
  // first. ---
  int physical_qubits = 0;
  {
    auto warmup = embedding::EmbeddedQubo::Create(variants[0],
                                                  instance->embedding, graph);
    QMQO_RETURN_IF_ERROR(warmup.status());
    physical_qubits = warmup->num_physical_vars();
  }
  Stopwatch uncached_clock;
  for (int r = 0; r < repeats; ++r) {
    auto compiled = embedding::EmbeddedQubo::Create(
        variants[static_cast<size_t>(r % kVariants)], instance->embedding,
        graph);
    QMQO_RETURN_IF_ERROR(compiled.status());
  }
  const double uncached_ms = uncached_clock.ElapsedMillis() / repeats;

  // --- Legacy map-based compiles (the seed's algorithm). ---
  LegacyAdjacency adj(graph);
  {
    auto warmup = LegacyCompile(variants[0], instance->embedding, graph, adj);
    QMQO_RETURN_IF_ERROR(warmup.status());
  }
  Stopwatch legacy_clock;
  for (int r = 0; r < repeats; ++r) {
    auto compiled = LegacyCompile(variants[static_cast<size_t>(r % kVariants)],
                                  instance->embedding, graph, adj);
    QMQO_RETURN_IF_ERROR(compiled.status());
  }
  const double legacy_ms = legacy_clock.ElapsedMillis() / repeats;

  // --- Bit-parity of both paths on every variant. ---
  bool embedding_identical = true;
  for (int v = 0; v < kVariants; ++v) {
    const qubo::QuboProblem& request = variants[static_cast<size_t>(v)];
    auto fresh =
        embedding::EmbeddedQubo::Create(request, instance->embedding, graph);
    auto legacy = LegacyCompile(request, instance->embedding, graph, adj);
    if (!fresh.ok() || !legacy.ok()) {
      return Status::Internal(
          StrFormat("parity compile failed on variant %d", v));
    }
    if (!IdenticalProblems(fresh->physical(), *legacy)) {
      embedding_identical = false;
    }
  }

  const double csr_vs_map_speedup =
      uncached_ms > 0.0 ? legacy_ms / uncached_ms : 0.0;

  std::printf("uncached CSR compile: %9.3f ms\n", uncached_ms);
  std::printf("legacy map compile:   %9.3f ms  (CSR %.2fx vs map)\n",
              legacy_ms, csr_vs_map_speedup);
  std::printf("parity: legacy %s\n",
              embedding_identical ? "identical" : "MISMATCH");

  bench::JsonArray rows;
  const std::pair<const char*, double> timed_paths[] = {
      {"embed_uncached", uncached_ms}, {"embed_legacy_cold", legacy_ms}};
  for (const auto& [engine, wall_ms] : timed_paths) {
    bench::JsonObject row;
    row.Add("engine", engine)
        .Add("threads", 1)
        .Add("wall_ms", wall_ms)
        .Add("embeds_per_sec", wall_ms > 0.0 ? 1000.0 / wall_ms : 0.0);
    rows.Add(row);
  }

  bench::JsonObject root;
  root.Add("bench", "embedding")
      .Add("full_scale", full)
      .Add("topology", "dwave2x_55_defects")
      .Add("logical_vars", base.num_vars())
      .Add("logical_interactions", base.num_interactions())
      .Add("physical_qubits", physical_qubits)
      .Add("uncached_embed_ms", uncached_ms)
      .Add("legacy_cold_embed_ms", legacy_ms)
      .Add("csr_vs_map_speedup", csr_vs_map_speedup)
      .Add("embedding_identical", embedding_identical)
      .AddRaw("runs", rows.Dump());
  bench::Gates gates;
  gates.metric = "embeds_per_sec";
  gates.floors = {{"csr_vs_map_speedup", 1.0}};
  gates.flags = {"embedding_identical"};
  QMQO_RETURN_IF_ERROR(bench::WriteBenchArtifact("embedding", root, gates));
  if (!embedding_identical) {
    return Status::Internal("legacy compile diverged from the CSR compile");
  }
  return Status::OK();
}
