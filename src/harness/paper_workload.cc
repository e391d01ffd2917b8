#include "harness/paper_workload.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "embedding/capacity.h"
#include "embedding/clustered.h"

namespace qmqo {
namespace harness {

Result<PaperInstance> GeneratePaperInstance(
    const chimera::ChimeraGraph& graph, const PaperWorkloadOptions& options,
    Rng* rng) {
  const int l = options.plans_per_query;
  if (l < 2) {
    return Status::InvalidArgument("plans_per_query must be at least 2");
  }
  // A given count needs no capacity search: the embedders below return
  // ResourceExhausted when it does not fit.
  const int num_queries = options.num_queries > 0
                              ? options.num_queries
                              : embedding::MeasuredMaxQueries(graph, l);

  PaperInstance instance;
  instance.num_queries = num_queries;
  instance.plans_per_query = l;

  // Embedding: each query is one cluster (pair matching for l = 2).
  if (l == 2) {
    QMQO_ASSIGN_OR_RETURN(
        instance.embedding,
        embedding::PairMatchingEmbedder::Embed(num_queries, graph));
  } else {
    std::vector<int> cluster_sizes(static_cast<size_t>(num_queries), l);
    QMQO_ASSIGN_OR_RETURN(
        instance.embedding,
        embedding::ClusteredEmbedder::Embed(cluster_sizes, graph));
  }

  // Queries with uniform integral plan costs.
  for (int q = 0; q < num_queries; ++q) {
    std::vector<double> costs;
    costs.reserve(static_cast<size_t>(l));
    for (int k = 0; k < l; ++k) {
      costs.push_back(
          std::round(rng->UniformReal(options.cost_min, options.cost_max)));
    }
    instance.problem.AddQuery(std::move(costs));
  }

  // Savings on available cross-chain couplers between different queries.
  // Variable v is plan v of query v / l (cluster-major numbering).
  std::set<std::pair<int, int>> linked;
  for (const embedding::ChainCoupler& coupler :
       embedding::CrossChainCouplers(instance.embedding, graph)) {
    int qa = coupler.var_a / l;
    int qb = coupler.var_b / l;
    if (qa == qb) continue;  // intra-query coupler: used by the E_M term
    auto key = std::make_pair(coupler.var_a, coupler.var_b);
    if (!linked.insert(key).second) continue;  // several couplers, one link
    if (!rng->Bernoulli(options.saving_probability)) continue;
    double value =
        options.saving_scale * static_cast<double>(rng->UniformInt(1, 2));
    QMQO_RETURN_IF_ERROR(
        instance.problem.AddSaving(coupler.var_a, coupler.var_b, value));
  }
  QMQO_RETURN_IF_ERROR(instance.problem.Validate());
  return instance;
}

}  // namespace harness
}  // namespace qmqo
