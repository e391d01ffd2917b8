#include "harness/mqo_workload.h"

#include <utility>

#include "baselines/greedy.h"
#include "embedding/clustered.h"

namespace qmqo {
namespace harness {

Result<std::shared_ptr<const MqoWorkload>> MqoWorkload::Create(
    mqo::MqoProblem problem, embedding::Embedding embedding,
    const chimera::ChimeraGraph* graph) {
  std::shared_ptr<MqoWorkload> target(
      new MqoWorkload(std::move(problem), std::move(embedding)));
  Result<mapping::LogicalMapping> logical =
      mapping::LogicalMapping::Create(target->problem_);
  if (!logical.ok()) return logical.status();
  target->mapping_.emplace(std::move(logical).value());
  target->mapping_->qubo().Finalize();  // shared read-only by samplers
  if (graph != nullptr &&
      target->embedding_.num_vars() == target->problem_.num_plans()) {
    target->hint_ = DeviceHint{&*target->mapping_, &target->embedding_, graph};
  }
  return std::shared_ptr<const MqoWorkload>(std::move(target));
}

Result<std::shared_ptr<const MqoWorkload>> MqoWorkload::CreateClustered(
    mqo::MqoProblem problem, const chimera::ChimeraGraph* graph) {
  embedding::Embedding embedding(0);
  if (graph != nullptr && problem.num_queries() > 0) {
    std::vector<int> cluster_sizes(static_cast<size_t>(problem.num_queries()));
    for (int q = 0; q < problem.num_queries(); ++q) {
      cluster_sizes[static_cast<size_t>(q)] = problem.num_plans_of(q);
    }
    Result<embedding::Embedding> embedded =
        embedding::ClusteredEmbedder::Embed(cluster_sizes, *graph);
    if (embedded.ok()) embedding = std::move(embedded).value();
  }
  return Create(std::move(problem), std::move(embedding), graph);
}

double MqoWorkload::Refine(std::vector<uint8_t>* x) const {
  mqo::MqoSolution solution = mapping_->RepairedSolution(*x);
  mqo::SwapDescent(problem_, &solution);
  *x = mapping_->FromMqoSolution(solution);
  return mqo::EvaluateCost(problem_, solution);
}

std::vector<uint8_t> MqoWorkload::GreedySeed() const {
  return mapping_->FromMqoSolution(
      baselines::GreedySolver::Construct(problem_));
}

mqo::MqoSolution MqoWorkload::Decode(const std::vector<uint8_t>& x) const {
  return mapping_->RepairedSolution(x);
}

}  // namespace harness
}  // namespace qmqo
