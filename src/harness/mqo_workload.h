#ifndef QMQO_HARNESS_MQO_WORKLOAD_H_
#define QMQO_HARNESS_MQO_WORKLOAD_H_

/// \file mqo_workload.h
/// The paper's MQO problem as a ladder target: one QUBO formulation
/// (Section 4) carrying the chip layout of its plan variables as a device
/// hint (Section 5).
///
/// Built from the existing parts: `LogicalMapping` supplies the QUBO and
/// its inverse; the embedding (the caller's, or the `ClusteredEmbedder`
/// layout) is the hint; a read is refined by repair to one plan per query,
/// plan-swap descent, and the exact MQO cost; the greedy baseline seeds
/// the last resort. Answers are plan-variable assignments; `Decode` turns
/// one back into a plan selection.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "chimera/topology.h"
#include "embedding/embedding.h"
#include "harness/solve_target.h"
#include "mapping/logical_mapping.h"
#include "mqo/problem.h"
#include "mqo/solution.h"
#include "util/status.h"

namespace qmqo {
namespace harness {

/// An MQO instance formulated once for the ladder. It owns the problem,
/// the mapping that refers to it, and the embedding at stable addresses,
/// so it lives behind a shared pointer and is never copied.
class MqoWorkload final : public SolveTarget {
 public:
  /// Formulates `problem` with a caller-provided embedding that places
  /// plan variable p on `embedding.chain(p)` of `*graph` (the paper
  /// workload generator produces both together). The target gets a device
  /// hint only when `graph` is set and the embedding covers every plan.
  /// The QUBO is the default `LogicalMapping` (the paper's penalty
  /// weights). `graph` must outlive the target. Fails on invalid problems.
  static Result<std::shared_ptr<const MqoWorkload>> Create(
      mqo::MqoProblem problem, embedding::Embedding embedding,
      const chimera::ChimeraGraph* graph);

  /// `Create` with the embedding derived from the cluster structure by
  /// `ClusteredEmbedder`, the construction the paper workload uses, so a
  /// round-tripped instance gets a bit-identical layout. When no layout
  /// fits, the target has no device hint.
  static Result<std::shared_ptr<const MqoWorkload>> CreateClustered(
      mqo::MqoProblem problem, const chimera::ChimeraGraph* graph);

  MqoWorkload(const MqoWorkload&) = delete;
  MqoWorkload& operator=(const MqoWorkload&) = delete;

  const qubo::QuboProblem& qubo() const override { return mapping_->qubo(); }
  const DeviceHint* device_hint() const override {
    return hint_.has_value() ? &*hint_ : nullptr;
  }
  /// Repair to one plan per query, plan-swap descent, then the MQO cost.
  double Refine(std::vector<uint8_t>* x) const override;
  /// The greedy baseline's plan selection.
  std::vector<uint8_t> GreedySeed() const override;

  /// The plan selection an assignment encodes (repaired when invalid).
  mqo::MqoSolution Decode(const std::vector<uint8_t>& x) const;

 private:
  MqoWorkload(mqo::MqoProblem problem, embedding::Embedding embedding)
      : problem_(std::move(problem)), embedding_(std::move(embedding)) {}

  mqo::MqoProblem problem_;
  embedding::Embedding embedding_;
  std::optional<mapping::LogicalMapping> mapping_;
  std::optional<DeviceHint> hint_;
};

}  // namespace harness
}  // namespace qmqo

#endif  // QMQO_HARNESS_MQO_WORKLOAD_H_
