#ifndef QMQO_HARNESS_PAPER_WORKLOAD_H_
#define QMQO_HARNESS_PAPER_WORKLOAD_H_

/// \file paper_workload.h
/// The paper's experimental workload (Section 7.1): "test cases that map
/// well to the quantum annealer".
///
/// Each query forms its own cluster with l alternative plans. The number of
/// queries per class is the maximum the (defective) chip can host:
/// 537/253/140/108 for l = 2/3/4/5 in the paper. Plan costs are integral
/// and uniform; cost savings are drawn uniformly from {1, 2} scaled by a
/// constant, and are placed exactly on plan pairs whose chains share a
/// working coupler — the co-design that makes the instances embeddable
/// without wasted qubits.

#include "chimera/topology.h"
#include "embedding/embedding.h"
#include "mqo/problem.h"
#include "util/rng.h"
#include "util/status.h"

namespace qmqo {
namespace harness {

/// Options for `GeneratePaperInstance`.
struct PaperWorkloadOptions {
  int plans_per_query = 2;
  /// -1: use the chip's measured capacity (the paper's setup).
  int num_queries = -1;
  /// Plan costs uniform integral in [cost_min, cost_max]. The paper does
  /// not state its cost distribution; uniform [10, 50] is an assumption of
  /// this reproduction. Only the ratio to the savings below matters for
  /// how frustrated the instances are.
  double cost_min = 10.0;
  double cost_max = 50.0;
  /// Savings are uniform from {1, 2} times this scale (paper: "chosen with
  /// uniform distribution from {1,2} (scaled by a constant)"). The default
  /// of 1.0 is calibrated so the reproduction matches the paper's in-text
  /// statistics (QA first-read gap ~1.5%, LIN-MQO proof times feasible);
  /// larger scales make sharing dominate plan costs and the instances far
  /// more frustrated than anything the paper's Table 1 is consistent with.
  double saving_scale = 1.0;
  /// Probability of actually materializing a saving on an available
  /// cross-chain coupler (1.0 = all available couplers carry sharing).
  double saving_probability = 1.0;
};

/// A generated instance together with its (pre-computed) embedding: plan
/// variable p of the logical mapping is represented by `embedding.chain(p)`.
struct PaperInstance {
  mqo::MqoProblem problem;
  embedding::Embedding embedding{0};
  int num_queries = 0;
  int plans_per_query = 0;
};

/// Generates one instance on `graph`. Fails when the requested query count
/// exceeds the chip capacity.
Result<PaperInstance> GeneratePaperInstance(
    const chimera::ChimeraGraph& graph, const PaperWorkloadOptions& options,
    Rng* rng);

}  // namespace harness
}  // namespace qmqo

#endif  // QMQO_HARNESS_PAPER_WORKLOAD_H_
