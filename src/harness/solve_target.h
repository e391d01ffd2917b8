#ifndef QMQO_HARNESS_SOLVE_TARGET_H_
#define QMQO_HARNESS_SOLVE_TARGET_H_

/// \file solve_target.h
/// The ladder contract: what `ResilientSolver::Solve` needs of a payload.
///
/// A target is a QUBO plus three hooks. The classical rungs sample
/// `qubo()`, `Refine` turns the best read into an answer, and the greedy
/// last resort refines `GreedySeed()`. The device rung runs only on a
/// target with a `DeviceHint`. The defaults suit a bare QUBO (the graph
/// workloads); `MqoWorkload` overrides all three.

#include <cstdint>
#include <vector>

#include "chimera/topology.h"
#include "embedding/embedding.h"
#include "mapping/logical_mapping.h"
#include "qubo/qubo.h"

namespace qmqo {
namespace harness {

/// The device rung's input: an MQO problem through its logical mapping
/// (`mapping->problem()`), the chain of every plan variable, and the chip.
/// Never owned; the target keeps all three alive.
struct DeviceHint {
  const mapping::LogicalMapping* mapping = nullptr;
  const embedding::Embedding* embedding = nullptr;
  const chimera::ChimeraGraph* graph = nullptr;
};

/// A payload of the degradation ladder. Implementations are immutable and
/// safe to share across threads.
class SolveTarget {
 public:
  virtual ~SolveTarget() = default;

  /// The QUBO the classical rungs sample (minimization).
  virtual const qubo::QuboProblem& qubo() const = 0;

  /// The device rung's input, or null when the device cannot run (the
  /// ladder then records a typed `Unimplemented` gate skip). Default: null.
  virtual const DeviceHint* device_hint() const { return nullptr; }

  /// Refines a read of `qubo()` in place into an answer and returns its
  /// cost. Default: deterministic best-improvement single-flip descent
  /// (lowest variable id on ties), then the exact energy. Energy strictly
  /// decreases over a finite state space, so the descent terminates.
  virtual double Refine(std::vector<uint8_t>* x) const {
    const qubo::QuboProblem& problem = qubo();
    x->resize(static_cast<size_t>(problem.num_vars()), 0);
    for (uint8_t& bit : *x) bit = bit ? 1 : 0;
    for (;;) {
      int best_var = -1;
      double best_delta = -1e-12;
      for (int i = 0; i < problem.num_vars(); ++i) {
        const double delta = problem.FlipDelta(*x, i);
        if (delta < best_delta) {
          best_delta = delta;
          best_var = i;
        }
      }
      if (best_var < 0) break;
      (*x)[static_cast<size_t>(best_var)] ^= 1;
    }
    return problem.Energy(*x);
  }

  /// The greedy last resort's starting read. Default: all zeros.
  virtual std::vector<uint8_t> GreedySeed() const {
    return std::vector<uint8_t>(static_cast<size_t>(qubo().num_vars()), 0);
  }
};

}  // namespace harness
}  // namespace qmqo

#endif  // QMQO_HARNESS_SOLVE_TARGET_H_
