#ifndef QMQO_EMBEDDING_EMBEDDED_QUBO_H_
#define QMQO_EMBEDDING_EMBEDDED_QUBO_H_

/// \file embedded_qubo.h
/// The physical mapping (Section 5): compiling a logical QUBO plus an
/// embedding into the *physical* energy formula the annealer actually
/// minimizes.
///
/// Construction follows the paper's three steps:
///  1. each logical linear weight w_i is split evenly (w_i / |B|) over the
///     chain B representing variable i;
///  2. each logical quadratic weight w_ij is placed on one usable coupler
///     joining the two chains;
///  3. every intra-chain (spanning-tree) coupler receives the ferromagnetic
///     equality gadget  w_B * (b1 + b2 − 2 b1 b2),  which is 0 for equal
///     values and w_B for a "broken" chain.
///
/// The chain strength w_B is set per chain with Choi's parameter-setting
/// bound: with U_{0->1}(b) = v + sum_i max(v_i, 0) (and the analogue for
/// 1->0) over the qubit weight v and couplings v_i leaving the chain,
///   U = min( sum_b U_{1->0}(b),  sum_b U_{0->1}(b) ),  w_B = U + epsilon,
/// which guarantees that the physical ground state has consistent chains.
///
/// For any chain-consistent physical assignment, the physical energy equals
/// the logical energy exactly; tests verify both properties exhaustively on
/// small instances.
///
/// Physical variables use a *compact* index space covering only the qubits
/// actually used by chains, so annealing never wastes sweeps on idle qubits;
/// `qubit_of` / `compact_of` translate to hardware ids.

#include <vector>

#include "chimera/topology.h"
#include "embedding/embedding.h"
#include "qubo/qubo.h"
#include "util/status.h"

namespace qmqo {
namespace util {
class FaultInjector;
}  // namespace util

namespace embedding {

/// Tunables of the physical mapping.
struct EmbeddedQuboOptions {
  /// Slack above the chain-strength lower bound (paper: 0.25).
  double epsilon = 0.25;
  /// Multiplies the Choi bound; 1.0 is the paper setting. Values < 1 weaken
  /// chains (ablation: broken chains), large values blunt the energy signal.
  double chain_strength_scale = 1.0;
  /// Fault injection (never owned; null = no faults). Site
  /// "embed.compile" (key: `fault_key`) fails `Create` with a typed error —
  /// the hook the chaos suite uses to exercise preprocessing failures.
  const util::FaultInjector* faults = nullptr;
  /// Key passed to the "embed.compile" site; orchestrators set it to the
  /// attempt number so fail-first-N schedules apply across retries.
  uint64_t fault_key = 0;
};

/// A compiled physical QUBO with chain bookkeeping.
class EmbeddedQubo {
 public:
  /// Compiles `logical` onto the hardware through `embedding`. Fails when
  /// the embedding does not support the problem.
  static Result<EmbeddedQubo> Create(
      const qubo::QuboProblem& logical, const Embedding& embedding,
      const chimera::ChimeraGraph& graph,
      const EmbeddedQuboOptions& options = EmbeddedQuboOptions());

  /// The physical energy formula over compact variable indices.
  const qubo::QuboProblem& physical() const { return physical_; }

  int num_physical_vars() const { return physical_.num_vars(); }
  int num_logical_vars() const { return static_cast<int>(chains_.size()); }

  /// Hardware qubit backing compact variable `i`.
  chimera::QubitId qubit_of(int compact_index) const {
    return used_qubits_[static_cast<size_t>(compact_index)];
  }

  /// Compact index of hardware qubit `q`, or -1 when unused.
  int compact_of(chimera::QubitId q) const {
    return compact_index_[static_cast<size_t>(q)];
  }

  /// Chain strength w_B chosen for logical variable `var`.
  double chain_strength(int var) const {
    return chain_strength_[static_cast<size_t>(var)];
  }

  /// Chain members of logical variable `var`, as compact indices.
  const std::vector<int>& chain_members(int var) const {
    return chains_[static_cast<size_t>(var)];
  }

  /// True when every chain is assigned a single consistent value.
  bool ChainsConsistent(const std::vector<uint8_t>& physical_x) const;

  /// Fraction of chains with inconsistent values (diagnostic).
  double BrokenChainFraction(const std::vector<uint8_t>& physical_x) const;

  /// Total read-out: majority vote per chain (ties resolved toward 0),
  /// followed by one greedy-descent pass on the logical energy — the
  /// standard post-processing for broken chains.
  std::vector<uint8_t> Unembed(const std::vector<uint8_t>& physical_x) const;

  /// Lifts a logical assignment to the consistent physical assignment.
  std::vector<uint8_t> EmbedAssignment(
      const std::vector<uint8_t>& logical_x) const;

 private:
  EmbeddedQubo(qubo::QuboProblem logical, qubo::QuboProblem physical)
      : logical_(std::move(logical)), physical_(std::move(physical)) {}

  // The logical problem is copied so unembedding post-processing cannot
  // dangle if the caller's problem goes away.
  qubo::QuboProblem logical_;
  qubo::QuboProblem physical_;
  std::vector<chimera::QubitId> used_qubits_;
  std::vector<int> compact_index_;
  /// chains_[var] = compact indices of the chain of logical variable var.
  std::vector<std::vector<int>> chains_;
  std::vector<double> chain_strength_;
};

}  // namespace embedding
}  // namespace qmqo

#endif  // QMQO_EMBEDDING_EMBEDDED_QUBO_H_
