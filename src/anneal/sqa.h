#ifndef QMQO_ANNEAL_SQA_H_
#define QMQO_ANNEAL_SQA_H_

/// \file sqa.h
/// Simulated quantum annealing (SQA): a path-integral Monte Carlo emulation
/// of transverse-field quantum annealing, the standard classical model of
/// the D-Wave annealing process.
///
/// The quantum Hamiltonian H(t) = A(t) * H_driver + B(t) * H_problem with a
/// decaying transverse field Gamma is Trotterized into P coupled replicas
/// ("slices") of the classical problem. Slice k couples to slice k+1
/// (periodically) on each site with ferromagnetic strength
///
///   J_perp(Gamma) = -(1 / (2 beta_slice)) * ln tanh(beta_slice * Gamma),
///
/// which diverges as Gamma -> 0, freezing the replicas into a single
/// classical state. Metropolis sweeps alternate single-site moves and
/// global (all-slice) spin flips.

#include <cstdint>
#include <functional>
#include <vector>

#include "anneal/parallel.h"
#include "anneal/sample_set.h"
#include "anneal/schedule.h"
#include "qubo/ising.h"
#include "qubo/qubo.h"
#include "util/rng.h"

namespace qmqo {
namespace anneal {

/// The physics of one SQA read: the Trotter decomposition and the
/// transverse-field ramp it is annealed along.
struct SqaAnneal {
  /// Trotter slices P.
  int num_slices = 16;
  /// Annealing steps; each step sweeps every slice once plus one global
  /// sweep.
  int sweeps = 300;
  /// Inverse temperature of the quantum system (distributed over slices).
  double beta = 16.0;
  /// Transverse-field ramp (linear, as on the hardware).
  Schedule gamma{3.0, 0.01, ScheduleShape::kLinear};
};

/// Options for `SimulatedQuantumAnnealer`: the shared read contract (100
/// reads from seed 1 by default) plus the SQA physics.
struct SqaOptions : ReadOptions, SqaAnneal {};

/// Anneals the reads in [begin, end) of one SQA call: read r forks
/// `base.Fork(r)`, draws its P random slices, and runs `anneal.sweeps`
/// steps. Reads for which `skip(r)` holds (may be empty) are not annealed;
/// the rest are grouped four at a time (`GroupReads`), and with AVX2
/// (`ScalarLanesSupported`) each full group anneals in lockstep through
/// `SqaLaneBatch`, bit-identical to the scalar step that leftover reads and
/// other hosts run (see anneal/sweep_kernel.h).
/// `done(r, spins)` sees every annealed read in ascending order, with the
/// spins of its lowest-energy slice (the first of equal minima). Each
/// read's spins depend on (base, r) alone, so any partition of a call's
/// reads into ranges yields the same reads. `ising` must be finalized.
void AnnealSqaReads(const qubo::IsingProblem& ising, const SqaAnneal& anneal,
                    const Rng& base, int begin, int end,
                    const std::function<bool(int)>& skip,
                    const std::function<void(int, const std::vector<int8_t>&)>&
                        done);

/// Path-integral Monte Carlo sampler.
class SimulatedQuantumAnnealer {
 public:
  explicit SimulatedQuantumAnnealer(const SqaOptions& options)
      : options_(options) {}

  /// Samples an Ising problem; each read reports the best slice's state.
  SampleSet SampleIsing(const qubo::IsingProblem& ising) const;

  /// QUBO wrapper (exact Ising conversion; energies on the QUBO scale).
  SampleSet Sample(const qubo::QuboProblem& problem) const;

  const SqaOptions& options() const { return options_; }

 private:
  SqaOptions options_;
};

}  // namespace anneal
}  // namespace qmqo

#endif  // QMQO_ANNEAL_SQA_H_
