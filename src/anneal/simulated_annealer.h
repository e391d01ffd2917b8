#ifndef QMQO_ANNEAL_SIMULATED_ANNEALER_H_
#define QMQO_ANNEAL_SIMULATED_ANNEALER_H_

/// \file simulated_annealer.h
/// Classical simulated annealing over Ising/QUBO problems.
///
/// This is both (a) the classical reference point the paper contrasts
/// quantum annealing against in Section 2, and (b) the default inner
/// sampler of the `DWaveSimulator` device model. The implementation keeps
/// per-spin local fields so a Metropolis step costs O(degree).

#include "anneal/parallel.h"
#include "anneal/sample_set.h"
#include "anneal/schedule.h"
#include "qubo/ising.h"
#include "qubo/qubo.h"
#include "util/rng.h"

namespace qmqo {
namespace anneal {

/// Options for `SimulatedAnnealer`: the shared read contract (100 reads
/// from seed 1 by default) plus the annealing schedule.
struct SaOptions : ReadOptions {
  /// Full sweeps over all spins per read.
  int sweeps_per_read = 1000;
  /// Inverse-temperature ramp; non-positive start/end triggers the
  /// `SuggestBetaRange` heuristic per problem.
  Schedule beta{0.0, 0.0, ScheduleShape::kGeometric};
};

/// Metropolis simulated annealing sampler.
class SimulatedAnnealer {
 public:
  explicit SimulatedAnnealer(const SaOptions& options) : options_(options) {}

  /// Samples an Ising problem; energies are Ising energies.
  SampleSet SampleIsing(const qubo::IsingProblem& ising) const;

  /// Samples a QUBO problem (internally via the exact Ising conversion);
  /// energies are QUBO energies.
  SampleSet Sample(const qubo::QuboProblem& problem) const;

  const SaOptions& options() const { return options_; }

 private:
  SaOptions options_;
};

}  // namespace anneal
}  // namespace qmqo

#endif  // QMQO_ANNEAL_SIMULATED_ANNEALER_H_
