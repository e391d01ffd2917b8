#include "anneal/simulated_annealer.h"

#include "anneal/parallel.h"
#include "anneal/sweep_kernel.h"

namespace qmqo {
namespace anneal {
namespace {

Schedule ResolveBeta(const qubo::IsingProblem& ising, const Schedule& beta) {
  if (beta.start > 0.0 && beta.end > 0.0) return beta;
  auto [hot, cold] = SuggestBetaRange(ising);
  Schedule resolved = beta;
  resolved.start = hot;
  resolved.end = cold;
  return resolved;
}

}  // namespace

SampleSet SimulatedAnnealer::SampleIsing(const qubo::IsingProblem& ising) const {
  Schedule beta = ResolveBeta(ising, options_.beta);
  ising.Finalize();  // shared across worker threads
  const Rng rng(options_.seed);
  return RunReads(
      options_, [&, beta](int begin, int end, SampleSet* local) {
        // Read-out appends the spins bit-packed into the chunk-local
        // arena: no per-read byte vector, no per-sample heap allocation.
        AnnealReads(ising, beta, options_.sweeps_per_read, rng, begin, end,
                    nullptr,
                    [&](int, const std::vector<int8_t>& spins) {
                      local->AddSpins(spins, ising.Energy(spins));
                    });
      });
}

SampleSet SimulatedAnnealer::Sample(const qubo::QuboProblem& problem) const {
  qubo::IsingWithOffset converted = qubo::QuboToIsing(problem);
  SampleSet out = SampleIsing(converted.ising);
  // Re-express energies on the QUBO scale (a uniform in-place shift; the
  // energy order and occurrence counts are unchanged).
  out.AddEnergyOffset(converted.offset);
  return out;
}

}  // namespace anneal
}  // namespace qmqo
