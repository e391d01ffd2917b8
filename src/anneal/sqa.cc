#include "anneal/sqa.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "anneal/parallel.h"
#include "anneal/sweep_kernel.h"

namespace qmqo {
namespace anneal {
namespace {

/// Per-read state of the path-integral simulation: P replicas of the spin
/// vector plus, for each replica, the cached local problem fields
///   field[k][i] = h_i + sum_j J_ij s_{k,j},
/// maintained incrementally on every accepted flip (mirroring the SA
/// kernel) so a Metropolis move costs O(1) to evaluate and O(degree) only
/// when accepted — instead of O(degree) recomputation per *proposal*.
class SqaState {
 public:
  /// `spins` holds the P slices one after the other; the state anneals it
  /// in place.
  SqaState(const qubo::IsingProblem& ising, int num_slices,
           std::vector<int8_t>* spins)
      : ising_(ising),
        n_(ising.num_spins()),
        p_(num_slices),
        spins_(*spins),
        fields_(spins_.size()) {
    const qubo::CsrGraph& csr = ising_.csr();
    const double* h = ising_.fields().data();
    for (int k = 0; k < p_; ++k) {
      const int8_t* slice = slice_spins(k);
      double* field = slice_fields(k);
      for (qubo::VarId i = 0; i < n_; ++i) {
        double f = h[i];
        for (int32_t e = csr.row_offsets[static_cast<size_t>(i)];
             e < csr.row_offsets[static_cast<size_t>(i) + 1]; ++e) {
          f += csr.weights[static_cast<size_t>(e)] *
               static_cast<double>(slice[csr.neighbor_ids[static_cast<size_t>(e)]]);
        }
        field[i] = f;
      }
    }
  }

  int8_t* slice_spins(int k) {
    return spins_.data() + static_cast<size_t>(k) * static_cast<size_t>(n_);
  }
  const int8_t* slice_spins(int k) const {
    return spins_.data() + static_cast<size_t>(k) * static_cast<size_t>(n_);
  }
  double* slice_fields(int k) {
    return fields_.data() + static_cast<size_t>(k) * static_cast<size_t>(n_);
  }

  /// Problem-energy delta for flipping spin i of slice k; O(1).
  double ProblemDelta(int k, qubo::VarId i) const {
    return -2.0 *
           static_cast<double>(
               spins_[static_cast<size_t>(k) * static_cast<size_t>(n_) +
                      static_cast<size_t>(i)]) *
           fields_[static_cast<size_t>(k) * static_cast<size_t>(n_) +
                   static_cast<size_t>(i)];
  }

  /// Flips spin i of slice k and updates the slice's cached fields.
  void Flip(int k, qubo::VarId i) {
    int8_t* slice = slice_spins(k);
    double* field = slice_fields(k);
    const qubo::CsrGraph& csr = ising_.csr();
    double change = -2.0 * static_cast<double>(slice[i]);
    slice[i] = static_cast<int8_t>(-slice[i]);
    for (int32_t e = csr.row_offsets[static_cast<size_t>(i)];
         e < csr.row_offsets[static_cast<size_t>(i) + 1]; ++e) {
      field[csr.neighbor_ids[static_cast<size_t>(e)]] +=
          csr.weights[static_cast<size_t>(e)] * change;
    }
  }

 private:
  const qubo::IsingProblem& ising_;
  int n_;
  int p_;
  std::vector<int8_t>& spins_;
  std::vector<double> fields_;
};

/// The original slice loop: ascending spin order within each slice, lazy
/// per-proposal draws, exact `std::exp`. Frozen — the SQA bit-exactness
/// reference.
void ScalarStep(SqaState* state, int n, int p, double beta_slice,
                double j_perp, Rng* rng) {
  // Single-site Metropolis moves, slice by slice.
  for (int k = 0; k < p; ++k) {
    const int8_t* slice = state->slice_spins(k);
    const int8_t* prev = state->slice_spins((k + p - 1) % p);
    const int8_t* next = state->slice_spins((k + 1) % p);
    for (qubo::VarId i = 0; i < n; ++i) {
      double delta = state->ProblemDelta(k, i);
      // Kinetic part: flipping s_{k,i} changes
      // −j_perp*s_{k,i}(s_{k-1,i}+s_{k+1,i}) by:
      double s_i = static_cast<double>(slice[i]);
      double neighbors_sum =
          static_cast<double>(prev[i]) + static_cast<double>(next[i]);
      double kinetic = 2.0 * j_perp * s_i * neighbors_sum;
      double total = delta + kinetic;
      if (total <= 0.0 ||
          rng->UniformReal(0.0, 1.0) < std::exp(-beta_slice * total)) {
        state->Flip(k, i);
      }
    }
  }
  // Global moves: flip spin i in all slices (kinetic term invariant). Each
  // slice's delta only involves that slice's own fields, so summing the
  // cached deltas is exact.
  for (qubo::VarId i = 0; i < n; ++i) {
    double delta = 0.0;
    for (int k = 0; k < p; ++k) {
      delta += state->ProblemDelta(k, i);
    }
    if (delta <= 0.0 ||
        rng->UniformReal(0.0, 1.0) < std::exp(-beta_slice * delta)) {
      for (int k = 0; k < p; ++k) {
        state->Flip(k, i);
      }
    }
  }
}

}  // namespace

void AnnealSqaReads(const qubo::IsingProblem& ising, const SqaAnneal& anneal,
                    const Rng& base, int begin, int end,
                    const std::function<bool(int)>& skip,
                    const std::function<void(int, const std::vector<int8_t>&)>&
                        done) {
  const int n = ising.num_spins();
  const int p = anneal.num_slices;
  assert(p >= 2);
  const double beta_slice = anneal.beta / static_cast<double>(p);
  // Inter-slice ferromagnetic coupling of each step; positive, diverging
  // as gamma -> 0. The energy term is −j_perp * s_{k,i} * s_{k+1,i}.
  std::vector<double> j_perp;
  for (int step = 0; step < anneal.sweeps; ++step) {
    const double gamma =
        std::max(anneal.gamma.At(step, anneal.sweeps), 1e-9);
    j_perp.push_back(-0.5 / beta_slice *
                     std::log(std::tanh(beta_slice * gamma)));
  }
  const bool lanes = ScalarLanesSupported() && n > 0 && !j_perp.empty();
  std::vector<int8_t> slice(static_cast<size_t>(n));
  std::vector<int8_t> best(static_cast<size_t>(n));
  GroupReads(
      base, begin, end, static_cast<size_t>(p) * static_cast<size_t>(n),
      skip, [&](const SweepRead* reads, const int* ids, int count) {
        if (lanes && count == kLanes) {
          SqaLaneBatch(ising, p, beta_slice, j_perp, reads);
        } else {
          for (int r = 0; r < count; ++r) {
            SqaState state(ising, p, reads[r].spins);
            for (const double j : j_perp) {
              ScalarStep(&state, n, p, beta_slice, j, reads[r].rng);
            }
          }
        }
        // Read out each read's best slice. Energies are recomputed
        // exactly, so cached-field drift never picks the slice.
        for (int r = 0; r < count; ++r) {
          const int8_t* slices = reads[r].spins->data();
          double best_energy = std::numeric_limits<double>::infinity();
          for (int k = 0; k < p; ++k) {
            const int8_t* first = slices + static_cast<size_t>(k) *
                                               static_cast<size_t>(n);
            slice.assign(first, first + n);
            const double energy = ising.Energy(slice);
            if (energy < best_energy) {
              best_energy = energy;
              best.swap(slice);
            }
          }
          done(ids[r], best);
        }
      });
}

SampleSet SimulatedQuantumAnnealer::SampleIsing(
    const qubo::IsingProblem& ising) const {
  ising.Finalize();  // shared across worker threads
  const Rng rng(options_.seed);
  return RunReads(options_, [&](int begin, int end, SampleSet* local) {
    AnnealSqaReads(ising, options_, rng, begin, end, nullptr,
                   [&](int, const std::vector<int8_t>& spins) {
                     local->AddSpins(spins, ising.Energy(spins));
                   });
  });
}

SampleSet SimulatedQuantumAnnealer::Sample(const qubo::QuboProblem& problem) const {
  qubo::IsingWithOffset converted = qubo::QuboToIsing(problem);
  SampleSet out = SampleIsing(converted.ising);
  out.AddEnergyOffset(converted.offset);
  return out;
}

}  // namespace anneal
}  // namespace qmqo
