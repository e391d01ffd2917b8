#ifndef QMQO_ANNEAL_SWEEP_KERNEL_H_
#define QMQO_ANNEAL_SWEEP_KERNEL_H_

/// \file sweep_kernel.h
/// The Metropolis sweeps of the annealing samplers.
///
/// There is one SA kernel: `RunSweeps`, the per-spin loop in ascending spin
/// order with one `Rng::UniformReal` draw per uphill proposal, exact
/// `std::exp`, and incremental local fields. Its random stream and results
/// are frozen across releases and identical at any thread count. SQA's
/// frozen step (sqa.cc) is the same loop over P coupled slices plus global
/// moves.
///
/// `RunSweepsBatch` runs the SA kernel on several reads of one problem, and
/// `SqaLaneBatch` runs the SQA step on four. On hosts with AVX2
/// (`ScalarLanesSupported`, decided at run time) they anneal reads four at
/// a time in lockstep, one vector lane per read; leftover reads, and every
/// read on other hosts, go through the scalar loops. Each lane reproduces
/// its scalar loop on its read bit for bit — final spins and the read's
/// `Rng` position alike. Both lane kernels share one draw stream, screen
/// and flip:
///
///  * **Draw.** Each lane buffers its own read's tempered `mt19937_64`
///    words and consumes one only on an uphill proposal, exactly where the
///    scalar loop calls `UniformReal`; at the end the read's engine is
///    rewound to the word it consumed last.
///  * **Conversion.** A word x becomes `double(x >> 32) * 2^-32 +
///    double(uint32(x)) * 2^-64`: both terms are exact, so the sum rounds
///    once, to the same double as libstdc++'s `generate_canonical`
///    (`double(x) * 2^-64`), whose clamp below 1 is kept.
///  * **Screen.** With x = -beta * delta, a lane accepts when u <
///    FastExp(x) * (1 - 1e-5) and rejects when u >= FastExp(x) * (1 +
///    1e-5). FastExp's relative error is below `kFastExpMaxRelError` (5e-7),
///    so neither verdict can differ from `u < std::exp(x)`. Lanes inside
///    the band, or with x < -700 (near FastExp's clamp at -708, below
///    which `std::exp` turns subnormal), fall back to scalar `std::exp`.
///  * **Flip.** Accepted lanes update their neighbors' fields as
///    f + w * (-2 s): the product is exact and the sum rounds once, as in
///    the scalar loop; rejected lanes keep their fields untouched.
///
/// For SQA, a slice move's delta is (-2 s) f + ((2 j_perp) s) (s_prev +
/// s_next): every factor of the kinetic term is exact, so the term is
/// exact and the sum rounds once, as in the scalar step; a global move
/// sums the slices' (-2 s) f in slice order from 0. Draws, screen (at
/// -beta_slice) and flips are the machinery above.

#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

#include "anneal/schedule.h"
#include "qubo/ising.h"
#include "util/rng.h"

namespace qmqo {
namespace anneal {

/// Upper bound on |FastExp(x) - exp(x)| / exp(x) over x in [-708, 0]
/// (arguments below -708 are clamped; the lane screen never trusts FastExp
/// below -700). Asserted by tests/sweep_kernel_test.cc.
inline constexpr double kFastExpMaxRelError = 5e-7;

/// Bounded-error exp for non-positive arguments: exp(x) = 2^k * exp(r) with
/// k = round(x / ln 2) and a degree-6 Taylor polynomial for exp(r),
/// |r| <= ln(2)/2. The rounding uses the shift-by-1.5*2^52 trick and the
/// 2^k scaling is exact exponent-bit arithmetic, so the whole function is
/// branch-free straight-line code. Arguments below -708 are clamped so the
/// result stays normal. The lane kernel's screen evaluates the same
/// operations vector-wise (`FastExpLanes`), bit for bit.
inline double FastExp(double x) {
  x = x < -708.0 ? -708.0 : x;  // branchless clamp keeps the result normal
  const double kLog2E = 1.4426950408889634;
  const double kLn2 = 0.6931471805599453;
  // 1.5 * 2^52: adding it forces rounding of x * log2(e) to an integer in
  // the mantissa's low bits (|x * log2(e)| < 2^31 here, so the low 32 bits
  // hold it exactly, two's complement).
  const double kRoundMagic = 6755399441055744.0;
  double shifted = x * kLog2E + kRoundMagic;
  int64_t shifted_bits;
  std::memcpy(&shifted_bits, &shifted, sizeof(shifted_bits));
  const int64_t k = static_cast<int32_t>(shifted_bits);
  double r = x - (shifted - kRoundMagic) * kLn2;
  double p =
      1.0 +
      r * (1.0 +
           r * (0.5 +
                r * (1.0 / 6.0 +
                     r * (1.0 / 24.0 +
                          r * (1.0 / 120.0 + r * (1.0 / 720.0))))));
  // p is in [2^-1/2, 2^1/2]; adding k to its exponent field multiplies by
  // 2^k exactly. The clamp above keeps the result normal (k >= -1021).
  uint64_t bits;
  std::memcpy(&bits, &p, sizeof(bits));
  bits += static_cast<uint64_t>(k) << 52;
  double out;
  std::memcpy(&out, &bits, sizeof(out));
  return out;
}

/// Fills `spins` with uniform random ±1, one `Bernoulli` draw per spin.
void RandomSpins(Rng* rng, std::vector<int8_t>* spins);

/// Runs `sweeps` Metropolis sweeps over `spins` in place: the frozen
/// reference kernel described in the file comment.
void RunSweeps(const qubo::IsingProblem& ising, const Schedule& beta,
               int sweeps, Rng* rng, std::vector<int8_t>* spins);

/// Reads one lane kernel call anneals in lockstep.
inline constexpr int kLanes = 4;

/// True when `RunSweepsBatch` and SQA use the four-lane kernels: an
/// x86-64 build against libstdc++ (whose `generate_canonical` the lanes
/// reproduce) on a host with AVX2, checked at run time.
bool ScalarLanesSupported();

/// One read handed to a batch kernel: its stream and its spins.
struct SweepRead {
  Rng* rng;
  std::vector<int8_t>* spins;
};

/// Runs `RunSweeps(ising, beta, sweeps, reads[r].rng, reads[r].spins)` for
/// every r in [0, count), with bit-identical spins and stream positions;
/// full groups of four go through the lane kernel when
/// `ScalarLanesSupported()`. `ising` must be finalized.
void RunSweepsBatch(const qubo::IsingProblem& ising, const Schedule& beta,
                    int sweeps, const SweepRead* reads, int count);

/// Groups the reads in [begin, end) of one sampler call for a batch
/// kernel: read r forks `base.Fork(r)` and fills `spins_per_read` spins
/// from `RandomSpins`; reads for which `skip(r)` holds (may be empty) are
/// left out. `run(reads, ids, count)` sees the rest in ascending order, in
/// groups of four and a smaller last one; ids[k] is reads[k]'s index.
void GroupReads(
    const Rng& base, int begin, int end, size_t spins_per_read,
    const std::function<bool(int)>& skip,
    const std::function<void(const SweepRead*, const int*, int)>& run);

/// Anneals the reads in [begin, end) of one sampler call: read r forks
/// `base.Fork(r)`, starts from `RandomSpins`, and runs `sweeps` sweeps;
/// reads are grouped four at a time (`GroupReads`) for `RunSweepsBatch`.
/// Reads for which `skip(r)` holds (may be empty) are left out of the
/// groups entirely. `done(r, spins)` sees every annealed read in ascending
/// order. Each read's spins depend on (base, r) alone, so any partition of
/// a call's reads into ranges yields the same reads.
void AnnealReads(const qubo::IsingProblem& ising, const Schedule& beta,
                 int sweeps, const Rng& base, int begin, int end,
                 const std::function<bool(int)>& skip,
                 const std::function<void(int, const std::vector<int8_t>&)>&
                     done);

/// Runs `j_perp.size()` SQA steps (sqa.cc), step t with inter-slice
/// coupling j_perp[t], on four reads in lockstep: reads[l].spins holds read
/// l's `num_slices` slices one after the other. Spins and stream positions
/// are bit-identical to the scalar step's. Call only when
/// `ScalarLanesSupported()`; `ising` must be finalized.
void SqaLaneBatch(const qubo::IsingProblem& ising, int num_slices,
                  double beta_slice, const std::vector<double>& j_perp,
                  const SweepRead* reads);

/// The lane kernel's vector pieces over four-element buffers, for tests;
/// call only when `ScalarLanesSupported()`.
///  * `FastExpLanes`: out[l] = FastExp(x[l]).
///  * `UniformLanes`: out[l] = the double `Rng::UniformReal(0, 1)` makes
///    of the engine word words[l].
///  * `ScreenLanes`: accept[l] = the lane kernel's verdict on a proposal
///    with flip delta delta[l] at inverse temperature `beta` and uniform
///    u[l] (screen plus scalar fallback).
void FastExpLanes(const double* x, double* out);
void UniformLanes(const uint64_t* words, double* out);
void ScreenLanes(const double* delta, double beta, const double* u,
                 bool* accept);

}  // namespace anneal
}  // namespace qmqo

#endif  // QMQO_ANNEAL_SWEEP_KERNEL_H_
