#include "anneal/sweep_kernel.h"

#include <cassert>
#include <cmath>
#include <cstdlib>
#include <random>

// The lanes reproduce libstdc++'s UniformReal, so other standard libraries
// keep the scalar loop.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    defined(__GLIBCXX__)
#define QMQO_SCALAR_LANES 1
#include <immintrin.h>
#else
#define QMQO_SCALAR_LANES 0
#endif

namespace qmqo {
namespace anneal {
namespace {

constexpr int kLanes = 4;

/// Initial local fields field[i] = h_i + sum_j J_ij s_j, summed in CSR
/// order — the scalar loop's and every lane's starting point.
void InitFields(const qubo::IsingProblem& ising, const int8_t* s,
                double* field, int stride) {
  const qubo::CsrGraph& csr = ising.csr();
  const int32_t* offsets = csr.row_offsets.data();
  const qubo::VarId* ids = csr.neighbor_ids.data();
  const double* weights = csr.weights.data();
  const double* h = ising.fields().data();
  for (qubo::VarId i = 0; i < ising.num_spins(); ++i) {
    double f = h[i];
    for (int32_t e = offsets[i]; e < offsets[i + 1]; ++e) {
      f += weights[e] * static_cast<double>(s[ids[e]]);
    }
    field[static_cast<size_t>(i) * static_cast<size_t>(stride)] = f;
  }
}

#if QMQO_SCALAR_LANES

// Every vector-typed value lives inside an AVX2-targeted function: the
// helpers below are always inlined into their AVX2 callers, so no vector
// crosses a call, and nothing outside this file is compiled for AVX2.
#define QMQO_AVX2 __attribute__((target("avx2")))
#define QMQO_AVX2_INLINE \
  __attribute__((target("avx2"), always_inline)) inline

/// Engine words buffered per lane between refills.
constexpr int kDrawBuffer = 256;
/// Relative half-width of the screen band around FastExp(x); 20x the
/// FastExp error bound.
constexpr double kScreenBand = 1e-5;
/// Below this argument the screen defers to std::exp.
constexpr double kScreenMinArg = -700.0;

/// FastExp on four lanes, the same operations in the same order.
QMQO_AVX2_INLINE __m256d FastExp4(__m256d x) {
  // max(c, x) is `c > x ? c : x`: FastExp's clamp, NaN passing through.
  x = _mm256_max_pd(_mm256_set1_pd(-708.0), x);
  const __m256d magic = _mm256_set1_pd(6755399441055744.0);
  const __m256d shifted = _mm256_add_pd(
      _mm256_mul_pd(x, _mm256_set1_pd(1.4426950408889634)), magic);
  const __m256d r = _mm256_sub_pd(
      x, _mm256_mul_pd(_mm256_sub_pd(shifted, magic),
                       _mm256_set1_pd(0.6931471805599453)));
  __m256d p = _mm256_mul_pd(r, _mm256_set1_pd(1.0 / 720.0));
  p = _mm256_mul_pd(r, _mm256_add_pd(_mm256_set1_pd(1.0 / 120.0), p));
  p = _mm256_mul_pd(r, _mm256_add_pd(_mm256_set1_pd(1.0 / 24.0), p));
  p = _mm256_mul_pd(r, _mm256_add_pd(_mm256_set1_pd(1.0 / 6.0), p));
  p = _mm256_mul_pd(r, _mm256_add_pd(_mm256_set1_pd(0.5), p));
  p = _mm256_mul_pd(r, _mm256_add_pd(_mm256_set1_pd(1.0), p));
  p = _mm256_add_pd(_mm256_set1_pd(1.0), p);
  // Only the low 12 bits of k survive the shift into the exponent field,
  // and they are the low 12 bits of `shifted`.
  const __m256i k_bits =
      _mm256_slli_epi64(_mm256_castpd_si256(shifted), 52);
  return _mm256_castsi256_pd(
      _mm256_add_epi64(_mm256_castpd_si256(p), k_bits));
}

/// Four engine words to the doubles generate_canonical makes of them.
QMQO_AVX2_INLINE __m256d Uniform4(__m256i words) {
  // OR-ing a 32-bit value into the mantissa of 2^52 and subtracting 2^52
  // converts it exactly.
  const __m256i exponent = _mm256_set1_epi64x(0x4330000000000000LL);
  const __m256d two52 = _mm256_set1_pd(0x1.0p52);
  const __m256d hi = _mm256_sub_pd(
      _mm256_castsi256_pd(
          _mm256_or_si256(_mm256_srli_epi64(words, 32), exponent)),
      two52);
  const __m256d lo = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(
          _mm256_and_si256(words, _mm256_set1_epi64x(0xffffffffLL)),
          exponent)),
      two52);
  const __m256d u = _mm256_add_pd(_mm256_mul_pd(hi, _mm256_set1_pd(0x1.0p-32)),
                                  _mm256_mul_pd(lo, _mm256_set1_pd(0x1.0p-64)));
  // generate_canonical's clamp: results >= 1 become 1 - 2^-53.
  return _mm256_min_pd(u, _mm256_set1_pd(0x1.fffffffffffffp-1));
}

/// Saves `engine` to `start`, then draws the next kDrawBuffer words from
/// it into `uniforms` as doubles.
QMQO_AVX2_INLINE void Refill(std::mt19937_64* engine, std::mt19937_64* start,
                             double* uniforms) {
  *start = *engine;
  alignas(32) uint64_t words[kDrawBuffer];
  for (uint64_t& word : words) word = (*engine)();
  for (int k = 0; k < kDrawBuffer; k += kLanes) {
    _mm256_store_pd(uniforms + k, Uniform4(_mm256_load_si256(
                                      reinterpret_cast<const __m256i*>(
                                          words + k))));
  }
}

/// All-ones in the lanes whose bit is set in `bits`.
QMQO_AVX2_INLINE __m256d MaskFromBits(int bits) {
  const __m256i lane_bit = _mm256_setr_epi64x(1, 2, 4, 8);
  return _mm256_castsi256_pd(_mm256_cmpeq_epi64(
      _mm256_and_si256(_mm256_set1_epi64x(bits), lane_bit), lane_bit));
}

/// The Metropolis verdict `delta <= 0 || u < std::exp(neg_beta * delta)`
/// per lane, as an all-ones/all-zeros mask: the FastExp screen decides
/// lanes outside its band, scalar std::exp the rest.
QMQO_AVX2_INLINE __m256d Screen4(__m256d delta, __m256d neg_beta,
                                 __m256d u) {
  const __m256d down = _mm256_cmp_pd(delta, _mm256_setzero_pd(), _CMP_LE_OQ);
  const __m256d x = _mm256_mul_pd(neg_beta, delta);
  const __m256d e = FastExp4(x);
  const __m256d trusted =
      _mm256_cmp_pd(x, _mm256_set1_pd(kScreenMinArg), _CMP_GE_OQ);
  const __m256d sure_accept = _mm256_and_pd(
      trusted, _mm256_cmp_pd(u, _mm256_mul_pd(e, _mm256_set1_pd(1.0 - kScreenBand)),
                             _CMP_LT_OQ));
  const __m256d sure_reject = _mm256_and_pd(
      trusted, _mm256_cmp_pd(u, _mm256_mul_pd(e, _mm256_set1_pd(1.0 + kScreenBand)),
                             _CMP_GE_OQ));
  __m256d accept = _mm256_or_pd(down, sure_accept);
  const int unsure = ~_mm256_movemask_pd(_mm256_or_pd(accept, sure_reject)) &
                     ((1 << kLanes) - 1);
  if (__builtin_expect(unsure != 0, 0)) {
    alignas(32) double xs[kLanes];
    alignas(32) double us[kLanes];
    _mm256_store_pd(xs, x);
    _mm256_store_pd(us, u);
    int late = 0;
    for (int l = 0; l < kLanes; ++l) {
      if ((unsure >> l & 1) && us[l] < std::exp(xs[l])) late |= 1 << l;
    }
    accept = _mm256_or_pd(accept, MaskFromBits(late));
  }
  return accept;
}

/// The lane kernel: `RunSweeps` on four reads in lockstep. `field` and
/// `m2s` hold lane l of spin i at [4 i + l]; m2s is -2 s, the scalar
/// loop's flip change. `engines[l]` is lane l's read stream, left at the
/// word after the last one lane l consumed.
QMQO_AVX2 void LaneSweeps(const qubo::IsingProblem& ising, const Schedule& beta,
                          int sweeps, std::mt19937_64* const* engines,
                          double* field, double* m2s) {
  const int n = ising.num_spins();
  const qubo::CsrGraph& csr = ising.csr();
  const int32_t* offsets = csr.row_offsets.data();
  const qubo::VarId* ids = csr.neighbor_ids.data();
  const double* weights = csr.weights.data();

  // Lane l's uniforms occupy uniforms[l * kDrawBuffer, (l + 1) *
  // kDrawBuffer); next[l] indexes its next unused one. starts[l] is its
  // engine as of the buffer's first word, for the rewind at the end.
  alignas(32) double uniforms[kLanes * kDrawBuffer];
  alignas(32) int64_t next[kLanes];
  std::mt19937_64 starts[kLanes];
  for (int l = 0; l < kLanes; ++l) {
    Refill(engines[l], &starts[l], uniforms + l * kDrawBuffer);
    next[l] = static_cast<int64_t>(l) * kDrawBuffer;
  }
  __m256i next4 = _mm256_load_si256(reinterpret_cast<const __m256i*>(next));
  const __m256i buffer_end =
      _mm256_setr_epi64x(kDrawBuffer, 2 * kDrawBuffer, 3 * kDrawBuffer,
                         4 * kDrawBuffer);

  for (int sweep = 0; sweep < sweeps; ++sweep) {
    const __m256d neg_beta = _mm256_set1_pd(-beta.At(sweep, sweeps));
    for (qubo::VarId i = 0; i < n; ++i) {
      double* f_i = field + static_cast<size_t>(i) * kLanes;
      double* m_i = m2s + static_cast<size_t>(i) * kLanes;
      const __m256d change = _mm256_loadu_pd(m_i);
      const __m256d delta = _mm256_mul_pd(change, _mm256_loadu_pd(f_i));
      const __m256d down =
          _mm256_cmp_pd(delta, _mm256_setzero_pd(), _CMP_LE_OQ);
      __m256d accept = down;
      if (_mm256_movemask_pd(down) != (1 << kLanes) - 1) {
        // Uphill lanes (delta > 0 or NaN) each consume their next draw.
        const __m256d u = _mm256_i64gather_pd(uniforms, next4, 8);
        accept = Screen4(delta, neg_beta, u);
        next4 = _mm256_sub_epi64(
            next4, _mm256_xor_si256(_mm256_castpd_si256(down),
                                    _mm256_set1_epi64x(-1)));
        const int spent =
            _mm256_movemask_pd(_mm256_castsi256_pd(
                _mm256_cmpeq_epi64(next4, buffer_end)));
        if (__builtin_expect(spent != 0, 0)) {
          _mm256_store_si256(reinterpret_cast<__m256i*>(next), next4);
          for (int l = 0; l < kLanes; ++l) {
            if (!(spent >> l & 1)) continue;
            Refill(engines[l], &starts[l], uniforms + l * kDrawBuffer);
            next[l] = static_cast<int64_t>(l) * kDrawBuffer;
          }
          next4 = _mm256_load_si256(reinterpret_cast<const __m256i*>(next));
        }
      }
      // Flip the accepted lanes: negate their m2s and add w * change to
      // their neighbors' fields; other lanes keep every bit.
      _mm256_storeu_pd(
          m_i, _mm256_blendv_pd(change,
                                _mm256_sub_pd(_mm256_setzero_pd(), change),
                                accept));
      for (int32_t e = offsets[i]; e < offsets[i + 1]; ++e) {
        double* f_j = field + static_cast<size_t>(ids[e]) * kLanes;
        const __m256d f = _mm256_loadu_pd(f_j);
        const __m256d updated = _mm256_add_pd(
            f, _mm256_mul_pd(_mm256_set1_pd(weights[e]), change));
        _mm256_storeu_pd(f_j, _mm256_blendv_pd(f, updated, accept));
      }
    }
  }

  // Rewind: each engine goes back to its buffer's first word and skips
  // the words its lane consumed.
  _mm256_store_si256(reinterpret_cast<__m256i*>(next), next4);
  for (int l = 0; l < kLanes; ++l) {
    *engines[l] = starts[l];
    engines[l]->discard(
        static_cast<unsigned long long>(next[l] - l * kDrawBuffer));
  }
}

/// Four reads through the lane kernel.
void LaneBatch(const qubo::IsingProblem& ising, const Schedule& beta,
               int sweeps, const SweepRead* reads) {
  const size_t n = static_cast<size_t>(ising.num_spins());
  std::vector<double> field(n * kLanes);
  std::vector<double> m2s(n * kLanes);
  std::mt19937_64* engines[kLanes];
  for (int l = 0; l < kLanes; ++l) {
    const int8_t* s = reads[l].spins->data();
    assert(reads[l].spins->size() == n);
    InitFields(ising, s, field.data() + l, kLanes);
    for (size_t i = 0; i < n; ++i) {
      m2s[i * kLanes + static_cast<size_t>(l)] =
          -2.0 * static_cast<double>(s[i]);
    }
    engines[l] = &reads[l].rng->engine();
  }
  LaneSweeps(ising, beta, sweeps, engines, field.data(), m2s.data());
  for (int l = 0; l < kLanes; ++l) {
    int8_t* s = reads[l].spins->data();
    for (size_t i = 0; i < n; ++i) {
      s[i] = m2s[i * kLanes + static_cast<size_t>(l)] < 0.0 ? int8_t{1}
                                                            : int8_t{-1};
    }
  }
}

#endif  // QMQO_SCALAR_LANES

}  // namespace

void RandomSpins(Rng* rng, std::vector<int8_t>* spins) {
  for (auto& s : *spins) {
    s = rng->Bernoulli(0.5) ? int8_t{1} : int8_t{-1};
  }
}

void RunSweeps(const qubo::IsingProblem& ising, const Schedule& beta,
               int sweeps, Rng* rng, std::vector<int8_t>* spins) {
  const int n = ising.num_spins();
  assert(static_cast<int>(spins->size()) == n);
  const qubo::CsrGraph& csr = ising.csr();
  const int32_t* offsets = csr.row_offsets.data();
  const qubo::VarId* ids = csr.neighbor_ids.data();
  const double* weights = csr.weights.data();
  int8_t* s = spins->data();

  std::vector<double> field(static_cast<size_t>(n));
  InitFields(ising, s, field.data(), 1);
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    double b = beta.At(sweep, sweeps);
    for (qubo::VarId i = 0; i < n; ++i) {
      double s_i = static_cast<double>(s[i]);
      // field[i] has no self term, so the flip delta is exact.
      double delta = -2.0 * s_i * field[static_cast<size_t>(i)];
      if (delta <= 0.0 ||
          rng->UniformReal(0.0, 1.0) < std::exp(-b * delta)) {
        s[i] = static_cast<int8_t>(-s_i);
        double change = -2.0 * s_i;
        for (int32_t e = offsets[i]; e < offsets[i + 1]; ++e) {
          field[static_cast<size_t>(ids[e])] += weights[e] * change;
        }
      }
    }
  }
}

bool ScalarLanesSupported() {
#if QMQO_SCALAR_LANES
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return supported;
#else
  return false;
#endif
}

void RunSweepsBatch(const qubo::IsingProblem& ising, const Schedule& beta,
                    int sweeps, const SweepRead* reads, int count) {
  int r = 0;
#if QMQO_SCALAR_LANES
  if (ScalarLanesSupported() && ising.num_spins() > 0 && sweeps > 0) {
    for (; r + kLanes <= count; r += kLanes) {
      LaneBatch(ising, beta, sweeps, reads + r);
    }
  }
#endif
  for (; r < count; ++r) {
    RunSweeps(ising, beta, sweeps, reads[r].rng, reads[r].spins);
  }
}

void AnnealReads(const qubo::IsingProblem& ising, const Schedule& beta,
                 int sweeps, const Rng& base, int begin, int end,
                 const std::function<bool(int)>& skip,
                 const std::function<void(int, const std::vector<int8_t>&)>&
                     done) {
  const size_t n = static_cast<size_t>(ising.num_spins());
  std::vector<Rng> rngs;
  rngs.reserve(kLanes);  // SweepRead keeps pointers into it
  std::vector<std::vector<int8_t>> spins(kLanes, std::vector<int8_t>(n));
  int batch[kLanes];
  auto flush = [&] {
    const int count = static_cast<int>(rngs.size());
    SweepRead reads[kLanes] = {};
    for (int k = 0; k < count; ++k) reads[k] = {&rngs[k], &spins[k]};
    RunSweepsBatch(ising, beta, sweeps, reads, count);
    for (int k = 0; k < count; ++k) done(batch[k], spins[k]);
    rngs.clear();
  };
  for (int r = begin; r < end; ++r) {
    if (skip && skip(r)) continue;
    const size_t slot = rngs.size();
    batch[slot] = r;
    rngs.push_back(base.Fork(static_cast<uint64_t>(r)));
    RandomSpins(&rngs.back(), &spins[slot]);
    if (rngs.size() == kLanes) flush();
  }
  if (!rngs.empty()) flush();
}

#if QMQO_SCALAR_LANES

QMQO_AVX2 void FastExpLanes(const double* x, double* out) {
  _mm256_storeu_pd(out, FastExp4(_mm256_loadu_pd(x)));
}

QMQO_AVX2 void UniformLanes(const uint64_t* words, double* out) {
  _mm256_storeu_pd(out, Uniform4(_mm256_loadu_si256(
                            reinterpret_cast<const __m256i*>(words))));
}

QMQO_AVX2 void ScreenLanes(const double* delta, double beta, const double* u,
                           bool* accept) {
  const int bits = _mm256_movemask_pd(Screen4(_mm256_loadu_pd(delta),
                                              _mm256_set1_pd(-beta),
                                              _mm256_loadu_pd(u)));
  for (int l = 0; l < kLanes; ++l) accept[l] = (bits >> l & 1) != 0;
}

#else

void FastExpLanes(const double*, double*) { std::abort(); }
void UniformLanes(const uint64_t*, double*) { std::abort(); }
void ScreenLanes(const double*, double, const double*, bool*) {
  std::abort();
}

#endif  // QMQO_SCALAR_LANES

}  // namespace anneal
}  // namespace qmqo
