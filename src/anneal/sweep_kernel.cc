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

/// The per-lane draw streams of a lane kernel, one read per lane. Lane l's
/// uniforms occupy uniforms[l * kDrawBuffer, (l + 1) * kDrawBuffer), and
/// lane l of the kernel's `next4` indexes its next unused one; starts[l]
/// is its engine as of the buffer's first word, for the rewind at the end.
struct LaneDraws {
  alignas(32) double uniforms[kLanes * kDrawBuffer];
  std::mt19937_64 starts[kLanes];
  std::mt19937_64* const* engines;
};

/// Fills every lane's buffer from `engines` and returns the lanes' first
/// draw indices, the kernel's initial `next4`.
QMQO_AVX2_INLINE __m256i StartDraws(std::mt19937_64* const* engines,
                                    LaneDraws* draws) {
  draws->engines = engines;
  for (int l = 0; l < kLanes; ++l) {
    Refill(engines[l], &draws->starts[l], draws->uniforms + l * kDrawBuffer);
  }
  return _mm256_setr_epi64x(0, kDrawBuffer, 2 * kDrawBuffer,
                            3 * kDrawBuffer);
}

/// One Metropolis proposal per lane with flip delta `delta`: downhill
/// lanes accept without a draw; uphill lanes (delta > 0 or NaN) each
/// consume their next uniform, exactly where the scalar loop calls
/// `UniformReal`, and go through `Screen4`. Spent buffers are refilled.
/// Returns the accept mask.
QMQO_AVX2_INLINE __m256d Metropolis4(LaneDraws* draws, __m256i* next4,
                                     __m256d delta, __m256d neg_beta) {
  const __m256d down = _mm256_cmp_pd(delta, _mm256_setzero_pd(), _CMP_LE_OQ);
  if (_mm256_movemask_pd(down) == (1 << kLanes) - 1) return down;
  const __m256d u = _mm256_i64gather_pd(draws->uniforms, *next4, 8);
  const __m256d accept = Screen4(delta, neg_beta, u);
  *next4 = _mm256_sub_epi64(
      *next4, _mm256_xor_si256(_mm256_castpd_si256(down),
                               _mm256_set1_epi64x(-1)));
  const __m256i buffer_end =
      _mm256_setr_epi64x(kDrawBuffer, 2 * kDrawBuffer, 3 * kDrawBuffer,
                         4 * kDrawBuffer);
  const int spent = _mm256_movemask_pd(
      _mm256_castsi256_pd(_mm256_cmpeq_epi64(*next4, buffer_end)));
  if (__builtin_expect(spent != 0, 0)) {
    alignas(32) int64_t next[kLanes];
    _mm256_store_si256(reinterpret_cast<__m256i*>(next), *next4);
    for (int l = 0; l < kLanes; ++l) {
      if (!(spent >> l & 1)) continue;
      Refill(draws->engines[l], &draws->starts[l],
             draws->uniforms + l * kDrawBuffer);
      next[l] = static_cast<int64_t>(l) * kDrawBuffer;
    }
    *next4 = _mm256_load_si256(reinterpret_cast<const __m256i*>(next));
  }
  return accept;
}

/// Rewinds each engine to its buffer's first word and skips the words its
/// lane consumed, leaving it where the scalar loop would.
QMQO_AVX2_INLINE void EndDraws(LaneDraws* draws, __m256i next4) {
  alignas(32) int64_t next[kLanes];
  _mm256_store_si256(reinterpret_cast<__m256i*>(next), next4);
  for (int l = 0; l < kLanes; ++l) {
    *draws->engines[l] = draws->starts[l];
    draws->engines[l]->discard(
        static_cast<unsigned long long>(next[l] - l * kDrawBuffer));
  }
}

/// A finalized problem's CSR arrays. The lane kernels read them through
/// these local pointers: their vector stores may alias anything, so
/// pointers read from the `CsrGraph` would be reloaded after every store.
struct CsrArrays {
  explicit CsrArrays(const qubo::CsrGraph& csr)
      : offsets(csr.row_offsets.data()),
        ids(csr.neighbor_ids.data()),
        weights(csr.weights.data()) {}
  const int32_t* offsets;
  const qubo::VarId* ids;
  const double* weights;
};

/// Flips spin i in the accepted lanes: negates their m2s at `m_i` and adds
/// w * change to their neighbors' entries of `field` (lane l of spin j at
/// [4 j + l]); other lanes keep every bit.
QMQO_AVX2_INLINE void Flip4(CsrArrays csr, qubo::VarId i, double* field,
                            double* m_i, __m256d change, __m256d accept) {
  _mm256_storeu_pd(
      m_i, _mm256_blendv_pd(change,
                            _mm256_sub_pd(_mm256_setzero_pd(), change),
                            accept));
  for (int32_t e = csr.offsets[i]; e < csr.offsets[i + 1]; ++e) {
    double* f_j = field + static_cast<size_t>(csr.ids[e]) * kLanes;
    const __m256d f = _mm256_loadu_pd(f_j);
    const __m256d updated = _mm256_add_pd(
        f, _mm256_mul_pd(_mm256_set1_pd(csr.weights[e]), change));
    _mm256_storeu_pd(f_j, _mm256_blendv_pd(f, updated, accept));
  }
}

/// The lane kernel: `RunSweeps` on four reads in lockstep. `field` and
/// `m2s` hold lane l of spin i at [4 i + l]; m2s is -2 s, the scalar
/// loop's flip change. `engines[l]` is lane l's read stream, left at the
/// word after the last one lane l consumed.
QMQO_AVX2 void LaneSweeps(const qubo::IsingProblem& ising, const Schedule& beta,
                          int sweeps, std::mt19937_64* const* engines,
                          double* field, double* m2s) {
  const int n = ising.num_spins();
  const CsrArrays csr(ising.csr());
  LaneDraws draws;
  __m256i next4 = StartDraws(engines, &draws);
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    const __m256d neg_beta = _mm256_set1_pd(-beta.At(sweep, sweeps));
    for (qubo::VarId i = 0; i < n; ++i) {
      double* m_i = m2s + static_cast<size_t>(i) * kLanes;
      const __m256d change = _mm256_loadu_pd(m_i);
      const __m256d delta = _mm256_mul_pd(
          change, _mm256_loadu_pd(field + static_cast<size_t>(i) * kLanes));
      Flip4(csr, i, field, m_i, change,
            Metropolis4(&draws, &next4, delta, neg_beta));
    }
  }
  EndDraws(&draws, next4);
}

/// The SQA lane kernel: `j_perp.size()` steps of sqa.cc's scalar step on
/// four reads in lockstep. `field` and `m2s` hold lane l of spin i of
/// slice k at [4 (k n + i) + l]. Slice moves take ascending k, then
/// ascending i; their kinetic term ((2 j_perp) s) (s_prev + s_next) is a
/// product of exact factors, so it is exact and `delta + kinetic` rounds
/// once, as in the scalar step. Global moves sum the slice deltas in slice
/// order from 0.
QMQO_AVX2 void SqaLaneSteps(const qubo::IsingProblem& ising, int p,
                            double beta_slice,
                            const std::vector<double>& j_perp,
                            std::mt19937_64* const* engines, double* field,
                            double* m2s) {
  const int n = ising.num_spins();
  const CsrArrays csr(ising.csr());
  const size_t slice_stride = static_cast<size_t>(n) * kLanes;
  const __m256d neg_beta = _mm256_set1_pd(-beta_slice);
  const __m256d minus_half = _mm256_set1_pd(-0.5);
  LaneDraws draws;
  __m256i next4 = StartDraws(engines, &draws);
  for (const double j : j_perp) {
    const __m256d two_j = _mm256_set1_pd(2.0 * j);
    for (int k = 0; k < p; ++k) {
      double* field_k = field + static_cast<size_t>(k) * slice_stride;
      double* m2s_k = m2s + static_cast<size_t>(k) * slice_stride;
      const double* m2s_prev =
          m2s + static_cast<size_t>((k + p - 1) % p) * slice_stride;
      const double* m2s_next =
          m2s + static_cast<size_t>((k + 1) % p) * slice_stride;
      for (qubo::VarId i = 0; i < n; ++i) {
        const size_t at = static_cast<size_t>(i) * kLanes;
        const __m256d change = _mm256_loadu_pd(m2s_k + at);
        const __m256d delta =
            _mm256_mul_pd(change, _mm256_loadu_pd(field_k + at));
        // -0.5 * (-2 s) is s exactly.
        const __m256d s = _mm256_mul_pd(change, minus_half);
        const __m256d neighbors_sum = _mm256_add_pd(
            _mm256_mul_pd(_mm256_loadu_pd(m2s_prev + at), minus_half),
            _mm256_mul_pd(_mm256_loadu_pd(m2s_next + at), minus_half));
        const __m256d kinetic =
            _mm256_mul_pd(_mm256_mul_pd(two_j, s), neighbors_sum);
        const __m256d accept = Metropolis4(
            &draws, &next4, _mm256_add_pd(delta, kinetic), neg_beta);
        // Once the slices couple, most SQA proposals are rejected in every
        // lane, and skipping the neighbor loop pays; in SA the branch
        // costs more than it saves.
        if (_mm256_movemask_pd(accept) != 0) {
          Flip4(csr, i, field_k, m2s_k + at, change, accept);
        }
      }
    }
    for (qubo::VarId i = 0; i < n; ++i) {
      const size_t at = static_cast<size_t>(i) * kLanes;
      __m256d delta = _mm256_setzero_pd();
      for (int k = 0; k < p; ++k) {
        const size_t slice = static_cast<size_t>(k) * slice_stride;
        delta = _mm256_add_pd(
            delta, _mm256_mul_pd(_mm256_loadu_pd(m2s + slice + at),
                                 _mm256_loadu_pd(field + slice + at)));
      }
      const __m256d accept = Metropolis4(&draws, &next4, delta, neg_beta);
      if (_mm256_movemask_pd(accept) == 0) continue;
      for (int k = 0; k < p; ++k) {
        const size_t slice = static_cast<size_t>(k) * slice_stride;
        Flip4(csr, i, field + slice, m2s + slice + at,
              _mm256_loadu_pd(m2s + slice + at), accept);
      }
    }
  }
  EndDraws(&draws, next4);
}

/// Four reads in lane layout: reads[l].spins holds `slices` consecutive
/// spin vectors of `ising` (one for SA, P for SQA). Entry [4 j + l] of
/// `m2s` is -2 s for entry j of read l's spins and of `field` its slice's
/// initial local field; `engines[l]` is read l's stream.
struct Lanes {
  Lanes(const qubo::IsingProblem& ising, const SweepRead* reads, int slices)
      : reads(reads) {
    const size_t n = static_cast<size_t>(ising.num_spins());
    const size_t size = n * static_cast<size_t>(slices);
    field.resize(size * kLanes);
    m2s.resize(size * kLanes);
    for (int l = 0; l < kLanes; ++l) {
      const int8_t* s = reads[l].spins->data();
      assert(reads[l].spins->size() == size);
      for (size_t k = 0; k < size; k += n) {
        InitFields(ising, s + k, field.data() + k * kLanes + l, kLanes);
      }
      for (size_t j = 0; j < size; ++j) {
        m2s[j * kLanes + static_cast<size_t>(l)] =
            -2.0 * static_cast<double>(s[j]);
      }
      engines[l] = &reads[l].rng->engine();
    }
  }

  /// Writes the lanes' spins back to their reads.
  void Store() const {
    for (int l = 0; l < kLanes; ++l) {
      std::vector<int8_t>& s = *reads[l].spins;
      for (size_t j = 0; j < s.size(); ++j) {
        s[j] = m2s[j * kLanes + static_cast<size_t>(l)] < 0.0 ? int8_t{1}
                                                              : int8_t{-1};
      }
    }
  }

  const SweepRead* reads;
  std::vector<double> field;
  std::vector<double> m2s;
  std::mt19937_64* engines[kLanes];
};

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
      Lanes lanes(ising, reads + r, 1);
      LaneSweeps(ising, beta, sweeps, lanes.engines, lanes.field.data(),
                 lanes.m2s.data());
      lanes.Store();
    }
  }
#endif
  for (; r < count; ++r) {
    RunSweeps(ising, beta, sweeps, reads[r].rng, reads[r].spins);
  }
}

void GroupReads(
    const Rng& base, int begin, int end, size_t spins_per_read,
    const std::function<bool(int)>& skip,
    const std::function<void(const SweepRead*, const int*, int)>& run) {
  std::vector<Rng> rngs;
  rngs.reserve(kLanes);  // SweepRead keeps pointers into it
  std::vector<std::vector<int8_t>> spins(kLanes,
                                         std::vector<int8_t>(spins_per_read));
  int ids[kLanes];
  auto flush = [&] {
    const int count = static_cast<int>(rngs.size());
    SweepRead reads[kLanes] = {};
    for (int k = 0; k < count; ++k) reads[k] = {&rngs[k], &spins[k]};
    run(reads, ids, count);
    rngs.clear();
  };
  for (int r = begin; r < end; ++r) {
    if (skip && skip(r)) continue;
    const size_t slot = rngs.size();
    ids[slot] = r;
    rngs.push_back(base.Fork(static_cast<uint64_t>(r)));
    RandomSpins(&rngs.back(), &spins[slot]);
    if (rngs.size() == kLanes) flush();
  }
  if (!rngs.empty()) flush();
}

void AnnealReads(const qubo::IsingProblem& ising, const Schedule& beta,
                 int sweeps, const Rng& base, int begin, int end,
                 const std::function<bool(int)>& skip,
                 const std::function<void(int, const std::vector<int8_t>&)>&
                     done) {
  GroupReads(base, begin, end, static_cast<size_t>(ising.num_spins()), skip,
             [&](const SweepRead* reads, const int* ids, int count) {
               RunSweepsBatch(ising, beta, sweeps, reads, count);
               for (int k = 0; k < count; ++k) done(ids[k], *reads[k].spins);
             });
}

#if QMQO_SCALAR_LANES

void SqaLaneBatch(const qubo::IsingProblem& ising, int num_slices,
                  double beta_slice, const std::vector<double>& j_perp,
                  const SweepRead* reads) {
  assert(ScalarLanesSupported());
  Lanes lanes(ising, reads, num_slices);
  SqaLaneSteps(ising, num_slices, beta_slice, j_perp, lanes.engines,
               lanes.field.data(), lanes.m2s.data());
  lanes.Store();
}

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

void SqaLaneBatch(const qubo::IsingProblem&, int, double,
                  const std::vector<double>&, const SweepRead*) {
  std::abort();
}
void FastExpLanes(const double*, double*) { std::abort(); }
void UniformLanes(const uint64_t*, double*) { std::abort(); }
void ScreenLanes(const double*, double, const double*, bool*) {
  std::abort();
}

#endif  // QMQO_SCALAR_LANES

}  // namespace anneal
}  // namespace qmqo
