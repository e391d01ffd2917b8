#ifndef QMQO_ANNEAL_PARALLEL_H_
#define QMQO_ANNEAL_PARALLEL_H_

/// \file parallel.h
/// The shared parallel read engine of the annealing samplers.
///
/// Every sampler in this library runs `num_reads` *independent* anneals:
/// read r forks its own RNG stream (`rng.Fork(r)`), so reads can execute in
/// any order — and therefore on any thread — without changing a single
/// random draw. `RunReads` fans the reads across a reusable
/// `util::Executor` worker pool (caller-supplied, or the lazily-created
/// process-wide `util::Executor::Shared()` pool) instead of spawning
/// threads per call; each chunk accumulates its results into a chunk-local
/// `SampleSet`, and the locals are concatenated and finalized once at the
/// end. Because `SampleSet::Finalize` imposes a total order (energy, then
/// assignment) and merges duplicates, the finalized result is
/// **bit-identical** for every thread count, including the serial path.
///
/// Callers must finalize shared problem structures (`IsingProblem::Finalize`
/// / `QuboProblem::Finalize`) before entering the engine: lazy finalization
/// under concurrent const access would be a data race.

#include <cstdint>
#include <functional>

#include "anneal/sample_set.h"
#include "util/executor.h"

namespace qmqo {
namespace anneal {

/// The shared thread-count resolution path (see util/executor.h): values
/// >= 1 pass through, anything else (0 = "auto") becomes the hardware
/// concurrency (at least 1).
using util::ResolveNumThreads;

/// The read contract every sampler shares: how many independent reads to
/// draw, from which seed, on how many threads of which pool, and how many
/// distinct samples to keep. `SaOptions`, `SqaOptions` and `DWaveOptions`
/// inherit it, so each field is declared here once.
struct ReadOptions {
  /// Independent reads; each contributes one sample.
  int num_reads = 100;
  /// Seed of the sampler's base stream; read r runs on its `Fork(r)`.
  uint64_t seed = 1;
  /// Worker threads for the read loop: 1 = serial (default), 0 = hardware
  /// concurrency. Results are bit-identical for every thread count.
  /// Serial wall time is comparable only across hosts that agree on AVX2,
  /// with which the SA and SQA kernels anneal four reads per pass (see
  /// anneal/sweep_kernel.h).
  int num_threads = 1;
  /// Worker pool to fan reads across when `num_threads != 1`; null = the
  /// process-wide `util::Executor::Shared()` pool. Never owned.
  util::Executor* executor = nullptr;
  /// Streaming top-k retention: keep only the best `max_samples` distinct
  /// assignments (0 = unlimited). Top-k membership, energies, and
  /// occurrence counts are exact and thread-count independent;
  /// `SampleSet::total_reads` still counts every read.
  int max_samples = 0;
};

/// Splits [0, reads.num_reads) into up to `reads.num_threads` contiguous
/// chunks, calls `run_reads(begin, end, &local)` once per chunk on
/// `reads.executor`, and returns the finalized union of the chunk-local
/// sets. `reads.seed` is the caller's: it forks each read's stream
/// itself. Handing a chunk its whole range lets a sampler anneal several
/// reads at once (see `AnnealReads`). `run_reads` must not touch shared
/// mutable state; exceptions thrown by a worker are rethrown on the
/// calling thread. One thread runs inline without touching any pool, and
/// no threads are ever spawned by this call itself. A positive
/// `max_samples` applies streaming top-k retention (see
/// SampleSet::set_max_samples) to the chunk-local sets and the returned
/// union — the retained top-k stays exact and bit-identical at any thread
/// count, because an overall-top-k assignment ranks in the top-k of every
/// chunk it appears in.
SampleSet RunReads(
    const ReadOptions& reads,
    const std::function<void(int begin, int end, SampleSet*)>& run_reads);

}  // namespace anneal
}  // namespace qmqo

#endif  // QMQO_ANNEAL_PARALLEL_H_
