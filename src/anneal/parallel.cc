#include "anneal/parallel.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace qmqo {
namespace anneal {

SampleSet RunReads(
    const ReadOptions& reads,
    const std::function<void(int begin, int end, SampleSet*)>& run_reads) {
  SampleSet out;
  out.set_max_samples(reads.max_samples);
  if (reads.num_reads <= 0) {
    out.Finalize();
    return out;
  }
  const int workers =
      std::min(ResolveNumThreads(reads.num_threads), reads.num_reads);
  if (workers == 1) {
    run_reads(0, reads.num_reads, &out);
    out.Finalize();
    return out;
  }

  // Chunk-local accumulation on the pool; any partition works for
  // determinism — Finalize makes the result order-independent — the
  // executor's static contiguous chunking just keeps per-chunk work
  // predictable.
  util::Executor& pool = reads.executor != nullptr
                             ? *reads.executor
                             : util::Executor::Shared();
  std::vector<SampleSet> locals(static_cast<size_t>(workers));
  for (SampleSet& local : locals) local.set_max_samples(reads.max_samples);
  pool.ParallelFor(reads.num_reads, workers,
                   [&](int begin, int end, int chunk) {
                     run_reads(begin, end,
                               &locals[static_cast<size_t>(chunk)]);
                   });
  for (SampleSet& local : locals) {
    out.Append(std::move(local));
  }
  out.Finalize();
  return out;
}

}  // namespace anneal
}  // namespace qmqo
