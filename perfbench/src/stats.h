#ifndef QMQO_PERFBENCH_STATS_H_
#define QMQO_PERFBENCH_STATS_H_

/// \file stats.h
/// Small numeric helpers of the repository benchmark: percentiles over
/// per-request samples, span self time read from a finished solve trace,
/// tracing overhead, and the answer digest that checks determinism.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace qmqo {
namespace perfbench {

/// Percentile `p` in [0, 100] of `values` by linear interpolation between
/// closest ranks (the "inclusive" method: p=0 is the minimum, p=100 the
/// maximum). Returns 0 for an empty input.
double Percentile(std::vector<double> values, double p);

/// Arithmetic mean; 0 for an empty input.
double Mean(const std::vector<double>& values);

/// Wall time of span `index` not covered by its direct children. Spans of
/// one trace are built by one thread, so children never overlap and their
/// covered time is the sum of their durations, capped at the parent's.
double SelfWallMs(const obs::SolveTrace& trace, int index);

/// How much slower the traced run went, in percent of the untraced
/// throughput: 100 * (untraced - traced) / untraced. 0 when the untraced
/// throughput is not positive.
double TraceOverheadPct(double untraced_per_s, double traced_per_s);

/// One settle event of a timed loop: a service round or a proof.
struct SettleEvent {
  double end_ms = 0.0;  ///< when it ended, ms since the loop began
  double cpu_ms = 0.0;  ///< CPU ms the loop had used by then
  int ok = 0;           ///< requests answered OK
  std::vector<double> latency_ms;  ///< one per request settled
};

/// The timing metrics of a loop.
struct LoopTimings {
  double throughput_per_s = 0.0;  ///< OK requests per second
  double latency_p50_ms = 0.0;
  double latency_p90_ms = 0.0;
  double cpu_ms_per_request = 0.0;
};

/// Splits a loop's events into `blocks` spans of about equal duration,
/// computes every timing metric per block, and returns for each metric its
/// best quartile over the blocks (75th percentile of throughput, 25th of
/// the others). The host's speed swings within seconds, so the quieter
/// blocks of a run measure the program, not its neighbours. Blocks without
/// events are skipped.
LoopTimings TimeBlocks(const std::vector<SettleEvent>& events, int blocks);

/// Order-sensitive 64-bit FNV-1a digest of a sequence of answer records.
class AnswerDigest {
 public:
  void Add(const std::string& record);
  uint64_t value() const { return hash_; }
  std::string Hex() const;

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

}  // namespace perfbench
}  // namespace qmqo

#endif  // QMQO_PERFBENCH_STATS_H_
