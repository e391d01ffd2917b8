#ifndef QMQO_PERFBENCH_REPORT_H_
#define QMQO_PERFBENCH_REPORT_H_

/// \file report.h
/// What one benchmark run reports: named metrics with units, the request
/// tally, output-check failures, and free-form facts (digests, per-class
/// notes). Serialized as one JSON object for `perfbench/run.py`.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace qmqo {
namespace perfbench {

/// Command-line settings of one run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Every per-layer metric, in output order. A traced run reports all of
/// them; a layer its workload does not exercise reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
inline constexpr LayerMetric kLayerMetrics[] = {
    {"anneal.device_ms", "ms"},
    {"anneal.gauge_ms", "ms"},
    {"anneal.reads", "count"},
    {"anneal.spin_updates", "count"},
    {"anneal.spin_updates_per_s", "1/s"},
    {"anneal.broken_chain_fraction", "fraction"},
    {"anneal.sqa_ms", "ms"},
    {"harness.attempt_self_ms", "ms"},
    {"harness.unembed_ms", "ms"},
    {"harness.merge_ms", "ms"},
    {"harness.attempts", "count"},
    {"harness.retries", "count"},
    {"harness.fallbacks", "count"},
    {"mqo.parse_ms", "ms"},
    {"mqo.payload_bytes", "bytes"},
    {"embedding.derive_ms", "ms"},
    {"embedding.compile_ms", "ms"},
    {"embedding.physical_qubits", "count"},
    {"embedding.cache_hit_ratio", "fraction"},
    {"mapping.logical_ms", "ms"},
    {"mapping.logical_vars", "count"},
    {"workloads.parse_ms", "ms"},
    {"workloads.formulate_ms", "ms"},
    {"workloads.decode_ms", "ms"},
    {"workloads.validate_ms", "ms"},
    {"service.submit_ms", "ms"},
    {"service.round_ms", "ms"},
    {"service.round_overhead_ms", "ms"},
    {"service.requests_per_round", "count"},
    {"service.answered_by.device", "fraction"},
    {"service.answered_by.sqa", "fraction"},
    {"service.answered_by.sa", "fraction"},
    {"service.answered_by.greedy", "fraction"},
    {"service.answered_by.device.l2", "fraction"},
    {"service.answered_by.device.l3", "fraction"},
    {"service.answered_by.device.l4", "fraction"},
    {"service.answered_by.device.l5", "fraction"},
    {"service.answered_by.sqa.l2", "fraction"},
    {"service.answered_by.sqa.l3", "fraction"},
    {"service.answered_by.sqa.l4", "fraction"},
    {"service.answered_by.sqa.l5", "fraction"},
    {"service.rejected", "count"},
    {"service.shed", "count"},
    {"solver.nodes", "count"},
    {"solver.nodes_per_s", "1/s"},
    {"solver.time_to_best_ms", "ms"},
    {"util.executor.workers_spawned", "count"},
    {"util.cpu_utilization", "fraction"},
    {"obs.trace_overhead_pct", "%"},
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// Adds every `kLayerMetrics` entry, taking its value from `values` (0
  /// when absent). A name in `values` outside the table is a failed check.
  void AddLayers(const std::map<std::string, double>& values);
  void Fact(const std::string& key, const std::string& value) {
    facts_.emplace_back(key, value);
  }
  /// Records a failed output check; any failure makes the run incorrect.
  void Fail(const std::string& what);
  /// Counts one attempted request and whether it failed.
  void Count(bool failed) {
    ++attempted_;
    if (failed) ++failed_;
  }

  bool correct() const { return failures_.empty(); }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  std::string Json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> facts_;
  std::vector<std::string> failures_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// `peak_rss_mb` is read once the timed loop has settled this many
/// requests. The service keeps every outcome, so memory at the end of a
/// timed run would grow with throughput.
inline constexpr size_t kRssPrefixRequests = 32;

/// Timing metrics are taken per block of a timed loop and summarized over
/// this many blocks (see `TimeBlocks`).
inline constexpr int kTimingBlocks = 8;

/// CPU time of the whole process (all threads), milliseconds.
double ProcessCpuMs();
/// Peak resident set size of the process, MiB.
double PeakRssMb();

/// Entry points of the workloads; each fills `report` for `options`.
void RunServiceWorkload(const RunOptions& options, Report* report);
void RunExactWorkload(const RunOptions& options, Report* report);

}  // namespace perfbench
}  // namespace qmqo

#endif  // QMQO_PERFBENCH_REPORT_H_
