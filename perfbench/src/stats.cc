#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace qmqo {
namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lower = static_cast<size_t>(std::floor(rank));
  const size_t upper = std::min(lower + 1, values.size() - 1);
  const double weight = rank - static_cast<double>(lower);
  return values[lower] + weight * (values[upper] - values[lower]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double value : values) sum += value;
  return sum / static_cast<double>(values.size());
}

double SelfWallMs(const obs::SolveTrace& trace, int index) {
  const std::vector<obs::Span>& spans = trace.spans();
  const double wall = spans[static_cast<size_t>(index)].wall_ms;
  double covered = 0.0;
  for (const obs::Span& span : spans) {
    if (span.parent == index) covered += span.wall_ms;
  }
  return std::max(0.0, wall - std::min(covered, wall));
}

double TraceOverheadPct(double untraced_per_s, double traced_per_s) {
  if (untraced_per_s <= 0.0) return 0.0;
  return 100.0 * (untraced_per_s - traced_per_s) / untraced_per_s;
}

LoopTimings TimeBlocks(const std::vector<SettleEvent>& events, int blocks) {
  LoopTimings timings;
  if (events.empty() || blocks < 1) return timings;
  const double span = events.back().end_ms / blocks;
  std::vector<double> throughput, p50, p90, cpu;
  size_t next = 0;
  double start_ms = 0.0, start_cpu = 0.0;
  for (int b = 0; b < blocks && next < events.size(); ++b) {
    int ok = 0;
    std::vector<double> latency;
    const SettleEvent* last = nullptr;
    for (; next < events.size() &&
           (b == blocks - 1 || events[next].end_ms < span * (b + 1));
         ++next) {
      last = &events[next];
      ok += last->ok;
      latency.insert(latency.end(), last->latency_ms.begin(),
                     last->latency_ms.end());
    }
    if (last == nullptr) continue;
    const double duration_ms = last->end_ms - start_ms;
    if (duration_ms > 0.0) throughput.push_back(ok / (duration_ms / 1000.0));
    p50.push_back(Percentile(latency, 50));
    p90.push_back(Percentile(latency, 90));
    if (!latency.empty()) {
      cpu.push_back((last->cpu_ms - start_cpu) / latency.size());
    }
    start_ms = last->end_ms;
    start_cpu = last->cpu_ms;
  }
  timings.throughput_per_s = Percentile(throughput, 75);
  timings.latency_p50_ms = Percentile(p50, 25);
  timings.latency_p90_ms = Percentile(p90, 25);
  timings.cpu_ms_per_request = Percentile(cpu, 25);
  return timings;
}

void AnswerDigest::Add(const std::string& record) {
  for (unsigned char c : record) {
    hash_ ^= c;
    hash_ *= 1099511628211ull;
  }
  hash_ ^= 0xffu;  // record separator: "ab"+"c" differs from "a"+"bc"
  hash_ *= 1099511628211ull;
}

std::string AnswerDigest::Hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash_));
  return buffer;
}

}  // namespace perfbench
}  // namespace qmqo
