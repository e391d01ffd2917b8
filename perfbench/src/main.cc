// The repository benchmark's measuring binary. Runs one workload for a
// time budget and prints one JSON object (see report.h); perfbench/run.py
// builds it, runs it, and reduces that object to the benchmark's result
// line.
//
//   qmqo_perfbench --workload <mqo_paper|graph_qubo|mqo_exact>
//                  --seed <n> --seconds <s> --trace <0|1>

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>

#include "report.h"
#include "util/string_util.h"

#ifndef QMQO_PERFBENCH_COMPILER
#define QMQO_PERFBENCH_COMPILER "unknown"
#endif
#ifndef QMQO_PERFBENCH_BUILD_TYPE
#define QMQO_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace qmqo {
namespace perfbench {

namespace {

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += StrFormat("\\u%04x", static_cast<unsigned>(c));
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

void Report::Fail(const std::string& what) {
  failures_.push_back(what);
  std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

void Report::AddLayers(const std::map<std::string, double>& values) {
  size_t known = 0;
  for (const LayerMetric& metric : kLayerMetrics) {
    const auto found = values.find(metric.name);
    known += found != values.end() ? 1 : 0;
    Add(metric.name, found != values.end() ? found->second : 0.0, metric.unit);
  }
  if (known != values.size()) Fail("a per-layer metric is missing from kLayerMetrics");
}

std::string Report::Json() const {
  std::string out = StrFormat("{\"correct\": %s, \"attempted\": %lld, "
                              "\"failed\": %lld, \"metrics\": {",
                              correct() ? "true" : "false",
                              static_cast<long long>(attempted_),
                              static_cast<long long>(failed_));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const double value = std::isfinite(metrics_[i].value) ? metrics_[i].value
                                                          : 0.0;
    out += StrFormat("%s%s: {\"value\": %.17g, \"unit\": %s}",
                     i > 0 ? ", " : "", Quote(metrics_[i].name).c_str(), value,
                     Quote(metrics_[i].unit).c_str());
  }
  out += "}, \"facts\": {";
  for (size_t i = 0; i < facts_.size(); ++i) {
    out += StrFormat("%s%s: %s", i > 0 ? ", " : "",
                     Quote(facts_[i].first).c_str(),
                     Quote(facts_[i].second).c_str());
  }
  out += "}, \"failures\": [";
  for (size_t i = 0; i < failures_.size(); ++i) {
    out += (i > 0 ? ", " : "") + Quote(failures_[i]);
  }
  return out + "]}";
}

double ProcessCpuMs() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) * 1e3 +
         static_cast<double>(now.tv_nsec) / 1e6;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
}  // namespace qmqo

int main(int argc, char** argv) {
  using qmqo::perfbench::RunOptions;
  RunOptions options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (!have_workload || !(options.seconds > 0.0) || options.seconds > 600.0) {
    std::fprintf(stderr,
                 "usage: %s --workload <mqo_paper|graph_qubo|mqo_exact> "
                 "--seed <n> --seconds <s in (0, 600]> --trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  qmqo::perfbench::Report report;
  report.Fact("compiler", QMQO_PERFBENCH_COMPILER);
  report.Fact("build_type", QMQO_PERFBENCH_BUILD_TYPE);
  if (options.workload == "mqo_paper" || options.workload == "graph_qubo") {
    qmqo::perfbench::RunServiceWorkload(options, &report);
  } else if (options.workload == "mqo_exact") {
    qmqo::perfbench::RunExactWorkload(options, &report);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
    return 2;
  }
  std::printf("%s\n", report.Json().c_str());
  return report.correct() ? 0 : 1;
}
