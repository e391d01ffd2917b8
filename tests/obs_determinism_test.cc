// The observability layer's own acceptance bar: under a full chaos run
// (queue stalls, worker crashes, brownouts, a flaky device, deadline
// shedding, backoff), the service's metric snapshots — Prometheus text and
// JSON exposition — and its trace dumps (wall clocks suppressed) are
// BYTE-IDENTICAL at 1, 2, and 4 worker threads. Sharded counters, the
// fixed-point histogram sums, and the serial span commit discipline exist
// to make this true; this test is what keeps them honest.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>

#include "chimera/topology.h"
#include "harness/mqo_workload.h"
#include "harness/paper_workload.h"
#include "obs/trace.h"
#include "service/solve_service.h"
#include "util/fault.h"
#include "util/rng.h"

namespace qmqo {
namespace service {
namespace {

uint64_t ChaosSeed() {
  const char* env = std::getenv("QMQO_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return 1;
  return static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
}

class ObsDeterminismTest : public ::testing::Test {
 protected:
  ObsDeterminismTest() : graph_(4, 4, 4) {
    Rng rng(ChaosSeed());
    harness::PaperWorkloadOptions workload;
    workload.plans_per_query = 2;
    workload.num_queries = 10;
    auto instance = harness::GeneratePaperInstance(graph_, workload, &rng);
    EXPECT_TRUE(instance.ok()) << instance.status().ToString();
    instance_ = *std::move(instance);
    auto target = harness::MqoWorkload::Create(instance_.problem,
                                               instance_.embedding, &graph_);
    EXPECT_TRUE(target.ok()) << target.status().ToString();
    target_ = *std::move(target);
  }

  ServiceOptions SmallServiceOptions() const {
    ServiceOptions options;
    options.graph = &graph_;
    options.num_threads = 1;
    options.pipeline.device.num_reads = 30;
    options.pipeline.device.num_gauges = 3;
    options.pipeline.device.sa_sweeps = 16;
    options.pipeline.device.num_threads = 1;
    options.pipeline.device.seed = ChaosSeed() + 7;
    options.policy.seed = ChaosSeed();
    options.policy.max_attempts_per_backend = 1;
    options.policy.sqa_reads = 4;
    options.policy.sqa_slices = 4;
    options.policy.sqa_sweeps = 16;
    options.policy.sa_reads = 8;
    options.policy.sa_sweeps = 32;
    return options;
  }

  chimera::ChimeraGraph graph_;
  harness::PaperInstance instance_;
  std::shared_ptr<const harness::MqoWorkload> target_;
};

struct ObsDump {
  std::string prometheus;
  std::string json;
  std::string traces;
  size_t trace_count = 0;
  int64_t settled = 0;
};

TEST_F(ObsDeterminismTest, SnapshotsAndTracesAreIdenticalAcrossThreads) {
  auto run_with_threads = [&](int num_threads) {
    util::FaultInjector faults(ChaosSeed());
    util::FaultSpec stall;
    stall.probability = 1.0;  // every round ages the queue 25 modeled ms
    stall.latency_ms = 25.0;
    faults.Arm("service.queue_stall", stall);
    util::FaultSpec crash;
    crash.probability = 0.15;
    faults.Arm("service.worker_crash", crash);
    util::FaultSpec brownout;
    brownout.probability = 0.25;
    faults.Arm("service.brownout", brownout);
    util::FaultSpec flaky_device;
    flaky_device.probability = 0.4;
    flaky_device.latency_ms = 5.0;
    faults.Arm("solve.device", flaky_device);

    obs::Tracer tracer;
    ServiceOptions options = SmallServiceOptions();
    options.faults = &faults;
    options.tracer = &tracer;
    options.num_threads = num_threads;
    options.queue_capacity = 8;
    options.round_width = 3;
    options.policy.max_attempts_per_backend = 2;
    options.policy.backoff_initial_ms = 1.0;
    options.breaker.window = 6;
    options.breaker.min_samples = 3;
    options.breaker.open_cooldown_ms = 40.0;

    SolveService service(options);
    int submitted = 0;
    for (int wave = 0; wave < 3; ++wave) {
      for (int i = 0; i < 4; ++i) {
        RequestPriority priority = (submitted % 3 == 0)
                                       ? RequestPriority::kInteractive
                                       : RequestPriority::kBatch;
        double deadline = (submitted % 4 == 3) ? 20.0 : 0.0;
        auto id = service.Submit(target_, priority, deadline);
        if (id.ok()) ++submitted;
      }
      service.ProcessRound();
    }
    service.Shutdown(/*graceful=*/true);

    // Every committed trace must be a finished tree: no leaked open spans
    // (error paths are required to close their spans too).
    for (const obs::SolveTrace& trace : tracer.traces()) {
      EXPECT_FALSE(trace.has_open_span());
      EXPECT_FALSE(trace.spans().empty());
      if (trace.spans().empty()) continue;
      EXPECT_EQ(trace.spans()[0].name, "service.request");
    }

    ObsDump dump;
    dump.prometheus = service.metrics().PrometheusText();
    dump.json = service.metrics().JsonText();
    dump.traces = tracer.DumpJsonLines(/*include_wall=*/false);
    dump.trace_count = tracer.size();
    dump.settled = service.stats().settled();
    EXPECT_EQ(service.stats().in_flight(), 0);
    return dump;
  };

  ObsDump base = run_with_threads(1);
  // One service.request root per settled request, committed in settle
  // order from the serial path.
  EXPECT_EQ(static_cast<int64_t>(base.trace_count), base.settled);
  EXPECT_FALSE(base.prometheus.empty());
  EXPECT_FALSE(base.traces.empty());

  for (int num_threads : {2, 4}) {
    ObsDump other = run_with_threads(num_threads);
    EXPECT_EQ(base.prometheus, other.prometheus)
        << "Prometheus snapshot differs at " << num_threads << " threads";
    EXPECT_EQ(base.json, other.json)
        << "JSON snapshot differs at " << num_threads << " threads";
    EXPECT_EQ(base.traces, other.traces)
        << "trace dump differs at " << num_threads << " threads";
  }
}

}  // namespace
}  // namespace service
}  // namespace qmqo
