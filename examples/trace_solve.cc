// Where does a solve spend its time? Runs one paper-style workload
// through the resilient orchestrator with fault injection armed and a
// SolveTrace attached, then pretty-prints the span tree: one solve.attempt
// per ladder rung tried (tagged with status, backoff, faults), and under
// each device attempt the pipeline stages — embed (cache hit or miss),
// anneal with one anneal.gauge child per gauge transform, unembed, merge —
// each with its modeled (deterministic) and wall (measured) duration.
//
// Build & run:   ./build/trace_solve [chaos_seed]

#include <cstdio>
#include <cstdlib>

#include "chimera/topology.h"
#include "harness/mqo_workload.h"
#include "harness/paper_workload.h"
#include "harness/quantum_pipeline.h"
#include "harness/resilient_solver.h"
#include "obs/trace.h"
#include "util/fault.h"
#include "util/rng.h"

int main(int argc, char** argv) {
  using namespace qmqo;

  uint64_t seed = 1;
  if (argc > 1) seed = static_cast<uint64_t>(std::strtoull(argv[1], nullptr, 10));

  // --- The chip and a paper-style workload co-designed with it. ---
  chimera::ChimeraGraph chip(4, 4, 4);
  Rng rng(seed);
  harness::PaperWorkloadOptions workload;
  workload.plans_per_query = 2;
  workload.num_queries = 10;
  auto instance = harness::GeneratePaperInstance(chip, workload, &rng);
  if (!instance.ok()) {
    std::printf("generation failed: %s\n",
                instance.status().ToString().c_str());
    return 1;
  }
  std::printf("workload: %s\n", instance->problem.Summary().c_str());

  // --- Chaos: a flaky device and occasional programming failures, so the
  // trace shows retries, backoff, and a fallback or two. ---
  util::FaultInjector faults(seed);
  util::FaultSpec flaky_device;
  flaky_device.probability = 0.35;
  flaky_device.latency_ms = 5.0;
  faults.Arm("solve.device", flaky_device);

  // --- The solve, traced. ---
  harness::SolvePolicy policy;
  policy.seed = seed;
  policy.max_attempts_per_backend = 2;
  policy.backoff_initial_ms = 2.0;
  policy.faults = &faults;
  policy.sqa_reads = 8;
  policy.sqa_slices = 4;
  policy.sqa_sweeps = 32;

  obs::SolveTrace trace;
  harness::QuantumMqoOptions options;
  options.device.num_reads = 50;
  options.device.num_gauges = 4;
  options.device.seed = seed + 7;
  options.faults = &faults;
  options.trace = &trace;

  auto target = harness::MqoWorkload::Create(
      std::move(instance->problem), std::move(instance->embedding), &chip);
  if (!target.ok()) {
    std::fprintf(stderr, "formulation failed: %s\n",
                 target.status().ToString().c_str());
    return 1;
  }
  harness::ResilientSolver solver(policy);
  harness::SolveReport report = solver.Solve(**target, options);

  std::printf("\nanswer: %s via %s, cost %.2f (%d attempts, %lld faults)\n",
              report.ok ? "ok" : "FAILED",
              harness::SolveBackendName(report.backend), report.cost,
              report.total_attempts,
              static_cast<long long>(report.faults_observed));
  std::printf("chain:  %s\n", report.FailureChain().c_str());

  // --- The span tree: modeled (deterministic) + wall (measured) time per
  // stage, fault and status annotations inline. ---
  std::printf("\nspan tree:\n%s", trace.Pretty(/*include_wall=*/true).c_str());

  std::printf("\nstage totals (modeled ms):\n");
  for (const char* stage :
       {"solve.attempt", "pipeline.embed", "pipeline.anneal", "anneal.gauge",
        "pipeline.unembed", "pipeline.merge"}) {
    std::printf("  %-17s %8.3f\n", stage, trace.ModeledTotal(stage));
  }

  std::printf("\nas JSON-lines (wall suppressed — byte-stable for a seed):\n%s",
              trace.JsonLine(/*include_wall=*/false).c_str());
  std::printf("\n");
  return 0;
}
