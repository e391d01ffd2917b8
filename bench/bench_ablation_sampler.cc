// Ablation: device backend — classical simulated annealing vs simulated
// quantum annealing (path-integral Monte Carlo) as the sampler inside the
// device model, plus the effect of gauge averaging under control error
// (the paper uses 10 gauges x 100 reads to cancel qubit biases).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "harness/quantum_pipeline.h"
#include "solver/mqo_bnb.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"

qmqo::Status qmqo::bench::RunAblationSampler() {
  chimera::ChimeraGraph graph(4, 4, 4);
  harness::PaperWorkloadOptions workload;
  workload.plans_per_query = 2;
  // A deliberately frustrated instance (strong sharing) so backend and
  // gauge effects are visible.
  workload.saving_scale = 5.0;
  Rng rng(3);
  auto instance = harness::GeneratePaperInstance(graph, workload, &rng);
  QMQO_RETURN_IF_ERROR(instance.status());
  solver::MqoBnbOptions exact_options;
  exact_options.time_limit_ms = 10000.0;
  auto exact =
      solver::MqoBranchAndBound(exact_options).Solve(instance->problem);
  QMQO_RETURN_IF_ERROR(exact.status());

  // A time-capped B&B reports its incumbent, which an annealer can beat:
  // the gaps below are then relative to that incumbent, not an optimum.
  std::printf("=== Ablation: sampler backend and gauge averaging ===\n");
  std::printf("instance: %s, %s %.1f (%s)\n\n",
              instance->problem.Summary().c_str(),
              exact->proven_optimal ? "optimum" : "B&B best", exact->cost,
              exact->proven_optimal ? "proven" : "time-capped");

  const int reads = FullScale() ? 400 : 150;
  TablePrinter table({"configuration", "first-read cost", "best cost",
                      "gap to B&B", "sim wall ms"});
  struct Config {
    std::string name;
    anneal::DeviceBackend backend;
    int gauges;
    double noise;
  };
  std::vector<Config> configs = {
      {"SA, 10 gauges, 1% noise", anneal::DeviceBackend::kSimulatedAnnealing,
       10, 0.01},
      {"SA, 1 gauge, 1% noise", anneal::DeviceBackend::kSimulatedAnnealing, 1,
       0.01},
      {"SA, 10 gauges, 5% noise", anneal::DeviceBackend::kSimulatedAnnealing,
       10, 0.05},
      {"SA, 1 gauge, 5% noise", anneal::DeviceBackend::kSimulatedAnnealing, 1,
       0.05},
      {"SQA, 10 gauges, 1% noise",
       anneal::DeviceBackend::kSimulatedQuantumAnnealing, 10, 0.01},
  };
  for (const Config& config : configs) {
    harness::QuantumMqoOptions options;
    // Raw device comparison: no swap-descent post-processing.
    options.postprocess_swap_descent = false;
    options.device.backend = config.backend;
    options.device.num_reads = reads;
    options.device.num_gauges = config.gauges;
    options.device.control_error = config.noise;
    options.device.sqa.num_slices = 12;
    options.device.sqa.sweeps = 192;
    options.device.seed = 29;
    Stopwatch watch;
    auto result = harness::SolveQuantumMqo(instance->problem,
                                           instance->embedding, graph,
                                           options);
    QMQO_RETURN_IF_ERROR(result.status());
    table.AddRow({config.name, StrFormat("%.1f", result->first_read_cost),
                  StrFormat("%.1f", result->best_cost),
                  StrFormat("%+.2f%%", 100.0 * (result->best_cost - exact->cost) /
                                           exact->cost),
                  StrFormat("%.0f", result->simulator_wall_ms)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "(expected shape: gauge averaging recovers quality lost to control\n"
      "error; SQA matches SA quality at higher simulation cost)\n");
  return Status::OK();
}
