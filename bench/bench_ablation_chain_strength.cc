// Ablation: chain-strength setting in the physical mapping. The paper
// (Sections 4-5) argues weights should be as small as possible because
// large weight ranges degrade annealer precision, while chains need
// w_B = U + eps to hold together. This bench sweeps a scale factor on the
// Choi bound and reports broken-chain rates and solution quality — showing
// both failure modes: chains shatter below 1.0x, signal drowns far above.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "harness/quantum_pipeline.h"
#include "solver/mqo_bnb.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/table_printer.h"

qmqo::Status qmqo::bench::RunAblationChainStrength() {
  // A 3-plan class on a mid-size chip: chains of length 2, so chain
  // breaking is actually possible (the 2-plan class has 1-qubit chains).
  chimera::ChimeraGraph graph(6, 6, 4);
  harness::PaperWorkloadOptions workload;
  workload.plans_per_query = 3;
  workload.saving_scale = 2.0;  // the Figures 4-6 calibration
  Rng rng(5);
  auto instance = harness::GeneratePaperInstance(graph, workload, &rng);
  QMQO_RETURN_IF_ERROR(instance.status());
  solver::MqoBnbOptions exact_options;
  exact_options.time_limit_ms = 30000.0;
  auto exact = solver::MqoBranchAndBound(exact_options).Solve(instance->problem);
  QMQO_RETURN_IF_ERROR(exact.status());

  std::printf("=== Ablation: chain strength scale (x Choi bound) ===\n");
  std::printf("instance: %s, optimum %.1f (%s)\n\n",
              instance->problem.Summary().c_str(), exact->cost,
              exact->proven_optimal ? "proven" : "time-capped");

  TablePrinter table({"scale", "broken chains (mean %)", "valid reads",
                      "first-read cost", "best cost", "gap to optimum"});
  for (double scale : {0.05, 0.25, 0.5, 1.0, 2.0, 8.0, 32.0}) {
    harness::QuantumMqoOptions options;
    options.physical.chain_strength_scale = scale;
    options.device.num_reads = FullScale() ? 1000 : 300;
    options.device.seed = 17;
    // Raw device behaviour: no swap-descent post-processing, so the
    // effect of the chain strength on sample quality is not masked.
    options.postprocess_swap_descent = false;
    auto result = harness::SolveQuantumMqo(instance->problem,
                                           instance->embedding, graph,
                                           options);
    QMQO_RETURN_IF_ERROR(result.status());
    table.AddRow({StrFormat("%.2fx", scale),
                  StrFormat("%.1f%%", 100.0 * result->broken_chain_read_fraction),
                  StrFormat("%.1f%%", 100.0 * result->valid_read_fraction),
                  StrFormat("%.1f", result->first_read_cost),
                  StrFormat("%.1f", result->best_cost),
                  StrFormat("%+.2f%%", 100.0 * (result->best_cost - exact->cost) /
                                           exact->cost)});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "(expected shape: heavy chain breaking at small scales; near-zero\n"
      "breaking and optimal quality around 1.0x; degrading first-read\n"
      "quality as over-strong chains compress the problem signal)\n");
  return Status::OK();
}
