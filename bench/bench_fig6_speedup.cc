// Figure 6 of the paper: average quantum speedup per test-case class as a
// function of qubits per logical variable. Speedup is the time the best
// classical solver needs to match the quality of the quantum annealer's
// first read, divided by the first read's modeled device time (376 us).
// The paper reads roughly 10^3+ at 1.0 qubits/variable (537 x 2), falling
// towards 10^2 as the ratio grows (108 x 5).

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/table_printer.h"

qmqo::Status qmqo::bench::RunFig6() {
  Rng chip_rng(1);
  chimera::ChimeraGraph graph =
      chimera::ChimeraGraph::DWave2XWithDefects(&chip_rng);

  std::printf("=== Figure 6: quantum speedup vs qubits per variable ===\n\n");
  TablePrinter table({"class", "qubits/var", "mean speedup", "median",
                      "matched instances"});

  for (size_t class_index = 0; class_index < 4; ++class_index) {
    const PaperClass& cls = kPaperClasses[class_index];
    harness::ExperimentConfig config =
        MakeClassConfig(cls, /*seed=*/61 + class_index);
    config.workload.num_queries = ClampQueries(graph, cls);
    // The speedup only needs the QA first read and the classical
    // trajectories; LIN-QUB rarely matches and dominates runtime, so skip
    // it in the scaled-down configuration.
    config.run_lin_qub = FullScale();

    auto result = harness::RunExperimentClass(config, graph);
    QMQO_RETURN_IF_ERROR(result.status());
    SummaryStats speedups;
    int matched = 0;
    for (const harness::InstanceRun& run : result->instances) {
      double speedup = harness::QuantumSpeedup(run);
      if (std::isfinite(speedup)) {
        speedups.Add(speedup);
        ++matched;
      } else {
        // No classical solver matched QA's first read within its budget:
        // record the budget as a (conservative) lower bound.
        speedups.Add(config.classical_time_limit_ms / run.qa_read_ms);
      }
    }
    table.AddRow({StrFormat("%d queries x %d plans",
                            config.workload.num_queries, cls.plans_per_query),
                  StrFormat("%.2f", harness::QubitsPerVariable(*result)),
                  StrFormat("%.0fx", speedups.Mean()),
                  StrFormat("%.0fx", speedups.Median()),
                  StrFormat("%d/%zu", matched, result->instances.size())});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "(unmatched instances contribute the classical budget as a lower\n"
      "bound, so reported speedups are conservative. The paper's Fig. 6\n"
      "falls from ~10^3-10^4 at 1.0 qubit/var to ~10^2 at 1.6 qubits/var\n"
      "against its ILP; here the classical side includes LIN-MQO's\n"
      "dominance presolve, which proves these instances in about a\n"
      "millisecond, so the speedup stays near 1x in every class)\n");
  return Status::OK();
}
