// Figures 4 and 5 of the paper: solution cost as a function of
// optimization time, comparing the (simulated) quantum annealer against
// LIN-MQO, LIN-QUB, CLIMB, GA(50) and GA(200). Each target runs one
// experiment class and prints (a) the per-milestone mean scaled cost of
// every algorithm (the data behind the paper's sub-plots), (b) an ASCII
// rendering of a representative instance, and (c) the paper's in-text
// statistics (first-read quality, win counts, preprocessing times).
//
// QMQO_BENCH_THREADS=N fans the class's instances across the shared
// worker pool (QA results are bit-identical at any thread count; the
// classical baselines' wall-clock budgets make their curves
// run-dependent either way — keep 1 thread when timing them).

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.h"
#include "harness/ascii_plot.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace qmqo {
namespace bench {
namespace {

Status RunCostVsTimeFigure(const char* figure_name, const PaperClass& cls,
                           uint64_t seed) {
  Rng chip_rng(1);
  chimera::ChimeraGraph graph =
      chimera::ChimeraGraph::DWave2XWithDefects(&chip_rng);

  harness::ExperimentConfig config = MakeClassConfig(cls, seed);
  config.workload.num_queries = ClampQueries(graph, cls);

  std::printf("=== %s: %d queries, %d plans per query, %d instances ===\n",
              figure_name, config.workload.num_queries,
              cls.plans_per_query, config.num_instances);
  std::printf("classical budget per algorithm: %.0f ms%s\n",
              config.classical_time_limit_ms,
              FullScale() ? " (QMQO_BENCH_FULL)" :
                            " (set QMQO_BENCH_FULL=1 for paper scale)");
  std::printf("instance fan-out threads: %d (QMQO_BENCH_THREADS; QA results "
              "identical at any count, classical budgets are wall-clock)\n\n",
              config.num_threads);

  auto result = harness::RunExperimentClass(config, graph);
  QMQO_RETURN_IF_ERROR(result.status());

  // Milestone table: mean scaled cost per algorithm, like reading the
  // paper's sub-plots at 1, 10, 100, ... ms.
  std::vector<double> milestones;
  for (double ms : harness::Trajectory::PaperMilestonesMs()) {
    if (ms <= config.classical_time_limit_ms * 10.0) milestones.push_back(ms);
  }
  std::vector<std::string> header = {"algorithm"};
  for (double ms : milestones) {
    header.push_back(StrFormat("%.0fms", ms));
  }
  header.push_back("final");
  TablePrinter table(header);

  const auto& first_run = result->instances.front();
  for (size_t series_index = 0; series_index < first_run.series.size();
       ++series_index) {
    std::vector<std::string> row = {first_run.series[series_index].name};
    for (double ms : milestones) {
      SummaryStats stats;
      for (const harness::InstanceRun& run : result->instances) {
        double cost = run.series[series_index].trajectory.CostAt(ms);
        if (std::isfinite(cost)) stats.Add(cost / run.scale_base);
      }
      row.push_back(stats.empty() ? std::string("-")
                                  : StrFormat("%.4f", stats.Mean()));
    }
    SummaryStats final_stats;
    for (const harness::InstanceRun& run : result->instances) {
      double cost = run.series[series_index].trajectory.FinalCost();
      if (std::isfinite(cost)) final_stats.Add(cost / run.scale_base);
    }
    row.push_back(final_stats.empty() ? std::string("-")
                                      : StrFormat("%.4f", final_stats.Mean()));
    table.AddRow(std::move(row));
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("(scaled cost = cost / sum of each query's most expensive "
              "plan; QA times are modeled device time at 376us per read)\n\n");

  // Representative instance as an ASCII figure.
  std::vector<harness::PlotSeries> plot_series;
  for (const harness::AlgorithmSeries& series : first_run.series) {
    plot_series.push_back({series.name, &series.trajectory});
  }
  harness::PlotOptions plot_options;
  plot_options.min_time_ms = 0.1;
  plot_options.max_time_ms =
      std::max(1000.0, config.classical_time_limit_ms * 10.0);
  std::printf("%s\n",
              harness::RenderCostVsTime(plot_series, plot_options).c_str());

  // The paper's in-text statistics.
  SummaryStats first_gap;
  SummaryStats final_gap;
  SummaryStats preprocessing;
  int qa_first_beats_all_at_budget = 0;
  for (const harness::InstanceRun& run : result->instances) {
    if (run.qa_final_cost > 0.0) {
      first_gap.Add(100.0 * (run.qa_first_read_cost - run.qa_final_cost) /
                    run.qa_final_cost);
    }
    if (run.best_known_cost > 0.0) {
      final_gap.Add(100.0 * (run.qa_final_cost - run.best_known_cost) /
                    run.best_known_cost);
    }
    preprocessing.Add(run.preprocessing_ms);
    double classical_best = std::numeric_limits<double>::infinity();
    for (const harness::AlgorithmSeries& series : run.series) {
      if (series.device_time_axis) continue;
      classical_best = std::min(
          classical_best,
          series.trajectory.CostAt(config.classical_time_limit_ms));
    }
    if (run.qa_first_read_cost <= classical_best + 1e-9) {
      ++qa_first_beats_all_at_budget;
    }
  }
  std::printf("QA first-read vs QA final-cost gap:   %.2f%% mean "
              "(paper: 1.5%% over 1000 runs)\n",
              first_gap.Mean());
  std::printf("QA final vs best-known cost gap:      %.2f%% mean "
              "(paper: 0.4%% vs optimum)\n",
              final_gap.Mean());
  std::printf("instances where QA read #1 matches or beats every classical "
              "solver at its full budget: %d / %zu (paper: 13/20 at 10 s)\n",
              qa_first_beats_all_at_budget, result->instances.size());
  std::printf("mapping preprocessing time: %.1f - %.1f ms "
              "(paper: 112 - 135 ms, unoptimized)\n\n",
              preprocessing.Min(), preprocessing.Max());
  return Status::OK();
}

}  // namespace

// Figure 4: the hardest class, 537 queries with 2 plans per query.
Status RunFig4() {
  return RunCostVsTimeFigure("Figure 4", kPaperClasses[0], /*seed=*/41);
}

// Figure 5: the class with the most plans per query, 108 queries with 5
// plans each, where the quantum advantage shrinks (more qubits per
// variable, larger invalid-state blowup in the QUBO reformulation).
Status RunFig5() {
  return RunCostVsTimeFigure("Figure 5", kPaperClasses[3], /*seed=*/51);
}

}  // namespace bench
}  // namespace qmqo
