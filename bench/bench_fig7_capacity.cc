// Figure 7 of the paper: "Maximal problem dimensions that can be
// represented with a given number of qubits" — the capacity frontier
// (queries vs plans per query) for 1152, 2304, and 4608 qubits, assuming
// no broken qubits, plus the measured capacity of the simulated defective
// D-Wave 2X for the four experiment classes.

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "embedding/capacity.h"
#include "util/executor.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace {

struct ChipDims {
  int rows;
  int cols;
  const char* label;
};

}  // namespace

qmqo::Status qmqo::bench::RunFig7() {
  std::printf("=== Figure 7: capacity frontier (intact hardware) ===\n\n");
  const ChipDims chips[] = {
      {12, 12, "1152 qubits"}, {12, 24, "2304 qubits"}, {24, 24, "4608 qubits"}};
  const int max_plans = 20;

  TablePrinter table({"plans/query", chips[0].label, chips[1].label,
                      chips[2].label});
  for (int l = 2; l <= max_plans; ++l) {
    std::vector<std::string> row = {StrFormat("%d", l)};
    for (const ChipDims& chip : chips) {
      row.push_back(StrFormat(
          "%d", embedding::MaxQueriesForDimensions(chip.rows, chip.cols, 4, l)));
    }
    table.AddRow(std::move(row));
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "Paper reference points (Fig. 7 reads ~500 queries at 2 plans for\n"
      "1152 qubits, dropping steeply beyond ~5 plans/query; doubling the\n"
      "qubits roughly doubles each point).\n\n");

  std::printf("=== Experiment classes on the defective chip (1097 working) ===\n\n");
  Rng rng(1);
  chimera::ChimeraGraph chip = chimera::ChimeraGraph::DWave2XWithDefects(&rng);
  TablePrinter classes(
      {"plans/query", "paper queries", "measured capacity", "used in benches"});
  // The measured capacities (matching / binary-searched embeddings) are
  // independent per class: fan them across the shared pool and emit rows
  // in class order.
  constexpr size_t kNumClasses =
      sizeof(bench::kPaperClasses) / sizeof(bench::kPaperClasses[0]);
  std::vector<int> measured(kNumClasses, 0);
  util::Executor::Run(
      nullptr, static_cast<int>(kNumClasses), bench::BenchThreads(),
      [&](int begin, int end, int /*chunk*/) {
        for (int i = begin; i < end; ++i) {
          measured[static_cast<size_t>(i)] = embedding::MeasuredMaxQueries(
              chip, bench::kPaperClasses[i].plans_per_query);
        }
      });
  for (size_t i = 0; i < kNumClasses; ++i) {
    const bench::PaperClass& cls = bench::kPaperClasses[i];
    classes.AddRow({StrFormat("%d", cls.plans_per_query),
                    StrFormat("%d", cls.num_queries),
                    StrFormat("%d", measured[i]),
                    StrFormat("%d", std::min(measured[i], cls.num_queries))});
  }
  std::printf("%s\n", classes.ToString().c_str());
  return Status::OK();
}
