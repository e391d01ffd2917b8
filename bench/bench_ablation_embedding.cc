// Ablation: embedding strategy — one global TRIAD (quadratic qubit growth,
// Theorem 2/3) vs the clustered per-query embedding (linear growth,
// Figure 3). Reports qubit consumption and the largest workload each
// strategy can host, reproducing the paper's argument for clustering.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "embedding/clustered.h"
#include "embedding/triad.h"
#include "util/string_util.h"
#include "util/table_printer.h"

qmqo::Status qmqo::bench::RunAblationEmbedding() {
  chimera::ChimeraGraph graph = chimera::ChimeraGraph::DWave2X();

  std::printf("=== Ablation: global TRIAD vs clustered embedding ===\n\n");
  TablePrinter table({"queries x plans", "logical vars", "TRIAD qubits",
                      "clustered qubits", "TRIAD fits?", "clustered fits?"});
  struct Workload {
    int queries;
    int plans;
  };
  std::vector<Workload> workloads = {{4, 2},  {8, 2},   {16, 2}, {24, 2},
                                     {64, 2}, {144, 2}, {16, 3}, {48, 3},
                                     {16, 5}, {96, 5},  {144, 5}};
  for (const Workload& workload : workloads) {
    int vars = workload.queries * workload.plans;
    int triad_qubits = embedding::TriadEmbedder::QubitsNeeded(vars, 4);
    bool triad_fits = embedding::TriadEmbedder::Embed(vars, graph).ok();
    std::vector<int> sizes(static_cast<size_t>(workload.queries),
                           workload.plans);
    auto clustered = embedding::ClusteredEmbedder::Embed(sizes, graph);
    table.AddRow(
        {StrFormat("%d x %d", workload.queries, workload.plans),
         StrFormat("%d", vars), StrFormat("%d", triad_qubits),
         clustered.ok() ? StrFormat("%d", clustered->TotalQubits())
                        : std::string("-"),
         triad_fits ? "yes" : "no", clustered.ok() ? "yes" : "no"});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "(the global TRIAD supports arbitrary savings structure but tops out\n"
      "at 48 logical variables on 1152 qubits — 24 two-plan queries; the\n"
      "clustered pattern hosts 144+ queries by restricting inter-cluster\n"
      "couplings, exactly the paper's Theorem 2/3 trade-off)\n");
  return Status::OK();
}
