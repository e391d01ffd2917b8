// Table 1 of the paper: "Milliseconds until finding the optimal solution
// via integer linear programming (LIN-MQO)" — min / median / max per
// class. The paper reports 9261/25205.5/34570 ms for 537 queries down to
// 47/48/51 ms for 108 queries.
//
// The paper ran LIN-MQO on CPLEX; this repository substitutes its own exact
// solver, `solver::MqoBranchAndBound`: a plan-dominance presolve followed by
// a branch-and-bound on the queries it leaves open. On the paper's
// instances (savings {1,2} next to plan costs spread over 10..50) the
// presolve fixes all but a handful of queries, so every instance is proven
// optimal in about a millisecond: a far stronger classical baseline than
// the paper's, so its times are not comparable to the paper's column.
//
// Two readings are reproduced, both as proof times:
//  (a) the paper classes at chip capacity;
//  (b) 2-plan instances on sub-chips of growing size.
// The target fails when any instance stays unproven within its cap.
//
// QMQO_BENCH_THREADS=N fans instances across the shared worker pool —
// useful for shaking out the sweep quickly, but instances then contend
// for cores, so keep the default 1 thread when the reported wall-clock
// times are the measurement.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "solver/mqo_bnb.h"
#include "util/executor.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace qmqo {
namespace bench {
namespace {

/// Proof record of one instance.
struct Proof {
  Status status;
  bool proven = false;
  double ms = 0.0;
  int open_queries = 0;  // left to the search by the presolve
};

/// Generates `instances` instances of a class, instance i from seed
/// `first_seed + i`, and proves each, fanned across `threads`. Explicit
/// per-instance seeds keep the results, in instance order, independent of
/// the thread count.
std::vector<Proof> ProveInstances(const chimera::ChimeraGraph& chip,
                                  int plans_per_query, int num_queries,
                                  int instances, double cap_ms, int threads,
                                  uint64_t first_seed) {
  std::vector<Proof> proofs(static_cast<size_t>(instances));
  util::Executor::Run(
      nullptr, instances, threads, [&](int begin, int end, int /*chunk*/) {
        for (int instance_id = begin; instance_id < end; ++instance_id) {
          Proof& proof = proofs[static_cast<size_t>(instance_id)];
          harness::PaperWorkloadOptions workload;
          workload.plans_per_query = plans_per_query;
          workload.num_queries = num_queries;
          Rng rng(first_seed + static_cast<uint64_t>(instance_id));
          auto instance = harness::GeneratePaperInstance(chip, workload, &rng);
          if (!instance.ok()) {
            proof.status = instance.status();
            continue;
          }
          solver::MqoBnbOptions options;
          options.time_limit_ms = cap_ms;
          auto result =
              solver::MqoBranchAndBound(options).Solve(instance->problem);
          if (!result.ok()) {
            proof.status = result.status();
            continue;
          }
          proof.proven = result->proven_optimal;
          proof.ms = result->total_time_ms;
          proof.open_queries = num_queries - result->fixed_queries;
        }
      });
  return proofs;
}

/// Summary cells of one class: proof-time min/median/max (3 decimals), the
/// queries left open after the presolve (min/median/max), and proven/total.
/// Adds the unproven instances to `*unproven`.
Result<std::vector<std::string>> Summarize(const std::vector<Proof>& proofs,
                                           int* unproven) {
  SummaryStats times;
  SummaryStats open;
  int proven = 0;
  for (const Proof& proof : proofs) {
    QMQO_RETURN_IF_ERROR(proof.status);
    times.Add(proof.ms);
    open.Add(proof.open_queries);
    proven += proof.proven ? 1 : 0;
  }
  *unproven += static_cast<int>(proofs.size()) - proven;
  return std::vector<std::string>{
      StrFormat("%.3f", times.Min()), StrFormat("%.3f", times.Median()),
      StrFormat("%.3f", times.Max()),
      StrFormat("%.0f / %.0f / %.0f", open.Min(), open.Median(), open.Max()),
      StrFormat("%d/%zu", proven, proofs.size())};
}

}  // namespace

Status RunTable1() {
  Rng chip_rng(1);
  chimera::ChimeraGraph graph =
      chimera::ChimeraGraph::DWave2XWithDefects(&chip_rng);

  const int instances = FullScale() ? 20 : 3;
  const double cap_ms = FullScale() ? 30000.0 : 2000.0;
  const int threads = BenchThreads();
  int unproven = 0;

  std::printf("=== Table 1 (a): time until LIN-MQO (dominance presolve + "
              "B&B) proves the optimum ===\n");
  std::printf("(%d instances per class, each capped at %.0f ms, "
              "%d fan-out threads%s)\n\n",
              instances, cap_ms, threads,
              FullScale() ? "" : "; QMQO_BENCH_FULL=1 for paper scale");

  TablePrinter table({"# queries", "plans", "min ms", "median ms", "max ms",
                      "open after presolve", "proven",
                      "paper ILP (min/med/max ms)"});
  const char* paper_rows[] = {"9261 / 25205.5 / 34570", "129 / 178.5 / 206",
                              "45 / 128 / 241", "47 / 48 / 51"};
  for (size_t class_index = 0; class_index < 4; ++class_index) {
    const PaperClass& cls = kPaperClasses[class_index];
    const int num_queries = ClampQueries(graph, cls);
    std::vector<Proof> proofs =
        ProveInstances(graph, cls.plans_per_query, num_queries, instances,
                       cap_ms, threads, 1000 * (class_index + 1));
    QMQO_ASSIGN_OR_RETURN(std::vector<std::string> cells,
                          Summarize(proofs, &unproven));
    std::vector<std::string> row = {StrFormat("%d", num_queries),
                                    StrFormat("%d", cls.plans_per_query)};
    row.insert(row.end(), cells.begin(), cells.end());
    row.push_back(paper_rows[class_index]);
    table.AddRow(row);
  }
  std::printf("%s\n", table.ToString().c_str());

  std::printf("=== Table 1 (b): proof time against the query count ===\n");
  std::printf("(2-plan instances on sub-chips)\n\n");
  TablePrinter growth({"# queries", "chip", "min ms", "median ms", "max ms",
                       "open after presolve", "proven"});
  struct SubChip {
    int rows;
    int cols;
  };
  const SubChip chips[] = {{2, 2}, {2, 4}, {3, 4}, {4, 4}};
  for (const SubChip& sub : chips) {
    chimera::ChimeraGraph small(sub.rows, sub.cols, 4);
    const int num_queries = embedding::MeasuredMaxQueries(small, 2);
    std::vector<Proof> proofs = ProveInstances(
        small, 2, num_queries, instances, FullScale() ? 120000.0 : 20000.0,
        threads, 9000 + static_cast<uint64_t>(sub.rows * 100 + sub.cols));
    QMQO_ASSIGN_OR_RETURN(std::vector<std::string> cells,
                          Summarize(proofs, &unproven));
    std::vector<std::string> row = {
        StrFormat("%d", num_queries),
        StrFormat("%dx%d cells", sub.rows, sub.cols)};
    row.insert(row.end(), cells.begin(), cells.end());
    growth.AddRow(row);
  }
  std::printf("%s\n", growth.ToString().c_str());
  std::printf(
      "(shape check vs the paper: the paper's ILP times grow by ~3 orders\n"
      "of magnitude from 108 to 537 queries. Here the dominance presolve\n"
      "leaves at most a handful of queries open at any size, so proofs stay\n"
      "near a millisecond and grow about linearly with the instance: the\n"
      "paper's instances are easy for a solver that exploits how small the\n"
      "savings are next to the spread of plan costs)\n");
  if (unproven > 0) {
    return Status::Internal(
        StrFormat("%d instance(s) unproven within the cap", unproven));
  }
  return Status::OK();
}

}  // namespace bench
}  // namespace qmqo
