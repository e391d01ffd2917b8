// Workloads benchmark: one planted instance per combinatorial workload
// kind (max-clique, max-cut, graph coloring) solved repeatedly through the
// resilient ladder (`ResilientSolver::Solve`, the workload as its target)
// at 1/2/4 sampler threads.
//
// Measured per (workload, threads): solve throughput (solves_per_sec) and
// a stage breakdown (formulate / solve / decode, informational stage_*
// fields). The bench *fails* (exit 1) unless every run recovers the
// generator-planted optimum with a feasible decoded solution and every
// parallel run's answers (assignment bits, energy, decoded labels) are
// byte-identical to the serial run. The ladder is {SA, greedy} with one
// attempt per rung, so the fault-free hot path gates in diff_bench.py
// (solver_retries / solver_fallbacks == 0) apply. Results go to
// BENCH_workloads.json for diff_bench.py (--metric solves_per_sec).

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "harness/resilient_solver.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "workloads/coloring.h"
#include "workloads/graph.h"
#include "workloads/max_clique.h"
#include "workloads/max_cut.h"
#include "workloads/workload.h"

namespace {

using namespace qmqo;

constexpr uint64_t kSeed = 20260808;

std::string Fingerprint(const harness::SolveReport& report,
                        const workloads::WorkloadSolution& solution) {
  std::string bits;
  bits.reserve(report.assignment.size());
  for (uint8_t bit : report.assignment) bits += bit ? '1' : '0';
  std::string labels;
  for (int label : solution.labels) labels += StrFormat("%d,", label);
  return StrFormat("backend=%d energy=%.17g obj=%.17g feas=%d x=%s l=%s",
                   static_cast<int>(report.backend), report.cost,
                   solution.objective, solution.feasible ? 1 : 0,
                   bits.c_str(), labels.c_str());
}

struct KindResult {
  std::vector<std::string> fingerprints;  // one per repetition
  double wall_ms = 0.0;
  double solve_ms = 0.0;
  double decode_ms = 0.0;
  int retries = 0;
  int fallbacks = 0;
  int64_t faults = 0;
  bool recovered = true;  // planted optimum, feasible, zero gap, every rep
};

KindResult RunKind(const workloads::Workload& workload, int threads,
                   int repetitions) {
  harness::SolvePolicy policy;
  policy.seed = kSeed;
  policy.max_attempts_per_backend = 1;
  // SA answers on the first rung: the default bench run must stay on the
  // fault-free hot path (zero retries, zero fallbacks) for diff_bench.py.
  policy.ladder = {harness::SolveBackend::kSa, harness::SolveBackend::kGreedy};
  policy.sa_reads = 16;
  policy.sa_sweeps = 128;
  harness::ResilientSolver solver(policy);

  KindResult result;
  Stopwatch total;
  for (int rep = 0; rep < repetitions; ++rep) {
    harness::QuantumMqoOptions options;
    options.device.num_threads = threads;
    options.device.sweep_kernel = bench::BenchKernel();
    Stopwatch solve_watch;
    harness::SolveReport report = solver.Solve(workload, options);
    result.solve_ms += solve_watch.ElapsedMillis();
    if (!report.ok) {
      std::fprintf(stderr, "%s: solve failed: %s\n",
                   workload.name().c_str(), report.FailureChain().c_str());
      result.recovered = false;
      continue;
    }
    Stopwatch decode_watch;
    workloads::WorkloadSolution solution = workload.Decode(report.assignment);
    result.decode_ms += decode_watch.ElapsedMillis();
    result.retries += report.retries;
    result.fallbacks += report.fallbacks;
    result.faults += report.faults_observed;
    result.fingerprints.push_back(Fingerprint(report, solution));
    const bool feasible =
        solution.feasible && workload.ValidateFeasible(solution).ok();
    const double gap = workload.OptimalityGap(solution);
    if (!feasible || gap > 1e-9) {
      std::fprintf(stderr,
                   "%s: planted optimum not recovered (feasible=%d "
                   "objective=%.17g planted=%.17g gap=%.3g)\n",
                   workload.name().c_str(), feasible ? 1 : 0,
                   solution.objective, workload.known_optimum(), gap);
      result.recovered = false;
    }
  }
  result.wall_ms = total.ElapsedMillis();
  return result;
}

}  // namespace

int main() {
  const int repetitions = bench::FullScale() ? 64 : 16;

  // One planted instance per kind, fixed seeds: the planted optimum is
  // provable from the construction (degree-capped clique, bipartite cut,
  // k-partite coloring), so "recovered" below is ground truth, not a
  // heuristic consensus.
  std::vector<std::shared_ptr<workloads::Workload>> kinds;
  {
    auto clique = workloads::MaxCliqueWorkload::MakePlanted(
        /*num_nodes=*/24, /*clique_size=*/5, /*edge_prob=*/0.3, kSeed + 1);
    if (!clique.ok()) {
      std::fprintf(stderr, "clique generation failed: %s\n",
                   clique.status().ToString().c_str());
      return 1;
    }
    kinds.push_back(*clique);
    auto cut_instance = workloads::PlantedCutGraph(
        /*num_nodes=*/24, /*edge_prob=*/0.4, /*max_weight=*/3.0, kSeed + 2);
    if (!cut_instance.ok()) {
      std::fprintf(stderr, "cut generation failed: %s\n",
                   cut_instance.status().ToString().c_str());
      return 1;
    }
    auto cut = workloads::MaxCutWorkload::Create(
        cut_instance->graph, cut_instance->graph.total_weight());
    if (!cut.ok()) return 1;
    kinds.push_back(*cut);
    auto coloring = workloads::ColoringWorkload::MakePlanted(
        /*num_nodes=*/18, /*num_colors=*/3, /*edge_prob=*/0.4, kSeed + 3);
    if (!coloring.ok()) {
      std::fprintf(stderr, "coloring generation failed: %s\n",
                   coloring.status().ToString().c_str());
      return 1;
    }
    kinds.push_back(*coloring);
  }

  bench::JsonObject root;
  root.Add("bench", "workloads");
  root.Add("repetitions", static_cast<int64_t>(repetitions));
  root.Add("full_scale", bench::FullScale());

  bool all_identical = true;
  bool all_recovered = true;
  int total_retries = 0;
  int total_fallbacks = 0;
  int64_t total_faults = 0;
  double stage_solve_ms = 0.0;
  double stage_decode_ms = 0.0;
  bench::JsonArray runs;
  for (const auto& workload : kinds) {
    const std::string engine =
        std::string("workload_") + workloads::WorkloadKindName(workload->kind());
    std::vector<std::string> serial_fingerprints;
    for (int threads : {1, 2, 4}) {
      KindResult result = RunKind(*workload, threads, repetitions);
      bool identical = true;
      if (threads == 1) {
        serial_fingerprints = result.fingerprints;
        stage_solve_ms += result.solve_ms;
        stage_decode_ms += result.decode_ms;
      } else {
        identical = result.fingerprints == serial_fingerprints;
        all_identical = all_identical && identical;
      }
      all_recovered = all_recovered && result.recovered;
      total_retries += result.retries;
      total_fallbacks += result.fallbacks;
      total_faults += result.faults;
      const double wall_sec = result.wall_ms / 1000.0;
      const double throughput =
          wall_sec > 0.0 ? static_cast<double>(repetitions) / wall_sec : 0.0;
      bench::JsonObject row;
      row.Add("engine", engine);
      row.Add("threads", static_cast<int64_t>(threads));
      row.Add("wall_ms", result.wall_ms);
      row.Add("solves_per_sec", throughput);
      row.Add("num_vars", static_cast<int64_t>(workload->qubo().num_vars()));
      row.Add("recovered_planted_optimum", result.recovered);
      row.Add("identical_to_serial", identical);
      runs.Add(row);
      std::printf(
          "%-22s threads=%d  vars=%d  wall=%.1f ms  %.1f solves/s  "
          "recovered=%s  identical=%s\n",
          engine.c_str(), threads, workload->qubo().num_vars(),
          result.wall_ms, throughput, result.recovered ? "yes" : "NO",
          identical ? "yes" : "NO");
    }
  }
  root.AddRaw("runs", runs.Dump());

  // Fault-free hot path: the default run arms no fault injector and SA
  // answers on its first attempt, so these must be exactly zero (gated by
  // diff_bench.py).
  root.Add("injected_faults", total_faults);
  root.Add("solver_retries", static_cast<int64_t>(total_retries));
  root.Add("solver_fallbacks", static_cast<int64_t>(total_fallbacks));
  root.Add("all_recovered_planted_optima", all_recovered);
  root.Add("all_identical_to_serial", all_identical);
  // Stage breakdown of the serial runs (informational, not gated).
  root.Add("stage_solve_ms", stage_solve_ms);
  root.Add("stage_decode_ms", stage_decode_ms);

  std::string path = bench::WriteBenchArtifact("workloads", root);
  if (path.empty()) {
    std::fprintf(stderr, "failed to write BENCH_workloads.json\n");
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());

  if (!all_identical) {
    std::fprintf(stderr, "FAIL: parallel workload solves diverged from "
                         "serial\n");
    return 1;
  }
  if (!all_recovered) {
    std::fprintf(stderr, "FAIL: a workload run missed its planted "
                         "optimum or decoded infeasibly\n");
    return 1;
  }
  return 0;
}
