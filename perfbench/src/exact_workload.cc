// The exact-proof workload of the benchmark, mqo_exact: Table 1(b)-style
// paper instances with 3, 4 or 5 plans per query (round-robin) at
// kExactQueries queries, each solved single-threaded to a proof of
// optimality by solver::MqoBranchAndBound, the exact solver the experiment
// harness uses. It is the only workload that loads src/solver, and it skips
// the service and anneal layers.
//
// Proof times grow steeply with the query count: at 40 queries the 4-plan
// class averaged ~0.7 s with a multi-second tail, so a run covered only a
// few dozen instances and its throughput swung with the seed. At 28
// queries a run proves about five thousand distinct instances.
//
// Set-up generates the first kPregenerated instances; later ones are
// generated just before their proof, untimed. `GeneratePaperInstance`
// re-measures the chip's capacity on each call, so generating a whole run's
// inputs up front would cost more set-up time than the proofs measure.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <memory>
#include <string>
#include <vector>

#include "baselines/greedy.h"
#include "chimera/topology.h"
#include "harness/paper_workload.h"
#include "mqo/brute_force.h"
#include "mqo/problem.h"
#include "mqo/solution.h"
#include "report.h"
#include "solver/mqo_bnb.h"
#include "stats.h"
#include "util/executor.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace qmqo {
namespace perfbench {

namespace {

constexpr int kExactQueries = 28;
constexpr int kExactPlans[] = {3, 4, 5};
constexpr int kExactClasses = 3;
// An instance still unproven after this long counts as a failed request.
constexpr double kProofCapMs = 10000.0;
constexpr size_t kPregenerated = 128;
// Determinism: the first this many proofs are replayed twice after the
// timed loop and must digest identically.
constexpr size_t kReplayedProofs = 16;
// solver.nodes sums the first this many proofs, so it repeats exactly.
constexpr size_t kNodePrefix = 64;
// Instances small enough for exhaustive search, checked against the proof.
constexpr int kBruteForceQueries = 8;

struct Proof {
  uint64_t index = 0;  // position in the seed's instance sequence
  double scaled_cost = 0.0;
  double ms = 0.0;
  double cpu_ms = 0.0;
  bool ok = false;
  solver::MqoBnbResult result;
};

Result<mqo::MqoProblem> Generate(const chimera::ChimeraGraph& chip,
                                 const Rng& root, uint64_t index,
                                 int num_queries) {
  harness::PaperWorkloadOptions options;
  options.plans_per_query = kExactPlans[index % kExactClasses];
  options.num_queries = num_queries;
  Rng rng = root.Fork(index);
  Result<harness::PaperInstance> instance =
      harness::GeneratePaperInstance(chip, options, &rng);
  if (!instance.ok()) return instance.status();
  return std::move(instance->problem);
}

double MaxCostSum(const mqo::MqoProblem& problem) {
  double sum = 0.0;
  for (int q = 0; q < problem.num_queries(); ++q) {
    double most = 0.0;
    for (int k = 0; k < problem.num_plans_of(q); ++k) {
      most = std::max(most, problem.plan_cost(problem.first_plan(q) + k));
    }
    sum += most;
  }
  return sum;
}

/// Checks one proof: a valid selection whose recomputed cost is the
/// reported one and is no worse than greedy + SwapDescent. Adds (instance,
/// cost, selection) to `digest`.
void CheckProof(const mqo::MqoProblem& problem, const Proof& proof,
                AnswerDigest* digest, Report* report) {
  const unsigned long long entry = proof.index;
  if (!proof.ok) {
    std::fprintf(stderr, "instance %llu unproven after %.0f ms\n", entry,
                 proof.ms);
    return;
  }
  const mqo::MqoSolution& solution = proof.result.solution;
  const Status valid = mqo::ValidateSolution(problem, solution);
  if (!valid.ok()) {
    report->Fail(StrFormat("instance %llu: invalid selection: %s", entry,
                           valid.ToString().c_str()));
    return;
  }
  const double cost = mqo::EvaluateCost(problem, solution);
  if (std::fabs(cost - proof.result.cost) > 1e-9 * std::max(1.0, cost)) {
    report->Fail(StrFormat("instance %llu: reported cost %.17g, recomputed "
                           "%.17g",
                           entry, proof.result.cost, cost));
  }
  mqo::MqoSolution greedy = baselines::GreedySolver::Construct(problem);
  mqo::SwapDescent(problem, &greedy);
  const double classical = mqo::EvaluateCost(problem, greedy);
  if (cost > classical + 1e-9) {
    report->Fail(StrFormat("instance %llu: proven cost %.17g exceeds the "
                           "greedy + SwapDescent cost %.17g",
                           entry, cost, classical));
  }
  std::string record = StrFormat("%llu %.17g", entry, cost);
  for (int q = 0; q < solution.num_queries(); ++q) {
    record += StrFormat(" %d", solution.selected(q));
  }
  digest->Add(record);
}

double ThreadCpuMs() {
  timespec now{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) * 1e3 +
         static_cast<double>(now.tv_nsec) / 1e6;
}

/// Closed loop of one client: proves the seed's instances in order, from
/// `pregenerated` and then generated on the fly, until `seconds` have passed
/// (or `max_solves` were made, when > 0). Only the solve calls are timed;
/// each proof is checked and digested right after it.
std::vector<Proof> RunLoop(const chimera::ChimeraGraph& chip,
                           const std::vector<mqo::MqoProblem>& pregenerated,
                           uint64_t seed, double seconds, size_t max_solves,
                           AnswerDigest* digest, Report* report,
                           double* rss_mb = nullptr) {
  const Rng root(seed);
  solver::MqoBnbOptions options;
  options.time_limit_ms = kProofCapMs;
  const solver::MqoBranchAndBound bnb(options);
  std::vector<Proof> proofs;
  Stopwatch wall;
  for (uint64_t i = 0; max_solves == 0 || i < max_solves; ++i) {
    if (max_solves == 0 && wall.ElapsedSeconds() >= seconds) break;
    Result<mqo::MqoProblem> problem =
        i < pregenerated.size() ? Result<mqo::MqoProblem>(pregenerated[i])
                                : Generate(chip, root, i, kExactQueries);
    if (!problem.ok()) {
      report->Fail("input generation: " + problem.status().ToString());
      break;
    }
    Proof proof;
    proof.index = i;
    const double cpu_before = ThreadCpuMs();
    Stopwatch watch;
    Result<solver::MqoBnbResult> result = bnb.Solve(*problem);
    proof.ms = watch.ElapsedMillis();
    proof.cpu_ms = ThreadCpuMs() - cpu_before;
    if (result.ok()) {
      proof.result = std::move(result).value();
      proof.ok = proof.result.proven_optimal;
      proof.scaled_cost = proof.result.cost / MaxCostSum(*problem);
    }
    CheckProof(*problem, proof, digest, report);
    proofs.push_back(std::move(proof));
    if (rss_mb != nullptr && proofs.size() == kRssPrefixRequests) {
      *rss_mb = PeakRssMb();
    }
  }
  if (rss_mb != nullptr && *rss_mb == 0.0) *rss_mb = PeakRssMb();
  return proofs;
}

/// Proves small instances of every class and compares with exhaustive
/// search.
void CheckAgainstBruteForce(const chimera::ChimeraGraph& chip, uint64_t seed,
                            Report* report) {
  const Rng root = Rng(seed).Fork(0xb7u);
  for (uint64_t i = 0; i < kExactClasses; ++i) {
    Result<mqo::MqoProblem> problem =
        Generate(chip, root, i, kBruteForceQueries);
    if (!problem.ok()) {
      report->Fail("small instance generation: " + problem.status().ToString());
      continue;
    }
    Result<solver::MqoBnbResult> proved =
        solver::MqoBranchAndBound().Solve(*problem);
    Result<mqo::ExhaustiveResult> exhaustive = mqo::SolveExhaustive(*problem);
    if (!proved.ok() || !exhaustive.ok() || !proved->proven_optimal ||
        std::fabs(proved->cost - exhaustive->cost) > 1e-9) {
      report->Fail(StrFormat(
          "small instance %llu: proof and exhaustive search disagree",
          static_cast<unsigned long long>(i)));
    }
  }
}

struct ExactSetUp {
  std::unique_ptr<chimera::ChimeraGraph> chip;
  std::vector<mqo::MqoProblem> pregenerated;
  double seconds = 0.0;
};

/// One set-up: the chip and the seed's first kPregenerated instances.
ExactSetUp SetUp(uint64_t seed, Report* report) {
  ExactSetUp setup;
  Stopwatch watch;
  Rng chip_rng(1);
  setup.chip = std::make_unique<chimera::ChimeraGraph>(
      chimera::ChimeraGraph::DWave2XWithDefects(&chip_rng));
  const Rng root(seed);
  for (uint64_t i = 0; i < kPregenerated; ++i) {
    Result<mqo::MqoProblem> problem = Generate(*setup.chip, root, i, kExactQueries);
    if (!problem.ok()) {
      report->Fail("input generation: " + problem.status().ToString());
      break;
    }
    setup.pregenerated.push_back(std::move(problem).value());
  }
  setup.seconds = watch.ElapsedSeconds();
  return setup;
}

}  // namespace

void RunExactWorkload(const RunOptions& options, Report* report) {
  std::vector<double> setup_seconds;
  ExactSetUp setup;
  for (int i = 0; i < 3; ++i) {
    setup = SetUp(options.seed, report);
    setup_seconds.push_back(setup.seconds);
  }
  const chimera::ChimeraGraph& chip = *setup.chip;

  const int64_t spawned_before = util::Executor::TotalWorkersSpawned();
  const double cpu_before = ProcessCpuMs();
  Stopwatch wall;
  AnswerDigest digest;
  double rss_mb = 0.0;
  const std::vector<Proof> proofs =
      RunLoop(chip, setup.pregenerated, options.seed, options.seconds, 0,
              &digest, report, &rss_mb);
  const double wall_ms = wall.ElapsedMillis();
  const double cpu_ms = ProcessCpuMs() - cpu_before;
  const int64_t spawned =
      util::Executor::TotalWorkersSpawned() - spawned_before;
  CheckAgainstBruteForce(chip, options.seed, report);
  // The exact solver is single-threaded, so determinism is the same seed
  // twice: replay the first proofs and compare.
  AnswerDigest replays[2];
  for (AnswerDigest& replay : replays) {
    RunLoop(chip, setup.pregenerated, options.seed, 0.0, kReplayedProofs,
            &replay, report);
  }
  if (replays[0].value() != replays[1].value()) {
    report->Fail("two replays of the first proofs differ");
  }
  report->Fact("replay_digest", replays[0].Hex());

  // Timings run on the clock of the solve calls alone; generating the next
  // instance is the client's own work.
  std::vector<SettleEvent> events;
  std::vector<double> time_to_best;
  double proven = 0.0, scaled = 0.0, nodes = 0.0, prefix_nodes = 0.0,
         solve_ms = 0.0, solve_cpu_ms = 0.0;
  for (size_t i = 0; i < proofs.size(); ++i) {
    const Proof& proof = proofs[i];
    report->Count(!proof.ok);
    solve_ms += proof.ms;
    solve_cpu_ms += proof.cpu_ms;
    SettleEvent event;
    event.end_ms = solve_ms;
    event.cpu_ms = solve_cpu_ms;
    event.ok = proof.ok ? 1 : 0;
    event.latency_ms = {proof.ms};
    events.push_back(std::move(event));
    nodes += static_cast<double>(proof.result.nodes);
    if (i < kNodePrefix) prefix_nodes += static_cast<double>(proof.result.nodes);
    if (!proof.ok) continue;
    proven += 1.0;
    scaled += proof.scaled_cost;
    time_to_best.push_back(proof.result.time_to_best_ms);
  }
  const double attempted = static_cast<double>(proofs.size());
  report->Fact("answer_digest", digest.Hex());
  report->Fact("proofs", StrFormat("%zu instances of %d queries in %.1f s "
                                   "(%.1f s in solve calls)",
                                   proofs.size(), kExactQueries,
                                   wall_ms / 1000.0, solve_ms / 1000.0));

  if (!options.trace) {
    const LoopTimings timings = TimeBlocks(events, kTimingBlocks);
    report->Add("throughput_rps", timings.throughput_per_s, "1/s");
    report->Add("latency_p50_ms", timings.latency_p50_ms, "ms");
    report->Add("latency_p90_ms", timings.latency_p90_ms, "ms");
    report->Add("ok_fraction", proven / attempted, "fraction");
    // The exact solver is the workload's only rung, and a proof is an
    // answer at the optimum.
    report->Add("top_rung_fraction", proven > 0 ? 1.0 : 0.0, "fraction");
    report->Add("scaled_cost", proven > 0 ? scaled / proven : 0.0, "ratio");
    report->Add("optimum_hit_fraction", proven > 0 ? 1.0 : 0.0, "fraction");
    report->Add("cpu_ms_per_request", timings.cpu_ms_per_request, "ms");
    report->Add("peak_rss_mb", rss_mb, "MiB");
    report->Add("setup_s", Percentile(setup_seconds, 50), "s");
    return;
  }
  if (proofs.size() < kNodePrefix) {
    report->Fact("solver.nodes", StrFormat("over the first %zu proofs only",
                                           proofs.size()));
  }
  report->AddLayers({
      {"solver.nodes", prefix_nodes},
      {"solver.nodes_per_s", solve_ms > 0 ? nodes / (solve_ms / 1000.0) : 0.0},
      {"solver.time_to_best_ms", Mean(time_to_best)},
      {"util.executor.workers_spawned", static_cast<double>(spawned)},
      {"util.cpu_utilization", wall_ms > 0 ? cpu_ms / wall_ms : 0.0},
  });
}

}  // namespace perfbench
}  // namespace qmqo
