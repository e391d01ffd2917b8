// The two service workloads of the benchmark.
//
//  * mqo_paper: the paper's four classes (2, 3, 4, 5 plans per query) at
//    the chip's measured capacity, round-robin, each sent as `mqo v1` wire
//    text. This is the paper's own traffic on the full device path: parse,
//    clustered embedding, logical mapping, embedded QUBO, simulated
//    annealing on ~1000 physical qubits, unembed, merge, commit.
//  * graph_qubo: planted max-clique, max-cut and 3-coloring, round-robin,
//    sent as `workload v1` wire text. These skip embedding and the device:
//    SQA answers on a small logical QUBO, so a device-path change must show
//    no change here. Planted optima give ground truth.
//
// Both run a closed loop of kClients clients against one SolveService: a
// client sends its next request only after its previous one settled. The
// loop runs on this thread, so submission order, and with it every answer,
// is a pure function of the seed.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "anneal/dwave_simulator.h"
#include "anneal/sqa.h"
#include "chimera/topology.h"
#include "embedding/capacity.h"
#include "embedding/clustered.h"
#include "harness/paper_workload.h"
#include "harness/quantum_pipeline.h"
#include "harness/resilient_solver.h"
#include "mapping/logical_mapping.h"
#include "mqo/problem.h"
#include "mqo/serialization.h"
#include "mqo/solution.h"
#include "baselines/greedy.h"
#include "obs/trace.h"
#include "report.h"
#include "service/solve_service.h"
#include "stats.h"
#include "util/executor.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "workloads/coloring.h"
#include "workloads/max_clique.h"
#include "workloads/max_cut.h"
#include "workloads/serialization.h"
#include "workloads/workload.h"

namespace qmqo {
namespace perfbench {

namespace {

constexpr int kClients = 4;
constexpr int kRoundWidth = 4;
constexpr int kServiceThreads = 2;
constexpr int kDeviceReads = 100;
constexpr int kDeviceGauges = 4;
constexpr int kPaperPlans[] = {2, 3, 4, 5};
constexpr int kPaperClasses = 4;
constexpr int kPaperInstancesPerClass = 4;
constexpr int kGraphKinds = 3;
constexpr int kGraphInstancesPerKind = 8;
constexpr double kGraphEdgeProbability = 0.3;
// The optimum of a chip-capacity MQO instance is unknown, so an mqo_paper
// answer "hits" when it is within this share of the classical greedy +
// SwapDescent answer on the same instance.
constexpr double kClassicalTolerance = 0.01;
// Warm-up rounds per set-up: one round sends one request of each paper
// class; three rounds send each graph kind four times.
constexpr int kPaperWarmupRounds = 1;
constexpr int kGraphWarmupRounds = 3;

enum class Kind { kPaper, kGraph };

/// One pool entry: the wire payload plus the benchmark's own reference copy
/// of what it encodes, used to check the service's answers.
struct PoolEntry {
  std::string payload;
  std::string class_name;
  // mqo_paper
  mqo::MqoProblem problem;
  double max_cost_sum = 0.0;
  double classical_cost = 0.0;
  // graph_qubo
  std::shared_ptr<const workloads::Workload> workload;
  double optimum_scale = 1.0;
};

Result<std::vector<PoolEntry>> MakePaperPool(const chimera::ChimeraGraph& chip,
                                             uint64_t seed) {
  int capacity[kPaperClasses];
  for (int c = 0; c < kPaperClasses; ++c) {
    capacity[c] = embedding::MeasuredMaxQueries(chip, kPaperPlans[c]);
  }
  const Rng root(seed);
  std::vector<PoolEntry> pool;
  for (int i = 0; i < kPaperInstancesPerClass; ++i) {
    for (int c = 0; c < kPaperClasses; ++c) {
      harness::PaperWorkloadOptions options;
      options.plans_per_query = kPaperPlans[c];
      options.num_queries = capacity[c];
      Rng rng = root.Fork(static_cast<uint64_t>(i * kPaperClasses + c));
      Result<harness::PaperInstance> instance =
          harness::GeneratePaperInstance(chip, options, &rng);
      if (!instance.ok()) return instance.status();
      PoolEntry entry;
      entry.payload = mqo::ToText(instance->problem);
      entry.class_name = StrFormat("l%d", kPaperPlans[c]);
      Result<mqo::MqoProblem> parsed = mqo::FromText(entry.payload);
      if (!parsed.ok()) return parsed.status();
      entry.problem = std::move(parsed).value();
      for (int q = 0; q < entry.problem.num_queries(); ++q) {
        double most = 0.0;
        for (int k = 0; k < entry.problem.num_plans_of(q); ++k) {
          most = std::max(most,
                          entry.problem.plan_cost(entry.problem.first_plan(q) + k));
        }
        entry.max_cost_sum += most;
      }
      mqo::MqoSolution classical =
          baselines::GreedySolver::Construct(entry.problem);
      mqo::SwapDescent(entry.problem, &classical);
      entry.classical_cost = mqo::EvaluateCost(entry.problem, classical);
      pool.push_back(std::move(entry));
    }
  }
  return pool;
}

Result<std::shared_ptr<workloads::Workload>> MakePlantedGraph(int kind,
                                                              uint64_t seed) {
  switch (kind) {
    case 0: {
      auto made = workloads::MaxCliqueWorkload::MakePlanted(
          /*num_nodes=*/64, /*clique_size=*/8, kGraphEdgeProbability, seed);
      if (!made.ok()) return made.status();
      return std::shared_ptr<workloads::Workload>(*made);
    }
    case 1: {
      auto made = workloads::MaxCutWorkload::MakePlanted(
          /*num_nodes=*/64, kGraphEdgeProbability, /*max_weight=*/3.0, seed);
      if (!made.ok()) return made.status();
      return std::shared_ptr<workloads::Workload>(*made);
    }
    default: {
      auto made = workloads::ColoringWorkload::MakePlanted(
          /*num_nodes=*/42, /*num_colors=*/3, kGraphEdgeProbability, seed);
      if (!made.ok()) return made.status();
      return std::shared_ptr<workloads::Workload>(*made);
    }
  }
}

Result<std::vector<PoolEntry>> MakeGraphPool(uint64_t seed) {
  const Rng root(seed);
  std::vector<PoolEntry> pool;
  for (int i = 0; i < kGraphInstancesPerKind; ++i) {
    for (int kind = 0; kind < kGraphKinds; ++kind) {
      const uint64_t instance_seed =
          root.Fork(static_cast<uint64_t>(i * kGraphKinds + kind)).Next();
      Result<std::shared_ptr<workloads::Workload>> generated =
          MakePlantedGraph(kind, instance_seed);
      if (!generated.ok()) return generated.status();
      PoolEntry entry;
      entry.payload = workloads::ToText(workloads::SpecOf(**generated));
      entry.class_name = workloads::WorkloadKindName((*generated)->kind());
      Result<workloads::WorkloadSpec> spec = workloads::FromText(entry.payload);
      if (!spec.ok()) return spec.status();
      Result<std::shared_ptr<workloads::Workload>> reference =
          workloads::MakeWorkload(*spec);
      if (!reference.ok()) return reference.status();
      entry.workload = *reference;
      // Scale of the objective, so a gap reads as a share: the planted
      // clique size or cut weight; for coloring (optimum 0 conflicts) the
      // edge count.
      entry.optimum_scale =
          entry.workload->kind() == workloads::WorkloadKind::kGraphColoring
              ? std::max(1.0, static_cast<double>(
                                      entry.workload->graph().num_edges()))
              : std::max(1.0, entry.workload->known_optimum());
      pool.push_back(std::move(entry));
    }
  }
  return pool;
}

service::ServiceOptions MakeServiceOptions(const chimera::ChimeraGraph* chip,
                                           util::Executor* executor,
                                           int threads, obs::Tracer* tracer) {
  service::ServiceOptions options;
  options.graph = chip;
  options.executor = executor;
  options.num_threads = threads;
  options.round_width = kRoundWidth;
  options.pipeline.device.num_reads = kDeviceReads;
  options.pipeline.device.num_gauges = kDeviceGauges;
  options.pipeline.device.num_threads = 1;
  options.tracer = tracer;
  return options;
}

/// Everything one set-up builds: chip, inputs, worker pool, service.
struct Rig {
  std::unique_ptr<chimera::ChimeraGraph> chip;
  std::vector<PoolEntry> pool;
  std::unique_ptr<util::Executor> executor;
  std::unique_ptr<obs::Tracer> tracer;
  std::unique_ptr<service::SolveService> service;
  int threads = 1;
  size_t next_entry = 0;
};

struct Settled {
  size_t outcome = 0;  // index into the service's outcomes()
  size_t entry = 0;    // pool index of the request
  double latency_ms = 0.0;
};

struct LoopStats {
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  int64_t workers_spawned = 0;
  int64_t attempted = 0;
  int64_t rejected = 0;
  double rss_mb = 0.0;  // peak RSS after kRssPrefixRequests settled
  std::vector<Settled> settled;
  std::vector<SettleEvent> rounds;
  std::vector<double> submit_ms;
  std::vector<double> round_ms;
};

/// Closed loop: every idle client submits its next request, one round is
/// processed, settled clients become idle. Stops after `max_rounds` rounds
/// (when > 0) or once `seconds` have passed with nothing in flight.
LoopStats RunLoop(Rig* rig, double seconds, int max_rounds) {
  LoopStats stats;
  service::SolveService& service = *rig->service;
  std::map<uint64_t, std::pair<size_t, double>> pending;  // id -> entry, t0
  size_t seen = service.outcomes().size();
  const int64_t spawned_before = util::Executor::TotalWorkersSpawned();
  const double cpu_before = ProcessCpuMs();
  Stopwatch wall;
  for (int round = 0; max_rounds <= 0 || round < max_rounds; ++round) {
    for (size_t c = pending.size(); c < static_cast<size_t>(kClients); ++c) {
      const size_t entry = rig->next_entry++ % rig->pool.size();
      const double submitted_at = wall.ElapsedMillis();
      Result<uint64_t> id = service.SubmitText(rig->pool[entry].payload);
      stats.submit_ms.push_back(wall.ElapsedMillis() - submitted_at);
      ++stats.attempted;
      if (!id.ok()) {
        ++stats.rejected;
        std::fprintf(stderr, "request rejected: %s\n",
                     id.status().ToString().c_str());
        continue;
      }
      pending[*id] = {entry, submitted_at};
    }
    const double round_start = wall.ElapsedMillis();
    service.ProcessRound();
    const double now = wall.ElapsedMillis();
    stats.round_ms.push_back(now - round_start);
    SettleEvent event;
    event.end_ms = now;
    event.cpu_ms = ProcessCpuMs() - cpu_before;
    const std::vector<service::SolveOutcome>& outcomes = service.outcomes();
    for (; seen < outcomes.size(); ++seen) {
      auto it = pending.find(outcomes[seen].id);
      if (it == pending.end()) continue;
      const double latency = now - it->second.second;
      stats.settled.push_back({seen, it->second.first, latency});
      event.latency_ms.push_back(latency);
      if (outcomes[seen].status.ok()) ++event.ok;
      pending.erase(it);
    }
    stats.rounds.push_back(std::move(event));
    if (stats.rss_mb == 0.0 && stats.settled.size() >= kRssPrefixRequests) {
      stats.rss_mb = PeakRssMb();
    }
    if (max_rounds <= 0 && pending.empty() && now >= seconds * 1000.0) break;
  }
  if (stats.rss_mb == 0.0) stats.rss_mb = PeakRssMb();
  stats.wall_ms = wall.ElapsedMillis();
  stats.cpu_ms = ProcessCpuMs() - cpu_before;
  stats.workers_spawned =
      util::Executor::TotalWorkersSpawned() - spawned_before;
  return stats;
}

/// Answer quality over the checked outcomes of one loop.
struct Tally {
  int64_t ok = 0;
  int64_t top_rung = 0;
  int64_t hits = 0;
  double scaled_cost_sum = 0.0;
  AnswerDigest digest;
  // Per class: answers by backend (indexed by harness::SolveBackend).
  std::map<std::string, std::array<int64_t, 4>> answered_by;
};

/// True when `outcome` is a coloring the service flagged infeasible whose
/// labels are colors, whose conflicting edges, counted here from the
/// graph, are its objective, and whose reported gap is that count.
bool IsFlaggedImproperColoring(const PoolEntry& entry,
                               const service::SolveOutcome& outcome) {
  const auto* coloring =
      dynamic_cast<const workloads::ColoringWorkload*>(entry.workload.get());
  const workloads::WorkloadSolution& answer = outcome.workload_solution;
  if (coloring == nullptr || answer.feasible ||
      static_cast<int>(answer.labels.size()) != coloring->graph().num_nodes()) {
    return false;
  }
  for (int label : answer.labels) {
    if (label < 0 || label >= coloring->num_colors()) return false;
  }
  double conflicts = 0.0;
  for (const workloads::Edge& edge : coloring->graph().edges()) {
    if (answer.labels[static_cast<size_t>(edge.u)] ==
        answer.labels[static_cast<size_t>(edge.v)]) {
      conflicts += 1.0;
    }
  }
  return conflicts > 0.0 && answer.objective == conflicts &&
         outcome.workload_gap == conflicts;
}

/// Checks one settled outcome against the pool entry's reference copy and
/// folds it into `tally`. A wrong answer is a failed check; a request the
/// service could not answer is only a failed request.
bool CheckOutcome(Kind kind, const service::SolveOutcome& outcome,
                  const PoolEntry& entry, Report* report, Tally* tally) {
  if (!outcome.status.ok()) {
    std::fprintf(stderr, "request %llu failed: %s\n",
                 static_cast<unsigned long long>(outcome.id),
                 outcome.status.ToString().c_str());
    return false;
  }
  ++tally->answered_by[entry.class_name][static_cast<size_t>(outcome.backend)];
  std::string record = StrFormat("%llu %.17g",
                                 static_cast<unsigned long long>(outcome.id),
                                 outcome.cost);
  if (kind == Kind::kGraph && IsFlaggedImproperColoring(entry, outcome)) {
    // SQA plus descent can stop at a coloring with a conflicting edge. The
    // service flags it infeasible and reports the conflicts as its gap: a
    // request without a usable answer, not a wrong output.
    std::fprintf(stderr, "request %llu (%s): improper coloring, gap %g\n",
                 static_cast<unsigned long long>(outcome.id),
                 entry.class_name.c_str(), outcome.workload_gap);
    for (int label : outcome.workload_solution.labels) {
      record += StrFormat(" %d", label);
    }
    tally->digest.Add(record);
    return false;
  }
  ++tally->ok;
  if (kind == Kind::kPaper) {
    const Status valid = mqo::ValidateSolution(entry.problem, outcome.solution);
    if (!valid.ok()) {
      report->Fail(StrFormat("request %llu (%s): not one plan per query: %s",
                             static_cast<unsigned long long>(outcome.id),
                             entry.class_name.c_str(),
                             valid.ToString().c_str()));
      return true;
    }
    const double cost = mqo::EvaluateCost(entry.problem, outcome.solution);
    if (std::fabs(cost - outcome.cost) > 1e-9 * std::max(1.0, std::fabs(cost))) {
      report->Fail(StrFormat("request %llu (%s): reported cost %.17g, "
                             "recomputed %.17g",
                             static_cast<unsigned long long>(outcome.id),
                             entry.class_name.c_str(), outcome.cost, cost));
    }
    tally->scaled_cost_sum += cost / entry.max_cost_sum;
    if (cost <= entry.classical_cost * (1.0 + kClassicalTolerance)) {
      ++tally->hits;
    }
    if (outcome.backend == harness::SolveBackend::kDevice) ++tally->top_rung;
    for (int q = 0; q < outcome.solution.num_queries(); ++q) {
      record += StrFormat(" %d", outcome.solution.selected(q));
    }
  } else {
    const Status feasible =
        entry.workload->ValidateFeasible(outcome.workload_solution);
    if (!feasible.ok() || !outcome.workload_solution.feasible) {
      report->Fail(StrFormat("request %llu (%s): infeasible answer: %s",
                             static_cast<unsigned long long>(outcome.id),
                             entry.class_name.c_str(),
                             feasible.ok() ? "flagged infeasible"
                                           : feasible.ToString().c_str()));
      return true;
    }
    const double gap = entry.workload->OptimalityGap(outcome.workload_solution);
    if (std::fabs(gap - outcome.workload_gap) > 1e-9) {
      report->Fail(StrFormat("request %llu (%s): reported gap %.17g, "
                             "recomputed %.17g",
                             static_cast<unsigned long long>(outcome.id),
                             entry.class_name.c_str(), outcome.workload_gap,
                             gap));
    }
    tally->scaled_cost_sum += 1.0 + gap / entry.optimum_scale;
    if (gap <= 1e-9) ++tally->hits;
    // A bare QUBO cannot use the device, so SQA is its top rung.
    if (outcome.backend == harness::SolveBackend::kSqa) ++tally->top_rung;
    for (int label : outcome.workload_solution.labels) {
      record += StrFormat(" %d", label);
    }
  }
  tally->digest.Add(record);
  return true;
}

Tally CheckLoop(Kind kind, const Rig& rig, const LoopStats& stats,
                Report* report, bool count) {
  Tally tally;
  const std::vector<service::SolveOutcome>& outcomes = rig.service->outcomes();
  for (const Settled& settled : stats.settled) {
    const bool ok = CheckOutcome(kind, outcomes[settled.outcome],
                                 rig.pool[settled.entry], report, &tally);
    if (count) report->Count(!ok);
  }
  if (count) {
    for (int64_t i = 0; i < stats.rejected; ++i) report->Count(true);
  }
  return tally;
}

std::string AnsweredBySummary(const Tally& tally) {
  std::string out;
  for (const auto& [name, counts] : tally.answered_by) {
    out += StrFormat("%s%s:", out.empty() ? "" : "; ", name.c_str());
    for (size_t b = 0; b < counts.size(); ++b) {
      if (counts[b] == 0) continue;
      out += StrFormat(" %s=%lld",
                       harness::SolveBackendName(
                           static_cast<harness::SolveBackend>(b)),
                       static_cast<long long>(counts[b]));
    }
  }
  return out;
}

struct SetUpResult {
  std::unique_ptr<Rig> rig;
  double seconds = 0.0;
  std::string digest;
};

/// One set-up: chip, inputs (generation and serialization), worker pool,
/// service, warm-up rounds. The warm-up answers are checked and digested.
SetUpResult SetUp(Kind kind, uint64_t seed, int threads, bool traced,
                  Report* report) {
  SetUpResult result;
  Stopwatch watch;
  auto rig = std::make_unique<Rig>();
  Rng chip_rng(1);
  rig->chip = std::make_unique<chimera::ChimeraGraph>(
      chimera::ChimeraGraph::DWave2XWithDefects(&chip_rng));
  Result<std::vector<PoolEntry>> pool = kind == Kind::kPaper
                                            ? MakePaperPool(*rig->chip, seed)
                                            : MakeGraphPool(seed);
  if (!pool.ok()) {
    report->Fail("input generation: " + pool.status().ToString());
    return result;
  }
  rig->pool = std::move(pool).value();
  rig->threads = threads;
  rig->executor = std::make_unique<util::Executor>(threads);
  if (traced) rig->tracer = std::make_unique<obs::Tracer>();
  rig->service = std::make_unique<service::SolveService>(MakeServiceOptions(
      rig->chip.get(), rig->executor.get(), threads, rig->tracer.get()));
  const LoopStats warmup = RunLoop(
      rig.get(), 0.0,
      kind == Kind::kPaper ? kPaperWarmupRounds : kGraphWarmupRounds);
  result.seconds = watch.ElapsedSeconds();
  result.digest = CheckLoop(kind, *rig, warmup, report, false).digest.Hex();
  if (rig->tracer != nullptr) rig->tracer->Clear();
  result.rig = std::move(rig);
  return result;
}

std::string TagValue(const obs::Span& span, const std::string& key) {
  for (const auto& [name, value] : span.tags) {
    if (name == key) return value;
  }
  return "";
}

double TagInt(const obs::Span& span, const std::string& key) {
  const std::string value = TagValue(span, key);
  return value.empty() ? 0.0 : std::atof(value.c_str());
}

double Share(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

/// Times direct calls into each layer's public functions, one pass over the
/// pool, into `layers`. Returns the physical qubits of each pool entry (0
/// when the wire path finds no embedding).
std::vector<int> ProbeLayerCalls(Kind kind, const Rig& traced, Report* report,
                                 std::map<std::string, double>* layers) {
  const std::vector<PoolEntry>& pool = traced.pool;
  const service::ServiceOptions options = MakeServiceOptions(
      traced.chip.get(), traced.executor.get(), traced.threads, nullptr);
  std::vector<double> mqo_parse, payload_bytes, derive, logical_ms,
      logical_vars, physical, broken, sqa_ms, wl_parse, wl_formulate;
  std::vector<int> entry_qubits(pool.size(), 0);
  std::set<std::string> probed_classes;
  const harness::SolvePolicy ladder;  // the service's default policy
  auto time_sqa = [&](const qubo::QuboProblem& qubo) {
    anneal::SqaOptions sqa;
    sqa.num_reads = ladder.sqa_reads;
    sqa.num_slices = ladder.sqa_slices;
    sqa.sweeps = ladder.sqa_sweeps;
    sqa.num_threads = 1;
    Stopwatch watch;
    anneal::SampleSet samples = anneal::SimulatedQuantumAnnealer(sqa).Sample(qubo);
    sqa_ms.push_back(watch.ElapsedMillis());
    if (samples.empty()) report->Fail("SQA returned no samples");
  };
  for (size_t i = 0; i < pool.size(); ++i) {
    const PoolEntry& entry = pool[i];
    if (kind == Kind::kPaper) {
      payload_bytes.push_back(static_cast<double>(entry.payload.size()));
      Stopwatch watch;
      Result<mqo::MqoProblem> parsed = mqo::FromText(entry.payload);
      mqo_parse.push_back(watch.ElapsedMillis());
      if (!parsed.ok()) report->Fail("mqo::FromText: " + parsed.status().ToString());
      std::vector<int> clusters;
      for (int q = 0; q < entry.problem.num_queries(); ++q) {
        clusters.push_back(entry.problem.num_plans_of(q));
      }
      watch.Restart();
      Result<embedding::Embedding> embedded =
          embedding::ClusteredEmbedder::Embed(clusters, *traced.chip);
      derive.push_back(watch.ElapsedMillis());
      watch.Restart();
      Result<mapping::LogicalMapping> logical =
          mapping::LogicalMapping::Create(entry.problem);
      logical_ms.push_back(watch.ElapsedMillis());
      if (!logical.ok()) {
        report->Fail("LogicalMapping: " + logical.status().ToString());
        continue;
      }
      logical_vars.push_back(logical->qubo().num_vars());
      if (!embedded.ok()) {
        time_sqa(logical->qubo());  // enters the ladder at SQA
        continue;
      }
      entry_qubits[i] = embedded->TotalQubits();
      physical.push_back(entry_qubits[i]);
      if (probed_classes.insert(entry.class_name).second) {
        Result<harness::QuantumMqoResult> solved = harness::SolveQuantumMqo(
            entry.problem, *embedded, *traced.chip, options.pipeline);
        if (!solved.ok()) {
          report->Fail("SolveQuantumMqo: " + solved.status().ToString());
        } else {
          broken.push_back(solved->broken_chain_read_fraction);
        }
      }
    } else {
      Stopwatch watch;
      Result<workloads::WorkloadSpec> spec = workloads::FromText(entry.payload);
      wl_parse.push_back(watch.ElapsedMillis());
      if (!spec.ok()) {
        report->Fail("workloads::FromText: " + spec.status().ToString());
        continue;
      }
      watch.Restart();
      Result<std::shared_ptr<workloads::Workload>> made =
          workloads::MakeWorkload(*spec);
      wl_formulate.push_back(watch.ElapsedMillis());
      if (!made.ok()) {
        report->Fail("workloads::MakeWorkload: " + made.status().ToString());
        continue;
      }
      time_sqa((*made)->qubo());
    }
  }
  (*layers)["anneal.broken_chain_fraction"] = Mean(broken);
  (*layers)["anneal.sqa_ms"] = Mean(sqa_ms);
  (*layers)["mqo.parse_ms"] = Mean(mqo_parse);
  (*layers)["mqo.payload_bytes"] = Mean(payload_bytes);
  (*layers)["embedding.derive_ms"] = Mean(derive);
  (*layers)["embedding.physical_qubits"] = Mean(physical);
  (*layers)["mapping.logical_ms"] = Mean(logical_ms);
  (*layers)["mapping.logical_vars"] = Mean(logical_vars);
  (*layers)["workloads.parse_ms"] = Mean(wl_parse);
  (*layers)["workloads.formulate_ms"] = Mean(wl_formulate);
  return entry_qubits;
}

/// Decodes and validates the traced graph answers again, from their labels,
/// timing `Workload::Decode` and `ValidateFeasible`.
void ProbeDecode(const Rig& traced, const LoopStats& loop, Report* report,
                 std::map<std::string, double>* layers) {
  std::vector<double> decode_ms, validate_ms;
  const std::vector<service::SolveOutcome>& outcomes = traced.service->outcomes();
  for (const Settled& settled : loop.settled) {
    const service::SolveOutcome& outcome = outcomes[settled.outcome];
    if (!outcome.status.ok()) continue;
    const workloads::Workload& workload = *traced.pool[settled.entry].workload;
    const std::vector<int>& labels = outcome.workload_solution.labels;
    std::vector<uint8_t> bits(static_cast<size_t>(workload.qubo().num_vars()), 0);
    if (workload.kind() == workloads::WorkloadKind::kGraphColoring) {
      const size_t colors = bits.size() / labels.size();  // one-hot per node
      for (size_t v = 0; v < labels.size(); ++v) {
        bits[v * colors + static_cast<size_t>(labels[v])] = 1;
      }
    } else {
      for (size_t v = 0; v < labels.size(); ++v) bits[v] = labels[v] != 0;
    }
    Stopwatch watch;
    workloads::WorkloadSolution decoded = workload.Decode(bits);
    decode_ms.push_back(watch.ElapsedMillis());
    watch.Restart();
    const Status feasible = workload.ValidateFeasible(decoded);
    validate_ms.push_back(watch.ElapsedMillis());
    if (feasible.ok() != decoded.feasible || decoded.labels != labels ||
        decoded.feasible != outcome.workload_solution.feasible ||
        decoded.objective != outcome.workload_solution.objective) {
      report->Fail(StrFormat("request %llu: decoding the answer's labels does "
                             "not give the answer back",
                             static_cast<unsigned long long>(outcome.id)));
    }
  }
  (*layers)["workloads.decode_ms"] = Mean(decode_ms);
  (*layers)["workloads.validate_ms"] = Mean(validate_ms);
}

/// The per-layer metrics of a service workload: spans of the traced loop,
/// the loop's own timers, and the direct probes above.
void AddServiceLayers(Kind kind, const Rig& traced, const LoopStats& untraced,
                      const LoopStats& loop, const Tally& tally,
                      Report* report) {
  std::map<std::string, double> layers;
  const std::vector<int> entry_qubits =
      ProbeLayerCalls(kind, traced, report, &layers);
  if (kind == Kind::kGraph) ProbeDecode(traced, loop, report, &layers);

  std::map<uint64_t, size_t> entry_of;  // request id -> pool entry
  for (const Settled& settled : loop.settled) {
    entry_of[traced.service->outcomes()[settled.outcome].id] = settled.entry;
  }
  const int sweeps = anneal::DWaveOptions().sa_sweeps;  // the service's
  std::vector<double> attempt_self, unembed, merge, device_ms, gauge_ms, reads,
      compile, cache_hits;
  double attempts = 0, retries = 0, fallbacks = 0, attempt_wall = 0;
  double spin_updates = 0, anneal_seconds = 0;
  const double requests = static_cast<double>(traced.tracer->size());
  for (const obs::SolveTrace& trace : traced.tracer->traces()) {
    const std::vector<obs::Span>& spans = trace.spans();
    if (spans.empty()) continue;
    const auto found = entry_of.find(static_cast<uint64_t>(TagInt(spans[0], "id")));
    const int qubits =
        found == entry_of.end() ? 0 : entry_qubits[found->second];
    for (size_t i = 0; i < spans.size(); ++i) {
      const obs::Span& span = spans[i];
      if (span.name == "solve.attempt") {
        const double attempt = TagInt(span, "attempt");
        if (attempt < 1) continue;  // rung skipped by the breaker gate
        attempts += 1;
        if (attempt >= 2) retries += 1;
        if (TagValue(span, "status") == "ok") fallbacks += TagInt(span, "rung");
        attempt_wall += span.wall_ms;
        attempt_self.push_back(SelfWallMs(trace, static_cast<int>(i)));
      } else if (span.name == "pipeline.embed") {
        compile.push_back(span.wall_ms);
        cache_hits.push_back(TagInt(span, "cache_hit"));
      } else if (span.name == "pipeline.anneal") {
        double span_reads = 0;
        for (const obs::Span& child : spans) {
          if (child.parent == static_cast<int>(i) && child.name == "anneal.gauge") {
            span_reads += TagInt(child, "reads");
          }
        }
        device_ms.push_back(span.wall_ms);
        reads.push_back(span_reads);
        spin_updates += span_reads * sweeps * qubits;
        anneal_seconds += span.wall_ms / 1000.0;
      } else if (span.name == "anneal.gauge") {
        gauge_ms.push_back(span.wall_ms);
      } else if (span.name == "pipeline.unembed") {
        unembed.push_back(span.wall_ms);
      } else if (span.name == "pipeline.merge") {
        merge.push_back(span.wall_ms);
      }
    }
  }

  layers["anneal.device_ms"] = Mean(device_ms);
  layers["anneal.gauge_ms"] = Mean(gauge_ms);
  layers["anneal.reads"] = Mean(reads);
  layers["anneal.spin_updates"] =
      Share(spin_updates, static_cast<double>(device_ms.size()));
  layers["anneal.spin_updates_per_s"] = Share(spin_updates, anneal_seconds);
  layers["harness.attempt_self_ms"] = Mean(attempt_self);
  layers["harness.unembed_ms"] = Mean(unembed);
  layers["harness.merge_ms"] = Mean(merge);
  layers["harness.attempts"] = Share(attempts, requests);
  layers["harness.retries"] = Share(retries, requests);
  layers["harness.fallbacks"] = Share(fallbacks, requests);
  layers["embedding.compile_ms"] = Mean(compile);
  layers["embedding.cache_hit_ratio"] = Mean(cache_hits);

  double round_wall = 0;
  for (double ms : loop.round_ms) round_wall += ms;
  const double rounds = static_cast<double>(loop.round_ms.size());
  layers["service.submit_ms"] = Mean(loop.submit_ms);
  layers["service.round_ms"] = Mean(loop.round_ms);
  // Round wall beyond the attempts' work spread evenly over the workers:
  // scheduling, commit, and waiting for the round's slowest worker.
  layers["service.round_overhead_ms"] =
      Share(round_wall - attempt_wall / traced.threads, rounds);
  layers["service.requests_per_round"] =
      Share(static_cast<double>(loop.settled.size()), rounds);
  for (size_t b = 0; b < 4; ++b) {
    const char* backend =
        harness::SolveBackendName(static_cast<harness::SolveBackend>(b));
    double answered = 0;
    for (const auto& [name, counts] : tally.answered_by) {
      answered += static_cast<double>(counts[b]);
    }
    layers[StrFormat("service.answered_by.%s", backend)] =
        Share(answered, static_cast<double>(tally.ok));
    // Per paper class, only the two rungs the classes answer on.
    if (kind != Kind::kPaper || b > static_cast<size_t>(harness::SolveBackend::kSqa)) {
      continue;
    }
    for (const auto& [name, counts] : tally.answered_by) {
      double total = 0;
      for (int64_t count : counts) total += static_cast<double>(count);
      layers[StrFormat("service.answered_by.%s.%s", backend, name.c_str())] =
          Share(static_cast<double>(counts[b]), total);
    }
  }
  const service::ServiceStats stats = traced.service->stats();
  layers["service.rejected"] = static_cast<double>(
      stats.rejected_invalid + stats.rejected_queue_full +
      stats.rejected_shutdown);
  layers["service.shed"] = static_cast<double>(stats.shed_degraded);
  layers["util.executor.workers_spawned"] =
      static_cast<double>(untraced.workers_spawned + loop.workers_spawned);
  layers["util.cpu_utilization"] =
      Share(untraced.cpu_ms + loop.cpu_ms,
            (untraced.wall_ms + loop.wall_ms) * traced.threads);
  layers["obs.trace_overhead_pct"] = TraceOverheadPct(
      Share(static_cast<double>(untraced.settled.size()),
            untraced.wall_ms / 1000.0),
      Share(static_cast<double>(loop.settled.size()), loop.wall_ms / 1000.0));
  report->AddLayers(layers);
}

}  // namespace

void RunServiceWorkload(const RunOptions& options, Report* report) {
  const Kind kind = options.workload == "mqo_paper" ? Kind::kPaper : Kind::kGraph;
  // Three set-ups: one with a single service worker, two with two. Their
  // warm-up answers must match: the same seed twice, and 1 vs 2 workers.
  // In a traced run the last set-up carries the tracer, so the check also
  // shows that tracing does not change answers.
  std::vector<SetUpResult> setups;
  std::vector<double> setup_seconds;
  for (int i = 0; i < 3; ++i) {
    setups.push_back(SetUp(kind, options.seed, i == 0 ? 1 : kServiceThreads,
                           options.trace && i == 2, report));
    if (setups.back().rig == nullptr) return;
    setup_seconds.push_back(setups.back().seconds);
    report->Fact(StrFormat("warmup_digest.%d", i), setups.back().digest);
  }
  for (size_t i = 1; i < setups.size(); ++i) {
    if (setups[i].digest != setups[0].digest) {
      report->Fail(StrFormat("warm-up answers of set-up %zu (digest %s) differ "
                             "from set-up 0 (digest %s)",
                             i, setups[i].digest.c_str(),
                             setups[0].digest.c_str()));
    }
  }
  report->Fact("pool", StrFormat("%zu requests", setups[0].rig->pool.size()));

  if (!options.trace) {
    Rig& rig = *setups[2].rig;
    const LoopStats loop = RunLoop(&rig, options.seconds, 0);
    const Tally tally = CheckLoop(kind, rig, loop, report, true);
    const LoopTimings timings = TimeBlocks(loop.rounds, kTimingBlocks);
    const double ok = static_cast<double>(tally.ok);
    report->Add("throughput_rps", timings.throughput_per_s, "1/s");
    report->Add("latency_p50_ms", timings.latency_p50_ms, "ms");
    report->Add("latency_p90_ms", timings.latency_p90_ms, "ms");
    report->Add("ok_fraction", Share(ok, static_cast<double>(loop.attempted)),
                "fraction");
    report->Add("top_rung_fraction", Share(static_cast<double>(tally.top_rung), ok),
                "fraction");
    report->Add("scaled_cost", Share(tally.scaled_cost_sum, ok), "ratio");
    report->Add("optimum_hit_fraction", Share(static_cast<double>(tally.hits), ok),
                "fraction");
    report->Add("cpu_ms_per_request", timings.cpu_ms_per_request, "ms");
    report->Add("peak_rss_mb", loop.rss_mb, "MiB");
    report->Add("setup_s", Percentile(setup_seconds, 50), "s");
    report->Fact("answer_digest", tally.digest.Hex());
    report->Fact("answered_by", AnsweredBySummary(tally));
    report->Fact("settled", StrFormat("%zu requests in %zu rounds",
                                      loop.settled.size(), loop.round_ms.size()));
    return;
  }

  // Traced run: half the budget untraced, half traced, then layer probes.
  const LoopStats untraced = RunLoop(setups[1].rig.get(), options.seconds / 2, 0);
  CheckLoop(kind, *setups[1].rig, untraced, report, true);
  Rig& traced = *setups[2].rig;
  const LoopStats loop = RunLoop(&traced, options.seconds / 2, 0);
  const Tally tally = CheckLoop(kind, traced, loop, report, true);
  report->Fact("answered_by", AnsweredBySummary(tally));
  AddServiceLayers(kind, traced, untraced, loop, tally, report);
}

}  // namespace perfbench
}  // namespace qmqo
