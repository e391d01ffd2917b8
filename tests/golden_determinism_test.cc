// Golden determinism fixtures: committed JSON snapshots of the SampleSets
// that SA, SQA, and the device simulator produce at fixed seeds — energies
// (as exact IEEE-754 bit patterns), occurrence counts, and the packed
// assignment words — for every sweep kernel. Each snapshot is asserted
// byte-stable across 1/2/4 worker threads and against the committed file,
// so future refactors of the samplers, the parallel read engine, or the
// SampleSet representation diff against committed truth instead of
// re-deriving "serial equals parallel" from scratch.
//
// Regenerating (only when an intentional stream/contract change lands):
//   QMQO_UPDATE_GOLDEN=1 ./golden_determinism_test
// then commit the rewritten files under tests/golden/ and call the change
// out in the PR description — a golden diff IS a results change.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "anneal/dwave_simulator.h"
#include "anneal/sample_set.h"
#include "anneal/simulated_annealer.h"
#include "anneal/sqa.h"
#include "chimera/topology.h"
#include "harness/mqo_workload.h"
#include "harness/paper_workload.h"
#include "harness/resilient_solver.h"
#include "mqo/serialization.h"
#include "service/solve_service.h"
#include "util/fault.h"
#include "util/rng.h"
#include "workloads/coloring.h"
#include "workloads/max_clique.h"
#include "workloads/max_cut.h"
#include "workloads/workload.h"

#ifndef QMQO_GOLDEN_DIR
#define QMQO_GOLDEN_DIR "tests/golden"
#endif

namespace qmqo {
namespace anneal {
namespace {

/// The shared fixture problem: a fixed 16-variable random QUBO. Small
/// enough that every engine finishes in milliseconds, dense enough that
/// duplicate assignments exercise the dedup-merge path.
qubo::QuboProblem FixtureProblem() {
  Rng rng(20260729);
  qubo::QuboProblem problem(16);
  for (int i = 0; i < 16; ++i) {
    problem.AddLinear(i, rng.UniformReal(-4.0, 4.0));
    for (int j = i + 1; j < 16; ++j) {
      if (rng.Bernoulli(0.5)) {
        problem.AddQuadratic(i, j, rng.UniformReal(-4.0, 4.0));
      }
    }
  }
  return problem;
}

std::string HexU64(uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

/// Canonical byte-stable serialization: energies as IEEE-754 bit patterns
/// (the readable decimal rendering rides along for humans), counts, and
/// the packed assignment words. One sample per line for reviewable diffs.
std::string Serialize(const std::string& engine, const std::string& kernel,
                      const SampleSet& set) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"engine\": \"" << engine << "\",\n";
  out << "  \"kernel\": \"" << kernel << "\",\n";
  out << "  \"num_bits\": " << set.assignments().num_bits() << ",\n";
  out << "  \"total_reads\": " << set.total_reads() << ",\n";
  out << "  \"samples\": [";
  for (size_t i = 0; i < set.samples().size(); ++i) {
    const Sample sample = set.samples()[i];
    uint64_t energy_bits;
    static_assert(sizeof(energy_bits) == sizeof(sample.energy), "");
    std::memcpy(&energy_bits, &sample.energy, sizeof(energy_bits));
    char energy_text[64];
    std::snprintf(energy_text, sizeof(energy_text), "%.17g", sample.energy);
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"energy_hex\": \"" << HexU64(energy_bits)
        << "\", \"energy\": \"" << energy_text
        << "\", \"count\": " << sample.num_occurrences << ", \"words\": [";
    const AssignmentRef ref = sample.assignment;
    for (int w = 0; w < ref.num_words(); ++w) {
      out << (w == 0 ? "" : ", ") << "\"" << HexU64(ref.words()[w]) << "\"";
    }
    out << "]}";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

/// Compares `serialized` against the committed fixture (or rewrites it
/// under QMQO_UPDATE_GOLDEN=1).
void CheckGolden(const std::string& name, const std::string& serialized) {
  const std::string path = std::string(QMQO_GOLDEN_DIR) + "/" + name + ".json";
  if (std::getenv("QMQO_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << serialized;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden fixture " << path
      << " — run with QMQO_UPDATE_GOLDEN=1 to generate it";
  std::stringstream committed;
  committed << in.rdbuf();
  EXPECT_EQ(committed.str(), serialized)
      << name << ": results diverged from the committed fixture. If the "
      << "change is intentional, regenerate with QMQO_UPDATE_GOLDEN=1 and "
      << "call the golden diff out in the PR.";
}

constexpr SweepKernel kKernels[] = {SweepKernel::kScalar,
                                    SweepKernel::kCheckerboard,
                                    SweepKernel::kCheckerboardFast};
constexpr int kThreadCounts[] = {1, 2, 4};

TEST(GoldenDeterminismTest, SimulatedAnnealerSnapshots) {
  qubo::QuboProblem problem = FixtureProblem();
  for (SweepKernel kernel : kKernels) {
    std::string reference;
    for (int threads : kThreadCounts) {
      SaOptions options;
      options.num_reads = 12;
      options.sweeps_per_read = 48;
      options.seed = 7;
      options.sweep_kernel = kernel;
      options.num_threads = threads;
      const std::string serialized =
          Serialize("sa", SweepKernelName(kernel),
                    SimulatedAnnealer(options).Sample(problem));
      if (threads == 1) {
        reference = serialized;
      } else {
        EXPECT_EQ(serialized, reference)
            << "sa/" << SweepKernelName(kernel) << " at " << threads
            << " threads diverged from serial";
      }
    }
    CheckGolden(std::string("sa_") + SweepKernelName(kernel), reference);
  }
}

TEST(GoldenDeterminismTest, SqaSnapshots) {
  qubo::QuboProblem problem = FixtureProblem();
  for (SweepKernel kernel : kKernels) {
    std::string reference;
    for (int threads : kThreadCounts) {
      SqaOptions options;
      options.num_reads = 6;
      options.num_slices = 4;
      options.sweeps = 24;
      options.seed = 9;
      options.sweep_kernel = kernel;
      options.num_threads = threads;
      const std::string serialized =
          Serialize("sqa", SweepKernelName(kernel),
                    SimulatedQuantumAnnealer(options).Sample(problem));
      if (threads == 1) {
        reference = serialized;
      } else {
        EXPECT_EQ(serialized, reference)
            << "sqa/" << SweepKernelName(kernel) << " at " << threads
            << " threads diverged from serial";
      }
    }
    CheckGolden(std::string("sqa_") + SweepKernelName(kernel), reference);
  }
}

TEST(GoldenDeterminismTest, DeviceSnapshots) {
  qubo::QuboProblem problem = FixtureProblem();
  for (SweepKernel kernel : kKernels) {
    std::string reference;
    for (int threads : kThreadCounts) {
      DWaveOptions options;
      options.num_reads = 12;
      options.num_gauges = 3;
      options.sa_sweeps = 24;
      options.seed = 11;
      options.sweep_kernel = kernel;
      options.num_threads = threads;
      auto result = DWaveSimulator(options).Sample(problem);
      ASSERT_TRUE(result.ok());
      const std::string serialized =
          Serialize("device", SweepKernelName(kernel), result->samples);
      if (threads == 1) {
        reference = serialized;
      } else {
        EXPECT_EQ(serialized, reference)
            << "device/" << SweepKernelName(kernel) << " at " << threads
            << " threads diverged from serial";
      }
    }
    CheckGolden(std::string("device_") + SweepKernelName(kernel), reference);
  }
}

/// The capped (streaming top-k) SA result is part of the frozen contract
/// too: top-k membership, energies, counts at any thread count.
TEST(GoldenDeterminismTest, CappedSaSnapshot) {
  qubo::QuboProblem problem = FixtureProblem();
  std::string reference;
  for (int threads : kThreadCounts) {
    SaOptions options;
    options.num_reads = 24;
    options.sweeps_per_read = 32;
    options.seed = 13;
    options.max_samples = 5;
    options.num_threads = threads;
    const std::string serialized =
        Serialize("sa_capped", "scalar",
                  SimulatedAnnealer(options).Sample(problem));
    if (threads == 1) {
      reference = serialized;
    } else {
      EXPECT_EQ(serialized, reference)
          << "sa_capped at " << threads << " threads diverged from serial";
    }
  }
  CheckGolden("sa_capped_scalar", reference);
}

/// One fixed instance per workload kind, solved through the resilient
/// ladder with the workload as its target (SQA answers, device rung gated
/// for want of a device hint, deterministic descent refinement). The
/// snapshot freezes the winning assignment bits, the energy's IEEE-754
/// pattern, and the decoded domain labels — asserted byte-stable at 1/2/4
/// threads and against the committed fixture. Fixed seeds, NOT
/// QMQO_CHAOS_SEED: goldens are committed files, chaos variation lives in
/// workloads_test.
TEST(GoldenDeterminismTest, WorkloadSolveSnapshots) {
  struct Fixture {
    std::string name;
    std::shared_ptr<workloads::Workload> workload;
  };
  std::vector<Fixture> fixtures;
  {
    auto clique = workloads::MaxCliqueWorkload::MakePlanted(
        /*num_nodes=*/20, /*clique_size=*/5, /*edge_prob=*/0.35,
        /*seed=*/20260801);
    ASSERT_TRUE(clique.ok()) << clique.status().ToString();
    fixtures.push_back({"workload_max_clique", *clique});
    auto cut_instance =
        workloads::PlantedCutGraph(/*num_nodes=*/18, /*edge_prob=*/0.45,
                                   /*max_weight=*/3.0, /*seed=*/20260802);
    ASSERT_TRUE(cut_instance.ok());
    auto cut = workloads::MaxCutWorkload::Create(
        cut_instance->graph, cut_instance->graph.total_weight());
    ASSERT_TRUE(cut.ok());
    fixtures.push_back({"workload_max_cut", *cut});
    auto coloring = workloads::ColoringWorkload::MakePlanted(
        /*num_nodes=*/15, /*num_colors=*/3, /*edge_prob=*/0.4,
        /*seed=*/20260803);
    ASSERT_TRUE(coloring.ok());
    fixtures.push_back({"workload_coloring", *coloring});
  }
  harness::SolvePolicy policy;
  policy.seed = 20260804;
  policy.max_attempts_per_backend = 1;
  policy.sqa_reads = 8;
  policy.sqa_slices = 6;
  policy.sqa_sweeps = 64;
  policy.sa_reads = 16;
  policy.sa_sweeps = 128;
  harness::ResilientSolver solver(policy);
  for (const Fixture& fixture : fixtures) {
    std::string reference;
    for (int threads : kThreadCounts) {
      harness::QuantumMqoOptions options;
      options.device.num_threads = threads;
      harness::SolveReport report = solver.Solve(*fixture.workload, options);
      ASSERT_TRUE(report.ok) << fixture.name << ": "
                             << report.FailureChain();
      const workloads::WorkloadSolution decoded =
          fixture.workload->Decode(report.assignment);
      uint64_t energy_bits;
      static_assert(sizeof(energy_bits) == sizeof(report.cost), "");
      std::memcpy(&energy_bits, &report.cost, sizeof(energy_bits));
      char energy_text[64];
      std::snprintf(energy_text, sizeof(energy_text), "%.17g",
                    report.cost);
      std::ostringstream out;
      out << "{\n";
      out << "  \"workload\": \"" << fixture.name << "\",\n";
      out << "  \"backend\": \""
          << harness::SolveBackendName(report.backend) << "\",\n";
      out << "  \"energy_hex\": \"" << HexU64(energy_bits) << "\",\n";
      out << "  \"energy\": \"" << energy_text << "\",\n";
      out << "  \"objective\": " << decoded.objective << ",\n";
      out << "  \"feasible\": " << (decoded.feasible ? "true" : "false")
          << ",\n";
      out << "  \"assignment\": \"";
      for (uint8_t bit : report.assignment) out << (bit ? '1' : '0');
      out << "\",\n  \"labels\": [";
      for (size_t i = 0; i < decoded.labels.size(); ++i) {
        out << (i == 0 ? "" : ", ") << decoded.labels[i];
      }
      out << "]\n}\n";
      if (threads == 1) {
        reference = out.str();
      } else {
        EXPECT_EQ(out.str(), reference)
            << fixture.name << " at " << threads
            << " threads diverged from serial";
      }
    }
    CheckGolden(fixture.name, reference);
  }
}

/// Appends `value` as its IEEE-754 bit pattern plus the readable decimal.
void AppendDouble(std::ostringstream* out, const char* key, double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  char text[64];
  std::snprintf(text, sizeof(text), "%.17g", value);
  *out << "\"" << key << "_hex\": \"" << HexU64(bits) << "\", \"" << key
       << "\": \"" << text << "\"";
}

/// The head every MQO ladder record shares: the answering backend, its
/// cost and modeled time bits, and the plan per query.
void AppendAnswer(std::ostringstream* out, const std::string& name,
                  harness::SolveBackend backend, double cost,
                  double modeled_ms, const mqo::MqoSolution& solution) {
  *out << "  {\n    \"case\": \"" << name << "\",\n    \"backend\": \""
       << harness::SolveBackendName(backend) << "\",\n    ";
  AppendDouble(out, "cost", cost);
  *out << ",\n    ";
  AppendDouble(out, "total_modeled_ms", modeled_ms);
  *out << ",\n    \"plans\": [";
  for (int q = 0; q < solution.num_queries(); ++q) {
    *out << (q == 0 ? "" : ", ") << solution.selected(q);
  }
  *out << "]";
}

/// One MQO ladder record: the answer plus every attempt (backend, attempt,
/// status code, modeled ms).
std::string SerializeLadder(const std::string& name,
                            const harness::SolveReport& report,
                            const mqo::MqoSolution& solution) {
  std::ostringstream out;
  AppendAnswer(&out, name, report.backend, report.cost,
               report.total_modeled_ms, solution);
  out << ",\n    \"attempts\": [";
  for (size_t i = 0; i < report.attempts.size(); ++i) {
    const harness::SolveAttempt& a = report.attempts[i];
    out << (i == 0 ? "\n" : ",\n") << "      {\"backend\": \""
        << harness::SolveBackendName(a.backend)
        << "\", \"attempt\": " << a.attempt << ", \"status\": \""
        << (a.status.ok() ? "OK" : StatusCodeToString(a.status.code()))
        << "\", ";
    AppendDouble(&out, "modeled_ms", a.modeled_ms);
    out << "}";
  }
  out << "\n    ]\n  }";
  return out.str();
}

/// The MQO degradation ladder pinned end to end: one paper instance under
/// each forced single-rung ladder, a device programming failure absorbed
/// by a fresh-gauge retry, and (through the service's wire path) an
/// instance the clustered embedder cannot place on the chip. Every record
/// is asserted byte-stable at 1/2/4 threads and against the committed
/// fixture.
TEST(GoldenDeterminismTest, MqoLadderSnapshots) {
  chimera::ChimeraGraph graph(4, 4, 4);
  Rng rng(20260805);
  harness::PaperWorkloadOptions workload;
  workload.plans_per_query = 2;
  // Heavy sharing frustrates the instance, so the rungs' answers differ.
  workload.saving_scale = 8.0;
  auto instance = harness::GeneratePaperInstance(graph, workload, &rng);
  ASSERT_TRUE(instance.ok()) << instance.status().ToString();
  auto target =
      harness::MqoWorkload::Create(instance->problem, instance->embedding,
                                   &graph);
  ASSERT_TRUE(target.ok()) << target.status().ToString();

  // More plan variables than the small chip has qubits: the clustered
  // embedder cannot place it, so the service enters the ladder at SQA.
  chimera::ChimeraGraph big_graph(8, 8, 4);
  Rng big_rng(20260806);
  harness::PaperWorkloadOptions big_workload;
  big_workload.plans_per_query = 2;
  big_workload.num_queries = 100;
  auto unplaceable =
      harness::GeneratePaperInstance(big_graph, big_workload, &big_rng);
  ASSERT_TRUE(unplaceable.ok()) << unplaceable.status().ToString();
  const std::string unplaceable_text = mqo::ToText(unplaceable->problem);

  harness::SolvePolicy base;
  base.seed = 20260807;
  base.sqa_reads = 4;
  base.sqa_slices = 4;
  base.sqa_sweeps = 16;
  base.sa_reads = 8;
  base.sa_sweeps = 32;
  auto options_at = [](int threads) {
    harness::QuantumMqoOptions options;
    options.device.num_reads = 40;
    options.device.num_gauges = 4;
    options.device.sa_sweeps = 16;
    options.device.seed = 20260808;
    options.device.num_threads = threads;
    return options;
  };

  struct Forced {
    const char* name;
    harness::SolveBackend backend;
  };
  const Forced forced[] = {{"forced_device", harness::SolveBackend::kDevice},
                           {"forced_sqa", harness::SolveBackend::kSqa},
                           {"forced_sa", harness::SolveBackend::kSa},
                           {"forced_greedy", harness::SolveBackend::kGreedy}};

  std::string reference;
  for (int threads : kThreadCounts) {
    std::vector<std::string> records;
    for (const Forced& f : forced) {
      harness::SolvePolicy policy = base;
      policy.ladder = {f.backend};
      harness::SolveReport report = harness::ResilientSolver(policy).Solve(
          **target, options_at(threads));
      ASSERT_TRUE(report.ok) << f.name << ": " << report.FailureChain();
      records.push_back(SerializeLadder(f.name, report,
                                        (*target)->Decode(report.assignment)));
    }
    {
      util::FaultInjector faults(20260809);
      util::FaultSpec fail_first;
      fail_first.fail_first = 1;
      faults.Arm("device.program", fail_first);
      harness::SolvePolicy policy = base;
      policy.faults = &faults;
      policy.backoff_initial_ms = 1.0;
      harness::SolveReport report = harness::ResilientSolver(policy).Solve(
          **target, options_at(threads));
      ASSERT_TRUE(report.ok) << report.FailureChain();
      records.push_back(SerializeLadder("device_program_retry", report,
                                        (*target)->Decode(report.assignment)));
    }
    {
      service::ServiceOptions options;
      options.graph = &graph;
      options.num_threads = threads;
      options.policy = base;
      options.pipeline = options_at(threads);
      service::SolveService service(options);
      ASSERT_TRUE(service.SubmitText(unplaceable_text).ok());
      service.DrainAll();
      ASSERT_EQ(service.outcomes().size(), 1u);
      const service::SolveOutcome& outcome = service.outcomes()[0];
      ASSERT_TRUE(outcome.status.ok()) << outcome.detail;
      std::ostringstream out;
      AppendAnswer(&out, "unplaceable", outcome.backend, outcome.cost,
                   outcome.solve_modeled_ms, outcome.solution);
      out << ",\n    \"entry_rung\": " << outcome.entry_rung
          << ",\n    \"attempts\": " << outcome.attempts
          << ",\n    \"detail\": \"" << outcome.detail << "\"\n  }";
      records.push_back(out.str());
    }
    std::string serialized = "[\n";
    for (size_t i = 0; i < records.size(); ++i) {
      serialized += records[i] + (i + 1 < records.size() ? ",\n" : "\n");
    }
    serialized += "]\n";
    if (threads == 1) {
      reference = serialized;
    } else {
      EXPECT_EQ(serialized, reference)
          << "MQO ladder at " << threads << " threads diverged from serial";
    }
  }
  CheckGolden("ladder_mqo", reference);
}

}  // namespace
}  // namespace anneal
}  // namespace qmqo
