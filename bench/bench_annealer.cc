// Annealing-engine benchmark: read throughput of the SA kernel, the SQA
// path-integral kernel, and a full device call on a 2048-spin
// Chimera-structured spin glass (16x16 cells, shore 4 — one size up from
// the paper's 1152-qubit D-Wave 2X, exercising the same degree-6 sparsity).
//
// For each engine the serial path (1 thread) is compared against parallel
// read fan-out; the benchmark *fails* (exit 1) unless the parallel sample
// sets are bit-identical to serial. The SA engine runs once per sweep
// kernel (scalar / checkerboard / checkerboard_fast — one row group each);
// the SQA and device engines follow QMQO_BENCH_KERNEL. Results go to
// BENCH_annealer.json (sweeps*spins/sec, wall time, thread count, kernel,
// serial kernel speedups) so the perf trajectory is machine-trackable
// across PRs.

#include <sys/resource.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "anneal/dwave_simulator.h"
#include "anneal/sample_set.h"
#include "anneal/simulated_annealer.h"
#include "anneal/sqa.h"
#include "bench_common.h"
#include "chimera/topology.h"
#include "harness/mqo_workload.h"
#include "harness/paper_workload.h"
#include "harness/resilient_solver.h"
#include "obs/trace.h"
#include "qubo/ising.h"
#include "util/executor.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace {

using namespace qmqo;

/// A random spin glass on the full 16x16x4 Chimera graph: couplings on
/// every coupler, fields on every qubit.
qubo::IsingProblem MakeChimeraGlass(Rng* rng) {
  chimera::ChimeraGraph graph(16, 16, 4);
  qubo::IsingProblem ising(graph.num_qubits());
  for (chimera::QubitId q = 0; q < graph.num_qubits(); ++q) {
    ising.AddField(q, rng->UniformReal(-1.0, 1.0));
    for (chimera::QubitId other : graph.Neighbors(q)) {
      if (other > q) {
        ising.AddCoupling(q, other, rng->UniformReal(-1.0, 1.0));
      }
    }
  }
  return ising;
}

/// The seed's SA read path, replicated verbatim for comparison: pair-vector
/// adjacency walked per neighbor access, serial reads. Same RNG stream and
/// neighbor order as the CSR kernel, so its SampleSet must be bit-identical
/// — only the memory layout (and therefore the throughput) differs.
anneal::SampleSet RunLegacySa(const qubo::IsingProblem& ising,
                              const anneal::SaOptions& options) {
  const int n = ising.num_spins();
  std::vector<std::vector<std::pair<qubo::VarId, double>>> adjacency(
      static_cast<size_t>(n));
  for (const qubo::Interaction& term : ising.couplings()) {
    adjacency[static_cast<size_t>(term.i)].emplace_back(term.j, term.weight);
    adjacency[static_cast<size_t>(term.j)].emplace_back(term.i, term.weight);
  }
  auto [hot, cold] = anneal::SuggestBetaRange(ising);
  anneal::Schedule beta = options.beta;
  beta.start = hot;
  beta.end = cold;

  Rng rng(options.seed);
  anneal::SampleSet out;
  std::vector<int8_t> spins(static_cast<size_t>(n));
  std::vector<double> field(static_cast<size_t>(n));
  for (int read = 0; read < options.num_reads; ++read) {
    Rng read_rng = rng.Fork(static_cast<uint64_t>(read));
    for (auto& s : spins) {
      s = read_rng.Bernoulli(0.5) ? int8_t{1} : int8_t{-1};
    }
    for (qubo::VarId i = 0; i < n; ++i) {
      double f = ising.field(i);
      for (const auto& [j, w] : adjacency[static_cast<size_t>(i)]) {
        f += w * static_cast<double>(spins[static_cast<size_t>(j)]);
      }
      field[static_cast<size_t>(i)] = f;
    }
    for (int sweep = 0; sweep < options.sweeps_per_read; ++sweep) {
      double b = beta.At(sweep, options.sweeps_per_read);
      for (qubo::VarId i = 0; i < n; ++i) {
        double s_i = static_cast<double>(spins[static_cast<size_t>(i)]);
        double delta = -2.0 * s_i * field[static_cast<size_t>(i)];
        if (delta <= 0.0 ||
            read_rng.UniformReal(0.0, 1.0) < std::exp(-b * delta)) {
          spins[static_cast<size_t>(i)] = static_cast<int8_t>(-s_i);
          double change = -2.0 * s_i;
          for (const auto& [j, w] : adjacency[static_cast<size_t>(i)]) {
            field[static_cast<size_t>(j)] += w * change;
          }
        }
      }
    }
    out.Add(qubo::SpinsToAssignment(spins), ising.Energy(spins));
  }
  out.Finalize();
  return out;
}

bool Identical(const anneal::SampleSet& a, const anneal::SampleSet& b) {
  if (a.total_reads() != b.total_reads()) return false;
  if (a.samples().size() != b.samples().size()) return false;
  for (size_t i = 0; i < a.samples().size(); ++i) {
    if (a.samples()[i].assignment != b.samples()[i].assignment) return false;
    if (a.samples()[i].energy != b.samples()[i].energy) return false;
    if (a.samples()[i].num_occurrences != b.samples()[i].num_occurrences) {
      return false;
    }
  }
  return true;
}

struct RunResult {
  anneal::SampleSet samples;
  double wall_ms = 0.0;
};

/// One benchmark block: runs `run(threads)` for each thread count, checks
/// the parallel results against the 1-thread baseline, records rows.
template <typename Runner>
bool BenchEngine(const std::string& engine, const std::string& kernel,
                 const std::vector<int>& threads, double sweep_spins_per_run,
                 bench::JsonArray* rows, const Runner& run,
                 RunResult* serial_out = nullptr) {
  bool all_identical = true;
  RunResult serial;
  for (int t : threads) {
    RunResult result = run(t);
    bool identical = true;
    if (t == 1) {
      serial = result;
    } else {
      identical = Identical(serial.samples, result.samples);
      all_identical = all_identical && identical;
    }
    double throughput = sweep_spins_per_run / (result.wall_ms / 1000.0);
    bench::JsonObject row;
    row.Add("engine", engine)
        .Add("kernel", kernel)
        .Add("threads", t)
        .Add("wall_ms", result.wall_ms)
        .Add("sweep_spins_per_sec", throughput)
        .Add("best_energy", result.samples.best().energy)
        .Add("identical_to_serial", identical);
    rows->Add(row);
    std::printf(
        "%-20s threads=%2d  wall=%9.1f ms  sweeps*spins/s=%.3e  best=%.4f%s\n",
        engine.c_str(), t, result.wall_ms, throughput,
        result.samples.best().energy, identical ? "" : "  MISMATCH");
  }
  if (serial_out != nullptr) *serial_out = serial;
  return all_identical;
}

}  // namespace

int main() {
  const bool full = bench::FullScale();
  Rng instance_rng(2048);
  qubo::IsingProblem glass = MakeChimeraGlass(&instance_rng);
  glass.Finalize();
  const int n = glass.num_spins();
  const int num_couplings = static_cast<int>(glass.couplings().size());
  std::printf("instance: %d-spin Chimera(16x16x4) glass, %d couplings\n", n,
              num_couplings);

  const std::vector<int> threads = {1, 2, 4, 8};
  bench::JsonArray rows;
  bool all_identical = true;

  // One worker pool for the whole bench, sized to the largest thread
  // count: every engine run below enqueues on it, so after this line the
  // process-wide spawn counter must not move — the reuse gate at the
  // bottom fails the bench if any run spawned threads of its own.
  qmqo::util::Executor pool(8);
  const int64_t workers_spawned_baseline =
      qmqo::util::Executor::TotalWorkersSpawned();

  // --- SA: the acceptance-criteria engine, once per sweep kernel. The
  // scalar rows keep the engine name "sa" (the frozen baseline key); the
  // checkerboard kernels get their own rows so diff_bench.py can hold
  // kCheckerboard to at least kScalar throughput and track the
  // kCheckerboardFast speedup. ---
  anneal::SaOptions sa;
  sa.num_reads = full ? 256 : 48;
  sa.sweeps_per_read = 256;
  sa.seed = 7;
  sa.executor = &pool;
  const double sa_sweep_spins =
      static_cast<double>(sa.num_reads) * sa.sweeps_per_read * n;
  auto run_sa = [&](anneal::SweepKernel kernel, int t) {
    anneal::SaOptions options = sa;
    options.num_threads = t;
    options.sweep_kernel = kernel;
    Stopwatch clock;
    RunResult result;
    result.samples = anneal::SimulatedAnnealer(options).SampleIsing(glass);
    result.wall_ms = clock.ElapsedMillis();
    return result;
  };
  RunResult sa_serial;
  all_identical &= BenchEngine(
      "sa", "scalar", threads, sa_sweep_spins, &rows,
      [&](int t) { return run_sa(anneal::SweepKernel::kScalar, t); },
      &sa_serial);
  RunResult sa_checkerboard_serial;
  all_identical &= BenchEngine(
      "sa_checkerboard", "checkerboard", threads, sa_sweep_spins, &rows,
      [&](int t) { return run_sa(anneal::SweepKernel::kCheckerboard, t); },
      &sa_checkerboard_serial);
  RunResult sa_fast_serial;
  all_identical &= BenchEngine(
      "sa_checkerboard_fast", "checkerboard_fast", threads, sa_sweep_spins,
      &rows,
      [&](int t) { return run_sa(anneal::SweepKernel::kCheckerboardFast, t); },
      &sa_fast_serial);
  const double checkerboard_speedup =
      sa_serial.wall_ms / sa_checkerboard_serial.wall_ms;
  const double checkerboard_fast_speedup =
      sa_serial.wall_ms / sa_fast_serial.wall_ms;
  std::printf(
      "serial kernel speedup vs scalar: checkerboard %.2fx, "
      "checkerboard_fast %.2fx\n",
      checkerboard_speedup, checkerboard_fast_speedup);

  // --- Seed reference path: pair-vector adjacency, serial reads. Must be
  // bit-identical to the CSR kernel; the wall-time ratio is the layout
  // speedup this PR's acceptance criterion measures against. ---
  double legacy_speedup = 0.0;
  {
    Stopwatch clock;
    anneal::SampleSet legacy = RunLegacySa(glass, sa);
    double wall_ms = clock.ElapsedMillis();
    bool identical = Identical(legacy, sa_serial.samples);
    all_identical &= identical;
    legacy_speedup = wall_ms / sa_serial.wall_ms;
    double throughput = sa_sweep_spins / (wall_ms / 1000.0);
    bench::JsonObject row;
    row.Add("engine", "sa_legacy")
        .Add("kernel", "scalar")
        .Add("threads", 1)
        .Add("wall_ms", wall_ms)
        .Add("sweep_spins_per_sec", throughput)
        .Add("best_energy", legacy.best().energy)
        .Add("identical_to_serial", identical);
    rows.Add(row);
    std::printf(
        "%-20s threads= 1  wall=%9.1f ms  sweeps*spins/s=%.3e  best=%.4f%s\n",
        "legacy", wall_ms, throughput, legacy.best().energy,
        identical ? "" : "  MISMATCH");
    std::printf("CSR serial speedup over seed pair-vector path: %.2fx\n",
                legacy_speedup);
  }

  // --- Memory accounting: bytes per retained sample on the serial SA
  // result. `bytes_per_sample` is measured (packed arena words + entry
  // records over the retained count); the unpacked reference is the
  // byte-vector representation this storage replaced — one heap
  // `std::vector<uint8_t>` per sample (n payload bytes + vector header)
  // plus the energy/count fields. diff_bench.py gates the ratio at >= 4x
  // for the 2048-spin instance. ---
  const size_t retained = sa_serial.samples.samples().size();
  const double bytes_per_sample =
      retained > 0 ? static_cast<double>(sa_serial.samples.memory_bytes()) /
                         static_cast<double>(retained)
                   : 0.0;
  const double unpacked_bytes_per_sample =
      static_cast<double>(n) +
      static_cast<double>(sizeof(std::vector<uint8_t>)) +
      static_cast<double>(sizeof(double) + sizeof(int));
  const double packed_memory_reduction =
      bytes_per_sample > 0.0 ? unpacked_bytes_per_sample / bytes_per_sample
                             : 0.0;
  std::printf(
      "memory: %.1f B/sample packed (%zu retained) vs %.1f B/sample "
      "unpacked representation -> %.2fx reduction\n",
      bytes_per_sample, retained, unpacked_bytes_per_sample,
      packed_memory_reduction);

  // --- SQA: P coupled replicas, so a "sweep" touches P * n spins. The
  // sweep kernel follows QMQO_BENCH_KERNEL (default scalar), keyed into
  // the engine name so the frozen "sqa" baseline row stays scalar. ---
  const anneal::SweepKernel bench_kernel = bench::BenchKernel();
  const std::string kernel_name = anneal::SweepKernelName(bench_kernel);
  const std::string kernel_suffix =
      bench_kernel == anneal::SweepKernel::kScalar ? "" : "_" + kernel_name;
  anneal::SqaOptions sqa;
  sqa.num_reads = full ? 16 : 4;
  sqa.num_slices = 8;
  sqa.sweeps = 32;
  sqa.seed = 7;
  sqa.executor = &pool;
  sqa.sweep_kernel = bench_kernel;
  const double sqa_sweep_spins = static_cast<double>(sqa.num_reads) *
                                 sqa.sweeps * sqa.num_slices * n;
  all_identical &= BenchEngine("sqa" + kernel_suffix, kernel_name, threads,
                               sqa_sweep_spins, &rows,
                               [&](int t) {
                                 anneal::SqaOptions options = sqa;
                                 options.num_threads = t;
                                 Stopwatch clock;
                                 RunResult result;
                                 result.samples =
                                     anneal::SimulatedQuantumAnnealer(options)
                                         .SampleIsing(glass);
                                 result.wall_ms = clock.ElapsedMillis();
                                 return result;
                               });

  // --- Full device call (gauges + control error + SA backend), on the
  // QMQO_BENCH_KERNEL-selected kernel like SQA above. ---
  qubo::QuboWithOffset as_qubo = qubo::IsingToQubo(glass);
  anneal::DWaveOptions device;
  device.num_reads = full ? 200 : 50;
  device.num_gauges = 5;
  device.sa_sweeps = 256;
  device.seed = 7;
  device.executor = &pool;
  device.sweep_kernel = bench_kernel;
  const double device_sweep_spins =
      static_cast<double>(device.num_reads) * device.sa_sweeps * n;
  all_identical &= BenchEngine(
      "device" + kernel_suffix, kernel_name, threads, device_sweep_spins,
      &rows, [&](int t) {
        anneal::DWaveOptions options = device;
        options.num_threads = t;
        Stopwatch clock;
        RunResult result;
        auto device_result =
            anneal::DWaveSimulator(options).Sample(as_qubo.qubo);
        if (!device_result.ok()) {
          std::fprintf(stderr, "device call failed: %s\n",
                       device_result.status().message().c_str());
          std::exit(1);
        }
        result.samples = std::move(device_result->samples);
        result.wall_ms = clock.ElapsedMillis();
        return result;
      });

  // --- Resilient orchestrator, no-fault hot path: one resilient MQO solve
  // on a 4x4x4 paper instance through the shared pool. The interesting
  // numbers are the fault/retry/fallback totals — all must stay zero in
  // the default bench (one null-pointer test per fault site is the entire
  // cost of the fault machinery), which diff_bench.py gates. ---
  double resilient_wall_ms = 0.0;
  harness::SolveReport solve_report;
  // Traced (the per-stage rows below come from its span tree); the timed
  // engine rows above run untraced, so the trace costs the hot path
  // nothing.
  obs::SolveTrace solve_trace;
  {
    Rng workload_rng(4);
    chimera::ChimeraGraph chip(4, 4, 4);
    harness::PaperWorkloadOptions workload;
    workload.plans_per_query = 2;
    workload.num_queries = 16;
    auto paper = harness::GeneratePaperInstance(chip, workload, &workload_rng);
    if (!paper.ok()) {
      std::fprintf(stderr, "paper workload failed: %s\n",
                   paper.status().message().c_str());
      return 1;
    }
    harness::SolvePolicy policy;
    policy.seed = 7;
    harness::QuantumMqoOptions solve_options;
    solve_options.device.num_reads = full ? 200 : 50;
    solve_options.device.num_gauges = 5;
    solve_options.device.sa_sweeps = 64;
    solve_options.device.num_threads = 4;
    solve_options.device.executor = &pool;
    solve_options.trace = &solve_trace;
    Stopwatch clock;
    auto target = harness::MqoWorkload::Create(
        std::move(paper->problem), std::move(paper->embedding), &chip);
    if (!target.ok()) {
      std::fprintf(stderr, "formulation failed: %s\n",
                   target.status().message().c_str());
      return 1;
    }
    solve_report =
        harness::ResilientSolver(policy).Solve(**target, solve_options);
    resilient_wall_ms = clock.ElapsedMillis();
    if (!solve_report.ok) {
      std::fprintf(stderr, "resilient solve failed: %s\n",
                   solve_report.FailureChain().c_str());
      return 1;
    }
    std::printf(
        "resilient solve: backend=%s wall=%.1f ms cost=%.1f faults=%lld "
        "retries=%d fallbacks=%d\n",
        harness::SolveBackendName(solve_report.backend), resilient_wall_ms,
        solve_report.cost,
        static_cast<long long>(solve_report.faults_observed),
        solve_report.retries, solve_report.fallbacks);
    std::printf(
        "  stages: embed=%.2f anneal=%.2f unembed=%.2f merge=%.2f ms (wall)\n",
        solve_trace.WallTotal("pipeline.embed"),
        solve_trace.WallTotal("pipeline.anneal"),
        solve_trace.WallTotal("pipeline.unembed"),
        solve_trace.WallTotal("pipeline.merge"));
  }

  // Pool-reuse gate: every parallel run above must have executed on the
  // one pool created before the timed section.
  const int64_t workers_spawned_during_runs =
      qmqo::util::Executor::TotalWorkersSpawned() - workers_spawned_baseline;
  std::printf("worker threads spawned during timed runs: %lld (pool size %d)\n",
              static_cast<long long>(workers_spawned_during_runs),
              pool.num_threads());

  // Peak resident set of the whole bench process, for tracking the memory
  // trajectory across PRs next to the per-sample accounting (machine- and
  // allocator-dependent, so reported rather than gated).
  struct rusage usage;
  const int64_t peak_rss_kb =
      getrusage(RUSAGE_SELF, &usage) == 0
          ? static_cast<int64_t>(usage.ru_maxrss)
          : 0;
  std::printf("peak RSS: %lld KB\n", static_cast<long long>(peak_rss_kb));

  bench::JsonObject root;
  root.Add("bench", "annealer")
      .Add("spins", n)
      .Add("couplings", num_couplings)
      .Add("topology", "chimera_16x16x4")
      .Add("full_scale", full)
      .Add("all_identical_to_serial", all_identical)
      .Add("csr_serial_speedup_vs_legacy", legacy_speedup)
      .Add("bench_kernel", kernel_name)
      .Add("checkerboard_speedup_vs_scalar", checkerboard_speedup)
      .Add("checkerboard_fast_speedup_vs_scalar", checkerboard_fast_speedup)
      .Add("bytes_per_sample", bytes_per_sample)
      .Add("unpacked_bytes_per_sample", unpacked_bytes_per_sample)
      .Add("packed_memory_reduction", packed_memory_reduction)
      .Add("peak_rss_kb", peak_rss_kb)
      .Add("resilient_backend",
           std::string(harness::SolveBackendName(solve_report.backend)))
      .Add("resilient_wall_ms", resilient_wall_ms)
      .Add("injected_faults",
           static_cast<int64_t>(solve_report.faults_observed))
      .Add("solver_retries", solve_report.retries)
      .Add("solver_fallbacks", solve_report.fallbacks)
      .Add("stage_embed_wall_ms", solve_trace.WallTotal("pipeline.embed"))
      .Add("stage_anneal_wall_ms", solve_trace.WallTotal("pipeline.anneal"))
      .Add("stage_unembed_wall_ms", solve_trace.WallTotal("pipeline.unembed"))
      .Add("stage_merge_wall_ms", solve_trace.WallTotal("pipeline.merge"))
      .Add("stage_anneal_modeled_ms",
           solve_trace.ModeledTotal("pipeline.anneal"))
      .Add("trace_spans", static_cast<int64_t>(solve_trace.spans().size()))
      .Add("executor_pool_size", pool.num_threads())
      .Add("workers_spawned_during_runs",
           static_cast<int64_t>(workers_spawned_during_runs))
      .AddRaw("runs", rows.Dump());
  std::string path = bench::WriteBenchArtifact("annealer", root);
  if (path.empty()) {
    std::fprintf(stderr, "failed to write BENCH_annealer.json\n");
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: parallel sample sets differ from the serial path\n");
    return 1;
  }
  if (workers_spawned_during_runs != 0) {
    std::fprintf(stderr,
                 "FAIL: engines spawned %lld threads instead of reusing the "
                 "shared pool\n",
                 static_cast<long long>(workers_spawned_during_runs));
    return 1;
  }
  return 0;
}
