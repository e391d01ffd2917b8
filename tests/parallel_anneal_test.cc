// Determinism of the parallel read engine: for a fixed seed, serial and
// multi-threaded execution (1, 2, 8 workers) must produce *identical*
// SampleSets — same assignments, energies, occurrence counts, and order —
// for SA, SQA, and the device simulator.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "anneal/dwave_simulator.h"
#include "anneal/parallel.h"
#include "anneal/sample_set.h"
#include "anneal/simulated_annealer.h"
#include "anneal/sqa.h"
#include "qubo/qubo.h"
#include "util/fault.h"
#include "util/rng.h"

namespace qmqo {
namespace anneal {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};

/// Binary encoding of `value` as a `width`-bit 0/1 assignment (the packed
/// arena stores bits, not multi-valued bytes).
std::vector<uint8_t> Bits(int value, int width) {
  std::vector<uint8_t> out(static_cast<size_t>(width));
  for (int b = 0; b < width; ++b) {
    out[static_cast<size_t>(b)] = static_cast<uint8_t>((value >> b) & 1);
  }
  return out;
}

qubo::QuboProblem RandomQubo(int num_vars, double density, Rng* rng) {
  qubo::QuboProblem problem(num_vars);
  for (int i = 0; i < num_vars; ++i) {
    problem.AddLinear(i, rng->UniformReal(-4.0, 4.0));
    for (int j = i + 1; j < num_vars; ++j) {
      if (rng->Bernoulli(density)) {
        problem.AddQuadratic(i, j, rng->UniformReal(-4.0, 4.0));
      }
    }
  }
  return problem;
}

ReadOptions Reads(int num_reads, int num_threads,
                  util::Executor* executor = nullptr) {
  ReadOptions reads;
  reads.num_reads = num_reads;
  reads.num_threads = num_threads;
  reads.executor = executor;
  return reads;
}

/// Exact equality — bit-identical energies, not approximate.
void ExpectIdentical(const SampleSet& a, const SampleSet& b) {
  EXPECT_EQ(a.total_reads(), b.total_reads());
  ASSERT_EQ(a.samples().size(), b.samples().size());
  for (size_t i = 0; i < a.samples().size(); ++i) {
    EXPECT_EQ(a.samples()[i].assignment, b.samples()[i].assignment);
    EXPECT_EQ(a.samples()[i].energy, b.samples()[i].energy);
    EXPECT_EQ(a.samples()[i].num_occurrences, b.samples()[i].num_occurrences);
  }
}

TEST(RunReadsTest, PartitionsEveryReadExactlyOnce) {
  for (int threads : {1, 2, 3, 8, 16}) {
    SampleSet set =
        RunReads(Reads(13, threads), [](int begin, int end, SampleSet* local) {
          for (int read = begin; read < end; ++read) {
            local->Add(Bits(read, 4), static_cast<double>(read));
          }
        });
    EXPECT_EQ(set.total_reads(), 13);
    ASSERT_EQ(set.samples().size(), 13u);
    for (int read = 0; read < 13; ++read) {
      EXPECT_EQ(set.samples()[static_cast<size_t>(read)].energy,
                static_cast<double>(read));
    }
  }
}

TEST(RunReadsTest, ZeroReadsYieldsEmptyFinalizedSet) {
  SampleSet set = RunReads(Reads(0, 4), [](int, int, SampleSet*) { FAIL(); });
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.total_reads(), 0);
}

TEST(RunReadsTest, MoreThreadsThanReads) {
  SampleSet set = RunReads(Reads(3, 16), [](int begin, int end, SampleSet* local) {
    for (int read = begin; read < end; ++read) local->Add(Bits(read, 2), 0.0);
  });
  EXPECT_EQ(set.total_reads(), 3);
}

TEST(RunReadsTest, WorkerExceptionPropagates) {
  EXPECT_THROW(RunReads(Reads(8, 4),
                        [](int begin, int end, SampleSet*) {
                          if (begin <= 5 && 5 < end) {
                            throw std::runtime_error("boom");
                          }
                        }),
               std::runtime_error);
}

TEST(RunReadsTest, CallerSuppliedExecutorIsReusedNotRespawned) {
  util::Executor executor(2);
  const int64_t spawned = util::Executor::TotalWorkersSpawned();
  for (int round = 0; round < 5; ++round) {
    SampleSet set = RunReads(
        Reads(11, 4, &executor), [](int begin, int end, SampleSet* local) {
          for (int read = begin; read < end; ++read) {
            local->Add(Bits(read, 4), static_cast<double>(read));
          }
        });
    EXPECT_EQ(set.total_reads(), 11);
  }
  EXPECT_EQ(util::Executor::TotalWorkersSpawned(), spawned);
}

TEST(RunReadsTest, SharedPoolFallbackSpawnsNothingPerCall) {
  util::Executor::Shared();  // force the one-time lazy construction
  const int64_t spawned = util::Executor::TotalWorkersSpawned();
  for (int round = 0; round < 3; ++round) {
    SampleSet set = RunReads(Reads(7, 3), [](int begin, int end, SampleSet* local) {
      for (int read = begin; read < end; ++read) {
        local->Add(Bits(read, 3), 0.0);
      }
    });
    EXPECT_EQ(set.total_reads(), 7);
  }
  EXPECT_EQ(util::Executor::TotalWorkersSpawned(), spawned);
}

TEST(ParallelDeterminismTest, SimulatedAnnealerMatchesSerial) {
  Rng rng(42);
  qubo::QuboProblem problem = RandomQubo(24, 0.3, &rng);
  SaOptions options;
  options.num_reads = 33;
  options.sweeps_per_read = 64;
  options.seed = 7;
  options.num_threads = 1;
  SampleSet serial = SimulatedAnnealer(options).Sample(problem);
  for (int threads : kThreadCounts) {
    options.num_threads = threads;
    SampleSet parallel = SimulatedAnnealer(options).Sample(problem);
    ExpectIdentical(serial, parallel);
  }
}

TEST(ParallelDeterminismTest, SqaMatchesSerial) {
  Rng rng(43);
  qubo::QuboProblem problem = RandomQubo(12, 0.4, &rng);
  SqaOptions options;
  options.num_reads = 9;
  options.num_slices = 6;
  options.sweeps = 48;
  options.seed = 11;
  options.num_threads = 1;
  SampleSet serial = SimulatedQuantumAnnealer(options).Sample(problem);
  for (int threads : kThreadCounts) {
    options.num_threads = threads;
    SampleSet parallel = SimulatedQuantumAnnealer(options).Sample(problem);
    ExpectIdentical(serial, parallel);
  }
}

TEST(ParallelDeterminismTest, DeviceSimulatorMatchesSerial) {
  Rng rng(44);
  qubo::QuboProblem problem = RandomQubo(16, 0.4, &rng);
  DWaveOptions options;
  options.num_reads = 40;
  options.num_gauges = 4;
  options.sa_sweeps = 32;
  options.seed = 99;
  options.record_reads = true;
  options.num_threads = 1;
  auto serial = DWaveSimulator(options).Sample(problem);
  ASSERT_TRUE(serial.ok());
  for (int threads : kThreadCounts) {
    options.num_threads = threads;
    auto parallel = DWaveSimulator(options).Sample(problem);
    ASSERT_TRUE(parallel.ok());
    ExpectIdentical(serial->samples, parallel->samples);
    // raw_reads must stay chronological regardless of worker assignment.
    EXPECT_EQ(serial->raw_reads, parallel->raw_reads);
  }
}

TEST(ParallelDeterminismTest, DeviceSimulatorSqaBackendMatchesSerial) {
  Rng rng(45);
  qubo::QuboProblem problem = RandomQubo(10, 0.4, &rng);
  DWaveOptions options;
  options.backend = DeviceBackend::kSimulatedQuantumAnnealing;
  options.num_reads = 12;
  options.num_gauges = 3;
  options.sqa.num_slices = 4;
  options.sqa.sweeps = 32;
  options.seed = 5;
  options.record_reads = true;
  util::FaultInjector faults(3);
  util::FaultSpec dropout;
  dropout.probability = 0.2;
  faults.Arm("device.read_dropout", dropout);
  util::FaultSpec breaks;
  breaks.probability = 0.3;
  breaks.intensity = 2;
  faults.Arm("device.chain_break", breaks);
  const util::FaultInjector* const injectors[] = {&faults, nullptr};
  for (const util::FaultInjector* injector : injectors) {
    options.faults = injector;
    options.num_threads = 1;
    auto serial = DWaveSimulator(options).Sample(problem);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    EXPECT_EQ(serial->raw_reads.size(),
              options.num_reads - serial->dropped_reads);
    for (int threads : {2, 4, 8}) {
      options.num_threads = threads;
      auto parallel = DWaveSimulator(options).Sample(problem);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      ExpectIdentical(serial->samples, parallel->samples);
      EXPECT_EQ(serial->raw_reads, parallel->raw_reads) << threads;
      EXPECT_EQ(serial->dropped_reads, parallel->dropped_reads) << threads;
    }
  }
  EXPECT_GT(faults.FaultCount("device.read_dropout"), 0);
  EXPECT_GT(faults.FaultCount("device.chain_break"), 0);
}

// `raw_reads` records reads in the order they were drawn, whichever the
// backend: with one gauge, a 20-read call reads exactly the first 20 reads
// of a 30-read call.
TEST(ParallelDeterminismTest, DeviceRawReadsArePrefixStable) {
  Rng rng(48);
  qubo::QuboProblem problem = RandomQubo(12, 0.4, &rng);
  for (DeviceBackend backend : {DeviceBackend::kSimulatedAnnealing,
                                DeviceBackend::kSimulatedQuantumAnnealing}) {
    DWaveOptions options;
    options.backend = backend;
    options.num_gauges = 1;
    options.sa_sweeps = 16;
    options.sqa.num_slices = 4;
    options.sqa.sweeps = 16;
    options.sqa.beta = 1.0;  // hot enough that the reads differ
    options.seed = 21;
    options.record_reads = true;
    options.num_reads = 30;
    auto longer = DWaveSimulator(options).Sample(problem);
    options.num_reads = 20;
    auto shorter = DWaveSimulator(options).Sample(problem);
    ASSERT_TRUE(longer.ok());
    ASSERT_TRUE(shorter.ok());
    ASSERT_EQ(longer->raw_reads.size(), 30);
    ASSERT_EQ(shorter->raw_reads.size(), 20);
    for (int read = 0; read < 20; ++read) {
      EXPECT_EQ(shorter->raw_reads.ToBytes(read),
                longer->raw_reads.ToBytes(read))
          << "backend " << static_cast<int>(backend) << ", read " << read;
    }
  }
}

// Top-k retention caps `samples` only: `raw_reads` keeps every read, and
// the capped samples are the uncapped call's best three.
TEST(ParallelDeterminismTest, DeviceMaxSamplesKeepsEveryRawRead) {
  Rng rng(49);
  qubo::QuboProblem problem = RandomQubo(16, 0.4, &rng);
  for (DeviceBackend backend : {DeviceBackend::kSimulatedAnnealing,
                                DeviceBackend::kSimulatedQuantumAnnealing}) {
    DWaveOptions options;
    options.backend = backend;
    options.num_reads = 40;
    options.num_gauges = 4;
    options.control_error = 0.2;  // spreads the reads over many states
    options.sa_sweeps = 2;
    options.sqa.num_slices = 4;
    options.sqa.sweeps = 2;
    options.sqa.beta = 1.0;
    options.seed = 17;
    options.record_reads = true;
    auto uncapped = DWaveSimulator(options).Sample(problem);
    options.max_samples = 3;
    auto capped = DWaveSimulator(options).Sample(problem);
    ASSERT_TRUE(uncapped.ok());
    ASSERT_TRUE(capped.ok());
    EXPECT_EQ(capped->raw_reads.size(), options.num_reads)
        << "backend " << static_cast<int>(backend);
    EXPECT_EQ(capped->raw_reads, uncapped->raw_reads)
        << "backend " << static_cast<int>(backend);
    EXPECT_EQ(capped->samples.total_reads(), options.num_reads);
    ASSERT_GT(uncapped->samples.size(), 3u);
    ASSERT_EQ(capped->samples.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(capped->samples.samples()[i].assignment,
                uncapped->samples.samples()[i].assignment);
      EXPECT_EQ(capped->samples.samples()[i].energy,
                uncapped->samples.samples()[i].energy);
      EXPECT_EQ(capped->samples.samples()[i].num_occurrences,
                uncapped->samples.samples()[i].num_occurrences);
    }
  }
}

TEST(ParallelDeterminismTest, DeviceCallSpawnsZeroThreadsPerGauge) {
  // The acceptance criterion of the executor subsystem: a multi-gauge,
  // multi-threaded device call enqueues every gauge's reads on one
  // reusable pool — the worker-spawn counter must not move across calls.
  Rng rng(46);
  qubo::QuboProblem problem = RandomQubo(14, 0.4, &rng);
  util::Executor executor(2);
  DWaveOptions options;
  options.num_reads = 24;
  options.num_gauges = 6;  // six programming cycles per Sample call
  options.sa_sweeps = 16;
  options.seed = 3;
  options.num_threads = 2;
  options.executor = &executor;
  auto first = DWaveSimulator(options).Sample(problem);
  ASSERT_TRUE(first.ok());
  const int64_t spawned = util::Executor::TotalWorkersSpawned();
  auto second = DWaveSimulator(options).Sample(problem);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(util::Executor::TotalWorkersSpawned(), spawned);
  ExpectIdentical(first->samples, second->samples);

  // Same with the SQA backend sharing the same pool.
  options.backend = DeviceBackend::kSimulatedQuantumAnnealing;
  options.sqa.num_slices = 4;
  options.sqa.sweeps = 16;
  auto sqa_result = DWaveSimulator(options).Sample(problem);
  ASSERT_TRUE(sqa_result.ok());
  EXPECT_EQ(util::Executor::TotalWorkersSpawned(), spawned);
}

TEST(ParallelDeterminismTest, ExplicitExecutorMatchesSharedPoolResults) {
  Rng rng(47);
  qubo::QuboProblem problem = RandomQubo(18, 0.3, &rng);
  SaOptions options;
  options.num_reads = 21;
  options.sweeps_per_read = 32;
  options.seed = 13;
  options.num_threads = 1;
  SampleSet serial = SimulatedAnnealer(options).Sample(problem);
  util::Executor executor(3);
  options.num_threads = 4;
  options.executor = &executor;
  SampleSet pooled = SimulatedAnnealer(options).Sample(problem);
  ExpectIdentical(serial, pooled);
}

TEST(SampleSetOpsTest, AddEnergyOffsetShiftsInPlace) {
  SampleSet set;
  set.Add({1, 0}, 3.0);
  set.Add({0, 1}, -1.0);
  set.Finalize();
  set.AddEnergyOffset(10.0);
  EXPECT_DOUBLE_EQ(set.samples()[0].energy, 9.0);
  EXPECT_DOUBLE_EQ(set.samples()[1].energy, 13.0);
  EXPECT_EQ(set.total_reads(), 2);
}

TEST(SampleSetOpsTest, AppendThenFinalizeEqualsMerge) {
  SampleSet a;
  a.Add({1, 0}, 1.0);
  a.Add({0, 0}, 0.0);
  a.Finalize();
  SampleSet b;
  b.Add({1, 0}, 1.0);
  b.Add({1, 1}, 2.0);  // different assignment, makes ordering interesting
  b.Finalize();

  SampleSet merged = a;
  merged.Merge(b);
  SampleSet appended = a;
  appended.Append(b);
  appended.Finalize();
  ExpectIdentical(merged, appended);
  EXPECT_EQ(merged.total_reads(), 4);
  EXPECT_EQ(merged.samples()[1].num_occurrences, 2);  // {1, 0} twice
}

TEST(SampleSetOpsTest, MergeUnfinalizedInputsStillFinalizes) {
  SampleSet a;
  a.Add({1}, 5.0);
  SampleSet b;
  b.Add({0}, -5.0);
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.best().energy, -5.0);
  EXPECT_EQ(a.total_reads(), 2);
}

}  // namespace
}  // namespace anneal
}  // namespace qmqo
