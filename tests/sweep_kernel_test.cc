// Tests for the sweep kernel: the FastExp error bound, the frozen
// initialization stream, and the four-lane kernels' exactness — their
// vector FastExp, draw conversion, and accept screen piece by piece, then
// whole SA batches, SQA calls and samplers against the scalar reference,
// read for read.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "anneal/dwave_simulator.h"
#include "anneal/schedule.h"
#include "anneal/simulated_annealer.h"
#include "anneal/sqa.h"
#include "anneal/sweep_kernel.h"
#include "chimera/topology.h"
#include "embedding/embedded_qubo.h"
#include "harness/paper_workload.h"
#include "mapping/logical_mapping.h"
#include "qubo/ising.h"
#include "qubo/qubo.h"
#include "util/fault.h"
#include "util/rng.h"

namespace qmqo {
namespace anneal {
namespace {

/// A random spin glass on an intact rows x cols x 4 Chimera graph.
qubo::IsingProblem ChimeraGlass(int rows, int cols, Rng* rng) {
  chimera::ChimeraGraph graph(rows, cols, 4);
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

/// The physical QUBO of a 3-plan paper instance embedded on the D-Wave 2X
/// chip (12 x 12 x 4 Chimera), as the device model receives it.
qubo::QuboProblem PaperPhysicalQubo() {
  chimera::ChimeraGraph graph(12, 12, 4);
  harness::PaperWorkloadOptions options;
  options.plans_per_query = 3;
  Rng rng(20261017);
  auto instance = harness::GeneratePaperInstance(graph, options, &rng);
  EXPECT_TRUE(instance.ok()) << instance.status().ToString();
  auto logical = mapping::LogicalMapping::Create(instance->problem);
  EXPECT_TRUE(logical.ok()) << logical.status().ToString();
  auto embedded = embedding::EmbeddedQubo::Create(
      logical->qubo(), instance->embedding, graph);
  EXPECT_TRUE(embedded.ok()) << embedded.status().ToString();
  return embedded->physical();
}

/// The two exactness problems as finalized Ising problems.
std::vector<qubo::IsingProblem> ExactnessProblems() {
  std::vector<qubo::IsingProblem> problems;
  Rng rng(41);
  problems.push_back(ChimeraGlass(16, 16, &rng));  // 2048 spins
  problems.push_back(qubo::QuboToIsing(PaperPhysicalQubo()).ising);
  for (qubo::IsingProblem& ising : problems) ising.Finalize();
  return problems;
}

Schedule SuggestedSchedule(const qubo::IsingProblem& ising) {
  auto [hot, cold] = SuggestBetaRange(ising);
  return Schedule{hot, cold, ScheduleShape::kGeometric};
}

bool SameSamples(const SampleSet& a, const SampleSet& b) {
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

constexpr int kReadCounts[] = {1, 2, 3, 4, 5, 7, 25};

// --------------------------------------------------------------------
// FastExp
// --------------------------------------------------------------------

TEST(FastExpTest, RelativeErrorBoundedOverKernelRange) {
  // Dense scan of the argument range the screen trusts FastExp on.
  double max_rel = 0.0;
  for (double x = -708.0; x <= 0.0; x += 1e-3) {
    double exact = std::exp(x);
    double rel = std::abs(FastExp(x) - exact) / exact;
    max_rel = std::max(max_rel, rel);
  }
  EXPECT_LT(max_rel, kFastExpMaxRelError);
  EXPECT_DOUBLE_EQ(FastExp(0.0), 1.0);
  EXPECT_LT(FastExp(-1e9), 1e-300);
}

TEST(FastExpTest, RealizedBetaDeltaRangeStaysInBound) {
  // The realized arguments are -beta * delta with beta from the suggested
  // schedule and |delta| <= 2 * (|h_i| + sum_j |J_ij|).
  Rng rng(3);
  qubo::IsingProblem glass = ChimeraGlass(8, 8, &rng);
  glass.Finalize();
  auto [hot, cold] = SuggestBetaRange(glass);
  double max_delta = 0.0;
  for (qubo::VarId i = 0; i < glass.num_spins(); ++i) {
    double reach = std::abs(glass.field(i));
    for (auto [j, w] : glass.neighbors(i)) {
      (void)j;
      reach += std::abs(w);
    }
    max_delta = std::max(max_delta, 2.0 * reach);
  }
  double lo = -cold * max_delta;
  ASSERT_LT(lo, 0.0);
  for (int k = 0; k <= 20000; ++k) {
    double x = lo * (static_cast<double>(k) / 20000.0);
    if (x < -708.0) continue;
    double exact = std::exp(x);
    EXPECT_LT(std::abs(FastExp(x) - exact) / exact, kFastExpMaxRelError)
        << "at x = " << x << " (hot " << hot << ", cold " << cold << ")";
  }
}

// --------------------------------------------------------------------
// Initialization
// --------------------------------------------------------------------

TEST(RandomSpinsTest, KeepsLegacyBernoulliStream) {
  // One Bernoulli(0.5) per spin: part of every read's frozen stream.
  std::vector<int8_t> via_init(50), via_legacy(50);
  Rng a(7), b(7);
  RandomSpins(&a, &via_init);
  for (auto& s : via_legacy) s = b.Bernoulli(0.5) ? 1 : -1;
  EXPECT_EQ(via_init, via_legacy);
}

// --------------------------------------------------------------------
// Lane pieces: vector FastExp, draw conversion, accept screen
// --------------------------------------------------------------------

/// x on a dense grid over [-745, 0], plus the -700 screen edge and its
/// neighbours, in groups of four.
std::vector<double> ScreenGrid() {
  std::vector<double> grid;
  for (int k = 0; k <= 745000; ++k) grid.push_back(-745.0 + k * 1e-3);
  for (double edge : {-700.0, -708.0}) {
    grid.push_back(edge);
    grid.push_back(std::nextafter(edge, 0.0));
    grid.push_back(std::nextafter(edge, -1000.0));
  }
  grid.push_back(-0.0);
  while (grid.size() % 4 != 0) grid.push_back(0.0);
  return grid;
}

TEST(ScalarLanesTest, FastExpLanesMatchScalarBitForBit) {
  if (!ScalarLanesSupported()) GTEST_SKIP() << "host lacks AVX2";
  const std::vector<double> grid = ScreenGrid();
  for (size_t k = 0; k < grid.size(); k += 4) {
    double out[4];
    FastExpLanes(&grid[k], out);
    for (int l = 0; l < 4; ++l) {
      const double expected = FastExp(grid[k + l]);
      ASSERT_EQ(std::memcmp(&out[l], &expected, sizeof(double)), 0)
          << "x = " << grid[k + l];
    }
  }
}

TEST(ScalarLanesTest, ScreenMatchesExactDecision) {
  if (!ScalarLanesSupported()) GTEST_SKIP() << "host lacks AVX2";
  // At beta = 1 the argument is x = -delta exactly.
  const std::vector<double> grid = ScreenGrid();
  const double kOneBelowOne = 1.0 - std::ldexp(1.0, -53);
  int64_t checked = 0;
  for (size_t k = 0; k < grid.size(); k += 4) {
    constexpr int kProbes = 15;
    double delta[4];
    double probes[4][kProbes];
    for (int l = 0; l < 4; ++l) {
      const double x = grid[k + l];
      delta[l] = -x;
      const double e = FastExp(x);
      double* probe = probes[l];
      *probe++ = 0.0;
      *probe++ = std::ldexp(1.0, -64);
      *probe++ = kOneBelowOne;
      for (double edge :
           {e * (1.0 - 1e-5), e * (1.0 + 1e-5), e, std::exp(x)}) {
        *probe++ = edge;
        *probe++ = std::nextafter(edge, 0.0);
        *probe++ = std::nextafter(edge, 2.0);
      }
    }
    for (int p = 0; p < kProbes; ++p) {
      double u[4];
      for (int l = 0; l < 4; ++l) u[l] = probes[l][p];
      bool accept[4];
      ScreenLanes(delta, 1.0, u, accept);
      for (int l = 0; l < 4; ++l) {
        const bool exact = delta[l] <= 0.0 || u[l] < std::exp(-1.0 * delta[l]);
        ASSERT_EQ(accept[l], exact)
            << "x = " << -delta[l] << ", u = " << u[l];
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 10000000);
}

TEST(ScalarLanesTest, ScreenHandlesNonFiniteDeltas) {
  if (!ScalarLanesSupported()) GTEST_SKIP() << "host lacks AVX2";
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double delta[4] = {inf, -inf, nan, 1.0};
  const double u[4] = {0.0, 0.5, 0.0, 0.25};
  for (double beta : {0.0, 1.0}) {
    bool accept[4];
    ScreenLanes(delta, beta, u, accept);
    for (int l = 0; l < 4; ++l) {
      EXPECT_EQ(accept[l],
                delta[l] <= 0.0 || u[l] < std::exp(-beta * delta[l]))
          << "delta = " << delta[l] << ", beta = " << beta;
    }
  }
}

/// A 64-bit engine that always returns `word`: UniformReal's conversion
/// of one given word.
struct OneWord {
  using result_type = uint64_t;
  static constexpr uint64_t min() { return 0; }
  static constexpr uint64_t max() { return ~uint64_t{0}; }
  uint64_t word;
  uint64_t operator()() { return word; }
};

TEST(ScalarLanesTest, UniformLanesMatchUniformReal) {
  if (!ScalarLanesSupported()) GTEST_SKIP() << "host lacks AVX2";
  auto expect_match = [](const uint64_t* words) {
    double out[4];
    UniformLanes(words, out);
    for (int l = 0; l < 4; ++l) {
      OneWord engine{words[l]};
      const double expected =
          std::uniform_real_distribution<double>(0.0, 1.0)(engine);
      ASSERT_EQ(std::memcmp(&out[l], &expected, sizeof(double)), 0)
          << "word " << words[l];
    }
  };
  const uint64_t kMax = ~uint64_t{0};
  const uint64_t edges[8] = {0,         1,          uint64_t{1} << 63,
                             kMax,      kMax - 1023, kMax - 1024,
                             kMax - 1,  uint64_t{1} << 53};
  expect_match(edges);
  expect_match(edges + 4);

  // Through the real engine: words from one stream, doubles from a twin.
  Rng words_rng(2026);
  Rng doubles_rng(2026);
  for (int k = 0; k < 10000000; k += 4) {
    uint64_t words[4];
    for (uint64_t& word : words) word = words_rng.Next();
    double out[4];
    UniformLanes(words, out);
    for (int l = 0; l < 4; ++l) {
      const double expected = doubles_rng.UniformReal(0.0, 1.0);
      ASSERT_EQ(std::memcmp(&out[l], &expected, sizeof(double)), 0)
          << "draw " << k + l;
    }
  }
}

// --------------------------------------------------------------------
// Whole batches against the scalar reference
// --------------------------------------------------------------------

TEST(ScalarLanesTest, BatchMatchesScalarReadForRead) {
  // Final spins and the next engine word after the call, read for read.
  // Without AVX2 the batch runs the scalar loop and this checks plumbing.
  const int kSweeps = 48;
  for (const qubo::IsingProblem& ising : ExactnessProblems()) {
    const Schedule beta = SuggestedSchedule(ising);
    const size_t n = static_cast<size_t>(ising.num_spins());
    for (int count : kReadCounts) {
      std::vector<Rng> rngs;
      std::vector<Rng> reference_rngs;
      std::vector<std::vector<int8_t>> spins(static_cast<size_t>(count),
                                             std::vector<int8_t>(n));
      rngs.reserve(static_cast<size_t>(count));
      for (int r = 0; r < count; ++r) {
        rngs.emplace_back(1000 + static_cast<uint64_t>(r));
        RandomSpins(&rngs.back(), &spins[static_cast<size_t>(r)]);
      }
      reference_rngs = rngs;
      std::vector<std::vector<int8_t>> reference_spins = spins;
      std::vector<SweepRead> reads;
      for (int r = 0; r < count; ++r) {
        reads.push_back({&rngs[static_cast<size_t>(r)],
                         &spins[static_cast<size_t>(r)]});
        RunSweeps(ising, beta, kSweeps,
                  &reference_rngs[static_cast<size_t>(r)],
                  &reference_spins[static_cast<size_t>(r)]);
      }
      RunSweepsBatch(ising, beta, kSweeps, reads.data(), count);
      for (int r = 0; r < count; ++r) {
        const size_t slot = static_cast<size_t>(r);
        EXPECT_EQ(spins[slot], reference_spins[slot])
            << ising.num_spins() << " spins, " << count << " reads, read "
            << r;
        EXPECT_EQ(rngs[slot].Next(), reference_rngs[slot].Next())
            << ising.num_spins() << " spins, " << count << " reads, read "
            << r;
      }
    }
  }
}

TEST(ScalarLanesTest, ZeroBetaSweepFlipsEverySpin) {
  // At beta == 0 every proposal is accepted (u < exp(0) = 1), so each
  // sweep negates the state in every lane.
  Rng rng(13);
  qubo::IsingProblem glass = ChimeraGlass(3, 3, &rng);
  glass.Finalize();
  const Schedule zero_beta{0.0, 0.0, ScheduleShape::kLinear};
  for (int sweeps : {1, 3}) {
    std::vector<Rng> rngs;
    std::vector<std::vector<int8_t>> spins(
        4, std::vector<int8_t>(static_cast<size_t>(glass.num_spins())));
    rngs.reserve(4);
    std::vector<SweepRead> reads;
    for (int r = 0; r < 4; ++r) {
      rngs.emplace_back(99 + static_cast<uint64_t>(r));
      RandomSpins(&rngs.back(), &spins[static_cast<size_t>(r)]);
      reads.push_back({&rngs.back(), &spins[static_cast<size_t>(r)]});
    }
    const std::vector<std::vector<int8_t>> initial = spins;
    RunSweepsBatch(glass, zero_beta, sweeps, reads.data(), 4);
    for (size_t r = 0; r < 4; ++r) {
      for (size_t i = 0; i < spins[r].size(); ++i) {
        EXPECT_EQ(spins[r][i], sweeps % 2 == 0 ? initial[r][i] : -initial[r][i])
            << "sweeps=" << sweeps << " read " << r << " spin " << i;
      }
    }
  }
}

TEST(ScalarLanesTest, AnnealReadsSkipsReadsWithoutShiftingOthers) {
  Rng rng(17);
  qubo::IsingProblem glass = ChimeraGlass(4, 4, &rng);
  glass.Finalize();
  const Schedule beta = SuggestedSchedule(glass);
  const Rng base(23);
  auto skip = [](int read) { return read % 3 == 1 || read == 8; };
  std::vector<int> seen;
  AnnealReads(glass, beta, 32, base, 2, 19, skip,
              [&](int read, const std::vector<int8_t>& spins) {
                seen.push_back(read);
                Rng reference_rng = base.Fork(static_cast<uint64_t>(read));
                std::vector<int8_t> reference(spins.size());
                RandomSpins(&reference_rng, &reference);
                RunSweeps(glass, beta, 32, &reference_rng, &reference);
                EXPECT_EQ(spins, reference) << "read " << read;
              });
  std::vector<int> expected;
  for (int read = 2; read < 19; ++read) {
    if (!skip(read)) expected.push_back(read);
  }
  EXPECT_EQ(seen, expected);
}

TEST(ScalarLanesTest, SimulatedAnnealerMatchesScalarAtAnyThreadCount) {
  for (const qubo::IsingProblem& ising : ExactnessProblems()) {
    const Schedule beta = SuggestedSchedule(ising);
    for (int count : kReadCounts) {
      SaOptions options;
      options.num_reads = count;
      options.sweeps_per_read = 32;
      options.beta = beta;
      options.seed = 77;
      // The scalar reference: the sampler's read loop, one read at a time.
      SampleSet reference;
      const Rng rng(options.seed);
      for (int r = 0; r < count; ++r) {
        Rng read_rng = rng.Fork(static_cast<uint64_t>(r));
        std::vector<int8_t> spins(static_cast<size_t>(ising.num_spins()));
        RandomSpins(&read_rng, &spins);
        RunSweeps(ising, beta, options.sweeps_per_read, &read_rng, &spins);
        reference.AddSpins(spins, ising.Energy(spins));
      }
      reference.Finalize();
      for (int threads : {1, 2, 4}) {
        options.num_threads = threads;
        EXPECT_TRUE(SameSamples(SimulatedAnnealer(options).SampleIsing(ising),
                                reference))
            << ising.num_spins() << " spins, " << count << " reads, "
            << threads << " threads";
      }
    }
  }
}

TEST(ScalarLanesTest, DeviceDropoutLeavesSurvivingReadsUnchanged) {
  // Dropped reads are left out of the lane batches, which regroups the
  // survivors; every survivor must still equal its no-dropout read.
  const qubo::QuboProblem physical = PaperPhysicalQubo();
  DWaveOptions options;
  options.num_reads = 30;
  options.num_gauges = 2;
  options.sa_sweeps = 16;
  options.record_reads = true;
  options.seed = 5;
  auto clean = DWaveSimulator(options).Sample(physical);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ASSERT_EQ(clean->raw_reads.size(), options.num_reads);

  util::FaultInjector faults(8);
  util::FaultSpec dropout;
  dropout.probability = 0.3;
  faults.Arm("device.read_dropout", dropout);
  std::vector<int> survivors;
  for (int r = 0; r < options.num_reads; ++r) {
    if (!faults.WouldFail("device.read_dropout", static_cast<uint64_t>(r))) {
      survivors.push_back(r);
    }
  }
  ASSERT_LT(static_cast<int>(survivors.size()), options.num_reads);
  for (int threads : {1, 2, 4}) {
    DWaveOptions faulty = options;
    faulty.faults = &faults;
    faulty.num_threads = threads;
    auto result = DWaveSimulator(faulty).Sample(physical);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->raw_reads.size(), static_cast<int>(survivors.size()));
    for (size_t k = 0; k < survivors.size(); ++k) {
      EXPECT_EQ(result->raw_reads.ToBytes(static_cast<int>(k)),
                clean->raw_reads.ToBytes(survivors[k]))
          << "read " << survivors[k] << " at " << threads << " threads";
    }
  }
}

// --------------------------------------------------------------------
// SQA lanes against the scalar step
// --------------------------------------------------------------------

/// The exactness problems plus a one-spin problem and a small dense glass
/// with an odd spin count.
std::vector<qubo::IsingProblem> SqaExactnessProblems() {
  std::vector<qubo::IsingProblem> problems = ExactnessProblems();
  qubo::IsingProblem one(1);
  one.AddField(0, 0.75);
  problems.push_back(std::move(one));
  Rng rng(43);
  qubo::IsingProblem odd(7);
  for (qubo::VarId i = 0; i < 7; ++i) {
    odd.AddField(i, rng.UniformReal(-1.0, 1.0));
    for (qubo::VarId j = i + 1; j < 7; ++j) {
      odd.AddCoupling(i, j, rng.UniformReal(-1.0, 1.0));
    }
  }
  problems.push_back(std::move(odd));
  for (qubo::IsingProblem& ising : problems) ising.Finalize();
  return problems;
}

/// The spins `AnnealSqaReads` reports for reads [begin, end), in order.
std::vector<std::vector<int8_t>> SqaReads(const qubo::IsingProblem& ising,
                                          const SqaAnneal& anneal,
                                          const Rng& base, int begin,
                                          int end) {
  std::vector<std::vector<int8_t>> out;
  AnnealSqaReads(ising, anneal, base, begin, end, nullptr,
                 [&](int, const std::vector<int8_t>& spins) {
                   out.push_back(spins);
                 });
  return out;
}

TEST(ScalarLanesTest, SqaLanesMatchSingleReadCalls) {
  // An 8-read call anneals two lane groups; a one-read call takes the
  // scalar step. Three regimes per slice count:
  //  * the default ramp;
  //  * hot (beta 0.1): every step proposes 9 n moves, about half of them
  //    uphill, so on the large problems each lane draws thousands of
  //    words per step and its buffer refills mid-step;
  //  * cold (beta 4000): -beta_slice * total falls below -700, where the
  //    screen defers to std::exp, and j_perp is -0.0 while tanh rounds
  //    to 1.
  if (!ScalarLanesSupported()) GTEST_SKIP() << "host lacks AVX2";
  constexpr int kReads = 2 * kLanes;
  const Rng base(31);
  for (const qubo::IsingProblem& ising : SqaExactnessProblems()) {
    for (int slices : {2, 3, 8}) {
      for (double beta : {16.0, 0.1, 4000.0}) {
        SqaAnneal anneal;
        anneal.num_slices = slices;
        anneal.sweeps = 6;
        anneal.beta = beta;
        const std::vector<std::vector<int8_t>> lanes =
            SqaReads(ising, anneal, base, 0, kReads);
        ASSERT_EQ(lanes.size(), static_cast<size_t>(kReads));
        for (int r = 0; r < kReads; ++r) {
          const std::vector<std::vector<int8_t>> single =
              SqaReads(ising, anneal, base, r, r + 1);
          ASSERT_EQ(single.size(), 1u);
          EXPECT_EQ(lanes[static_cast<size_t>(r)], single[0])
              << ising.num_spins() << " spins, " << slices
              << " slices, beta " << beta << ", read " << r;
        }
      }
    }
  }
}

TEST(ScalarLanesTest, SqaMatchesScalarAtAnyThreadCount) {
  const std::vector<qubo::IsingProblem> problems = SqaExactnessProblems();
  const qubo::IsingProblem& ising = problems[1];  // the paper instance
  SqaOptions options;
  options.num_reads = 11;
  options.num_slices = 4;
  options.sweeps = 8;
  options.seed = 19;
  // The scalar reference: one single-read call per read.
  SampleSet reference;
  const Rng base(options.seed);
  for (int r = 0; r < options.num_reads; ++r) {
    for (const std::vector<int8_t>& spins :
         SqaReads(ising, options, base, r, r + 1)) {
      reference.AddSpins(spins, ising.Energy(spins));
    }
  }
  reference.Finalize();
  for (int threads : {1, 2, 3, 4}) {
    options.num_threads = threads;
    EXPECT_TRUE(SameSamples(
        SimulatedQuantumAnnealer(options).SampleIsing(ising), reference))
        << threads << " threads";
  }
}

TEST(ScalarLanesTest, AnnealSqaReadsSkipsReadsWithoutShiftingOthers) {
  // The device's SQA backend leaves dropped reads out of the lane groups,
  // which regroups the survivors.
  Rng rng(17);
  qubo::IsingProblem glass = ChimeraGlass(4, 4, &rng);
  glass.Finalize();
  SqaAnneal anneal;
  anneal.num_slices = 4;
  anneal.sweeps = 16;
  const Rng base(23);
  auto skip = [](int read) { return read % 3 == 1 || read == 8; };
  std::vector<int> seen;
  AnnealSqaReads(glass, anneal, base, 2, 19, skip,
                 [&](int read, const std::vector<int8_t>& spins) {
                   seen.push_back(read);
                   const std::vector<std::vector<int8_t>> reference =
                       SqaReads(glass, anneal, base, read, read + 1);
                   ASSERT_EQ(reference.size(), 1u);
                   EXPECT_EQ(spins, reference[0]) << "read " << read;
                 });
  std::vector<int> expected;
  for (int read = 2; read < 19; ++read) {
    if (!skip(read)) expected.push_back(read);
  }
  EXPECT_EQ(seen, expected);
}

}  // namespace
}  // namespace anneal
}  // namespace qmqo
