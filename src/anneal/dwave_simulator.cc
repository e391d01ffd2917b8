#include "anneal/dwave_simulator.h"

#include <algorithm>
#include <cmath>

#include "anneal/gauge.h"
#include "anneal/parallel.h"
#include "anneal/sweep_kernel.h"
#include "util/fault.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace qmqo {
namespace anneal {
namespace {

// Fault sites of the device model (see DWaveOptions::faults for keys).
constexpr char kFaultProgram[] = "device.program";
constexpr char kFaultLatency[] = "device.latency";
constexpr char kFaultReadDropout[] = "device.read_dropout";
constexpr char kFaultStuckQubit[] = "device.stuck_qubit";
constexpr char kFaultChainBreak[] = "device.chain_break";

/// Per-read fault key: chronological read index within the call, shifted
/// into the epoch's band so retries (epoch + 1) draw fresh decisions while
/// epoch 0 keeps small keys for `fail_first` schedules.
uint64_t ReadFaultKey(uint64_t epoch, int read_index) {
  return (epoch << 32) | static_cast<uint64_t>(read_index);
}

/// Per-programming-cycle fault key: consecutive across epochs, so
/// "fail the first N programming cycles" spans retry attempts.
uint64_t CycleFaultKey(uint64_t epoch, int num_gauges, int gauge) {
  return epoch * static_cast<uint64_t>(num_gauges) +
         static_cast<uint64_t>(gauge);
}

/// Auto-scale factor fitting the Ising problem into the hardware range.
double ScaleFactor(const qubo::IsingProblem& ising, double h_range,
                   double j_range) {
  double max_h = ising.MaxAbsField();
  double max_j = ising.MaxAbsCoupling();
  double scale = 1.0;
  bool any = false;
  if (max_h > 0.0) {
    scale = h_range / max_h;
    any = true;
  }
  if (max_j > 0.0) {
    double j_scale = j_range / max_j;
    scale = any ? std::min(scale, j_scale) : j_scale;
    any = true;
  }
  return any ? scale : 1.0;
}

/// Returns `ising` scaled by `scale` with Gaussian control error applied:
/// each h is perturbed by N(0, sigma*h_range), each J by N(0, sigma*j_range)
/// — the per-programming "integrated control error" of the hardware.
qubo::IsingProblem ScaleAndPerturb(const qubo::IsingProblem& ising,
                                   double scale, double sigma, double h_range,
                                   double j_range, Rng* rng) {
  qubo::IsingProblem out(ising.num_spins());
  for (qubo::VarId i = 0; i < ising.num_spins(); ++i) {
    double h = ising.field(i) * scale;
    if (sigma > 0.0) h += rng->Gaussian(0.0, sigma * h_range);
    if (h != 0.0) out.AddField(i, h);
  }
  for (const qubo::Interaction& term : ising.couplings()) {
    double j = term.weight * scale;
    if (sigma > 0.0) j += rng->Gaussian(0.0, sigma * j_range);
    if (j != 0.0) out.AddCoupling(term.i, term.j, j);
  }
  return out;
}

/// Read-level fault payloads, applied to the gauge-restored spins: stuck
/// qubits report their forced value on every read; a fired chain-break
/// flips `intensity` deterministically chosen spins (hash of the read key,
/// distinct per flip), corrupting chains downstream.
void ApplyReadFaults(const util::FaultInjector* faults,
                     const std::vector<int8_t>& stuck, bool any_stuck,
                     bool corrupt, uint64_t read_key,
                     std::vector<int8_t>* spins) {
  if (any_stuck) {
    for (size_t q = 0; q < spins->size(); ++q) {
      if (stuck[q] != 0) (*spins)[q] = stuck[q];
    }
  }
  if (corrupt) {
    const int n = static_cast<int>(spins->size());
    const int flips = std::max(1, faults->Intensity(kFaultChainBreak));
    for (int f = 0; f < flips; ++f) {
      uint64_t bits = faults->HashAt(
          kFaultChainBreak, read_key * 131 + static_cast<uint64_t>(f));
      int idx = static_cast<int>(bits % static_cast<uint64_t>(n));
      (*spins)[static_cast<size_t>(idx)] =
          static_cast<int8_t>(-(*spins)[static_cast<size_t>(idx)]);
    }
  }
}

}  // namespace

Result<DeviceResult> DWaveSimulator::Sample(
    const qubo::QuboProblem& physical) const {
  if (options_.num_reads <= 0) {
    return Status::InvalidArgument("num_reads must be positive");
  }
  if (options_.num_gauges <= 0) {
    return Status::InvalidArgument("num_gauges must be positive");
  }
  if (options_.h_range <= 0.0 || options_.j_range <= 0.0) {
    return Status::InvalidArgument("weight ranges must be positive");
  }
  Stopwatch wall;
  qubo::IsingWithOffset converted = qubo::QuboToIsing(physical);
  physical.Finalize();  // shared read-only across worker threads
  const int num_spins = converted.ising.num_spins();
  const double scale =
      ScaleFactor(converted.ising, options_.h_range, options_.j_range);

  // Disarmed injectors cost exactly this one test on the whole call.
  const util::FaultInjector* faults =
      options_.faults != nullptr && options_.faults->armed() ? options_.faults
                                                             : nullptr;
  const uint64_t epoch = options_.fault_epoch;
  const int64_t faults_before = faults != nullptr ? faults->faults_injected() : 0;

  // Stuck/dead qubits are a property of the chip, decided once per call and
  // keyed by the physical variable alone (epoch-independent: a dead qubit
  // stays dead across retries). The forced spin value derives from payload
  // hash bits.
  std::vector<int8_t> stuck;
  bool any_stuck = false;
  if (faults != nullptr) {
    stuck.assign(static_cast<size_t>(num_spins), 0);
    for (int q = 0; q < num_spins; ++q) {
      if (faults->ShouldFail(kFaultStuckQubit, static_cast<uint64_t>(q))) {
        stuck[static_cast<size_t>(q)] =
            (faults->HashAt(kFaultStuckQubit, static_cast<uint64_t>(q)) & 1u)
                ? int8_t{1}
                : int8_t{-1};
        any_stuck = true;
      }
    }
  }

  DeviceResult result;
  result.samples.set_max_samples(options_.max_samples);
  if (options_.record_reads) result.raw_reads.Reset(num_spins);
  Rng rng(options_.seed);
  // Each gauge runs its reads under the caller's read contract. A null
  // executor maps to the shared singleton in RunReads, so no gauge ever
  // spawns threads.
  ReadOptions gauge_reads = options_;
  const bool sqa_backend =
      options_.backend == DeviceBackend::kSimulatedQuantumAnnealing;
  const int reads_per_gauge =
      std::max(1, options_.num_reads / options_.num_gauges);
  int reads_left = options_.num_reads;
  int read_base = 0;

  for (int g = 0; g < options_.num_gauges && reads_left > 0; ++g) {
    int reads = std::min(reads_per_gauge, reads_left);
    if (g + 1 == options_.num_gauges) reads = reads_left;
    reads_left -= reads;
    // Serial per-cycle timing (the gauge loop itself never runs in
    // parallel), consumed by the trace layer as one span per gauge.
    Stopwatch gauge_wall;
    const int dropped_before = result.dropped_reads;
    const double latency_before = result.injected_latency_ms;

    if (faults != nullptr) {
      const uint64_t cycle_key = CycleFaultKey(epoch, options_.num_gauges, g);
      if (faults->ShouldFail(kFaultLatency, cycle_key)) {
        result.injected_latency_ms += faults->LatencyMillis(kFaultLatency);
      }
      if (faults->ShouldFail(kFaultProgram, cycle_key)) {
        return Status::Internal(StrFormat(
            "injected programming-cycle failure (gauge %d, epoch %llu)", g,
            static_cast<unsigned long long>(epoch)));
      }
    }

    // Per-read fault masks, decided serially before the read fan-out so the
    // parallel engine only reads them: bit-identical at any thread count.
    std::vector<uint8_t> drop_mask;
    std::vector<uint8_t> corrupt_mask;
    if (faults != nullptr) {
      drop_mask.assign(static_cast<size_t>(reads), 0);
      corrupt_mask.assign(static_cast<size_t>(reads), 0);
      for (int r = 0; r < reads; ++r) {
        const uint64_t key = ReadFaultKey(epoch, read_base + r);
        if (faults->ShouldFail(kFaultReadDropout, key)) {
          drop_mask[static_cast<size_t>(r)] = 1;
          ++result.dropped_reads;
        } else if (faults->ShouldFail(kFaultChainBreak, key)) {
          corrupt_mask[static_cast<size_t>(r)] = 1;
        }
      }
    }

    Rng gauge_rng = rng.Fork(static_cast<uint64_t>(g) * 2 + 1);
    GaugeTransform gauge = GaugeTransform::Random(num_spins, &gauge_rng);
    // Programming cycle: gauge, scale, and apply control error once.
    qubo::IsingProblem programmed =
        ScaleAndPerturb(gauge.Apply(converted.ising), scale,
                        options_.control_error, options_.h_range,
                        options_.j_range, &gauge_rng);
    programmed.Finalize();  // shared read-only across worker threads

    // The backend only picks the anneal. SA reads fork the gauge stream
    // itself; SQA reads fork a stream seeded from its next word.
    Schedule beta{0.0, 0.0, ScheduleShape::kGeometric};
    if (!sqa_backend) {
      auto [hot, cold] = SuggestBetaRange(programmed);
      beta.start = hot;
      beta.end = cold;
    }
    const Rng read_stream = sqa_backend ? Rng(gauge_rng.Next()) : gauge_rng;
    // Read lost at the (simulated) readout stage: never annealed.
    const auto dropped = [&](int read) {
      return !drop_mask.empty() && drop_mask[static_cast<size_t>(read)] != 0;
    };
    // Per-read slots keep `raw_reads` chronological regardless of which
    // worker executes a read: the arena is sized up front, so workers
    // pack their own disjoint word ranges with no append racing them.
    // Dropped reads leave zero slots that the serial compaction below
    // skips.
    PackedAssignments gauge_raw(num_spins);
    if (options_.record_reads) gauge_raw.Resize(reads);
    gauge_reads.num_reads = reads;
    SampleSet gauge_samples =
        RunReads(gauge_reads, [&](int begin, int end, SampleSet* local) {
          const auto read_out = [&](int read,
                                    const std::vector<int8_t>& spins) {
            std::vector<int8_t> restored = gauge.RestoreSpins(spins);
            if (faults != nullptr) {
              ApplyReadFaults(faults, stuck, any_stuck,
                              !corrupt_mask.empty() &&
                                  corrupt_mask[static_cast<size_t>(read)] != 0,
                              ReadFaultKey(epoch, read_base + read),
                              &restored);
            }
            // True energy on the customer's problem, not the noisy one.
            double energy = physical.EnergySpins(restored);
            if (options_.record_reads) gauge_raw.StoreSpins(read, restored);
            local->AddSpins(restored, energy);
          };
          if (sqa_backend) {
            AnnealSqaReads(programmed, options_.sqa, read_stream, begin, end,
                           dropped, read_out);
          } else {
            AnnealReads(programmed, beta, options_.sa_sweeps, read_stream,
                        begin, end, dropped, read_out);
          }
        });
    result.samples.Append(std::move(gauge_samples));
    if (options_.record_reads) {
      if (drop_mask.empty()) {
        result.raw_reads.AppendAll(gauge_raw);
      } else {
        for (int r = 0; r < reads; ++r) {
          if (!drop_mask[static_cast<size_t>(r)]) {
            result.raw_reads.AppendFrom(gauge_raw, r);
          }
        }
      }
    }
    read_base += reads;
    GaugeTiming timing;
    timing.gauge = g;
    timing.reads = reads;
    timing.dropped_reads = result.dropped_reads - dropped_before;
    timing.wall_ms = gauge_wall.ElapsedMillis();
    timing.injected_latency_ms = result.injected_latency_ms - latency_before;
    result.gauge_timings.push_back(timing);
  }
  if (result.samples.samples().empty()) {
    // Every read dropped: nothing to report. Surfaced as a typed error so
    // orchestrators retry instead of consuming an empty result.
    return Status::ResourceExhausted(StrFormat(
        "device call lost all %d reads to injected dropout",
        options_.num_reads));
  }
  result.samples.Finalize();
  result.device_time_us = DeviceTimeForReads(options_.num_reads);
  result.wall_clock_ms = wall.ElapsedMillis();
  result.scale_factor = scale;
  if (faults != nullptr) {
    result.faults_injected = faults->faults_injected() - faults_before;
  }
  return result;
}

}  // namespace anneal
}  // namespace qmqo
