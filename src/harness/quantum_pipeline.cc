#include "harness/quantum_pipeline.h"

#include <limits>
#include <utility>

#include "util/fault.h"
#include "util/stopwatch.h"

namespace qmqo {
namespace harness {

namespace {

/// Closes the trace's innermost span with an error tag — used on every
/// early-return path so a failing stage never leaks an open span into the
/// caller's tree (ResilientSolver reuses one trace across attempts).
void CloseSpanWithError(obs::SolveTrace* trace, double wall_ms) {
  if (trace == nullptr) return;
  trace->Tag("status", "error");
  trace->Close(wall_ms);
}

}  // namespace

Result<QuantumMqoResult> SolveQuantumMqo(const mapping::LogicalMapping& logical,
                                         const embedding::Embedding& embedding,
                                         const chimera::ChimeraGraph& graph,
                                         const QuantumMqoOptions& options) {
  const mqo::MqoProblem& problem = logical.problem();
  QuantumMqoResult result;
  if (options.faults != nullptr) {
    QMQO_RETURN_IF_ERROR(
        options.faults->MaybeFail("pipeline.solve", options.fault_attempt));
  }
  obs::SolveTrace* trace = options.trace;

  // Preprocessing on the "classical computer": the physical mapping. The
  // embed span is all wall time: classical preprocessing is never charged
  // to the modeled device clock (the paper's accounting).
  Stopwatch preprocessing;
  if (trace != nullptr) trace->Open("pipeline.embed");
  embedding::EmbeddedQuboOptions physical_options = options.physical;
  if (options.faults != nullptr && physical_options.faults == nullptr) {
    physical_options.faults = options.faults;
    physical_options.fault_key = options.fault_attempt;
  }
  Result<embedding::EmbeddedQubo> compiled =
      options.embedding_cache != nullptr
          ? options.embedding_cache->GetOrCreate(logical.qubo(), embedding,
                                                 graph, physical_options,
                                                 &result.embedding_cache_hit)
          : embedding::EmbeddedQubo::Create(logical.qubo(), embedding, graph,
                                            physical_options);
  if (!compiled.ok()) {
    CloseSpanWithError(trace, preprocessing.ElapsedMillis());
    return compiled.status();
  }
  embedding::EmbeddedQubo physical = std::move(compiled).value();
  result.preprocessing_ms = preprocessing.ElapsedMillis();
  result.physical_qubits = physical.num_physical_vars();
  if (trace != nullptr) {
    trace->Tag("cache_hit",
               static_cast<int64_t>(result.embedding_cache_hit ? 1 : 0));
    trace->Close(result.preprocessing_ms);
  }

  // Annealing on the (simulated) device, with chronological reads.
  anneal::DWaveOptions device_options = options.device;
  device_options.record_reads = true;
  if (options.faults != nullptr && device_options.faults == nullptr) {
    device_options.faults = options.faults;
    device_options.fault_epoch = options.fault_attempt;
  }
  const double per_read_us =
      device_options.anneal_time_us + device_options.readout_time_us;
  Stopwatch anneal_wall;
  if (trace != nullptr) trace->Open("pipeline.anneal");
  anneal::DWaveSimulator device(device_options);
  Result<anneal::DeviceResult> sampled = device.Sample(physical.physical());
  if (!sampled.ok()) {
    CloseSpanWithError(trace, anneal_wall.ElapsedMillis());
    return sampled.status();
  }
  anneal::DeviceResult device_result = std::move(sampled).value();
  result.device_time_us = device_result.device_time_us;
  result.simulator_wall_ms = device_result.wall_clock_ms;
  result.faults_injected = device_result.faults_injected;
  result.dropped_reads = device_result.dropped_reads;
  result.injected_latency_ms = device_result.injected_latency_ms;
  if (trace != nullptr) {
    // One child per programming cycle, from the device's serially recorded
    // per-gauge timings; modeled time is the device-time model plus any
    // injected latency (both deterministic).
    for (const anneal::GaugeTiming& timing : device_result.gauge_timings) {
      trace->Open("anneal.gauge");
      trace->Tag("gauge", static_cast<int64_t>(timing.gauge));
      trace->Tag("reads", static_cast<int64_t>(timing.reads));
      if (timing.dropped_reads > 0) {
        trace->Tag("dropped", static_cast<int64_t>(timing.dropped_reads));
      }
      trace->AddModeled(static_cast<double>(timing.reads) * per_read_us /
                            1000.0 +
                        timing.injected_latency_ms);
      trace->Close(timing.wall_ms);
    }
    trace->AddModeled(device_result.device_time_us / 1000.0 +
                      device_result.injected_latency_ms);
    trace->Tag("faults", device_result.faults_injected);
    if (device_result.dropped_reads > 0) {
      trace->Tag("dropped_reads",
                 static_cast<int64_t>(device_result.dropped_reads));
    }
    trace->Close(device_result.wall_clock_ms);
  }

  // Read-out: unembed each read in order, repair to a valid selection,
  // track the best cost on the modeled device-time axis. Unembed and merge
  // interleave per read, so their spans are recorded as closed siblings
  // whose wall durations accumulate across the loop (only when tracing —
  // the untraced hot path pays one branch per read).
  const bool tracing = trace != nullptr;
  int unembed_span = -1;
  int merge_span = -1;
  double unembed_wall_ms = 0.0;
  double merge_wall_ms = 0.0;
  if (tracing) {
    unembed_span = trace->Open("pipeline.unembed");
    trace->Close(0.0);
    merge_span = trace->Open("pipeline.merge");
    trace->Close(0.0);
  }
  double best_cost = std::numeric_limits<double>::infinity();
  double broken_chain_sum = 0.0;
  int valid_reads = 0;
  int read_index = 0;
  // Reads come back bit-packed; unpack each into one reused byte buffer.
  std::vector<uint8_t> physical_read;
  Stopwatch step;
  for (anneal::AssignmentRef packed_read : device_result.raw_reads) {
    if (tracing) step.Restart();
    packed_read.CopyBytesTo(&physical_read);
    ++read_index;
    broken_chain_sum += physical.BrokenChainFraction(physical_read);
    std::vector<uint8_t> logical_read = physical.Unembed(physical_read);
    if (logical.IsValidAssignment(logical_read)) ++valid_reads;
    mqo::MqoSolution solution = logical.RepairedSolution(logical_read);
    if (tracing) {
      unembed_wall_ms += step.ElapsedMillis();
      step.Restart();
    }
    if (options.postprocess_swap_descent) {
      mqo::SwapDescent(problem, &solution);
    }
    double cost = mqo::EvaluateCost(problem, solution);
    if (read_index == 1) result.first_read_cost = cost;
    if (cost < best_cost) {
      best_cost = cost;
      result.best_solution = solution;
      result.cost_vs_device_time.Record(
          static_cast<double>(read_index) * per_read_us / 1000.0, cost);
    }
    if (tracing) merge_wall_ms += step.ElapsedMillis();
  }
  result.best_cost = best_cost;
  int total_reads = device_result.raw_reads.size();
  if (total_reads > 0) {
    result.broken_chain_read_fraction = broken_chain_sum / total_reads;
    result.valid_read_fraction =
        static_cast<double>(valid_reads) / total_reads;
  }
  if (tracing) {
    trace->SetWallAt(unembed_span, unembed_wall_ms);
    trace->TagAt(unembed_span, "reads", static_cast<int64_t>(total_reads));
    trace->SetWallAt(merge_span, merge_wall_ms);
    trace->TagAt(merge_span, "swap_descent",
                 static_cast<int64_t>(options.postprocess_swap_descent ? 1
                                                                       : 0));
  }
  return result;
}

Result<QuantumMqoResult> SolveQuantumMqo(const mqo::MqoProblem& problem,
                                         const embedding::Embedding& embedding,
                                         const chimera::ChimeraGraph& graph,
                                         const QuantumMqoOptions& options) {
  Stopwatch mapping_clock;
  Result<mapping::LogicalMapping> logical =
      mapping::LogicalMapping::Create(problem);
  if (!logical.ok()) return logical.status();
  const double mapping_ms = mapping_clock.ElapsedMillis();
  Result<QuantumMqoResult> result =
      SolveQuantumMqo(*logical, embedding, graph, options);
  if (result.ok()) result->preprocessing_ms += mapping_ms;
  return result;
}

}  // namespace harness
}  // namespace qmqo
