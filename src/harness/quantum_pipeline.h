#ifndef QMQO_HARNESS_QUANTUM_PIPELINE_H_
#define QMQO_HARNESS_QUANTUM_PIPELINE_H_

/// \file quantum_pipeline.h
/// Algorithm 1 of the paper, end to end:
///
///   MQO --LogicalMapping--> logical QUBO --EmbeddedQubo--> physical QUBO
///       --DWaveSimulator--> samples --Unembed + inverse mapping--> plans.
///
/// Besides the best solution, the pipeline reports the paper's measured
/// quantities: preprocessing time (logical + physical mapping), modeled
/// device time, the best-MQO-cost-after-k-reads staircase (in modeled
/// device time), and chain-break diagnostics.

#include <vector>

#include "anneal/dwave_simulator.h"
#include "chimera/topology.h"
#include "embedding/embedded_qubo.h"
#include "embedding/embedding.h"
#include "embedding/embedding_cache.h"
#include "harness/trajectory.h"
#include "mapping/logical_mapping.h"
#include "mqo/problem.h"
#include "mqo/solution.h"
#include "obs/trace.h"
#include "util/status.h"

namespace qmqo {
namespace util {
class FaultInjector;
}  // namespace util

namespace harness {

/// Options of the full pipeline. The logical mapping's options belong to
/// the mapping itself (see the `LogicalMapping` overload below).
struct QuantumMqoOptions {
  embedding::EmbeddedQuboOptions physical;
  anneal::DWaveOptions device;
  /// Apply greedy plan-swap descent to each read during the classical
  /// read-out (the analogue of D-Wave SAPI's "optimization" post-processing
  /// mode, which runs server-side pipelined with annealing). Costs ~1 ms of
  /// classical time per read, which is NOT charged to the modeled device
  /// time — the same accounting the paper uses for its read-outs.
  bool postprocess_swap_descent = true;
  /// Fault injection for the whole solve path (never owned; null = no
  /// faults). Site "pipeline.solve" (key: `fault_attempt`) fails the call
  /// at entry; the injector also propagates into `physical.faults` and
  /// `device.faults` when those are unset, with `fault_attempt` as the
  /// embed key / device fault epoch — one injector covers every stage.
  const util::FaultInjector* faults = nullptr;
  /// Attempt number used as the fault key/epoch; orchestrators increment
  /// it per retry so retries draw fresh fault decisions.
  uint64_t fault_attempt = 0;
  /// Structure-keyed embedding cache (never owned; null = always compile
  /// cold). When set, the physical mapping is served by
  /// `EmbeddingCache::GetOrCreate`, which reuses a captured layout for
  /// repeated structures — bit-identical results, large preprocessing
  /// savings on repeated shapes (retries, per-request re-weights).
  embedding::EmbeddingCache* embedding_cache = nullptr;
  /// Optional solve trace (never owned; null = no tracing, one pointer
  /// test per stage). When set, the pipeline opens spans under the
  /// caller's innermost open span: `pipeline.embed` (tag cache_hit),
  /// `pipeline.anneal` with one `anneal.gauge` child per programming
  /// cycle, `pipeline.unembed`, and `pipeline.merge`. Modeled durations
  /// come from the device-time model (deterministic); wall durations are
  /// measured and only meaningful to humans.
  obs::SolveTrace* trace = nullptr;
};

/// Everything Algorithm 1 produces, plus the paper's measurements.
struct QuantumMqoResult {
  mqo::MqoSolution best_solution{0};
  double best_cost = 0.0;
  /// Classical preprocessing: logical + physical mapping, milliseconds
  /// (the paper reports 112-135 ms for its unoptimized implementation).
  double preprocessing_ms = 0.0;
  /// Modeled device time for all reads, microseconds.
  double device_time_us = 0.0;
  /// Wall-clock time spent simulating the device, milliseconds.
  double simulator_wall_ms = 0.0;
  /// Best MQO cost after each read, on the modeled device-time axis.
  Trajectory cost_vs_device_time;
  /// MQO cost of the first read's solution (the paper's 1-run quality).
  double first_read_cost = 0.0;
  /// Mean fraction of broken chains per read (0 = all chains always
  /// consistent).
  double broken_chain_read_fraction = 0.0;
  /// Fraction of reads whose repaired solution was already valid.
  double valid_read_fraction = 0.0;
  /// Physical qubits used.
  int physical_qubits = 0;
  /// Fault diagnostics (all zero without an armed injector): faults fired
  /// inside the device call, reads lost to injected dropout, and modeled
  /// device latency injected (milliseconds; charge it to deadlines).
  int64_t faults_injected = 0;
  int dropped_reads = 0;
  double injected_latency_ms = 0.0;
  /// True when the physical mapping was served from the embedding cache
  /// (always false without `options.embedding_cache`).
  bool embedding_cache_hit = false;
};

/// Runs Algorithm 1 on a prebuilt logical mapping (of `logical.problem()`)
/// with a caller-provided embedding of the plan variables (the workload
/// generator produces instance + embedding together). `preprocessing_ms`
/// covers the physical mapping only.
Result<QuantumMqoResult> SolveQuantumMqo(const mapping::LogicalMapping& logical,
                                         const embedding::Embedding& embedding,
                                         const chimera::ChimeraGraph& graph,
                                         const QuantumMqoOptions& options);

/// Builds the default logical mapping of `problem`, then runs the overload
/// above; `preprocessing_ms` then covers both mappings.
Result<QuantumMqoResult> SolveQuantumMqo(const mqo::MqoProblem& problem,
                                         const embedding::Embedding& embedding,
                                         const chimera::ChimeraGraph& graph,
                                         const QuantumMqoOptions& options);

}  // namespace harness
}  // namespace qmqo

#endif  // QMQO_HARNESS_QUANTUM_PIPELINE_H_
