#ifndef QMQO_HARNESS_RESILIENT_SOLVER_H_
#define QMQO_HARNESS_RESILIENT_SOLVER_H_

/// \file resilient_solver.h
/// The resilient solve orchestrator: one degradation ladder for every
/// payload, surviving an unreliable device.
///
/// The paper's workflow assumes every stage succeeds; real annealer service
/// traffic does not get that luxury — programming cycles fail, reads drop,
/// chains break in storms, and the quantum path can simply be too slow for
/// a request's latency budget (the hybrid classical+quantum MQO line of
/// work routes around exactly this). `ResilientSolver` solves a
/// `SolveTarget` (solve_target.h) — the paper's MQO problem as an
/// `MqoWorkload` with its embedding as device hint, or a graph workload's
/// bare QUBO — under a `SolvePolicy`:
///
///  * a per-request deadline (`util::Deadline`) and per-attempt timeout;
///  * bounded retries with exponential backoff and seeded jitter;
///  * retry-with-fresh-gauges when a device answer comes back as a
///    chain-break storm (each retry reseeds the gauge stream, the paper's
///    own remedy for gauge-dependent noise);
///  * graceful degradation down the backend ladder
///    device -> SQA -> SA -> greedy when attempts fail or the budget runs
///    out. The device rung runs on the target's device hint; a target
///    without one records a typed `Unimplemented` gate skip instead. SQA
///    and SA sample the target's QUBO and refine the best read with the
///    target's `Refine`; greedy refines the target's seed, is near-instant,
///    and always succeeds, so a valid answer comes back even when the
///    device fails 100% of attempts.
///
/// Every attempt is recorded in a `SolveReport` (backend, typed status,
/// wall and modeled time, faults observed, backoff applied), so a caller —
/// or the chaos suite — can see exactly which failures were absorbed. The
/// answer is the winning assignment in the target's QUBO encoding; the
/// target decodes it (`MqoWorkload::Decode`, `workloads::Workload::Decode`).
/// When `QuantumMqoOptions::trace` is set, the orchestrator additionally
/// emits one `solve.attempt` span per ladder attempt (tags: rung, backend,
/// attempt, status code, backoff, faults) with the pipeline's stage spans
/// nested under the device attempts — see obs/trace.h.
/// The orchestrator never throws and never aborts: every failure mode is a
/// `Status` inside the report.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/quantum_pipeline.h"
#include "harness/solve_target.h"
#include "util/status.h"

namespace qmqo {
namespace util {
class FaultInjector;
}  // namespace util

namespace harness {

/// The degradation ladder, cheapest last.
enum class SolveBackend {
  kDevice,  ///< full quantum pipeline (embedding + device model)
  kSqa,     ///< simulated quantum annealing on the target's QUBO
  kSa,      ///< classical simulated annealing on the target's QUBO
  kGreedy,  ///< the target's greedy seed, refined
};

/// Stable lower-case name ("device", "sqa", "sa", "greedy").
const char* SolveBackendName(SolveBackend backend);

/// Retry/deadline/degradation policy of one solve request.
struct SolvePolicy {
  /// Per-request deadline, milliseconds; <= 0 = none. When the budget runs
  /// out, remaining expensive backends are skipped and the last-resort
  /// backend still answers (its cost is negligible).
  double deadline_ms = 0.0;
  /// Per-attempt budget, milliseconds; <= 0 = none. An attempt whose wall
  /// plus modeled (injected-latency) time exceeds it is classified
  /// `Status::Timeout` and its result discarded.
  double attempt_timeout_ms = 0.0;
  /// Attempts per backend before degrading (>= 1).
  int max_attempts_per_backend = 2;
  /// Exponential backoff between retries on the same backend:
  /// initial * multiplier^(retry-1), jittered by +-`backoff_jitter`
  /// fraction (seeded — reports are reproducible). Backoff is *modeled*
  /// time charged against the deadline; `sleep_on_backoff` makes it real.
  double backoff_initial_ms = 0.0;
  double backoff_multiplier = 2.0;
  double backoff_jitter = 0.25;
  bool sleep_on_backoff = false;
  /// A successful device answer whose mean broken-chain read fraction
  /// reaches this is treated as a failed attempt (a "chain-break storm")
  /// and retried with fresh gauges.
  double chain_break_storm_fraction = 0.75;
  /// The backend ladder, tried in order. The default ends in kGreedy,
  /// which cannot fail (unless explicitly fault-injected).
  std::vector<SolveBackend> ladder = {SolveBackend::kDevice,
                                      SolveBackend::kSqa, SolveBackend::kSa,
                                      SolveBackend::kGreedy};
  /// Sampler budgets of the degraded classical backends (they run on the
  /// target's QUBO, no embedding).
  int sqa_reads = 16;
  int sqa_slices = 8;
  int sqa_sweeps = 64;
  int sa_reads = 32;
  int sa_sweeps = 256;
  /// Seeds backoff jitter and the degraded samplers' read streams; device
  /// retries fork fresh gauge seeds from the request's device seed.
  uint64_t seed = 1;
  /// Fault injection (never owned; null = no faults). Besides the sites
  /// inside the pipeline (see QuantumMqoOptions::faults), the orchestrator
  /// itself queries "solve.device" / "solve.sqa" / "solve.sa" /
  /// "solve.greedy" (key: 0-based attempt within the backend) before each
  /// attempt, so whole backends can be forced down for chaos tests.
  const util::FaultInjector* faults = nullptr;
  /// Admission gate consulted once per ladder rung (except the last
  /// resort, which always runs): a non-OK return skips the rung entirely —
  /// no attempts, no retry budget, no backoff — recording one attempt-0
  /// entry carrying the gate's status. The solve service installs a
  /// circuit-breaker snapshot here so requests stop burning their budget
  /// on a backend the fleet already knows is down. Must be thread-safe or
  /// effectively immutable (the service captures a per-request snapshot).
  std::function<Status(SolveBackend)> backend_gate;
  /// First ladder rung to try (shed-aware rung selection): under queue
  /// pressure the service raises this so overloaded traffic enters the
  /// ladder at a cheaper backend. Clamped to [0, ladder.size() - 1];
  /// 0 = the full ladder (default, bit-identical to the pre-shedding
  /// behavior).
  int entry_rung = 0;
};

/// One attempt's record inside a `SolveReport`.
struct SolveAttempt {
  SolveBackend backend = SolveBackend::kGreedy;
  /// 1-based attempt number within the backend; 0 for a rung the
  /// `backend_gate` skipped without running (the status carries the gate's
  /// reason, e.g. an open circuit breaker).
  int attempt = 0;
  /// OK when this attempt produced the returned answer.
  Status status;
  /// Cost of the attempt's answer (only when `status.ok()`).
  double cost = 0.0;
  double wall_ms = 0.0;
  /// Modeled time charged to the deadline by this attempt: injected device
  /// latency plus (for failed attempts) the backoff that followed.
  double modeled_ms = 0.0;
  /// Backoff scheduled after this (failed) attempt, milliseconds.
  double backoff_ms = 0.0;
  /// Faults fired during the attempt (pipeline + orchestrator sites).
  int64_t faults_observed = 0;
  /// Device attempts: mean broken-chain fraction of the call's reads.
  double broken_chain_fraction = 0.0;
};

/// Everything one resilient solve produced and absorbed.
struct SolveReport {
  /// True when some backend answered.
  bool ok = false;
  /// OK on success; otherwise the last attempt's error.
  Status final_status;
  /// The backend that answered.
  SolveBackend backend = SolveBackend::kGreedy;
  /// The winning assignment in the target's QUBO encoding (one 0/1 byte
  /// per variable; empty when no backend answered). Decode it with the
  /// target.
  std::vector<uint8_t> assignment;
  /// The answer's cost as the target's `Refine` reports it: the MQO cost
  /// for `MqoWorkload`, the QUBO energy by default.
  double cost = 0.0;
  int total_attempts = 0;
  /// Re-attempts on the same backend (total attempts minus backends tried).
  int retries = 0;
  /// Backend downgrades taken before the answer (0 = device answered).
  int fallbacks = 0;
  int64_t faults_observed = 0;
  /// True when the deadline expired before the answering backend ran (the
  /// orchestrator skipped ahead to cheaper backends).
  bool deadline_exhausted = false;
  double total_wall_ms = 0.0;
  /// Total modeled time charged to the deadline (injected latency +
  /// modeled backoff).
  double total_modeled_ms = 0.0;
  std::vector<SolveAttempt> attempts;

  /// Human-readable failure chain, e.g.
  /// "device#1: Internal: injected programming-cycle failure -> device#2:
  ///  Timeout: ... -> sqa#1: OK (cost 812)".
  std::string FailureChain() const;
};

/// The orchestrator. Stateless between calls; safe to reuse.
class ResilientSolver {
 public:
  explicit ResilientSolver(const SolvePolicy& policy) : policy_(policy) {}

  /// Solves `target` under the policy. Never throws; always returns a
  /// report (with `ok == false` only when every ladder backend failed,
  /// which requires fault-injecting the last resort). `options` configures
  /// the device rung exactly like `SolveQuantumMqo`; the SQA and SA rungs
  /// read with its device thread count and executor.
  SolveReport Solve(const SolveTarget& target,
                    const QuantumMqoOptions& options) const;

  const SolvePolicy& policy() const { return policy_; }

 private:
  SolvePolicy policy_;
};

}  // namespace harness
}  // namespace qmqo

#endif  // QMQO_HARNESS_RESILIENT_SOLVER_H_
