#include "harness/resilient_solver.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "anneal/sample_set.h"
#include "anneal/simulated_annealer.h"
#include "anneal/sqa.h"
#include "util/deadline.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace qmqo {
namespace harness {
namespace {

constexpr char kNoDeviceHint[] =
    "device backend requires a device hint (an embedded MQO problem); "
    "targets without one enter the ladder at SQA";

// Orchestrator-level fault site of each backend ladder rung.
const char* FaultSiteOf(SolveBackend backend) {
  switch (backend) {
    case SolveBackend::kDevice:
      return "solve.device";
    case SolveBackend::kSqa:
      return "solve.sqa";
    case SolveBackend::kSa:
      return "solve.sa";
    case SolveBackend::kGreedy:
      return "solve.greedy";
  }
  return "solve.unknown";
}

// What one attempt produced. `modeled_ms` is the simulated-latency debit
// the orchestrator charges to the deadline (injected device latency; the
// backoff that may follow is added by the caller).
struct AttemptOutcome {
  Status status;
  std::vector<uint8_t> assignment;
  double cost = 0.0;
  double modeled_ms = 0.0;
  double broken_chain_fraction = 0.0;
};

// Runs one attempt of `backend` on `target`: the orchestrator's own fault
// site, then the rung.
AttemptOutcome RunAttempt(const SolvePolicy& policy, const SolveTarget& target,
                          const QuantumMqoOptions& options,
                          SolveBackend backend, int attempt) {
  AttemptOutcome out;
  // The orchestrator's own fault point: force a whole rung down.
  if (policy.faults != nullptr) {
    const char* site = FaultSiteOf(backend);
    uint64_t key = static_cast<uint64_t>(attempt - 1);
    Status injected = policy.faults->MaybeFail(site, key);
    if (!injected.ok()) {
      out.status = std::move(injected);
      out.modeled_ms = policy.faults->LatencyMillis(site);
      return out;
    }
  }
  std::vector<uint8_t> read;
  switch (backend) {
    case SolveBackend::kDevice: {
      const DeviceHint* hint = target.device_hint();
      if (hint == nullptr) {
        // Reachable only when a caller puts kDevice last in the ladder
        // (the last resort is never gated).
        out.status = Status::Unimplemented(kNoDeviceHint);
        return out;
      }
      QuantumMqoOptions attempt_options = options;
      if (policy.faults != nullptr && attempt_options.faults == nullptr) {
        attempt_options.faults = policy.faults;
      }
      attempt_options.fault_attempt = static_cast<uint64_t>(attempt - 1);
      if (attempt > 1) {
        // Fresh gauges per retry: refork the caller's device seed so a
        // chain-break storm is not replayed verbatim. Attempt 1 keeps the
        // caller's seed — a no-fault solve reproduces the plain pipeline.
        attempt_options.device.seed =
            Rng(options.device.seed)
                .Fork(static_cast<uint64_t>(attempt))
                .Next();
      }
      const int64_t latency_fires_before =
          policy.faults != nullptr
              ? policy.faults->FaultCount("device.latency")
              : 0;
      Result<QuantumMqoResult> solved = SolveQuantumMqo(
          *hint->mapping, *hint->embedding, *hint->graph, attempt_options);
      if (!solved.ok()) {
        out.status = solved.status();
        // A failed device call still burned its injected latency; the
        // result payload is gone, so recover the charge from the fault
        // counters (each firing costs the spec's latency_ms).
        if (policy.faults != nullptr) {
          out.modeled_ms =
              static_cast<double>(
                  policy.faults->FaultCount("device.latency") -
                  latency_fires_before) *
              policy.faults->LatencyMillis("device.latency");
        }
        return out;
      }
      // The pipeline refines every read itself; encode its best answer.
      out.modeled_ms = solved->injected_latency_ms;
      out.broken_chain_fraction = solved->broken_chain_read_fraction;
      out.cost = solved->best_cost;
      out.assignment = hint->mapping->FromMqoSolution(solved->best_solution);
      out.status = Status::OK();
      return out;
    }
    case SolveBackend::kSqa:
    case SolveBackend::kSa: {
      // The classical samplers borrow only the device's threads and pool.
      const bool sqa = backend == SolveBackend::kSqa;
      anneal::ReadOptions reads;
      reads.num_reads = sqa ? policy.sqa_reads : policy.sa_reads;
      reads.seed = Rng(policy.seed)
                       .Fork((sqa ? 0x50aULL : 0x5aULL) +
                             static_cast<uint64_t>(attempt))
                       .Next();
      reads.num_threads = options.device.num_threads;
      reads.executor = options.device.executor;
      anneal::SampleSet set;
      if (sqa) {
        anneal::SqaOptions sqa_options;
        static_cast<anneal::ReadOptions&>(sqa_options) = reads;
        sqa_options.num_slices = policy.sqa_slices;
        sqa_options.sweeps = policy.sqa_sweeps;
        set = anneal::SimulatedQuantumAnnealer(sqa_options)
                  .Sample(target.qubo());
      } else {
        anneal::SaOptions sa_options;
        static_cast<anneal::ReadOptions&>(sa_options) = reads;
        sa_options.sweeps_per_read = policy.sa_sweeps;
        set = anneal::SimulatedAnnealer(sa_options).Sample(target.qubo());
      }
      if (set.empty()) {
        out.status = Status::Internal(StrFormat(
            "%s backend returned no samples", sqa ? "SQA" : "SA"));
        return out;
      }
      set.best().assignment.CopyBytesTo(&read);
      break;
    }
    case SolveBackend::kGreedy:
      read = target.GreedySeed();
      break;
    default:
      out.status = Status::Internal("unknown backend");
      return out;
  }
  // Every classical rung ends the same way: the target refines the read
  // into its answer.
  out.cost = target.Refine(&read);
  out.assignment = std::move(read);
  out.status = Status::OK();
  return out;
}

}  // namespace

const char* SolveBackendName(SolveBackend backend) {
  switch (backend) {
    case SolveBackend::kDevice:
      return "device";
    case SolveBackend::kSqa:
      return "sqa";
    case SolveBackend::kSa:
      return "sa";
    case SolveBackend::kGreedy:
      return "greedy";
  }
  return "unknown";
}

std::string SolveReport::FailureChain() const {
  std::string chain;
  for (const SolveAttempt& a : attempts) {
    if (!chain.empty()) chain += " -> ";
    chain += StrFormat("%s#%d: ", SolveBackendName(a.backend), a.attempt);
    if (a.status.ok()) {
      chain += StrFormat("OK (cost %g)", a.cost);
    } else {
      chain += a.status.ToString();
    }
  }
  return chain;
}

SolveReport ResilientSolver::Solve(const SolveTarget& target,
                                   const QuantumMqoOptions& options) const {
  const SolvePolicy& policy = policy_;
  obs::SolveTrace* trace = options.trace;
  SolveReport report;
  Stopwatch total;
  util::Deadline deadline =
      policy.deadline_ms > 0.0 ? util::Deadline::AfterMillis(policy.deadline_ms)
                               : util::Deadline::Infinite();
  // Jitter draws happen only after deterministic failures, so the stream
  // stays reproducible for equal (seed, faults, policy).
  Rng jitter_rng = Rng(policy.seed).Fork(0xbac0ffULL);
  // Samplers share the QUBO across reads/threads; build its evaluation
  // structures once up front so the sharing is data-race-free.
  target.qubo().Finalize();
  const bool has_hint = target.device_hint() != nullptr;

  // One "solve.attempt" span per ladder attempt (and per gate-skipped
  // rung), nested under whatever span the caller has open. The device
  // rung's pipeline spans become children of its attempt spans: the
  // attempt options carry the same trace pointer.
  auto close_attempt_span = [&](const SolveAttempt& rec) {
    if (trace == nullptr) return;
    // Tag the status *code* only: messages embed wall times, which would
    // leak nondeterminism into otherwise deterministic trace dumps.
    trace->Tag("status",
               rec.status.ok() ? "ok" : StatusCodeToString(rec.status.code()));
    if (rec.backoff_ms > 0.0) {
      trace->Tag("backoff_ms", obs::FormatMs(rec.backoff_ms));
    }
    if (rec.faults_observed > 0) trace->Tag("faults", rec.faults_observed);
    trace->AddModeled(rec.modeled_ms);
    trace->Close(rec.wall_ms);
  };

  const int max_attempts = std::max(1, policy.max_attempts_per_backend);
  Status last_error = Status::Internal("empty backend ladder");
  int backends_tried = 0;
  // Shed-aware entry: under load the service raises `entry_rung` so the
  // request starts at a cheaper backend. 0 keeps the full ladder and is
  // bit-identical to the pre-shedding behavior.
  size_t start_rung = 0;
  if (policy.entry_rung > 0 && !policy.ladder.empty()) {
    start_rung = std::min(static_cast<size_t>(policy.entry_rung),
                          policy.ladder.size() - 1);
  }
  for (size_t rung = start_rung; rung < policy.ladder.size() && !report.ok;
       ++rung) {
    const SolveBackend backend = policy.ladder[rung];
    const bool last_resort = rung + 1 == policy.ladder.size();
    // Consult the admission gate before spending any of the retry budget
    // on this rung: a target without a device hint gates the device, the
    // policy's gate (e.g. a circuit-breaker snapshot) every rung. The last
    // resort is never gated — something must answer. A skipped rung costs
    // nothing: one attempt-0 record, no attempts, no backoff.
    if (!last_resort) {
      Status gate = backend == SolveBackend::kDevice && !has_hint
                        ? Status::Unimplemented(kNoDeviceHint)
                    : policy.backend_gate ? policy.backend_gate(backend)
                                          : Status::OK();
      if (!gate.ok()) {
        SolveAttempt skipped;
        skipped.backend = backend;
        skipped.attempt = 0;
        skipped.status = gate;
        if (trace != nullptr) {
          trace->Open("solve.attempt");
          trace->Tag("rung", static_cast<int64_t>(rung));
          trace->Tag("backend", SolveBackendName(backend));
          trace->Tag("attempt", static_cast<int64_t>(0));
          trace->Tag("gate", "skipped");
        }
        close_attempt_span(skipped);
        report.attempts.push_back(std::move(skipped));
        last_error = std::move(gate);
        continue;
      }
    }
    bool tried = false;
    for (int attempt = 1; attempt <= max_attempts && !report.ok; ++attempt) {
      // The last resort always runs: a valid (cheap) answer beats honoring
      // an already-blown budget with no answer at all.
      if (deadline.expired() && !last_resort) {
        report.deadline_exhausted = true;
        break;
      }
      tried = true;

      SolveAttempt rec;
      rec.backend = backend;
      rec.attempt = attempt;
      if (trace != nullptr) {
        trace->Open("solve.attempt");
        trace->Tag("rung", static_cast<int64_t>(rung));
        trace->Tag("backend", SolveBackendName(backend));
        trace->Tag("attempt", static_cast<int64_t>(attempt));
      }
      const int64_t faults_before =
          policy.faults != nullptr ? policy.faults->faults_injected() : 0;
      Stopwatch attempt_clock;
      AttemptOutcome out =
          RunAttempt(policy, target, options, backend, attempt);
      rec.wall_ms = attempt_clock.ElapsedMillis();
      rec.modeled_ms = out.modeled_ms;
      deadline.Charge(out.modeled_ms);
      rec.broken_chain_fraction = out.broken_chain_fraction;
      rec.status = std::move(out.status);
      rec.faults_observed =
          (policy.faults != nullptr ? policy.faults->faults_injected() : 0) -
          faults_before;
      report.faults_observed += rec.faults_observed;
      ++report.total_attempts;

      if (rec.status.ok() && policy.attempt_timeout_ms > 0.0 &&
          rec.wall_ms + rec.modeled_ms > policy.attempt_timeout_ms) {
        rec.status = Status::Timeout(StrFormat(
            "%s attempt %d took %.1f ms (%.1f wall + %.1f modeled), over "
            "the %.1f ms per-attempt budget",
            SolveBackendName(backend), attempt, rec.wall_ms + rec.modeled_ms,
            rec.wall_ms, rec.modeled_ms, policy.attempt_timeout_ms));
      }
      if (rec.status.ok() && backend == SolveBackend::kDevice &&
          policy.chain_break_storm_fraction > 0.0 &&
          rec.broken_chain_fraction >= policy.chain_break_storm_fraction) {
        rec.status = Status::Internal(StrFormat(
            "chain-break storm: %.0f%% of reads broke chains "
            "(threshold %.0f%%)",
            100.0 * rec.broken_chain_fraction,
            100.0 * policy.chain_break_storm_fraction));
      }

      if (rec.status.ok()) {
        rec.cost = out.cost;
        report.ok = true;
        report.backend = backend;
        report.cost = out.cost;
        report.assignment = std::move(out.assignment);
        report.final_status = Status::OK();
        report.fallbacks = static_cast<int>(rung);
        close_attempt_span(rec);
        report.attempts.push_back(std::move(rec));
        break;
      }

      last_error = rec.status;
      if (attempt < max_attempts && policy.backoff_initial_ms > 0.0) {
        double backoff =
            policy.backoff_initial_ms *
            std::pow(policy.backoff_multiplier, attempt - 1);
        if (policy.backoff_jitter > 0.0) {
          backoff *= 1.0 + jitter_rng.UniformReal(-policy.backoff_jitter,
                                                  policy.backoff_jitter);
        }
        backoff = std::max(0.0, backoff);
        // Waiting longer than the remaining budget cannot help; degrade
        // instead of burning the deadline on a sleep.
        if (backoff < deadline.RemainingMillis()) {
          rec.backoff_ms = backoff;
          rec.modeled_ms += backoff;
          deadline.Charge(backoff);
          if (policy.sleep_on_backoff) {
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(backoff));
          }
        }
      }
      close_attempt_span(rec);
      report.attempts.push_back(std::move(rec));
    }
    if (tried) ++backends_tried;
  }

  report.retries = report.total_attempts - backends_tried;
  if (!report.ok) report.final_status = last_error;
  report.total_wall_ms = total.ElapsedMillis();
  report.total_modeled_ms = deadline.charged_millis();
  return report;
}

}  // namespace harness
}  // namespace qmqo
