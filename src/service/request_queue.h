#ifndef QMQO_SERVICE_REQUEST_QUEUE_H_
#define QMQO_SERVICE_REQUEST_QUEUE_H_

/// \file request_queue.h
/// The solve service's bounded, two-lane request queue.
///
/// Admission control starts here: the queue holds at most `capacity`
/// requests across both lanes, and `Push` reports `ResourceExhausted`
/// instead of growing — backpressure is a typed, observable outcome, never
/// an unbounded buffer. Two priority lanes (interactive ahead of batch)
/// are drained strictly lane-major, FIFO within a lane, so a burst of
/// batch work can never starve interactive requests of queue *order* —
/// only of capacity, which admission control already meters.
///
/// The queue is internally synchronized (submitters may race); everything
/// order-dependent the service does with popped requests happens on its
/// serial scheduling path, so thread-safety here is about not corrupting
/// the deques, not about determinism.

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "harness/solve_target.h"
#include "util/status.h"

namespace qmqo {
namespace service {

/// Scheduling class of a request. Interactive requests dequeue ahead of
/// batch requests regardless of arrival order.
enum class RequestPriority {
  kInteractive = 0,
  kBatch = 1,
};

/// Stable lower-case name ("interactive", "batch").
const char* RequestPriorityName(RequestPriority priority);

/// One admitted solve request, queued until a scheduling round claims it.
struct QueuedRequest {
  /// Service-assigned id, unique and monotone in admission order.
  uint64_t id = 0;
  RequestPriority priority = RequestPriority::kBatch;
  /// Modeled service-clock timestamp at admission (queue-wait accounting).
  double submit_ms = 0.0;
  /// Modeled per-request deadline, milliseconds since `submit_ms`;
  /// <= 0 = none. Requests that age past it in the queue are shed.
  double deadline_ms = 0.0;
  /// What the solve runs against: an MQO problem (`harness::MqoWorkload`)
  /// or a graph workload. Shared and immutable; never null once admitted.
  std::shared_ptr<const harness::SolveTarget> target;
};

/// Bounded two-lane FIFO. Thread-safe.
class BoundedRequestQueue {
 public:
  explicit BoundedRequestQueue(int capacity);

  /// Enqueues, or reports `ResourceExhausted` when the queue is at
  /// capacity (the request is not consumed on failure).
  Status Push(QueuedRequest&& request);

  /// Pops the next request (interactive lane first, FIFO within lane).
  /// False when empty.
  bool Pop(QueuedRequest* out);

  /// Removes and returns everything still queued, interactive lane first —
  /// the fail-fast shutdown path, which fails each returned request.
  std::vector<QueuedRequest> DrainAll();

  int capacity() const { return capacity_; }
  int size() const;
  bool empty() const { return size() == 0; }

  /// Occupancy in [0, 1] — the load-shedding signal.
  double FillFraction() const;

  /// High-water mark of `size()` since construction.
  int peak_size() const;

 private:
  const int capacity_;
  mutable std::mutex mutex_;
  std::deque<QueuedRequest> lanes_[2];
  int peak_size_ = 0;
};

}  // namespace service
}  // namespace qmqo

#endif  // QMQO_SERVICE_REQUEST_QUEUE_H_
