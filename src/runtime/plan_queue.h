// Copyright (c) Medea reproduction authors.
// Bounded handoff queue between the two schedulers (Fig. 4).
//
// The LRA scheduler thread produces PlanEnvelopes (a batch of LRA requests
// plus the placement plan computed for them against a state snapshot); the
// heartbeat loop consumes them and performs the actual allocations. The
// queue is deliberately small: placement plans go stale as the heartbeat
// keeps allocating tasks, so buffering many of them is useless work —
// a full queue blocks the LRA thread (backpressure) until the heartbeat
// catches up. All synchronization is annotated for Clang Thread Safety
// Analysis; misuse is a compile error on Clang builds.

#ifndef SRC_RUNTIME_PLAN_QUEUE_H_
#define SRC_RUNTIME_PLAN_QUEUE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "src/common/sync/mutex.h"
#include "src/common/types.h"
#include "src/obs/metrics.h"
#include "src/runtime/lra_pipeline.h"
#include "src/schedulers/placement.h"

namespace medea::runtime {

// One scheduling cycle's output, in flight from the LRA scheduler thread to
// the heartbeat loop.
struct PlanEnvelope {
  // The batch the plan was computed for. Carried by value: the state
  // snapshot the scheduler saw is gone by commit time and the live cluster
  // has moved on — the plan is a *suggestion* (§3.2).
  LraBatch batch;
  PlacementPlan plan;
  // The snapshot's version (ClusterState::version() in the runtime, the
  // epoch in the service); a mismatch at commit time routes the envelope
  // through the stale-plan revalidation path.
  uint64_t snapshot_version = 0;
  // Stamped by PlanQueue::Push (only while metrics are enabled) so TryPop
  // can report the envelope's queue dwell time (runtime.plan_queue_wait_ms).
  std::chrono::steady_clock::time_point enqueue_time{};
};

class PlanQueue {
 public:
  explicit PlanQueue(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  PlanQueue(const PlanQueue&) = delete;
  PlanQueue& operator=(const PlanQueue&) = delete;

  // Blocks while the queue is full (backpressure on the LRA thread).
  // Returns false — and drops the envelope — once the queue is closed.
  bool Push(PlanEnvelope envelope) MEDEA_EXCLUDES(mu_) {
    sync::MutexLock lock(&mu_);
    while (queue_.size() >= capacity_ && !closed_) {
      not_full_.Wait(&mu_);
    }
    if (closed_) {
      return false;
    }
    if (obs::MetricsEnabled()) {
      envelope.enqueue_time = std::chrono::steady_clock::now();
      obs::SetGauge("runtime.plan_queue_depth", static_cast<double>(queue_.size() + 1));
      obs::Count("runtime.plans_enqueued");
    }
    queue_.push_back(std::move(envelope));
    not_empty_.Signal();
    return true;
  }

  // Non-blocking pop, used by the heartbeat loop's drain pass.
  bool TryPop(PlanEnvelope* envelope) MEDEA_EXCLUDES(mu_) {
    sync::MutexLock lock(&mu_);
    if (queue_.empty()) {
      return false;
    }
    PopLocked(envelope);
    return true;
  }

  // Blocking pop, used by the placement service's dedicated committer
  // thread. Waits until an envelope arrives; after Close() it keeps
  // returning the remaining envelopes (so shutdown drains the queue) and
  // returns false only once closed *and* empty.
  bool Pop(PlanEnvelope* envelope) MEDEA_EXCLUDES(mu_) {
    sync::MutexLock lock(&mu_);
    while (queue_.empty() && !closed_) {
      not_empty_.Wait(&mu_);
    }
    if (queue_.empty()) {
      return false;
    }
    PopLocked(envelope);
    return true;
  }

  // Wakes every blocked producer/consumer; subsequent pushes fail. Pending
  // envelopes remain poppable so shutdown can drain them.
  void Close() MEDEA_EXCLUDES(mu_) {
    sync::MutexLock lock(&mu_);
    closed_ = true;
    not_full_.SignalAll();
    not_empty_.SignalAll();
  }

  size_t size() const MEDEA_EXCLUDES(mu_) {
    sync::MutexLock lock(&mu_);
    return queue_.size();
  }

  bool closed() const MEDEA_EXCLUDES(mu_) {
    sync::MutexLock lock(&mu_);
    return closed_;
  }

 private:
  void PopLocked(PlanEnvelope* envelope) MEDEA_REQUIRES(mu_) {
    *envelope = std::move(queue_.front());
    queue_.pop_front();
    if (obs::MetricsEnabled() &&
        envelope->enqueue_time != std::chrono::steady_clock::time_point{}) {
      obs::Observe("runtime.plan_queue_wait_ms",
                   std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - envelope->enqueue_time)
                       .count());
      obs::SetGauge("runtime.plan_queue_depth", static_cast<double>(queue_.size()));
    }
    not_full_.Signal();
  }

  const size_t capacity_;
  mutable sync::Mutex mu_;
  sync::CondVar not_full_;
  sync::CondVar not_empty_;
  std::deque<PlanEnvelope> queue_ MEDEA_GUARDED_BY(mu_);
  bool closed_ MEDEA_GUARDED_BY(mu_) = false;
};

}  // namespace medea::runtime

#endif  // SRC_RUNTIME_PLAN_QUEUE_H_
