// Copyright (c) Medea reproduction authors.
// PlacementService: batched, snapshot-isolated placement-as-a-service.
//
// The paper's LRA scheduler "can place multiple applications at once" while
// the cluster keeps moving (§3.2). This service is that claim as a request
// path:
//
//   Submit() ──> admission queue ──> planner workers ──> PlanQueue ──> committer
//                 (bounded,           (batch up to        (bounded,     (single
//                  blocks when         max_batch LRAs,     blocks when   thread,
//                  full)               plan against an     full)         commits +
//                                      epoch snapshot)                   publishes)
//
// Batching: each planner cycle coalesces up to `max_batch` pending requests
// into one multi-app PlacementProblem, so a single ILP (or greedy) solve
// places them jointly; the solver's component decomposition splits
// non-interacting apps back into independent sub-models.
//
// Snapshot isolation: planners call EpochClusterState::Acquire() — a
// pointer copy — and plan against a frozen epoch while the committer keeps
// committing; a plan is stale once the epoch has moved on. The cycle itself
// is the LRA pipeline core (lra_pipeline.h).
//
// Backpressure: two bounded queues. Submit() blocks once
// `admission_capacity` requests are pending, and planners block on the
// existing PlanQueue when the committer falls behind.
//
// Two execution modes share the batch/plan/commit code path:
//   * Start()/Stop(): real planner worker + committer threads.
//   * RunSynchronous(): single-threaded deterministic drain — same batching,
//     same snapshot plumbing, zero concurrency. This is the mode the
//     scenario fuzzer runs differentially against a plain sequential
//     place-and-commit loop (identical batches => identical plans, commits
//     and Eq.1 objectives).

#ifndef SRC_RUNTIME_PLACEMENT_SERVICE_H_
#define SRC_RUNTIME_PLACEMENT_SERVICE_H_

#include <chrono>
#include <functional>
#include <memory>
#include <vector>

#include "src/cluster/epoch_state.h"
#include "src/common/sync/mutex.h"
#include "src/common/sync/thread.h"
#include "src/core/constraint_manager.h"
#include "src/runtime/lra_pipeline.h"
#include "src/runtime/plan_queue.h"
#include "src/schedulers/placement.h"

namespace medea::runtime {

struct ServiceConfig {
  // Max LRA requests coalesced into one multi-app placement problem.
  size_t max_batch = 16;
  // Admission-queue bound: Submit() blocks while this many requests are
  // pending (closed-loop backpressure ahead of the PlanQueue).
  size_t admission_capacity = 64;
  // Planner worker threads; each owns its own LraScheduler instance.
  int num_workers = 2;
  size_t plan_queue_capacity = 4;
  // A request is rejected after this many failed placement attempts.
  int max_attempts = 3;
};

struct ServiceMetrics {
  long long submitted = 0;
  long long batches = 0;
  long long lras_placed = 0;
  long long lras_rejected = 0;
  long long resubmissions = 0;
  long long commit_conflicts = 0;
  long long stale_plans = 0;
  long long failover_replacements = 0;
  long long lra_containers_lost = 0;
};

// Result of one synchronous batch cycle (RunSynchronous): what was asked,
// what the planner proposed against `epoch`, and what actually committed.
struct BatchOutcome {
  std::vector<LraRequest> lras;
  PlacementPlan plan;
  std::vector<bool> committed;
  uint64_t epoch = 0;
};

class PlacementService {
 public:
  using SchedulerFactory = std::function<std::unique_ptr<LraScheduler>()>;

  PlacementService(ServiceConfig config, ClusterState initial, ConstraintManager manager);
  ~PlacementService();

  PlacementService(const PlacementService&) = delete;
  PlacementService& operator=(const PlacementService&) = delete;

  // Spawns `num_workers` planner threads (one scheduler instance each, from
  // `factory`) plus the committer thread.
  void Start(const SchedulerFactory& factory);

  // Stops all threads; pending plans in the PlanQueue are drained and
  // committed, un-planned admissions are dropped.
  void Stop();

  // Enqueues a placement request. Blocks while the admission queue is full.
  // Requests submitted after Stop() are dropped.
  void Submit(LraRequest request);

  // Mutates the constraint manager (register/remove constraints, intern
  // tags) and republishes the snapshot used by subsequent planner cycles.
  void WithManager(const std::function<void(ConstraintManager&)>& fn);
  std::shared_ptr<const ConstraintManager> manager_snapshot() const;

  // Failover path: marks the node down, releases its LRA containers and
  // resubmits them through the admission queue (is_failover), advancing the
  // epoch. NodeUp re-enables the node (another epoch).
  void NodeDown(NodeId node);
  void NodeUp(NodeId node);

  // Blocks until every submitted request has resolved (committed or
  // rejected) or `timeout` elapses; returns false on timeout.
  bool WaitIdle(std::chrono::milliseconds timeout);

  // Deterministic single-threaded mode (do not Start()): drains the
  // admission queue one batch per cycle in submission order, planning with
  // `scheduler` and committing immediately. Returns the per-batch outcomes.
  std::vector<BatchOutcome> RunSynchronous(LraScheduler& scheduler);

  // Epoch-snapshot access for readers/tests.
  std::shared_ptr<const ClusterSnapshot> AcquireSnapshot() const { return epoch_.Acquire(); }
  uint64_t epoch() const { return epoch_.epoch(); }
  // Runs `fn(const ClusterState&)` on the live working state under the
  // writer lock (end-of-run audits, invariant checks).
  void WithLiveState(const std::function<void(const ClusterState&)>& fn) const {
    epoch_.WithLive(fn);
  }

  ServiceMetrics metrics() const;

 private:
  SimTimeMs NowMs() const;
  void WorkerLoop(LraScheduler* scheduler);
  void CommitterLoop();

  // Takes the next batch; with `block` (worker threads) waits for one.
  // Returns false when stopping, or when nothing is pending and !`block`.
  bool TakeBatch(bool block, LraBatch* batch) MEDEA_EXCLUDES(mu_);

  // Plans `batch` against the current epoch snapshot with `scheduler` and
  // wraps the result in an envelope (snapshot_version = epoch).
  PlanEnvelope PlanBatch(LraBatch batch, LraScheduler& scheduler);

  // Commits an envelope through the LRA pipeline core inside one epoch
  // commit, then resolves its LRAs. If `outcome` is non-null the batch
  // result is recorded there (synchronous mode).
  void CommitEnvelope(PlanEnvelope envelope, BatchOutcome* outcome) MEDEA_EXCLUDES(mu_);

  void MutateManagerLocked(const std::function<void(ConstraintManager&)>& fn)
      MEDEA_REQUIRES(mu_);

  const ServiceConfig config_;
  EpochClusterState epoch_;
  PlanQueue plan_queue_;
  const std::chrono::steady_clock::time_point start_time_;

  mutable sync::Mutex mu_;
  sync::CondVar work_cv_;       // pipeline_ became non-empty (or stopping)
  sync::CondVar admission_cv_;  // pipeline_ dropped below capacity
  sync::CondVar idle_cv_;       // outstanding_ hit zero
  LraPipeline pipeline_ MEDEA_GUARDED_BY(mu_);
  std::shared_ptr<const ConstraintManager> manager_ MEDEA_GUARDED_BY(mu_);
  size_t outstanding_ MEDEA_GUARDED_BY(mu_) = 0;
  bool stopping_ MEDEA_GUARDED_BY(mu_) = false;
  ServiceMetrics metrics_ MEDEA_GUARDED_BY(mu_);

  std::vector<std::unique_ptr<LraScheduler>> planners_;
  std::vector<sync::Thread> workers_;
  sync::Thread committer_;
  bool started_ = false;
};

}  // namespace medea::runtime

#endif  // SRC_RUNTIME_PLACEMENT_SERVICE_H_
