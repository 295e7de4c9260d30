// Copyright (c) Medea reproduction authors.
// TwoSchedulerRuntime: Medea's two-scheduler design (§3, Fig. 4) as a
// genuinely concurrent runtime.
//
// Two threads share one cluster:
//
//   * The **LRA scheduler thread** waits for pending LRA submissions, takes
//     a consistent snapshot of the cluster state and constraint store under
//     the runtime mutex, then runs the (expensive, optimization-based) LRA
//     scheduler on the snapshot *outside* the lock — this is the point of
//     the paper's split: long scheduling cycles must not stall the
//     heartbeat path. The finished PlacementPlan travels through a small
//     bounded PlanQueue (backpressure: a full queue blocks this thread).
//
//   * The **heartbeat thread** wakes every `heartbeat_period`, and under
//     the mutex: completes due tasks, runs TaskScheduler::Tick for the
//     task-based jobs, drains the plan queue and commits each plan on the
//     task scheduler's state — the task scheduler performs *all*
//     allocations, so the two schedulers cannot conflict on placement
//     (§3.2: LRA plans are suggestions). The cycle itself is the LRA
//     pipeline core (lra_pipeline.h). Optionally a migration cycle runs
//     every N heartbeats.
//
// Every shared field is MEDEA_GUARDED_BY(mu_); on Clang builds an unguarded
// access fails the build (-Werror=thread-safety), and the whole runtime is
// exercised under ThreadSanitizer in CI (tests/runtime_stress_test.cc).
// The PlacementAuditor hook (src/verify's invariant checker) is notified
// after every commit and mutation, under the lock, so each concurrent
// commit is independently certified.

#ifndef SRC_RUNTIME_TWO_SCHEDULER_RUNTIME_H_
#define SRC_RUNTIME_TWO_SCHEDULER_RUNTIME_H_

#include <chrono>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "src/cluster/cluster_state.h"
#include "src/common/sync/mutex.h"
#include "src/common/sync/thread.h"
#include "src/core/constraint_manager.h"
#include "src/runtime/lra_pipeline.h"
#include "src/runtime/plan_queue.h"
#include "src/schedulers/migration.h"
#include "src/schedulers/placement.h"
#include "src/tasksched/task_scheduler.h"
#include "src/workload/lra_templates.h"

namespace medea::runtime {

struct RuntimeConfig {
  // Cluster topology (mirrors SimConfig / ClusterBuilder).
  size_t num_nodes = 100;
  size_t num_racks = 4;
  size_t num_upgrade_domains = 4;
  size_t num_service_units = 4;
  Resource node_capacity = Resource(16 * 1024, 8);

  // Real-time heartbeat period of the task scheduler loop. The runtime
  // clock is wall time in milliseconds since Start(), so TaskRequest
  // durations are real milliseconds here.
  std::chrono::milliseconds heartbeat_period{2};
  // The LRA thread batches everything pending when it wakes; this caps the
  // batch (0 = unbounded), mirroring SimConfig::max_lras_per_cycle.
  int max_lras_per_cycle = 0;
  // Resubmission cap before an LRA is rejected (§5.4).
  int max_lra_attempts = 3;
  // Capacity of the plan handoff queue (backpressure threshold).
  size_t plan_queue_capacity = 4;
  // Run a migration cycle every N heartbeats; 0 disables.
  int migration_every_heartbeats = 0;
  MigrationConfig migration;
  // Task queues (empty = single "default" queue).
  std::vector<QueueConfig> task_queues;
};

struct RuntimeMetrics {
  int lra_cycles = 0;          // LRA scheduler invocations
  int heartbeats = 0;
  int plans_committed = 0;     // envelopes fully processed
  int lras_placed = 0;
  int lras_rejected = 0;
  int lra_resubmissions = 0;
  int commit_conflicts = 0;    // planned LRA failed to commit
  int stale_plans = 0;         // envelopes that hit the revalidation path
  int stale_lras_revalidated = 0;  // LRAs rejected by revalidation pre-pass
  int failover_replacements = 0;
  int lra_containers_lost = 0;
  int tasks_requeued_on_failure = 0;
  int tasks_completed = 0;
  int migrations = 0;
};

class TwoSchedulerRuntime {
 public:
  TwoSchedulerRuntime(RuntimeConfig config, std::unique_ptr<LraScheduler> lra_scheduler);
  ~TwoSchedulerRuntime();

  TwoSchedulerRuntime(const TwoSchedulerRuntime&) = delete;
  TwoSchedulerRuntime& operator=(const TwoSchedulerRuntime&) = delete;

  // Starts the two threads. Must be called at most once.
  void Start();

  // Clean shutdown: stops the LRA thread after its current cycle, drains
  // every envelope still in the plan queue through the commit path, then
  // stops the heartbeat thread and joins both. Idempotent.
  void Stop();

  // --- Thread-safe submission API (any thread) -----------------------------

  // Registers the spec's constraints (shared ones deduplicated,
  // operator-origin) and queues the LRA for the next scheduling cycle.
  void SubmitLra(LraSpec spec);

  // Builds an LraSpec (or anything else needing the shared tag vocabulary)
  // against the runtime's tag pool, under the lock — e.g.
  //   rt.BuildSpec([&](TagPool& tags) { return MakeHBaseInstance(app, tags); })
  template <typename Fn>
  auto BuildSpec(Fn&& fn) MEDEA_EXCLUDES(mu_) {
    sync::MutexLock lock(&mu_);
    return fn(manager_.tags());
  }

  // Enqueues a task-based job for the heartbeat loop.
  void SubmitTaskJob(std::vector<TaskRequest> tasks, const std::string& queue = "default");

  // Registers a cluster-operator constraint (deduplicated by text).
  Status AddOperatorConstraint(const std::string& text);

  // Node failure (§2.3): running tasks are requeued, lost LRA containers
  // are resubmitted as failover requests. Recovery re-opens the node.
  void NodeDown(NodeId node);
  void NodeUp(NodeId node);

  // --- Observation ---------------------------------------------------------

  // Blocks until the LRA pipeline is quiescent — no pending submissions, no
  // cycle in flight, empty plan queue — or the timeout expires. Task-based
  // jobs may still be running. Returns true when quiescent.
  bool WaitLraIdle(std::chrono::milliseconds timeout);

  // Milliseconds of runtime clock elapsed since Start().
  SimTimeMs NowMs() const;

  RuntimeMetrics metrics() const;
  // Copy of the live cluster state, taken under the lock.
  ClusterState SnapshotState() const;
  // Runs `fn(state, manager)` under the runtime lock, for invariant checks
  // and test assertions against a consistent view.
  template <typename Fn>
  void WithStateLocked(Fn&& fn) const MEDEA_EXCLUDES(mu_) {
    sync::MutexLock lock(&mu_);
    fn(state_, manager_);
  }

  size_t pending_lras() const;
  size_t pending_tasks() const;
  size_t running_tasks() const;

 private:
  struct Completion {
    SimTimeMs end_ms = 0;
    ContainerId container;
    bool operator>(const Completion& other) const { return end_ms > other.end_ms; }
  };

  void LraThreadLoop();
  void HeartbeatLoop();

  // Commits one envelope through the LRA pipeline core and resolves its LRAs.
  void CommitEnvelope(PlanEnvelope envelope) MEDEA_REQUIRES(mu_);

  // Completes tasks whose end time has passed.
  void CompleteDueTasks(SimTimeMs now) MEDEA_REQUIRES(mu_);

  const RuntimeConfig config_;

  mutable sync::Mutex mu_;
  ClusterState state_ MEDEA_GUARDED_BY(mu_);
  ConstraintManager manager_ MEDEA_GUARDED_BY(mu_);
  TaskScheduler task_sched_ MEDEA_GUARDED_BY(mu_);
  std::unique_ptr<LraScheduler> lra_scheduler_;  // used by the LRA thread only
  LraPipeline pipeline_ MEDEA_GUARDED_BY(mu_);
  std::priority_queue<Completion, std::vector<Completion>, std::greater<>> completions_
      MEDEA_GUARDED_BY(mu_);
  // Task-based jobs get synthetic application ids (mirrors Simulation).
  ApplicationId next_task_app_ MEDEA_GUARDED_BY(mu_){1u << 20};
  RuntimeMetrics metrics_ MEDEA_GUARDED_BY(mu_);
  bool stop_ MEDEA_GUARDED_BY(mu_) = false;            // stops the LRA thread
  bool heartbeat_stop_ MEDEA_GUARDED_BY(mu_) = false;  // stops the heartbeat
  bool lra_cycle_in_flight_ MEDEA_GUARDED_BY(mu_) = false;
  bool started_ = false;  // main thread only (Start/Stop/dtor)
  bool stopped_ = false;  // main thread only

  sync::CondVar lra_work_cv_;   // pipeline_ nonempty or stop_
  sync::CondVar heartbeat_cv_;  // heartbeat period pacing / shutdown wake
  sync::CondVar idle_cv_;       // LRA pipeline may have gone quiescent

  PlanQueue plan_queue_;
  std::chrono::steady_clock::time_point start_time_;  // set once in Start()

  sync::Thread lra_thread_;
  sync::Thread heartbeat_thread_;
};

}  // namespace medea::runtime

#endif  // SRC_RUNTIME_TWO_SCHEDULER_RUNTIME_H_
