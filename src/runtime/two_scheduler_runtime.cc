#include "src/runtime/two_scheduler_runtime.h"

#include <optional>
#include <utility>

#include "src/common/logging.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace medea::runtime {

TwoSchedulerRuntime::TwoSchedulerRuntime(RuntimeConfig config,
                                         std::unique_ptr<LraScheduler> lra_scheduler)
    : config_(std::move(config)),
      state_(ClusterBuilder()
                 .NumNodes(config_.num_nodes)
                 .NumRacks(config_.num_racks)
                 .NumUpgradeDomains(config_.num_upgrade_domains)
                 .NumServiceUnits(config_.num_service_units)
                 .NodeCapacity(config_.node_capacity)
                 .Build()),
      manager_(state_.groups_ptr()),
      task_sched_(&state_, config_.task_queues, &manager_),
      lra_scheduler_(std::move(lra_scheduler)),
      pipeline_(config_.max_lra_attempts),
      plan_queue_(config_.plan_queue_capacity) {
  MEDEA_CHECK(lra_scheduler_ != nullptr);
}

TwoSchedulerRuntime::~TwoSchedulerRuntime() { Stop(); }

void TwoSchedulerRuntime::Start() {
  MEDEA_CHECK(!started_);
  started_ = true;
  start_time_ = std::chrono::steady_clock::now();
  lra_thread_ = sync::Thread("medea-lra", [this] { LraThreadLoop(); });
  heartbeat_thread_ = sync::Thread("medea-heartbeat", [this] { HeartbeatLoop(); });
}

void TwoSchedulerRuntime::Stop() {
  if (!started_ || stopped_) {
    return;
  }
  stopped_ = true;
  {
    sync::MutexLock lock(&mu_);
    stop_ = true;
    lra_work_cv_.SignalAll();
  }
  // Closing the queue unblocks an LRA thread stuck in a backpressure Push;
  // already-queued envelopes remain poppable for the drain below.
  plan_queue_.Close();
  lra_thread_.Join();
  // Commit every plan that was computed but not yet consumed, so no work the
  // LRA scheduler finished is silently dropped at shutdown.
  PlanEnvelope envelope;
  while (plan_queue_.TryPop(&envelope)) {
    sync::MutexLock lock(&mu_);
    CommitEnvelope(std::move(envelope));
    envelope = PlanEnvelope{};
  }
  {
    sync::MutexLock lock(&mu_);
    heartbeat_stop_ = true;
    heartbeat_cv_.SignalAll();
  }
  heartbeat_thread_.Join();
}

SimTimeMs TwoSchedulerRuntime::NowMs() const {
  return static_cast<SimTimeMs>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                    std::chrono::steady_clock::now() - start_time_)
                                    .count());
}

void TwoSchedulerRuntime::SubmitLra(LraSpec spec) {
  sync::MutexLock lock(&mu_);
  for (const std::string& text : spec.shared_constraints) {
    const Status status = manager_.AddOperatorConstraint(text);
    if (!status.ok()) {
      MEDEA_LOG(kWarning) << "bad shared constraint: " << status.ToString();
    }
  }
  for (const std::string& text : spec.app_constraints) {
    auto result = manager_.AddFromText(text, ConstraintOrigin::kApplication, spec.request.app);
    if (!result.ok()) {
      MEDEA_LOG(kWarning) << "bad app constraint: " << result.status().ToString();
    }
  }
  pipeline_.Submit(std::move(spec.request), NowMs());
  lra_work_cv_.Signal();
}

void TwoSchedulerRuntime::SubmitTaskJob(std::vector<TaskRequest> tasks, const std::string& queue) {
  sync::MutexLock lock(&mu_);
  task_sched_.SubmitJob(next_task_app_, queue, std::move(tasks), NowMs());
  next_task_app_ = ApplicationId(next_task_app_.value + 1);
}

Status TwoSchedulerRuntime::AddOperatorConstraint(const std::string& text) {
  sync::MutexLock lock(&mu_);
  return manager_.AddOperatorConstraint(text);
}

void TwoSchedulerRuntime::NodeDown(NodeId node) {
  sync::MutexLock lock(&mu_);
  const obs::ScopedSpan failover_span("runtime.node_down_failover", "runtime");
  obs::Count("runtime.node_down_events");
  const SimTimeMs now = NowMs();
  std::vector<ContainerId> tasks;
  LostLras lost = LraPipeline::FailNode(state_, node, &tasks);
  for (ContainerId c : tasks) {
    if (task_sched_.IsRunning(c)) {
      MEDEA_CHECK(task_sched_.EvictTask(c, now).ok());
      ++metrics_.tasks_requeued_on_failure;
    }
  }
  AuditStateMutation(state_, "runtime-node-down");
  metrics_.lra_containers_lost += static_cast<int>(pipeline_.SubmitFailover(std::move(lost), now));
  lra_work_cv_.Signal();
}

void TwoSchedulerRuntime::NodeUp(NodeId node) {
  sync::MutexLock lock(&mu_);
  state_.SetNodeAvailable(node, true);
  AuditStateMutation(state_, "runtime-node-up");
}

bool TwoSchedulerRuntime::WaitLraIdle(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  sync::MutexLock lock(&mu_);
  // plan_queue_.size() takes the queue mutex while mu_ is held; the only
  // lock order used anywhere is mu_ -> queue (Push runs without mu_), so
  // this cannot deadlock.
  while (!pipeline_.empty() || lra_cycle_in_flight_ || plan_queue_.size() > 0) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      return false;
    }
    idle_cv_.WaitFor(&mu_, deadline - now);
  }
  return true;
}

RuntimeMetrics TwoSchedulerRuntime::metrics() const {
  sync::MutexLock lock(&mu_);
  return metrics_;
}

ClusterState TwoSchedulerRuntime::SnapshotState() const {
  sync::MutexLock lock(&mu_);
  return state_;
}

size_t TwoSchedulerRuntime::pending_lras() const {
  sync::MutexLock lock(&mu_);
  return pipeline_.size();
}

size_t TwoSchedulerRuntime::pending_tasks() const {
  sync::MutexLock lock(&mu_);
  return task_sched_.pending_tasks();
}

size_t TwoSchedulerRuntime::running_tasks() const {
  sync::MutexLock lock(&mu_);
  return task_sched_.running_tasks();
}

void TwoSchedulerRuntime::LraThreadLoop() {
  obs::SetCurrentThreadName("medea-lra");
  while (true) {
    PlanEnvelope envelope;
    // The snapshots the scheduler will run against, taken under the lock.
    std::optional<ClusterState> snapshot_state;
    std::optional<ConstraintManager> snapshot_manager;
    {
      sync::MutexLock lock(&mu_);
      while (pipeline_.empty() && !stop_) {
        lra_work_cv_.Wait(&mu_);
      }
      if (stop_) {
        return;
      }
      const obs::ScopedSpan snapshot_span("runtime.lra_snapshot", "runtime");
      const obs::ScopedLatencyTimer snapshot_timer("runtime.lra_snapshot_ms");
      envelope.batch = pipeline_.TakeBatch(config_.max_lras_per_cycle);
      const SimTimeMs batch_now = NowMs();
      for (const SimTimeMs submit_ms : envelope.batch.submit_ms) {
        // Fig. 11b's queuing delay: submit -> picked up by a scheduling cycle.
        obs::Observe("runtime.lra_queue_wait_ms", static_cast<double>(batch_now - submit_ms));
      }
      obs::Count("runtime.lras_batched", static_cast<long long>(envelope.batch.size()));
      envelope.snapshot_version = state_.version();
      snapshot_state.emplace(state_);
      snapshot_manager.emplace(manager_);
      lra_cycle_in_flight_ = true;
      ++metrics_.lra_cycles;
    }
    // The expensive part runs against the snapshot, outside the lock: the
    // heartbeat keeps allocating tasks while this cycle computes (§3).
    {
      const obs::ScopedSpan cycle_span("runtime.lra_cycle", "runtime");
      const obs::ScopedLatencyTimer cycle_timer("runtime.lra_cycle_ms");
      envelope.plan = LraPipeline::Plan(envelope.batch, *snapshot_state, *snapshot_manager,
                                        *lra_scheduler_);
    }
    // The Push blocks under backpressure; its span makes a full plan queue
    // directly visible in the trace.
    const bool pushed = [&] {
      const obs::ScopedSpan push_span("runtime.plan_queue_push", "runtime");
      return plan_queue_.Push(std::move(envelope));
    }();
    {
      sync::MutexLock lock(&mu_);
      lra_cycle_in_flight_ = false;
      idle_cv_.SignalAll();
      if (!pushed) {
        return;  // queue closed: shutting down
      }
    }
  }
}

void TwoSchedulerRuntime::HeartbeatLoop() {
  obs::SetCurrentThreadName("medea-heartbeat");
  while (true) {
    sync::MutexLock lock(&mu_);
    if (heartbeat_stop_) {
      return;
    }
    heartbeat_cv_.WaitFor(&mu_, config_.heartbeat_period);
    if (heartbeat_stop_) {
      return;
    }
    const obs::ScopedSpan beat_span("runtime.heartbeat", "runtime");
    const obs::ScopedLatencyTimer beat_timer("runtime.heartbeat_ms");
    const SimTimeMs now = NowMs();
    ++metrics_.heartbeats;
    CompleteDueTasks(now);
    // Commit every plan the LRA thread has finished since the last beat.
    PlanEnvelope envelope;
    while (plan_queue_.TryPop(&envelope)) {
      CommitEnvelope(std::move(envelope));
      envelope = PlanEnvelope{};
    }
    // Task-based heartbeat: allocate as much of the queue as fits.
    std::vector<TaskScheduler::TaskAllocation> allocations;
    {
      const obs::ScopedSpan tick_span("runtime.task_tick", "runtime");
      allocations = task_sched_.Tick(now);
    }
    if (!allocations.empty()) {
      AuditStateMutation(state_, "runtime-task-tick");
    }
    for (const auto& allocation : allocations) {
      completions_.push(Completion{allocation.end_time, allocation.container});
    }
    if (config_.migration_every_heartbeats > 0 &&
        metrics_.heartbeats % config_.migration_every_heartbeats == 0 &&
        state_.num_long_running_containers() > 0) {
      const obs::ScopedSpan migration_span("runtime.migration", "runtime");
      const MigrationPlanner planner(config_.migration);
      const MigrationPlan plan = planner.Plan(state_, manager_);
      const int moved = MigrationPlanner::Apply(plan, state_);
      metrics_.migrations += moved;
      obs::Count("runtime.migrations", moved);
      if (moved > 0) {
        AuditStateMutation(state_, "runtime-migration");
      }
    }
    idle_cv_.SignalAll();
  }
}

void TwoSchedulerRuntime::CompleteDueTasks(SimTimeMs now) {
  while (!completions_.empty() && completions_.top().end_ms <= now) {
    const ContainerId container = completions_.top().container;
    completions_.pop();
    // The container may have been evicted (node failure) in the meantime;
    // its stale completion is then a no-op.
    if (task_sched_.IsRunning(container)) {
      task_sched_.CompleteTask(container);
      ++metrics_.tasks_completed;
    }
  }
}

void TwoSchedulerRuntime::CommitEnvelope(PlanEnvelope envelope) {
  const obs::ScopedSpan commit_span("runtime.commit", "runtime");
  const obs::ScopedLatencyTimer commit_timer("runtime.commit_ms");
  const bool stale = envelope.snapshot_version != state_.version();
  if (stale) {
    ++metrics_.stale_plans;
    obs::Count("runtime.stale_plans");
  }
  LraBatch& batch = envelope.batch;
  const LraCommit commit = LraPipeline::Commit(batch, envelope.plan, state_, stale);
  AuditStateMutation(state_, "runtime-lra-commit");
  ++metrics_.plans_committed;
  obs::Count("runtime.plans_committed");
  metrics_.stale_lras_revalidated += commit.demoted;
  metrics_.commit_conflicts += commit.conflicts;
  if (commit.demoted > 0) {
    obs::Count("runtime.stale_lras_revalidated", commit.demoted);
  }
  if (commit.conflicts > 0) {
    obs::Count("runtime.commit_conflicts", commit.conflicts);
  }

  const LraResolution resolution = pipeline_.Resolve(batch, commit.landed);
  metrics_.lras_placed += resolution.Count(LraVerdict::kPlaced);
  metrics_.failover_replacements += resolution.Count(LraVerdict::kFailoverPlaced);
  metrics_.lra_resubmissions += resolution.Count(LraVerdict::kRequeued);
  metrics_.lras_rejected +=
      resolution.Count(LraVerdict::kRejected) + resolution.Count(LraVerdict::kFailoverRejected);
  const SimTimeMs now = NowMs();
  for (size_t i = 0; i < batch.size(); ++i) {
    const LraVerdict verdict = resolution.verdicts[i];
    if (commit.landed[i]) {
      obs::Count(verdict == LraVerdict::kPlaced ? "runtime.lras_placed"
                                                : "runtime.failover_replacements");
      // End-to-end placement latency: submission -> committed on the cluster.
      obs::Observe("runtime.lra_commit_latency_ms",
                   static_cast<double>(now - batch.submit_ms[i]));
    }
    if (verdict == LraVerdict::kRejected) {
      manager_.RemoveApplicationConstraints(batch.lras[i].app);
    }
  }
  if (resolution.Count(LraVerdict::kRequeued) > 0) {
    lra_work_cv_.Signal();
  }
}

}  // namespace medea::runtime
