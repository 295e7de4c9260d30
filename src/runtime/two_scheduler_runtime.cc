#include "src/runtime/two_scheduler_runtime.h"

#include <algorithm>
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
    if (std::find(operator_constraint_texts_.begin(), operator_constraint_texts_.end(), text) !=
        operator_constraint_texts_.end()) {
      continue;  // deduplicated, like Simulation::AddOperatorConstraint
    }
    auto result = manager_.AddFromText(text, ConstraintOrigin::kOperator);
    if (!result.ok()) {
      MEDEA_LOG(kWarning) << "bad shared constraint: " << result.status().ToString();
      continue;
    }
    operator_constraint_texts_.push_back(text);
  }
  for (const std::string& text : spec.app_constraints) {
    auto result = manager_.AddFromText(text, ConstraintOrigin::kApplication, spec.request.app);
    if (!result.ok()) {
      MEDEA_LOG(kWarning) << "bad app constraint: " << result.status().ToString();
    }
  }
  pending_lras_.push_back(PendingLra{std::move(spec.request), NowMs(), 0, /*is_failover=*/false});
  lra_work_cv_.Signal();
}

void TwoSchedulerRuntime::SubmitTaskJob(std::vector<TaskRequest> tasks, const std::string& queue) {
  sync::MutexLock lock(&mu_);
  task_sched_.SubmitJob(next_task_app_, queue, std::move(tasks), NowMs());
  next_task_app_ = ApplicationId(next_task_app_.value + 1);
}

Status TwoSchedulerRuntime::AddOperatorConstraint(const std::string& text) {
  sync::MutexLock lock(&mu_);
  if (std::find(operator_constraint_texts_.begin(), operator_constraint_texts_.end(), text) !=
      operator_constraint_texts_.end()) {
    return Status::Ok();
  }
  auto result = manager_.AddFromText(text, ConstraintOrigin::kOperator);
  if (!result.ok()) {
    return result.status();
  }
  operator_constraint_texts_.push_back(text);
  return Status::Ok();
}

void TwoSchedulerRuntime::NodeDown(NodeId node) {
  sync::MutexLock lock(&mu_);
  const obs::ScopedSpan failover_span("runtime.node_down_failover", "runtime");
  obs::Count("runtime.node_down_events");
  const SimTimeMs now = NowMs();
  // Snapshot first: releases mutate the node's container list.
  const std::vector<ContainerId> containers(state_.node(node).containers().begin(),
                                            state_.node(node).containers().end());
  std::unordered_map<ApplicationId, LraRequest, std::hash<ApplicationId>> lost;
  for (ContainerId c : containers) {
    const ContainerInfo* info = state_.FindContainer(c);
    MEDEA_CHECK(info != nullptr);
    if (info->long_running) {
      LraRequest& request = lost[info->app];
      request.app = info->app;
      request.containers.push_back(ContainerRequest{info->resource, info->tags});
      ++metrics_.lra_containers_lost;
      MEDEA_CHECK(state_.Release(c).ok());
    } else if (task_sched_.IsRunning(c)) {
      const auto it = task_durations_.find(c);
      const SimTimeMs duration = it == task_durations_.end() ? 1000 : it->second;
      task_durations_.erase(c);
      MEDEA_CHECK(task_sched_.EvictTask(c, now, duration).ok());
      ++metrics_.tasks_requeued_on_failure;
    }
  }
  state_.SetNodeAvailable(node, false);
  ++state_version_;
  AuditStateMutation(state_, "runtime-node-down");
  // Failover: resubmit the lost containers through the LRA scheduler; their
  // constraints are still registered with the manager.
  for (auto& [app, request] : lost) {
    pending_lras_.push_back(PendingLra{std::move(request), now, 0, /*is_failover=*/true});
  }
  if (!lost.empty()) {
    lra_work_cv_.Signal();
  }
}

void TwoSchedulerRuntime::NodeUp(NodeId node) {
  sync::MutexLock lock(&mu_);
  state_.SetNodeAvailable(node, true);
  ++state_version_;
  AuditStateMutation(state_, "runtime-node-up");
}

bool TwoSchedulerRuntime::WaitLraIdle(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  sync::MutexLock lock(&mu_);
  // plan_queue_.size() takes the queue mutex while mu_ is held; the only
  // lock order used anywhere is mu_ -> queue (Push runs without mu_), so
  // this cannot deadlock.
  while (!pending_lras_.empty() || lra_cycle_in_flight_ || plan_queue_.size() > 0) {
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
  return pending_lras_.size();
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
      while (pending_lras_.empty() && !stop_) {
        lra_work_cv_.Wait(&mu_);
      }
      if (stop_) {
        return;
      }
      const obs::ScopedSpan snapshot_span("runtime.lra_snapshot", "runtime");
      const obs::ScopedLatencyTimer snapshot_timer("runtime.lra_snapshot_ms");
      size_t batch = pending_lras_.size();
      if (config_.max_lras_per_cycle > 0) {
        batch = std::min(batch, static_cast<size_t>(config_.max_lras_per_cycle));
      }
      const SimTimeMs batch_now = NowMs();
      for (size_t i = 0; i < batch; ++i) {
        PendingLra& lra = pending_lras_.front();
        // Fig. 11b's queuing delay: submit -> picked up by a scheduling cycle.
        obs::Observe("runtime.lra_queue_wait_ms",
                     static_cast<double>(batch_now - lra.submit_ms));
        envelope.lras.push_back(std::move(lra.request));
        envelope.attempts.push_back(lra.attempts);
        envelope.submit_ms.push_back(lra.submit_ms);
        envelope.is_failover.push_back(lra.is_failover);
        pending_lras_.pop_front();
      }
      obs::Count("runtime.lras_batched", static_cast<long long>(batch));
      envelope.snapshot_version = state_version_;
      snapshot_state.emplace(state_);
      snapshot_manager.emplace(manager_);
      lra_cycle_in_flight_ = true;
      ++metrics_.lra_cycles;
    }
    // The expensive part runs against the snapshot, outside the lock: the
    // heartbeat keeps allocating tasks while this cycle computes (§3).
    PlacementProblem problem;
    problem.lras = envelope.lras;
    problem.state = &*snapshot_state;
    problem.manager = &*snapshot_manager;
    {
      const obs::ScopedSpan cycle_span("runtime.lra_cycle", "runtime");
      const obs::ScopedLatencyTimer cycle_timer("runtime.lra_cycle_ms");
      envelope.plan = lra_scheduler_->Place(problem);
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
      ++state_version_;
      AuditStateMutation(state_, "runtime-task-tick");
    }
    for (const auto& allocation : allocations) {
      task_durations_[allocation.container] = allocation.end_time - now;
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
        ++state_version_;
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
      task_durations_.erase(container);
      ++metrics_.tasks_completed;
      ++state_version_;
    }
  }
}

bool TwoSchedulerRuntime::RevalidateLra(const PlanEnvelope& envelope, size_t lra_index) const {
  // Aggregate the plan's demand per node for this LRA and check it still
  // fits the live free capacity on live (up) nodes.
  std::unordered_map<uint32_t, Resource> per_node;
  const LraRequest& lra = envelope.lras[lra_index];
  for (const Assignment& a : envelope.plan.assignments) {
    if (a.lra_index != static_cast<int>(lra_index)) {
      continue;
    }
    if (!a.node.IsValid() || static_cast<size_t>(a.node.value) >= state_.num_nodes() ||
        a.container_index < 0 ||
        static_cast<size_t>(a.container_index) >= lra.containers.size()) {
      return false;
    }
    per_node[a.node.value] += lra.containers[static_cast<size_t>(a.container_index)].demand;
  }
  for (const auto& [node_raw, needed] : per_node) {
    const Node& node = state_.node(NodeId(node_raw));
    if (!node.available() || !node.Free().Fits(needed)) {
      return false;
    }
  }
  return true;
}

void TwoSchedulerRuntime::CommitEnvelope(PlanEnvelope envelope) {
  const obs::ScopedSpan commit_span("runtime.commit", "runtime");
  const obs::ScopedLatencyTimer commit_timer("runtime.commit_ms");
  const bool stale = envelope.snapshot_version != state_version_;
  if (stale) {
    ++metrics_.stale_plans;
    obs::Count("runtime.stale_plans");
  }
  PlacementPlan plan = envelope.plan;
  if (stale) {
    // Cheap revalidation pre-pass: demote LRAs whose planned nodes no longer
    // fit, so the atomic commit below doesn't do allocate-then-rollback work
    // for plans that are visibly dead.
    const obs::ScopedSpan revalidate_span("runtime.revalidate", "runtime");
    const obs::ScopedLatencyTimer revalidate_timer("runtime.revalidate_ms");
    for (size_t i = 0; i < envelope.lras.size(); ++i) {
      const bool planned = i < plan.lra_placed.size() && plan.lra_placed[i];
      if (planned && !RevalidateLra(envelope, i)) {
        plan.lra_placed[i] = false;
        ++metrics_.stale_lras_revalidated;
        obs::Count("runtime.stale_lras_revalidated");
      }
    }
  }
  PlacementProblem problem;
  problem.lras = envelope.lras;
  problem.state = &state_;
  problem.manager = &manager_;
  std::vector<bool> committed;
  task_sched_.CommitLraPlan(problem, plan, &committed);
  ++state_version_;
  AuditStateMutation(state_, "runtime-lra-commit");
  ++metrics_.plans_committed;
  obs::Count("runtime.plans_committed");

  for (size_t i = 0; i < envelope.lras.size(); ++i) {
    const bool originally_planned =
        i < envelope.plan.lra_placed.size() && envelope.plan.lra_placed[i];
    const bool planned = i < plan.lra_placed.size() && plan.lra_placed[i];
    const bool landed = planned && i < committed.size() && committed[i];
    if (landed) {
      if (envelope.is_failover[i]) {
        ++metrics_.failover_replacements;
        obs::Count("runtime.failover_replacements");
      } else {
        ++metrics_.lras_placed;
        obs::Count("runtime.lras_placed");
      }
      // End-to-end placement latency: submission -> committed on the cluster.
      obs::Observe("runtime.lra_commit_latency_ms",
                   static_cast<double>(NowMs() - envelope.submit_ms[i]));
      continue;
    }
    if (originally_planned) {
      ++metrics_.commit_conflicts;  // plan existed but the cluster moved on
      obs::Count("runtime.commit_conflicts");
    }
    RequeueOrReject(PendingLra{std::move(envelope.lras[i]), envelope.submit_ms[i],
                               envelope.attempts[i] + 1, envelope.is_failover[i]});
  }
}

void TwoSchedulerRuntime::RequeueOrReject(PendingLra lra) {
  if (lra.attempts >= config_.max_lra_attempts) {
    ++metrics_.lras_rejected;
    // A rejected failover leaves the application's surviving containers
    // deployed, and they stay constrained.
    if (!lra.is_failover) {
      manager_.RemoveApplicationConstraints(lra.request.app);
    }
    return;
  }
  ++metrics_.lra_resubmissions;
  pending_lras_.push_back(std::move(lra));
  lra_work_cv_.Signal();
}

}  // namespace medea::runtime
