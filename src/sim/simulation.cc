#include "src/sim/simulation.h"

#include <algorithm>

#include <cstdio>

#include "src/common/logging.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace medea {

Simulation::Simulation(SimConfig config, std::unique_ptr<LraScheduler> lra_scheduler)
    : config_(config),
      state_(ClusterBuilder()
                 .NumNodes(config.num_nodes)
                 .NumRacks(config.num_racks)
                 .NumUpgradeDomains(config.num_upgrade_domains)
                 .NumServiceUnits(config.num_service_units)
                 .NodeCapacity(config.node_capacity)
                 .Build()),
      manager_(state_.groups_ptr()),
      task_scheduler_(&state_),
      lra_scheduler_(std::move(lra_scheduler)),
      lra_pipeline_(config.max_lra_attempts) {
  MEDEA_CHECK(lra_scheduler_ != nullptr);
  if (config_.metrics_sample_interval_ms > 0) {
    Push(config_.metrics_sample_interval_ms, EventType::kMetricsSample);
  }
}

Status Simulation::AddOperatorConstraint(const std::string& text) {
  return manager_.AddOperatorConstraint(text);
}

void Simulation::Push(SimTimeMs time, EventType type, int payload_index, ContainerId container,
                      ApplicationId app) {
  MEDEA_CHECK(time >= now_);
  Event event;
  event.time = time;
  event.seq = next_seq_++;
  event.type = type;
  event.payload_index = payload_index;
  event.container = container;
  event.app = app;
  events_.push(event);
}

void Simulation::SubmitLraAt(SimTimeMs t, LraSpec spec) {
  for (const std::string& text : spec.shared_constraints) {
    const Status status = AddOperatorConstraint(text);
    if (!status.ok()) {
      MEDEA_LOG(kWarning) << "bad shared constraint: " << status.ToString();
    }
  }
  lra_payloads_.push_back(std::move(spec));
  Push(t, EventType::kSubmitLra, static_cast<int>(lra_payloads_.size()) - 1);
}

void Simulation::SubmitTaskJobAt(SimTimeMs t, std::vector<TaskRequest> tasks,
                                 const std::string& queue) {
  task_payloads_.push_back(PendingTaskJob{std::move(tasks), queue});
  Push(t, EventType::kSubmitTaskJob, static_cast<int>(task_payloads_.size()) - 1);
}

void Simulation::RemoveLraAt(SimTimeMs t, ApplicationId app) {
  Push(t, EventType::kRemoveLra, -1, ContainerId::Invalid(), app);
}

void Simulation::NodeDownAt(SimTimeMs t, NodeId node) {
  Event event;
  event.time = t;
  event.seq = next_seq_++;
  event.type = EventType::kNodeDown;
  event.node = node;
  MEDEA_CHECK(t >= now_);
  events_.push(event);
}

void Simulation::NodeUpAt(SimTimeMs t, NodeId node) {
  Event event;
  event.time = t;
  event.seq = next_seq_++;
  event.type = EventType::kNodeUp;
  event.node = node;
  MEDEA_CHECK(t >= now_);
  events_.push(event);
}

void Simulation::HandleNodeDown(NodeId node) {
  std::vector<ContainerId> tasks;
  runtime::LostLras lost = runtime::LraPipeline::FailNode(state_, node, &tasks);
  for (ContainerId c : tasks) {
    if (task_scheduler_.IsRunning(c)) {
      RequeueTask(c);
      ++metrics_.tasks_requeued_on_failure;
    }
  }
  AuditStateMutation(state_, "node-down");
  metrics_.lra_containers_lost +=
      static_cast<int>(lra_pipeline_.SubmitFailover(std::move(lost), now_));
  EnsureLraCycleScheduled();
  EnsureTaskTickScheduled();
}

void Simulation::RequeueTask(ContainerId container) {
  MEDEA_CHECK(task_scheduler_.EvictTask(container, now_).ok());
}

void Simulation::EnsureLraCycleScheduled() {
  if (lra_cycle_scheduled_ || lra_pipeline_.empty()) {
    return;
  }
  // Next multiple of the scheduling interval strictly after now.
  const SimTimeMs interval = std::max<SimTimeMs>(config_.lra_interval_ms, 1);
  const SimTimeMs next = (now_ / interval + 1) * interval;
  Push(next, EventType::kLraCycle);
  lra_cycle_scheduled_ = true;
}

void Simulation::EnsureTaskTickScheduled() {
  if (task_tick_scheduled_ || task_scheduler_.pending_tasks() == 0) {
    return;
  }
  const SimTimeMs heartbeat = std::max<SimTimeMs>(config_.task_heartbeat_ms, 1);
  const SimTimeMs next = (now_ / heartbeat + 1) * heartbeat;
  Push(next, EventType::kTaskTick);
  task_tick_scheduled_ = true;
}

void Simulation::RunLraCycle() {
  lra_cycle_scheduled_ = false;
  if (lra_pipeline_.empty()) {
    return;
  }
  ++metrics_.cycles;

  runtime::LraBatch batch = lra_pipeline_.TakeBatch(config_.max_lras_per_cycle);
  PlacementPlan plan = runtime::LraPipeline::Plan(batch, state_, manager_, *lra_scheduler_);
  metrics_.lra_cycle_latency_ms.Add(plan.latency_ms);

  // Planned on the live state itself, so the plan is never stale.
  runtime::LraCommit commit =
      runtime::LraPipeline::Commit(batch, plan, state_, /*stale=*/false);
  AuditStateMutation(state_, "lra-commit");
  metrics_.commit_conflicts += commit.conflicts;

  // The sim-only §5.4 step between commit and resolve: the conflict policy
  // for each planned LRA that did not land.
  for (size_t i = 0; i < batch.size(); ++i) {
    if (i >= plan.lra_placed.size() || !plan.lra_placed[i] || commit.landed[i]) {
      continue;
    }
    switch (config_.conflict_policy) {
      case ConflictPolicy::kResubmit:
        break;
      case ConflictPolicy::kKillTasks:
        commit.landed[i] = TryCommitWithEviction(batch, plan, i);
        break;
      case ConflictPolicy::kReserve: {
        // Hold the planned capacity so freed task resources accumulate
        // for the resubmitted LRA.
        const auto demand = runtime::LraPipeline::PlannedDemand(batch.lras[i], plan, i).value();
        task_scheduler_.AddReservation(batch.lras[i].app, {demand.begin(), demand.end()});
        ++metrics_.reservations_made;
        break;
      }
    }
  }

  using runtime::LraVerdict;
  const runtime::LraResolution resolution = lra_pipeline_.Resolve(batch, commit.landed);
  metrics_.lras_placed += resolution.Count(LraVerdict::kPlaced);
  metrics_.failover_replacements += resolution.Count(LraVerdict::kFailoverPlaced);
  metrics_.lra_resubmissions += resolution.Count(LraVerdict::kRequeued);
  metrics_.lras_rejected +=
      resolution.Count(LraVerdict::kRejected) + resolution.Count(LraVerdict::kFailoverRejected);
  for (size_t i = 0; i < batch.size(); ++i) {
    const LraVerdict verdict = resolution.verdicts[i];
    if (verdict == LraVerdict::kPlaced) {
      metrics_.lra_placement_latency_ms.Add(static_cast<double>(now_ - batch.submit_ms[i]));
    }
    if (verdict == LraVerdict::kRejected) {
      manager_.RemoveApplicationConstraints(batch.lras[i].app);
    }
    if (verdict != LraVerdict::kRequeued) {
      task_scheduler_.ReleaseReservation(batch.lras[i].app);  // a requeued LRA keeps its hold
    }
  }
  EnsureLraCycleScheduled();
}

bool Simulation::TryCommitWithEviction(runtime::LraBatch& batch, const PlacementPlan& plan,
                                       size_t lra_index) {
  const auto demand = runtime::LraPipeline::PlannedDemand(batch.lras[lra_index], plan, lra_index);
  int killed = 0;
  for (const auto& [node, needed] : demand.value()) {
    while (!state_.node(node).Free().Fits(needed)) {
      // Find a short-running container on this node to evict.
      ContainerId victim = ContainerId::Invalid();
      for (ContainerId c : state_.node(node).containers()) {
        const ContainerInfo* info = state_.FindContainer(c);
        if (!info->long_running && task_scheduler_.IsRunning(c)) {
          victim = c;
          break;
        }
      }
      if (!victim.IsValid()) {
        return false;  // nothing left to kill; fall back to resubmission
      }
      RequeueTask(victim);
      ++killed;
    }
  }
  // Re-commit just this LRA.
  PlacementPlan retry = plan;
  retry.lra_placed.assign(batch.size(), false);
  retry.lra_placed[lra_index] = true;
  if (runtime::LraPipeline::Commit(batch, retry, state_, /*stale=*/false).landed[lra_index]) {
    metrics_.tasks_killed += killed;
    EnsureTaskTickScheduled();  // requeued victims need a heartbeat
    return true;
  }
  return false;
}

void Simulation::EnsureMigrationScheduled() {
  if (migration_scheduled_ || config_.migration_interval_ms <= 0 ||
      state_.num_long_running_containers() == 0) {
    return;
  }
  const SimTimeMs interval = config_.migration_interval_ms;
  Push((now_ / interval + 1) * interval, EventType::kMigrationCycle);
  migration_scheduled_ = true;
}

void Simulation::RunMigrationCycle() {
  migration_scheduled_ = false;
  const MigrationPlanner planner(config_.migration);
  const MigrationPlan plan = planner.Plan(state_, manager_);
  metrics_.migrations += MigrationPlanner::Apply(plan, state_);
  AuditStateMutation(state_, "migration");
  EnsureMigrationScheduled();
}

void Simulation::RunTaskTick() {
  task_tick_scheduled_ = false;
  const auto allocations = task_scheduler_.Tick(now_);
  for (const auto& allocation : allocations) {
    Push(allocation.end_time, EventType::kTaskComplete, -1, allocation.container);
  }
  EnsureTaskTickScheduled();
}

void Simulation::RunUntil(SimTimeMs t) {
  // Stable counter name per event type (sim.events.<type>).
  const auto event_counter_name = [](EventType type) -> const char* {
    switch (type) {
      case EventType::kSubmitLra:
        return "sim.events.submit_lra";
      case EventType::kSubmitTaskJob:
        return "sim.events.submit_task_job";
      case EventType::kRemoveLra:
        return "sim.events.remove_lra";
      case EventType::kLraCycle:
        return "sim.events.lra_cycle";
      case EventType::kMigrationCycle:
        return "sim.events.migration_cycle";
      case EventType::kMetricsSample:
        return "sim.events.metrics_sample";
      case EventType::kNodeDown:
        return "sim.events.node_down";
      case EventType::kNodeUp:
        return "sim.events.node_up";
      case EventType::kTaskTick:
        return "sim.events.task_tick";
      case EventType::kTaskComplete:
        return "sim.events.task_complete";
    }
    return "sim.events.unknown";
  };
  while (!events_.empty() && events_.top().time <= t) {
    const Event event = events_.top();
    events_.pop();
    MEDEA_CHECK(event.time >= now_);
    now_ = event.time;
    obs::Count(event_counter_name(event.type));
    const obs::ScopedSpan dispatch_span("sim.event_dispatch", "sim");
    const obs::ScopedLatencyTimer dispatch_timer("sim.event_dispatch_ms");
    switch (event.type) {
      case EventType::kSubmitLra: {
        LraSpec& spec = lra_payloads_[static_cast<size_t>(event.payload_index)];
        for (const std::string& text : spec.app_constraints) {
          auto result = manager_.AddFromText(text, ConstraintOrigin::kApplication,
                                             spec.request.app);
          if (!result.ok()) {
            MEDEA_LOG(kWarning) << "bad app constraint: " << result.status().ToString();
          }
        }
        lra_pipeline_.Submit(std::move(spec.request), now_);
        EnsureLraCycleScheduled();
        break;
      }
      case EventType::kSubmitTaskJob: {
        PendingTaskJob& job = task_payloads_[static_cast<size_t>(event.payload_index)];
        task_scheduler_.SubmitJob(next_task_app_, job.queue, std::move(job.tasks), now_);
        next_task_app_ = ApplicationId(next_task_app_.value + 1);
        EnsureTaskTickScheduled();
        break;
      }
      case EventType::kRemoveLra:
        // Nothing of a removed application may be placed again: drop its
        // queued requests (a pending failover would re-deploy it) and any
        // kReserve hold.
        lra_pipeline_.Cancel(event.app);
        task_scheduler_.ReleaseReservation(event.app);
        state_.ReleaseApplication(event.app);
        manager_.RemoveApplicationConstraints(event.app);
        AuditStateMutation(state_, "remove-lra");
        break;
      case EventType::kLraCycle:
        RunLraCycle();
        EnsureMigrationScheduled();
        break;
      case EventType::kMigrationCycle:
        RunMigrationCycle();
        break;
      case EventType::kMetricsSample:
        TakeMetricsSample();
        break;
      case EventType::kNodeDown:
        HandleNodeDown(event.node);
        break;
      case EventType::kNodeUp:
        state_.SetNodeAvailable(event.node, true);
        EnsureTaskTickScheduled();
        break;
      case EventType::kTaskTick:
        RunTaskTick();
        break;
      case EventType::kTaskComplete:
        // The container may have been evicted by the kKillTasks conflict
        // policy; its stale completion event is then a no-op.
        if (task_scheduler_.IsRunning(event.container)) {
          task_scheduler_.CompleteTask(event.container);
          // Freed resources may unblock queued tasks.
          EnsureTaskTickScheduled();
        }
        break;
    }
  }
  now_ = std::max(now_, t);
}

void Simulation::RunUntilQuiescent(SimTimeMs max_t) {
  while (!events_.empty() && events_.top().time <= max_t) {
    RunUntil(events_.top().time);
  }
}

void Simulation::TakeMetricsSample() {
  MetricsSample sample;
  sample.time_ms = now_;
  sample.violation_fraction = EvaluateViolations().ViolationFraction();
  sample.memory_utilization = MemoryUtilization();
  sample.fragmented_fraction = state_.FragmentedNodeFraction(Resource(2048, 1));
  sample.lra_containers = state_.num_long_running_containers();
  sample.task_containers = state_.num_containers() - sample.lra_containers;
  samples_.push_back(sample);
  // Keep sampling only while other work is pending or scheduled — a
  // self-rescheduling sampler would make RunUntilQuiescent spin forever.
  if (!events_.empty() || !lra_pipeline_.empty() || task_scheduler_.pending_tasks() > 0) {
    Push(now_ + config_.metrics_sample_interval_ms, EventType::kMetricsSample);
  }
}

Status Simulation::WriteSamplesCsv(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::Unavailable("cannot open " + path);
  }
  std::fprintf(file,
               "time_ms,violation_fraction,memory_utilization,fragmented_fraction,"
               "lra_containers,task_containers\n");
  for (const MetricsSample& s : samples_) {
    std::fprintf(file, "%lld,%.6f,%.6f,%.6f,%zu,%zu\n",
                 static_cast<long long>(s.time_ms), s.violation_fraction,
                 s.memory_utilization, s.fragmented_fraction, s.lra_containers,
                 s.task_containers);
  }
  std::fclose(file);
  return Status::Ok();
}

double Simulation::MemoryUtilization() const {
  const Resource total = state_.TotalCapacity();
  if (total.memory_mb == 0) {
    return 0.0;
  }
  return static_cast<double>(state_.TotalUsed().memory_mb) /
         static_cast<double>(total.memory_mb);
}

}  // namespace medea
