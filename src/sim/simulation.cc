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
      lra_scheduler_(std::move(lra_scheduler)) {
  MEDEA_CHECK(lra_scheduler_ != nullptr);
  if (config_.metrics_sample_interval_ms > 0) {
    Push(config_.metrics_sample_interval_ms, EventType::kMetricsSample);
  }
}

Status Simulation::AddOperatorConstraint(const std::string& text) {
  if (std::find(operator_constraint_texts_.begin(), operator_constraint_texts_.end(), text) !=
      operator_constraint_texts_.end()) {
    return Status::Ok();  // deduplicated
  }
  auto result = manager_.AddFromText(text, ConstraintOrigin::kOperator);
  if (!result.ok()) {
    return result.status();
  }
  operator_constraint_texts_.push_back(text);
  return Status::Ok();
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
  // Snapshot first: releases mutate the container list.
  const std::vector<ContainerId> containers(state_.node(node).containers().begin(),
                                            state_.node(node).containers().end());
  // Lost LRA containers per application.
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
    } else if (task_scheduler_.IsRunning(c)) {
      const auto it = task_durations_.find(c);
      const SimTimeMs duration = it == task_durations_.end() ? 1000 : it->second;
      task_durations_.erase(c);
      MEDEA_CHECK(task_scheduler_.EvictTask(c, now_, duration).ok());
      ++metrics_.tasks_requeued_on_failure;
    }
  }
  state_.SetNodeAvailable(node, false);
  AuditStateMutation(state_, "node-down");
  // Resubmit the lost LRA containers through the LRA scheduler; their
  // constraints are still registered with the manager.
  for (auto& [app, request] : lost) {
    lra_queue_.push_back(PendingLra{std::move(request), now_, 0, /*is_failover=*/true});
  }
  EnsureLraCycleScheduled();
  EnsureTaskTickScheduled();
}

void Simulation::EnsureLraCycleScheduled() {
  if (lra_cycle_scheduled_ || lra_queue_.empty()) {
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
  if (lra_queue_.empty()) {
    return;
  }
  ++metrics_.cycles;

  // Batch for this cycle.
  size_t batch = lra_queue_.size();
  if (config_.max_lras_per_cycle > 0) {
    batch = std::min(batch, static_cast<size_t>(config_.max_lras_per_cycle));
  }
  PlacementProblem problem;
  problem.state = &state_;
  problem.manager = &manager_;
  std::vector<PendingLra> cycle_lras;
  for (size_t i = 0; i < batch; ++i) {
    cycle_lras.push_back(std::move(lra_queue_.front()));
    lra_queue_.pop_front();
    problem.lras.push_back(cycle_lras.back().request);
  }

  const PlacementPlan plan = lra_scheduler_->Place(problem);
  metrics_.lra_cycle_latency_ms.Add(plan.latency_ms);

  std::vector<bool> committed;
  task_scheduler_.CommitLraPlan(problem, plan, &committed);
  AuditStateMutation(state_, "lra-commit");

  for (size_t i = 0; i < cycle_lras.size(); ++i) {
    PendingLra& lra = cycle_lras[i];
    const bool planned = i < plan.lra_placed.size() && plan.lra_placed[i];
    bool landed = planned && committed[i];
    if (planned && !committed[i]) {
      ++metrics_.commit_conflicts;
      switch (config_.conflict_policy) {
        case ConflictPolicy::kResubmit:
          break;
        case ConflictPolicy::kKillTasks:
          landed = TryCommitWithEviction(lra.request, plan, static_cast<int>(i));
          break;
        case ConflictPolicy::kReserve: {
          // Hold the planned capacity so freed task resources accumulate
          // for the resubmitted LRA.
          std::vector<std::pair<NodeId, Resource>> holds;
          for (const Assignment& a : plan.assignments) {
            if (a.lra_index == static_cast<int>(i)) {
              holds.emplace_back(
                  a.node,
                  lra.request.containers[static_cast<size_t>(a.container_index)].demand);
            }
          }
          task_scheduler_.AddReservation(lra.request.app, holds);
          ++metrics_.reservations_made;
          break;
        }
      }
    }
    if (landed) {
      if (lra.is_failover) {
        ++metrics_.failover_replacements;
      } else {
        ++metrics_.lras_placed;
        metrics_.lra_placement_latency_ms.Add(static_cast<double>(now_ - lra.submit_time));
      }
      task_scheduler_.ReleaseReservation(lra.request.app);
      continue;
    }
    ++lra.attempts;
    if (lra.attempts >= config_.max_lra_attempts) {
      ++metrics_.lras_rejected;
      // A rejected failover leaves the application's surviving containers
      // deployed, and they stay constrained.
      if (!lra.is_failover) {
        manager_.RemoveApplicationConstraints(lra.request.app);
      }
      task_scheduler_.ReleaseReservation(lra.request.app);
    } else {
      ++metrics_.lra_resubmissions;
      lra_queue_.push_back(std::move(lra));
    }
  }
  EnsureLraCycleScheduled();
}

bool Simulation::TryCommitWithEviction(const LraRequest& lra, const PlacementPlan& plan,
                                       int lra_index) {
  // Aggregate the plan's demand per node for this LRA.
  std::unordered_map<uint32_t, Resource> per_node;
  for (const Assignment& a : plan.assignments) {
    if (a.lra_index == lra_index) {
      per_node[a.node.value] +=
          lra.containers[static_cast<size_t>(a.container_index)].demand;
    }
  }
  int killed = 0;
  for (const auto& [node_raw, needed] : per_node) {
    const NodeId node(node_raw);
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
      const auto duration_it = task_durations_.find(victim);
      const SimTimeMs duration =
          duration_it == task_durations_.end() ? 1000 : duration_it->second;
      task_durations_.erase(victim);
      MEDEA_CHECK(task_scheduler_.EvictTask(victim, now_, duration).ok());
      ++killed;
    }
  }
  // Re-commit just this LRA.
  PlacementProblem sub;
  sub.lras = {lra};
  sub.state = &state_;
  sub.manager = &manager_;
  PlacementPlan sub_plan;
  sub_plan.lra_placed = {true};
  for (const Assignment& a : plan.assignments) {
    if (a.lra_index == lra_index) {
      sub_plan.assignments.push_back(Assignment{0, a.container_index, a.node});
    }
  }
  std::vector<bool> committed;
  task_scheduler_.CommitLraPlan(sub, sub_plan, &committed);
  if (!committed.empty() && committed[0]) {
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
    task_durations_[allocation.container] = allocation.end_time - now_;
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
        lra_queue_.push_back(PendingLra{std::move(spec.request), now_, 0});
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
          task_durations_.erase(event.container);
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
  if (!events_.empty() || !lra_queue_.empty() || task_scheduler_.pending_tasks() > 0) {
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
