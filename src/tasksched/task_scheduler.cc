#include "src/tasksched/task_scheduler.h"

#include <algorithm>
#include "src/obs/metrics.h"

#include "src/common/logging.h"
#include "src/core/violation.h"

namespace medea {

TaskScheduler::TaskScheduler(ClusterState* state, std::vector<QueueConfig> queues,
                             const ConstraintManager* manager)
    : state_(state), manager_(manager) {
  MEDEA_CHECK(state_ != nullptr);
  if (queues.empty()) {
    queues.push_back(QueueConfig{"default", 1.0});
  }
  for (auto& config : queues) {
    queue_index_.emplace(config.name, queues_.size());
    Queue queue;
    queue.config = std::move(config);
    queues_.push_back(std::move(queue));
  }
}

void TaskScheduler::SubmitJob(ApplicationId app, const std::string& queue,
                              std::vector<TaskRequest> tasks, SimTimeMs now) {
  const auto it = queue_index_.find(queue);
  Queue& q = queues_[it == queue_index_.end() ? 0 : it->second];
  for (TaskRequest& task : tasks) {
    q.pending.push_back(PendingTask{app, std::move(task), now});
  }
}

Resource TaskScheduler::QueueCap(const Queue& queue) const {
  const Resource total = state_->TotalCapacity();
  return Resource(
      static_cast<int64_t>(static_cast<double>(total.memory_mb) * queue.config.capacity_fraction),
      static_cast<int32_t>(static_cast<double>(total.vcores) * queue.config.capacity_fraction));
}

NodeId TaskScheduler::PickNode(const TaskRequest& request) const {
  // Feasible nodes, least-loaded first.
  std::vector<NodeId> feasible;
  state_->ForEachNode([&](const Node& node) {
    if (!node.available()) {
      return;
    }
    // Reserved capacity is invisible to task allocation.
    const Resource free = node.Free() - ReservedOn(node.id());
    if (!free.Fits(request.demand) || free.IsNegative()) {
      return;
    }
    feasible.push_back(node.id());
  });
  if (feasible.empty()) {
    return NodeId::Invalid();
  }
  std::stable_sort(feasible.begin(), feasible.end(), [&](NodeId a, NodeId b) {
    return state_->node(a).used().DominantShareOf(state_->node(a).capacity()) <
           state_->node(b).used().DominantShareOf(state_->node(b).capacity());
  });

  // Untagged tasks (the vast majority): plain least-loaded.
  if (request.tags.empty() || manager_ == nullptr) {
    return feasible[0];
  }

  // Tagged task: among the least-loaded feasible nodes, minimize the
  // violation extent of the constraints whose subject this task matches —
  // heuristic only, never blocking (§5.4).
  std::vector<std::pair<ConstraintId, const PlacementConstraint*>> own;
  for (const auto& entry : manager_->Effective()) {
    for (const auto* atomic : entry.second->AllAtomics()) {
      if (atomic->subject.MatchedBy(request.tags)) {
        own.push_back(entry);
        break;
      }
    }
  }
  if (own.empty()) {
    return feasible[0];
  }
  constexpr size_t kScoredNodes = 16;
  if (feasible.size() > kScoredNodes) {
    feasible.resize(kScoredNodes);
  }
  NodeId best = feasible[0];
  double best_extent = 1e300;
  ClusterState& scratch = *state_;  // hypothetical allocs are rolled back
  for (NodeId n : feasible) {
    auto placed = scratch.Allocate(ApplicationId(0xFFFFFFu), n, request.demand, request.tags,
                                   /*long_running=*/false);
    if (!placed.ok()) {
      continue;
    }
    double extent = 0.0;
    for (const auto& [id, constraint] : own) {
      extent += ConstraintEvaluator::EvaluateConstraint(scratch, *constraint, *placed, n,
                                                        request.tags)
                    .extent *
                constraint->weight;
    }
    MEDEA_CHECK(scratch.Release(*placed).ok());
    if (extent < best_extent - 1e-12) {
      best_extent = extent;
      best = n;
    }
  }
  return best;
}

size_t TaskScheduler::NextTaskIndex(const Queue& queue) const {
  if (queue.pending.empty()) {
    return SIZE_MAX;
  }
  if (queue.config.policy == QueuePolicy::kFifo) {
    return 0;
  }
  // Fair: the first pending task of the application with the smallest
  // running dominant share in this queue.
  const Resource total = state_->TotalCapacity();
  size_t best = 0;
  double best_share = 1e300;
  std::unordered_map<ApplicationId, bool, std::hash<ApplicationId>> seen;
  for (size_t i = 0; i < queue.pending.size(); ++i) {
    const ApplicationId app = queue.pending[i].app;
    if (seen.count(app) > 0) {
      continue;
    }
    seen.emplace(app, true);
    const auto it = queue.app_used.find(app);
    const double share =
        it == queue.app_used.end() ? 0.0 : it->second.DominantShareOf(total);
    if (share < best_share - 1e-15) {
      best_share = share;
      best = i;
    }
  }
  return best;
}

std::vector<TaskScheduler::TaskAllocation> TaskScheduler::Tick(SimTimeMs now) {
  std::vector<TaskAllocation> allocations;
  for (size_t qi = 0; qi < queues_.size(); ++qi) {
    Queue& queue = queues_[qi];
    const Resource cap = QueueCap(queue);
    while (!queue.pending.empty()) {
      const size_t index = NextTaskIndex(queue);
      const PendingTask& task = queue.pending[index];
      if (!cap.Fits(queue.used + task.request.demand)) {
        break;  // queue at capacity; head-of-line per Capacity Scheduler
      }
      const NodeId node = PickNode(task.request);
      if (!node.IsValid()) {
        break;  // no node fits right now
      }
      auto result = state_->Allocate(task.app, node, task.request.demand, task.request.tags,
                                     /*long_running=*/false);
      MEDEA_CHECK(result.ok());
      queue.used += task.request.demand;
      queue.app_used[task.app] += task.request.demand;
      running_.emplace(*result,
                       RunningTask{qi, task.request.demand, task.app, task.request.duration_ms});
      allocations.push_back(TaskAllocation{*result, task.app, node,
                                           now + task.request.duration_ms,
                                           now - task.submit_time});
      allocation_latency_ms_.Add(static_cast<double>(now - task.submit_time));
      // Fig. 11c: task queuing delay, submit -> allocated on a node.
      obs::Observe("tasksched.allocation_latency_ms",
                   static_cast<double>(now - task.submit_time));
      queue.pending.erase(queue.pending.begin() + static_cast<long>(index));
    }
  }
  return allocations;
}

void TaskScheduler::CompleteTask(ContainerId container) {
  const auto it = running_.find(container);
  MEDEA_CHECK(it != running_.end());
  Queue& queue = queues_[it->second.queue_index];
  queue.used -= it->second.demand;
  queue.app_used[it->second.app] -= it->second.demand;
  running_.erase(it);
  MEDEA_CHECK(state_->Release(container).ok());
}

Status TaskScheduler::EvictTask(ContainerId container, SimTimeMs now) {
  const auto it = running_.find(container);
  if (it == running_.end()) {
    return Status::NotFound("no such running task");
  }
  const RunningTask task = it->second;
  Queue& queue = queues_[task.queue_index];
  queue.used -= task.demand;
  queue.app_used[task.app] -= task.demand;
  running_.erase(it);
  const ContainerInfo* info = state_->FindContainer(container);
  MEDEA_CHECK(info != nullptr);
  std::vector<TagId> tags = info->tags;
  MEDEA_CHECK(state_->Release(container).ok());
  // Head-of-queue requeue: the killed task reruns as soon as possible.
  queue.pending.push_front(
      PendingTask{task.app, TaskRequest{task.demand, task.duration_ms, std::move(tags)}, now});
  return Status::Ok();
}

void TaskScheduler::AddReservation(ApplicationId app,
                                   const std::vector<std::pair<NodeId, Resource>>& holds) {
  auto& list = reservations_[app];
  list.insert(list.end(), holds.begin(), holds.end());
}

void TaskScheduler::ReleaseReservation(ApplicationId app) { reservations_.erase(app); }

Resource TaskScheduler::ReservedOn(NodeId node) const {
  Resource total;
  for (const auto& [app, holds] : reservations_) {
    for (const auto& [n, amount] : holds) {
      if (n == node) {
        total += amount;
      }
    }
  }
  return total;
}

size_t TaskScheduler::pending_tasks() const {
  size_t pending = 0;
  for (const Queue& queue : queues_) {
    pending += queue.pending.size();
  }
  return pending;
}

}  // namespace medea
