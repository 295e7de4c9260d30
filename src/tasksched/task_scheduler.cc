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

std::vector<TaskScheduler::NodeLoad> TaskScheduler::BuildLoadTable() const {
  std::vector<NodeLoad> table;
  table.reserve(state_->num_nodes());
  state_->ForEachNode([&](const Node& node) {
    if (!node.available()) {
      return;
    }
    // Reserved capacity is invisible to task allocation.
    table.push_back(NodeLoad{node.id(), node.used().DominantShareOf(node.capacity()),
                             node.Free() - ReservedOn(node.id())});
  });
  return table;
}

size_t TaskScheduler::PickNode(const TaskRequest& request,
                               const std::vector<NodeLoad>& table) const {
  const auto fits = [&](const NodeLoad& entry) {
    return entry.free.Fits(request.demand) && !entry.free.IsNegative();
  };
  // Least-loaded feasible entry; the table is in id order, so keeping the
  // first of equal loads breaks ties by id, as a stable sort would.
  size_t least = SIZE_MAX;
  for (size_t i = 0; i < table.size(); ++i) {
    if (fits(table[i]) && (least == SIZE_MAX || table[i].load < table[least].load)) {
      least = i;
    }
  }
  // Untagged tasks (the vast majority): plain least-loaded.
  if (least == SIZE_MAX || request.tags.empty() || manager_ == nullptr) {
    return least;
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
    return least;
  }
  constexpr size_t kScoredNodes = 16;
  std::vector<size_t> feasible;
  for (size_t i = 0; i < table.size(); ++i) {
    if (fits(table[i])) {
      feasible.push_back(i);
    }
  }
  const size_t scored = std::min(feasible.size(), kScoredNodes);
  std::partial_sort(feasible.begin(), feasible.begin() + static_cast<long>(scored),
                    feasible.end(), [&](size_t a, size_t b) {
                      return table[a].load < table[b].load ||
                             (table[a].load == table[b].load && a < b);
                    });
  feasible.resize(scored);
  size_t best = feasible[0];
  double best_extent = 1e300;
  ClusterState& scratch = *state_;  // hypothetical allocs are rolled back
  for (size_t i : feasible) {
    const NodeId n = table[i].node;
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
      best = i;
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
  // Built when the first task clears its queue cap and shared by every
  // queue: nothing but this Tick's own allocations mutates the state here.
  std::vector<NodeLoad> table;
  bool table_built = false;
  for (size_t qi = 0; qi < queues_.size(); ++qi) {
    Queue& queue = queues_[qi];
    const Resource cap = QueueCap(queue);
    while (!queue.pending.empty()) {
      const size_t index = NextTaskIndex(queue);
      const PendingTask& task = queue.pending[index];
      if (!cap.Fits(queue.used + task.request.demand)) {
        break;  // queue at capacity; head-of-line per Capacity Scheduler
      }
      if (!table_built) {
        table = BuildLoadTable();
        table_built = true;
      }
      const size_t pick = PickNode(task.request, table);
      if (pick == SIZE_MAX) {
        break;  // no node fits right now
      }
      NodeLoad& entry = table[pick];
      const NodeId node = entry.node;
      auto result = state_->Allocate(task.app, node, task.request.demand, task.request.tags,
                                     /*long_running=*/false);
      MEDEA_CHECK(result.ok());
      const Node& placed_on = state_->node(node);
      entry.load = placed_on.used().DominantShareOf(placed_on.capacity());
      entry.free -= task.request.demand;
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
  ReleaseUsage(it->second);
  running_.erase(it);
  MEDEA_CHECK(state_->Release(container).ok());
}

void TaskScheduler::ReleaseUsage(const RunningTask& task) {
  Queue& queue = queues_[task.queue_index];
  queue.used -= task.demand;
  const auto it = queue.app_used.find(task.app);
  MEDEA_CHECK(it != queue.app_used.end());
  it->second -= task.demand;
  if (it->second == Resource()) {
    queue.app_used.erase(it);  // NextTaskIndex reads a missing app as share 0
  }
}

Status TaskScheduler::EvictTask(ContainerId container, SimTimeMs now) {
  const auto it = running_.find(container);
  if (it == running_.end()) {
    return Status::NotFound("no such running task");
  }
  const RunningTask task = it->second;
  ReleaseUsage(task);
  running_.erase(it);
  const ContainerInfo* info = state_->FindContainer(container);
  MEDEA_CHECK(info != nullptr);
  std::vector<TagId> tags = info->tags;
  MEDEA_CHECK(state_->Release(container).ok());
  // Head-of-queue requeue: the killed task reruns as soon as possible.
  queues_[task.queue_index].pending.push_front(
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
