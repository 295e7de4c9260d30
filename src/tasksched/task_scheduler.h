// Copyright (c) Medea reproduction authors.
// The task-based scheduler of Medea's two-scheduler design (§3).
//
// Models YARN's Capacity Scheduler: a flat set of queues, each entitled to a
// fraction of cluster resources, FIFO within a queue, heartbeat-driven
// allocation onto the least-loaded feasible node. Short-running containers
// are allocated here with low latency; LRA placement *plans* produced by the
// LRA scheduler are committed (CommitPlan) onto the same ClusterState, so
// placement conflicts between the two schedulers cannot occur (§3, §5.4). A
// plan that no longer fits (task containers took the resources in the
// meantime) fails atomically per LRA and the caller resubmits the LRA.

#ifndef SRC_TASKSCHED_TASK_SCHEDULER_H_
#define SRC_TASKSCHED_TASK_SCHEDULER_H_

#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/cluster/cluster_state.h"
#include "src/common/stats.h"
#include "src/core/constraint_manager.h"

namespace medea {

// One short-running task of a task-based job.
struct TaskRequest {
  TaskRequest() = default;
  TaskRequest(Resource demand_in, SimTimeMs duration_in, std::vector<TagId> tags_in = {})
      : demand(demand_in), duration_ms(duration_in), tags(std::move(tags_in)) {}

  Resource demand;
  SimTimeMs duration_ms = 0;
  // Optional container tags (§5.4 "Constraints for task-based jobs"): a
  // tagged task participates in constraint cardinalities like any other
  // container, and constraints whose subject it matches steer its node
  // choice heuristically (never delaying allocation).
  std::vector<TagId> tags;
};

// Ordering discipline within a queue: FIFO (YARN Capacity Scheduler's leaf
// default) or fair sharing between the queue's applications (YARN Fair
// Scheduler; §6 "Fair Scheduler can be used instead").
enum class QueuePolicy { kFifo, kFair };

struct QueueConfig {
  std::string name;
  // Fraction of total cluster resources the queue may use (hard cap).
  double capacity_fraction = 1.0;
  QueuePolicy policy = QueuePolicy::kFifo;
};

class TaskScheduler {
 public:
  // `state` must outlive the scheduler. With no queues, a single "default"
  // queue owning the whole cluster is created. `manager`, when given,
  // enables heuristic constraint-aware node choice for tagged tasks.
  TaskScheduler(ClusterState* state, std::vector<QueueConfig> queues = {},
                const ConstraintManager* manager = nullptr);

  // Enqueues a job's tasks (FIFO within the queue). Unknown queues fall back
  // to the first configured queue.
  void SubmitJob(ApplicationId app, const std::string& queue, std::vector<TaskRequest> tasks,
                 SimTimeMs now);

  struct TaskAllocation {
    ContainerId container;
    ApplicationId app;
    NodeId node;
    SimTimeMs end_time = 0;
    // Time the task waited between submission and allocation — the
    // "task scheduling latency" of Fig. 11c.
    SimTimeMs queued_ms = 0;
  };

  // One heartbeat round: allocates as many pending tasks as capacities and
  // node resources allow. Returns the allocations made this round.
  std::vector<TaskAllocation> Tick(SimTimeMs now);

  // Releases a finished task container.
  void CompleteTask(ContainerId container);

  // True while the container is a running task of this scheduler.
  bool IsRunning(ContainerId container) const { return running_.count(container) > 0; }

  // Evicts a running task: its container is released and the task re-enters
  // its queue's head with a fresh submission time (§5.4 conflict policy
  // "kill containers of task-based jobs"). The task re-runs its original
  // duration from scratch, as YARN kills do not checkpoint.
  Status EvictTask(ContainerId container, SimTimeMs now);

  // --- Reservations (§5.4 conflict policy iii) --------------------------------
  //
  // A reservation withholds capacity on specific nodes from *task*
  // allocations so that freed resources accumulate for a pending LRA. The
  // cluster state is untouched; only the heartbeat's load table honours them.

  void AddReservation(ApplicationId app, const std::vector<std::pair<NodeId, Resource>>& holds);
  void ReleaseReservation(ApplicationId app);
  // Total reserved on a node across applications.
  Resource ReservedOn(NodeId node) const;
  size_t num_reservations() const { return reservations_.size(); }

  size_t pending_tasks() const;
  size_t running_tasks() const { return running_.size(); }

  // Distribution of task allocation latencies (ms) since construction.
  const Distribution& allocation_latency_ms() const { return allocation_latency_ms_; }

 private:
  struct PendingTask {
    ApplicationId app;
    TaskRequest request;
    SimTimeMs submit_time = 0;
  };
  struct RunningTask {
    size_t queue_index = 0;
    Resource demand;
    ApplicationId app;
    SimTimeMs duration_ms = 0;  // the request's, re-run on eviction
  };
  struct Queue {
    QueueConfig config;
    std::deque<PendingTask> pending;
    Resource used;
    // Per-application running usage, for fair sharing.
    std::unordered_map<ApplicationId, Resource, std::hash<ApplicationId>> app_used;
  };

  // One available node as a heartbeat sees it: its load (dominant share of
  // capacity in use) and the capacity left for tasks (free minus
  // reservations, possibly negative).
  struct NodeLoad {
    NodeId node;
    double load = 0.0;
    Resource free;
  };

  Resource QueueCap(const Queue& queue) const;
  // The heartbeat's node-load table: one entry per available node, in id
  // order. Tick builds it once and updates the chosen entry after each
  // allocation, so it stays equal to a fresh build.
  std::vector<NodeLoad> BuildLoadTable() const;
  // Index into `table` of the least-loaded entry that fits the request
  // (ties to the lowest node id); SIZE_MAX if none. Tagged tasks (with a
  // manager present) prefer, among the least-loaded feasible nodes, the one
  // best satisfying their own constraints.
  size_t PickNode(const TaskRequest& request, const std::vector<NodeLoad>& table) const;
  // Returns a finished or evicted task's usage to its queue; an application
  // whose usage drops to zero leaves `app_used`.
  void ReleaseUsage(const RunningTask& task);
  // Index into queue.pending of the next task per the queue's policy;
  // SIZE_MAX when the queue is empty.
  size_t NextTaskIndex(const Queue& queue) const;

  ClusterState* state_;
  const ConstraintManager* manager_;
  std::vector<Queue> queues_;
  std::unordered_map<std::string, size_t> queue_index_;
  std::unordered_map<ContainerId, RunningTask, std::hash<ContainerId>> running_;
  std::unordered_map<ApplicationId, std::vector<std::pair<NodeId, Resource>>,
                     std::hash<ApplicationId>>
      reservations_;
  Distribution allocation_latency_ms_;
};

}  // namespace medea

#endif  // SRC_TASKSCHED_TASK_SCHEDULER_H_
