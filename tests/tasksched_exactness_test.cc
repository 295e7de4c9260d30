// Exactness of the task scheduler's per-heartbeat node-load table: Tick must
// make exactly the allocations of a reference that rebuilds the feasible
// node list and stable-sorts it by load for every task. Both run side by side
// on copies of one cluster over seeded random scenarios with unavailable
// nodes, reservations (some larger than a node's free capacity), mixed
// demands, equal loads, a FIFO and a fair capped queue, tagged tasks scored
// against a ConstraintManager, and completions and evictions between Ticks.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/core/violation.h"
#include "src/tasksched/task_scheduler.h"

namespace medea {
namespace {

// The task scheduler with the node choice recomputed from the cluster for
// every task: per task, every available node's free capacity minus its
// reservations, a stable sort of the feasible nodes by load, and constraint
// scoring over the first 16 for tagged tasks.
class ReferenceScheduler {
 public:
  ReferenceScheduler(ClusterState* state, std::vector<QueueConfig> queues,
                     const ConstraintManager* manager)
      : state_(state), manager_(manager) {
    for (auto& config : queues) {
      queue_index_.emplace(config.name, queues_.size());
      Queue queue;
      queue.config = std::move(config);
      queues_.push_back(std::move(queue));
    }
  }

  void SubmitJob(ApplicationId app, const std::string& queue, std::vector<TaskRequest> tasks,
                 SimTimeMs now) {
    const auto it = queue_index_.find(queue);
    Queue& q = queues_[it == queue_index_.end() ? 0 : it->second];
    for (TaskRequest& task : tasks) {
      q.pending.push_back(PendingTask{app, std::move(task), now});
    }
  }

  std::vector<TaskScheduler::TaskAllocation> Tick(SimTimeMs now) {
    std::vector<TaskScheduler::TaskAllocation> allocations;
    for (size_t qi = 0; qi < queues_.size(); ++qi) {
      Queue& queue = queues_[qi];
      const Resource cap = QueueCap(queue);
      while (!queue.pending.empty()) {
        const size_t index = NextTaskIndex(queue);
        const PendingTask& task = queue.pending[index];
        if (!cap.Fits(queue.used + task.request.demand)) {
          break;
        }
        const NodeId node = PickNode(task.request);
        if (!node.IsValid()) {
          break;
        }
        auto result = state_->Allocate(task.app, node, task.request.demand, task.request.tags,
                                       /*long_running=*/false);
        EXPECT_TRUE(result.ok());
        queue.used += task.request.demand;
        queue.app_used[task.app] += task.request.demand;
        running_.emplace(*result,
                         RunningTask{qi, task.request.demand, task.app, task.request.duration_ms});
        allocations.push_back(TaskScheduler::TaskAllocation{
            *result, task.app, node, now + task.request.duration_ms, now - task.submit_time});
        queue.pending.erase(queue.pending.begin() + static_cast<long>(index));
      }
    }
    return allocations;
  }

  void CompleteTask(ContainerId container) {
    const auto it = running_.find(container);
    Queue& queue = queues_[it->second.queue_index];
    queue.used -= it->second.demand;
    queue.app_used[it->second.app] -= it->second.demand;
    running_.erase(it);
    EXPECT_TRUE(state_->Release(container).ok());
  }

  void EvictTask(ContainerId container, SimTimeMs now) {
    const auto it = running_.find(container);
    const RunningTask task = it->second;
    Queue& queue = queues_[task.queue_index];
    queue.used -= task.demand;
    queue.app_used[task.app] -= task.demand;
    running_.erase(it);
    std::vector<TagId> tags = state_->FindContainer(container)->tags;
    EXPECT_TRUE(state_->Release(container).ok());
    queue.pending.push_front(
        PendingTask{task.app, TaskRequest{task.demand, task.duration_ms, std::move(tags)}, now});
  }

  void AddReservation(ApplicationId app, const std::vector<std::pair<NodeId, Resource>>& holds) {
    auto& list = reservations_[app];
    list.insert(list.end(), holds.begin(), holds.end());
  }
  void ReleaseReservation(ApplicationId app) { reservations_.erase(app); }

  size_t pending_tasks() const {
    size_t pending = 0;
    for (const Queue& queue : queues_) {
      pending += queue.pending.size();
    }
    return pending;
  }

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
    SimTimeMs duration_ms = 0;
  };
  struct Queue {
    QueueConfig config;
    std::deque<PendingTask> pending;
    Resource used;
    std::unordered_map<ApplicationId, Resource, std::hash<ApplicationId>> app_used;
  };

  Resource QueueCap(const Queue& queue) const {
    const Resource total = state_->TotalCapacity();
    return Resource(
        static_cast<int64_t>(static_cast<double>(total.memory_mb) * queue.config.capacity_fraction),
        static_cast<int32_t>(static_cast<double>(total.vcores) * queue.config.capacity_fraction));
  }

  Resource ReservedOn(NodeId node) const {
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

  NodeId PickNode(const TaskRequest& request) const {
    std::vector<NodeId> feasible;
    state_->ForEachNode([&](const Node& node) {
      if (!node.available()) {
        return;
      }
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
    if (request.tags.empty() || manager_ == nullptr) {
      return feasible[0];
    }
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
    for (NodeId n : feasible) {
      auto placed = state_->Allocate(ApplicationId(0xFFFFFFu), n, request.demand, request.tags,
                                     /*long_running=*/false);
      if (!placed.ok()) {
        continue;
      }
      double extent = 0.0;
      for (const auto& [id, constraint] : own) {
        extent += ConstraintEvaluator::EvaluateConstraint(*state_, *constraint, *placed, n,
                                                          request.tags)
                      .extent *
                  constraint->weight;
      }
      EXPECT_TRUE(state_->Release(*placed).ok());
      if (extent < best_extent - 1e-12) {
        best_extent = extent;
        best = n;
      }
    }
    return best;
  }

  size_t NextTaskIndex(const Queue& queue) const {
    if (queue.config.policy == QueuePolicy::kFifo) {
      return 0;
    }
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
      const double share = it == queue.app_used.end() ? 0.0 : it->second.DominantShareOf(total);
      if (share < best_share - 1e-15) {
        best_share = share;
        best = i;
      }
    }
    return best;
  }

  ClusterState* state_;
  const ConstraintManager* manager_;
  std::vector<Queue> queues_;
  std::unordered_map<std::string, size_t> queue_index_;
  std::unordered_map<ContainerId, RunningTask, std::hash<ContainerId>> running_;
  std::unordered_map<ApplicationId, std::vector<std::pair<NodeId, Resource>>,
                     std::hash<ApplicationId>>
      reservations_;
};

constexpr Resource kNodeCapacity(16 * 1024, 8);

// What the scenarios exercised, summed over seeds, so the test can require
// that every path it claims to cover actually ran.
struct Coverage {
  size_t allocations = 0;
  size_t tagged_allocations = 0;
  size_t evictions = 0;
  size_t negative_reservations = 0;
  size_t unavailable_ticks = 0;
};

// Runs one seeded scenario through both schedulers, comparing every Tick.
void RunScenario(uint64_t seed, bool with_manager, Coverage* coverage) {
  Rng rng(seed);
  const size_t num_nodes = 6 + rng.NextBounded(30);
  ClusterState ref_state = ClusterBuilder()
                               .NumNodes(num_nodes)
                               .NumRacks(3)
                               .NumUpgradeDomains(2)
                               .NumServiceUnits(2)
                               .NodeCapacity(kNodeCapacity)
                               .Build();
  ConstraintManager manager(ref_state.groups_ptr());
  const TagId lra = manager.tags().Intern("lra");
  const TagId etl = manager.tags().Intern("etl");
  const TagId web = manager.tags().Intern("web");
  // LRA containers the tagged tasks are steered toward or away from.
  for (int i = 0; i < 3; ++i) {
    const NodeId n(static_cast<uint32_t>(rng.NextBounded(num_nodes)));
    ASSERT_TRUE(ref_state.Allocate(ApplicationId(1000), n, Resource(2048, 1), {lra}, true).ok());
  }
  ASSERT_TRUE(manager
                  .AddFromText("{etl, {lra, 1, inf}, node}", ConstraintOrigin::kApplication,
                               ApplicationId(1000))
                  .ok());
  ASSERT_TRUE(manager
                  .AddFromText("{web, {web, 0, 1}, rack}", ConstraintOrigin::kApplication,
                               ApplicationId(1000))
                  .ok());
  ASSERT_TRUE(manager
                  .AddFromText("{web, {lra, 0, 0}, node}", ConstraintOrigin::kApplication,
                               ApplicationId(1000))
                  .ok());
  ClusterState state = ref_state;  // an independent copy

  const std::vector<QueueConfig> queues = {QueueConfig{"fifo", 0.7, QueuePolicy::kFifo},
                                           QueueConfig{"fair", 0.6, QueuePolicy::kFair}};
  const ConstraintManager* steer = with_manager ? &manager : nullptr;
  TaskScheduler sched(&state, queues, steer);
  ReferenceScheduler ref(&ref_state, queues, steer);

  const std::vector<Resource> demands = {Resource(1024, 1), Resource(2048, 1),
                                         Resource(4096, 2), Resource(512, 3),
                                         Resource(6144, 4), Resource(12 * 1024, 1)};
  const auto both = [&](auto&& op) {
    op(sched, state);
    op(ref, ref_state);
  };
  std::vector<ContainerId> running;
  uint32_t next_app = 1;
  uint32_t next_reservation = 5000;
  std::vector<ApplicationId> reservations;
  SimTimeMs now = 0;
  for (int step = 0; step < 40; ++step) {
    // New jobs, some to an unknown queue (falls back to the first).
    const int jobs = static_cast<int>(rng.NextBounded(4));
    for (int j = 0; j < jobs; ++j) {
      std::vector<TaskRequest> tasks;
      const size_t count = 1 + rng.NextBounded(12);
      for (size_t t = 0; t < count; ++t) {
        std::vector<TagId> tags;
        if (rng.NextBool(0.25)) {
          tags.push_back(rng.NextBool(0.5) ? etl : web);
        }
        tasks.emplace_back(demands[rng.NextBounded(demands.size())],
                           static_cast<SimTimeMs>(1000 + rng.NextBounded(5000)), tags);
      }
      const char* queue = rng.NextBool(0.45) ? "fair" : (rng.NextBool(0.9) ? "fifo" : "other");
      const ApplicationId app(next_app);
      next_app += rng.NextBool(0.3) ? 0 : 1;  // some apps submit several jobs
      both([&](auto& s, ClusterState&) { s.SubmitJob(app, queue, tasks, now); });
    }

    // Reservations: small holds, holds beyond a node's free capacity, and
    // releases.
    if (rng.NextBool(0.3)) {
      const ApplicationId app(next_reservation++);
      std::vector<std::pair<NodeId, Resource>> holds;
      for (int h = 0; h < 2; ++h) {
        const NodeId n(static_cast<uint32_t>(rng.NextBounded(num_nodes)));
        const bool huge = rng.NextBool(0.3);
        holds.emplace_back(n, huge ? Resource(20 * 1024, 3) : Resource(2048, 1));
        if (huge) {
          ++coverage->negative_reservations;
        }
      }
      both([&](auto& s, ClusterState&) { s.AddReservation(app, holds); });
      reservations.push_back(app);
    }
    if (!reservations.empty() && rng.NextBool(0.2)) {
      const size_t r = rng.NextBounded(reservations.size());
      const ApplicationId app = reservations[r];
      both([&](auto& s, ClusterState&) { s.ReleaseReservation(app); });
      reservations.erase(reservations.begin() + static_cast<long>(r));
    }

    // Node availability flips.
    if (rng.NextBool(0.25)) {
      const NodeId n(static_cast<uint32_t>(rng.NextBounded(num_nodes)));
      const bool up = !state.node(n).available();
      both([&](auto&, ClusterState& s) { s.SetNodeAvailable(n, up); });
    }
    bool any_down = false;
    state.ForEachNode([&](const Node& node) { any_down = any_down || !node.available(); });
    coverage->unavailable_ticks += any_down ? 1 : 0;

    const auto got = sched.Tick(now);
    const auto want = ref.Tick(now);
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed << " step " << step;
    for (size_t i = 0; i < got.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " step " << step << " alloc " << i);
      ASSERT_EQ(got[i].container, want[i].container);
      ASSERT_EQ(got[i].app, want[i].app);
      ASSERT_EQ(got[i].node, want[i].node);
      ASSERT_EQ(got[i].end_time, want[i].end_time);
      ASSERT_EQ(got[i].queued_ms, want[i].queued_ms);
      running.push_back(got[i].container);
      ++coverage->allocations;
      if (!state.FindContainer(got[i].container)->tags.empty()) {
        ++coverage->tagged_allocations;
      }
    }
    ASSERT_EQ(sched.pending_tasks(), ref.pending_tasks());

    // Completions and evictions before the next heartbeat.
    now += 1000;
    for (size_t i = 0; i < running.size();) {
      const ContainerId c = running[i];
      if (rng.NextBool(0.3)) {
        both([&](auto& s, ClusterState&) { s.CompleteTask(c); });
      } else if (rng.NextBool(0.05)) {
        ASSERT_TRUE(sched.EvictTask(c, now).ok());
        ref.EvictTask(c, now);
        ++coverage->evictions;
      } else {
        ++i;
        continue;
      }
      running.erase(running.begin() + static_cast<long>(i));
    }
  }
}

TEST(TaskSchedulerExactnessTest, LoadTableMatchesPerTaskStableSort) {
  Coverage coverage;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    RunScenario(seed, /*with_manager=*/false, &coverage);
    ASSERT_FALSE(HasFatalFailure()) << "seed " << seed;
  }
  EXPECT_GT(coverage.allocations, 1000u);
  EXPECT_GT(coverage.evictions, 10u);
  EXPECT_GT(coverage.negative_reservations, 10u);
  EXPECT_GT(coverage.unavailable_ticks, 100u);
}

TEST(TaskSchedulerExactnessTest, ScoredTaggedTasksMatchPerTaskStableSort) {
  Coverage coverage;
  for (uint64_t seed = 101; seed <= 140; ++seed) {
    RunScenario(seed, /*with_manager=*/true, &coverage);
    ASSERT_FALSE(HasFatalFailure()) << "seed " << seed;
  }
  EXPECT_GT(coverage.tagged_allocations, 200u);
  EXPECT_GT(coverage.evictions, 10u);
}

// Equal loads break by id: on an empty cluster every node has load 0, so a
// lone task lands on the first available node, and a reservation that leaves
// a node's free capacity negative hides that node.
TEST(TaskSchedulerExactnessTest, TiesGoToTheLowestIdAndNegativeFreeIsSkipped) {
  ClusterState state = ClusterBuilder().NumNodes(4).NumRacks(2).NodeCapacity(kNodeCapacity).Build();
  TaskScheduler sched(&state);
  state.SetNodeAvailable(NodeId(0), false);
  sched.AddReservation(ApplicationId(9), {{NodeId(1), Resource(32 * 1024, 1)}});
  sched.SubmitJob(ApplicationId(1), "default", {TaskRequest{Resource(1024, 1), 1000}}, 0);
  const auto allocations = sched.Tick(0);
  ASSERT_EQ(allocations.size(), 1u);
  EXPECT_EQ(allocations[0].node, NodeId(2));
}

}  // namespace
}  // namespace medea
