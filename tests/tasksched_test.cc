// Tests for the task-based (capacity) scheduler: FIFO queues, capacity
// caps, heartbeat allocation, task completion, allocation-latency tracking,
// and the LRA commit path of the two-scheduler design.

#include <gtest/gtest.h>

#include "src/tasksched/task_scheduler.h"

namespace medea {
namespace {

ClusterState SmallCluster() {
  return ClusterBuilder()
      .NumNodes(4)
      .NumRacks(2)
      .NumUpgradeDomains(2)
      .NumServiceUnits(2)
      .NodeCapacity(Resource(8 * 1024, 4))
      .Build();
}

std::vector<TaskRequest> Tasks(int n, Resource demand = Resource(1024, 1),
                               SimTimeMs duration = 10000) {
  return std::vector<TaskRequest>(static_cast<size_t>(n), TaskRequest{demand, duration});
}

TEST(TaskSchedulerTest, AllocatesPendingTasks) {
  ClusterState state = SmallCluster();
  TaskScheduler sched(&state);
  sched.SubmitJob(ApplicationId(1), "default", Tasks(3), 0);
  const auto allocations = sched.Tick(1000);
  EXPECT_EQ(allocations.size(), 3u);
  EXPECT_EQ(state.num_containers(), 3u);
  EXPECT_EQ(sched.pending_tasks(), 0u);
  for (const auto& a : allocations) {
    EXPECT_EQ(a.end_time, 11000);
    EXPECT_EQ(a.queued_ms, 1000);
  }
}

TEST(TaskSchedulerTest, SpreadsAcrossLeastLoadedNodes) {
  ClusterState state = SmallCluster();
  TaskScheduler sched(&state);
  sched.SubmitJob(ApplicationId(1), "default", Tasks(4), 0);
  sched.Tick(0);
  // Least-loaded placement should land one task per node.
  state.ForEachNode([&](const Node& node) {
    EXPECT_EQ(node.containers().size(), 1u);
  });
}

TEST(TaskSchedulerTest, RespectsNodeCapacity) {
  ClusterState state = SmallCluster();
  TaskScheduler sched(&state);
  // 4 nodes x 4 cores = 16 tasks of 1 core fit; the rest stay pending.
  sched.SubmitJob(ApplicationId(1), "default", Tasks(20, Resource(512, 1)), 0);
  sched.Tick(0);
  EXPECT_EQ(state.num_containers(), 16u);
  EXPECT_EQ(sched.pending_tasks(), 4u);
}

TEST(TaskSchedulerTest, CompletionFreesResources) {
  ClusterState state = SmallCluster();
  TaskScheduler sched(&state);
  sched.SubmitJob(ApplicationId(1), "default", Tasks(16, Resource(512, 1)), 0);
  auto allocations = sched.Tick(0);
  ASSERT_EQ(allocations.size(), 16u);
  sched.SubmitJob(ApplicationId(2), "default", Tasks(1, Resource(512, 1)), 0);
  EXPECT_TRUE(sched.Tick(0).empty());  // cluster cores exhausted
  sched.CompleteTask(allocations[0].container);
  EXPECT_EQ(sched.Tick(1000).size(), 1u);
}

TEST(TaskSchedulerTest, QueueCapacityCaps) {
  ClusterState state = SmallCluster();  // total 32 GB, 16 cores
  TaskScheduler sched(&state, {QueueConfig{"prod", 0.5}, QueueConfig{"batch", 0.5}});
  // prod may use at most 16 GB / 8 cores -> 8 tasks of <2GB, 1 core>.
  sched.SubmitJob(ApplicationId(1), "prod", Tasks(12, Resource(2048, 1)), 0);
  sched.Tick(0);
  EXPECT_EQ(state.num_containers(), 8u);
  EXPECT_EQ(sched.pending_tasks(), 4u);
  // batch still has its own headroom.
  sched.SubmitJob(ApplicationId(2), "batch", Tasks(4, Resource(2048, 1)), 0);
  sched.Tick(0);
  EXPECT_EQ(state.num_containers(), 12u);
}

TEST(TaskSchedulerTest, UnknownQueueFallsBack) {
  ClusterState state = SmallCluster();
  TaskScheduler sched(&state, {QueueConfig{"only", 1.0}});
  sched.SubmitJob(ApplicationId(1), "nope", Tasks(1), 0);
  EXPECT_EQ(sched.Tick(0).size(), 1u);
}

TEST(TaskSchedulerTest, FifoWithinQueue) {
  ClusterState state = SmallCluster();
  TaskScheduler sched(&state);
  // First job too big to fit blocks the head of the queue (head-of-line,
  // like the Capacity Scheduler's FIFO leaf policy).
  sched.SubmitJob(ApplicationId(1), "default", Tasks(1, Resource(9 * 1024, 1)), 0);
  sched.SubmitJob(ApplicationId(2), "default", Tasks(1, Resource(1024, 1)), 0);
  EXPECT_TRUE(sched.Tick(0).empty());
  EXPECT_EQ(sched.pending_tasks(), 2u);
}

TEST(TaskSchedulerTest, TracksAllocationLatency) {
  ClusterState state = SmallCluster();
  TaskScheduler sched(&state);
  sched.SubmitJob(ApplicationId(1), "default", Tasks(2), 100);
  sched.Tick(600);
  ASSERT_EQ(sched.allocation_latency_ms().Count(), 2u);
  EXPECT_DOUBLE_EQ(sched.allocation_latency_ms().Mean(), 500.0);
}

TEST(TaskSchedulerTest, FairPolicySharesBetweenApps) {
  ClusterState state = SmallCluster();
  QueueConfig queue;
  queue.name = "fair";
  queue.policy = QueuePolicy::kFair;
  TaskScheduler sched(&state, {queue});
  // App 1 floods the queue first; app 2 submits later. Under FIFO app 2
  // would starve behind app 1's backlog; fair sharing alternates.
  sched.SubmitJob(ApplicationId(1), "fair", Tasks(12, Resource(2048, 1)), 0);
  sched.SubmitJob(ApplicationId(2), "fair", Tasks(12, Resource(2048, 1)), 0);
  // Capacity: 4 nodes x 4 cores = 16 slots; both backlogs exceed it.
  const auto allocations = sched.Tick(0);
  ASSERT_EQ(allocations.size(), 16u);
  int app2 = 0;
  for (const auto& a : allocations) {
    app2 += a.app == ApplicationId(2) ? 1 : 0;
  }
  EXPECT_EQ(app2, 8);  // an even split
}

TEST(TaskSchedulerTest, FifoPolicyServesInOrder) {
  ClusterState state = SmallCluster();
  TaskScheduler sched(&state);  // default FIFO
  sched.SubmitJob(ApplicationId(1), "default", Tasks(12, Resource(2048, 1)), 0);
  sched.SubmitJob(ApplicationId(2), "default", Tasks(12, Resource(2048, 1)), 0);
  const auto allocations = sched.Tick(0);
  ASSERT_EQ(allocations.size(), 16u);
  for (size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(allocations[i].app, ApplicationId(1));
  }
}

TEST(TaskSchedulerTest, TaggedTaskFollowsItsConstraint) {
  // §5.4: a task-based job with a constraint toward an LRA is steered
  // heuristically.
  ClusterState state = SmallCluster();
  ConstraintManager manager(state.groups_ptr());
  const TagId mem = manager.tags().Intern("mem");
  const TagId etl = manager.tags().Intern("etl");
  ASSERT_TRUE(state.Allocate(ApplicationId(9), NodeId(2), Resource(1024, 1), {mem}, true).ok());
  ASSERT_TRUE(manager
                  .AddFromText("{etl, {mem, 1, inf}, node}", ConstraintOrigin::kApplication,
                               ApplicationId(1))
                  .ok());
  TaskScheduler sched(&state, {}, &manager);
  TaskRequest task{Resource(1024, 1), 1000, {etl}};
  sched.SubmitJob(ApplicationId(1), "default", {task}, 0);
  const auto allocations = sched.Tick(0);
  ASSERT_EQ(allocations.size(), 1u);
  EXPECT_EQ(allocations[0].node, NodeId(2));  // next to the memcached LRA
}

TEST(TaskSchedulerTest, TaggedTaskWithoutManagerFallsBack) {
  ClusterState state = SmallCluster();
  TaskScheduler sched(&state);  // no manager: tags carried but not steered
  TaskRequest task{Resource(1024, 1), 1000, {TagId(3)}};
  sched.SubmitJob(ApplicationId(1), "default", {task}, 0);
  const auto allocations = sched.Tick(0);
  ASSERT_EQ(allocations.size(), 1u);
  // The tags still land on the container (they count toward gamma).
  const ContainerInfo* info = state.FindContainer(allocations[0].container);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->tags.size(), 1u);
}

}  // namespace
}  // namespace medea
