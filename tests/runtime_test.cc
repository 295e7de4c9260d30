// Copyright (c) Medea reproduction authors.
// Functional tests for the TwoSchedulerRuntime (src/runtime): the two-thread
// pipeline places LRAs correctly, constraints are registered and enforced,
// task jobs run to completion, node failures trigger failover resubmission,
// and stale plans are revalidated rather than blindly committed. The heavy
// concurrency torture lives in runtime_stress_test.cc; these tests assert
// functional behavior with deterministic workloads.

#include <chrono>
#include <future>
#include <thread>

#include <gtest/gtest.h>

#include "src/runtime/placement_service.h"
#include "src/runtime/two_scheduler_runtime.h"
#include "src/schedulers/greedy.h"
#include "src/sim/runtime_driver.h"
#include "src/verify/invariant_checker.h"
#include "src/workload/lra_templates.h"

namespace medea::runtime {
namespace {

std::unique_ptr<LraScheduler> MakeScheduler() {
  SchedulerConfig config;
  config.node_pool_size = 24;
  config.seed = 11;
  return std::make_unique<GreedyScheduler>(GreedyOrdering::kNodeCandidates, config);
}

RuntimeConfig SmallConfig() {
  RuntimeConfig config;
  config.num_nodes = 24;
  config.num_racks = 4;
  config.num_upgrade_domains = 4;
  config.num_service_units = 4;
  config.heartbeat_period = std::chrono::milliseconds(1);
  return config;
}

TEST(TwoSchedulerRuntimeTest, PlacesSubmittedLras) {
  TwoSchedulerRuntime runtime(SmallConfig(), MakeScheduler());
  runtime.Start();
  for (uint32_t i = 1; i <= 3; ++i) {
    const ApplicationId app(i);
    runtime.SubmitLra(runtime.BuildSpec(
        [&](TagPool& tags) { return MakeHBaseInstance(app, tags, /*num_workers=*/4); }));
  }
  ASSERT_TRUE(runtime.WaitLraIdle(std::chrono::seconds(10)));
  runtime.Stop();

  const RuntimeMetrics metrics = runtime.metrics();
  EXPECT_EQ(metrics.lras_placed, 3);
  EXPECT_EQ(metrics.lras_rejected, 0);
  runtime.WithStateLocked([](const ClusterState& state, const ConstraintManager& manager) {
    // 4 workers + master + thrift + secondary master per HBase instance.
    EXPECT_EQ(state.num_long_running_containers(), 3u * 7u);
    EXPECT_GT(manager.size(), 0u);
    const auto report = verify::InvariantChecker::CheckState(state, &manager);
    EXPECT_TRUE(report.ok()) << report.ToString();
  });
}

TEST(TwoSchedulerRuntimeTest, TaskJobsRunToCompletion) {
  TwoSchedulerRuntime runtime(SmallConfig(), MakeScheduler());
  runtime.Start();
  std::vector<TaskRequest> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.emplace_back(Resource(1024, 1), /*duration_ms=*/5);
  }
  runtime.SubmitTaskJob(std::move(tasks));
  // Tasks take ~5 ms each and the cluster fits all eight at once.
  for (int spins = 0; spins < 500 && runtime.metrics().tasks_completed < 8; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  runtime.Stop();
  EXPECT_EQ(runtime.metrics().tasks_completed, 8);
  EXPECT_EQ(runtime.running_tasks(), 0u);
}

TEST(TwoSchedulerRuntimeTest, NodeDownTriggersFailoverReplacement) {
  TwoSchedulerRuntime runtime(SmallConfig(), MakeScheduler());
  runtime.Start();
  const ApplicationId app(42);
  runtime.SubmitLra(runtime.BuildSpec(
      [&](TagPool& tags) { return MakeGenericLra(app, tags, 4, "failover-svc"); }));
  ASSERT_TRUE(runtime.WaitLraIdle(std::chrono::seconds(10)));

  // Find a node hosting one of the app's containers and fail it.
  NodeId victim = NodeId::Invalid();
  runtime.WithStateLocked([&](const ClusterState& state, const ConstraintManager&) {
    for (ContainerId c : state.ContainersOf(app)) {
      victim = state.FindContainer(c)->node;
      break;
    }
  });
  ASSERT_TRUE(victim.IsValid());
  runtime.NodeDown(victim);
  ASSERT_TRUE(runtime.WaitLraIdle(std::chrono::seconds(10)));
  runtime.Stop();

  const RuntimeMetrics metrics = runtime.metrics();
  EXPECT_GT(metrics.lra_containers_lost, 0);
  EXPECT_GT(metrics.failover_replacements, 0);
  runtime.WithStateLocked([&](const ClusterState& state, const ConstraintManager& manager) {
    // The app is back to full strength on the surviving nodes.
    EXPECT_EQ(state.ContainersOf(app).size(), 4u);
    for (ContainerId c : state.ContainersOf(app)) {
      EXPECT_NE(state.FindContainer(c)->node.value, victim.value);
    }
    const auto report = verify::InvariantChecker::CheckState(state, &manager);
    EXPECT_TRUE(report.ok()) << report.ToString();
  });
}

// Plans every container onto one node: node 0 on the first call, which
// blocks until the test releases it, and node 1 on every later call.
class GatedPinnedScheduler : public LraScheduler {
 public:
  GatedPinnedScheduler(std::promise<void>* entered, std::shared_future<void> release)
      : entered_(entered), release_(std::move(release)) {}

  PlacementPlan Place(const PlacementProblem& problem) override {
    const bool first = calls_++ == 0;  // only the LRA thread calls Place
    if (first) {
      entered_->set_value();
      release_.wait();
    }
    PlacementPlan plan;
    plan.lra_placed.assign(problem.lras.size(), true);
    for (size_t i = 0; i < problem.lras.size(); ++i) {
      for (size_t j = 0; j < problem.lras[i].containers.size(); ++j) {
        plan.assignments.push_back(
            {static_cast<int>(i), static_cast<int>(j), NodeId(first ? 0u : 1u)});
      }
    }
    return plan;
  }
  std::string name() const override { return "gated-pinned"; }

 private:
  std::promise<void>* entered_;
  std::shared_future<void> release_;
  int calls_ = 0;
};

TEST(TwoSchedulerRuntimeTest, StalePlanIsRevalidatedAgainstTheLiveState) {
  std::promise<void> entered;
  std::promise<void> release;
  TwoSchedulerRuntime runtime(SmallConfig(), std::make_unique<GatedPinnedScheduler>(
                                                 &entered, release.get_future().share()));
  runtime.Start();
  const ApplicationId app(7);
  runtime.SubmitLra(runtime.BuildSpec(
      [&](TagPool& tags) { return MakeGenericLra(app, tags, 2, "stale-svc"); }));
  // The first plan targets node 0, which goes down while the plan is computed.
  entered.get_future().wait();
  runtime.NodeDown(NodeId(0));
  release.set_value();
  ASSERT_TRUE(runtime.WaitLraIdle(std::chrono::seconds(10)));
  runtime.Stop();

  const RuntimeMetrics metrics = runtime.metrics();
  EXPECT_GE(metrics.stale_plans, 1);
  // Revalidation unplaced the dead plan before any allocation; the
  // resubmission landed on node 1.
  EXPECT_EQ(metrics.stale_lras_revalidated, 1);
  EXPECT_EQ(metrics.commit_conflicts, 1);
  EXPECT_EQ(metrics.lra_resubmissions, 1);
  EXPECT_EQ(metrics.lras_placed, 1);
  runtime.WithStateLocked([&](const ClusterState& state, const ConstraintManager&) {
    ASSERT_EQ(state.ContainersOf(app).size(), 2u);
    for (ContainerId c : state.ContainersOf(app)) {
      EXPECT_EQ(state.FindContainer(c)->node, NodeId(1));
    }
  });
}

// Two nodes, each fully taken by one container of a two-container app: when
// a node goes down, its container has nowhere to go.
constexpr char kFullNodeConstraint[] = "{full, {full, 0, 1}, node}";
const Resource kFullNode = Resource(16 * 1024, 8);

TEST(TwoSchedulerRuntimeTest, RejectedFailoverKeepsApplicationConstraints) {
  RuntimeConfig config = SmallConfig();
  config.num_nodes = 2;
  config.num_racks = 1;
  config.num_upgrade_domains = 1;
  config.num_service_units = 1;
  config.node_capacity = kFullNode;
  TwoSchedulerRuntime runtime(config, MakeScheduler());
  runtime.Start();
  const ApplicationId app(7);
  runtime.SubmitLra(runtime.BuildSpec([&](TagPool& tags) {
    LraSpec spec = MakeGenericLra(app, tags, 2, "full", kFullNode);
    spec.app_constraints.push_back(kFullNodeConstraint);
    return spec;
  }));
  ASSERT_TRUE(runtime.WaitLraIdle(std::chrono::seconds(10)));
  ASSERT_EQ(runtime.metrics().lras_placed, 1);

  runtime.NodeDown(NodeId(0));
  ASSERT_TRUE(runtime.WaitLraIdle(std::chrono::seconds(10)));
  runtime.Stop();

  const RuntimeMetrics metrics = runtime.metrics();
  EXPECT_EQ(metrics.lra_containers_lost, 1);
  EXPECT_EQ(metrics.failover_replacements, 0);
  EXPECT_EQ(metrics.lras_rejected, 1);
  runtime.WithStateLocked([&](const ClusterState& state, const ConstraintManager& manager) {
    // The surviving container is still deployed, and still constrained.
    EXPECT_EQ(state.ContainersOf(app).size(), 1u);
    EXPECT_EQ(manager.size(), 1u);
  });
}

TEST(PlacementServiceTest, RejectedFailoverKeepsApplicationConstraints) {
  ServiceConfig config;
  ClusterState initial = ClusterBuilder()
                             .NumNodes(2)
                             .NumRacks(1)
                             .NumUpgradeDomains(1)
                             .NumServiceUnits(1)
                             .NodeCapacity(kFullNode)
                             .Build();
  ConstraintManager manager(initial.groups_ptr());
  const ApplicationId app(7);
  LraSpec spec = MakeGenericLra(app, manager.tags(), 2, "full", kFullNode);
  ASSERT_TRUE(
      manager.AddFromText(kFullNodeConstraint, ConstraintOrigin::kApplication, app).ok());
  PlacementService service(config, std::move(initial), std::move(manager));
  const std::unique_ptr<LraScheduler> scheduler = MakeScheduler();

  service.Submit(std::move(spec.request));
  (void)service.RunSynchronous(*scheduler);
  ASSERT_EQ(service.metrics().lras_placed, 1);

  service.NodeDown(NodeId(0));
  (void)service.RunSynchronous(*scheduler);

  const ServiceMetrics metrics = service.metrics();
  EXPECT_EQ(metrics.lra_containers_lost, 1);
  EXPECT_EQ(metrics.failover_replacements, 0);
  EXPECT_EQ(metrics.lras_rejected, 1);
  EXPECT_EQ(service.AcquireSnapshot()->state.ContainersOf(app).size(), 1u);
  EXPECT_EQ(service.manager_snapshot()->size(), 1u);
}

TEST(TwoSchedulerRuntimeTest, OperatorConstraintDeduplicatesAndValidates) {
  TwoSchedulerRuntime runtime(SmallConfig(), MakeScheduler());
  const std::string text = "{hbase-worker, {hbase-worker, 0, 1}, node}";
  ASSERT_TRUE(runtime.AddOperatorConstraint(text).ok());
  ASSERT_TRUE(runtime.AddOperatorConstraint(text).ok());  // deduplicated
  EXPECT_FALSE(runtime.AddOperatorConstraint("not a constraint").ok());
  runtime.WithStateLocked([](const ClusterState&, const ConstraintManager& manager) {
    EXPECT_EQ(manager.size(), 1u);
  });
}

TEST(RuntimeDriverTest, ReplaysTimedWorkload) {
  RuntimeDriver driver(SmallConfig(), MakeScheduler());
  for (uint32_t i = 1; i <= 2; ++i) {
    const ApplicationId app(i);
    driver.At(static_cast<SimTimeMs>(i) * 10, [app](TwoSchedulerRuntime& rt) {
      rt.SubmitLra(
          rt.BuildSpec([&](TagPool& tags) { return MakeGenericLra(app, tags, 2, "driver"); }));
    });
  }
  driver.At(5, [](TwoSchedulerRuntime& rt) {
    rt.SubmitTaskJob({TaskRequest(Resource(512, 1), 5), TaskRequest(Resource(512, 1), 5)});
  });
  const RuntimeMetrics metrics = driver.Run(/*horizon_ms=*/60);
  EXPECT_EQ(metrics.lras_placed, 2);
  EXPECT_EQ(metrics.tasks_completed, 2);
}

}  // namespace
}  // namespace medea::runtime
