// Copyright (c) Medea reproduction authors.
// Unit tests for the LRA pipeline core (src/runtime/lra_pipeline.h) on its
// own, without a front end: per-LRA revalidation, the staleness rule of the
// commit, resolve (placed, requeue, attempt cap, constraint drop), cancel by
// application and node-loss failover collection. The front-end suites
// (SimulationTest, TwoSchedulerRuntimeTest, PlacementServiceTest) cover the
// same core through their drivers.

#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/runtime/lra_pipeline.h"

namespace medea::runtime {
namespace {

const Resource kNodeCapacity(4096, 4);
const Resource kContainer(2048, 1);

ClusterState ThreeNodes() {
  return ClusterBuilder()
      .NumNodes(3)
      .NumRacks(1)
      .NumUpgradeDomains(1)
      .NumServiceUnits(1)
      .NodeCapacity(kNodeCapacity)
      .Build();
}

LraRequest TwoContainers(ApplicationId app) {
  return LraRequest{app, {ContainerRequest{kContainer, {}}, ContainerRequest{kContainer, {}}}};
}

// A one-LRA batch of TwoContainers(app 1).
LraBatch OneLraBatch() {
  LraPipeline pipeline(/*max_attempts=*/3);
  pipeline.Submit(TwoContainers(ApplicationId(1)), /*now=*/0);
  return pipeline.TakeBatch(0);
}

PlacementPlan PlanFor(std::vector<Assignment> assignments) {
  PlacementPlan plan;
  plan.lra_placed = {true};
  plan.assignments = std::move(assignments);
  return plan;
}

TEST(LraPipelineTest, RevalidateChecksEveryAssignmentAgainstTheLiveState) {
  struct Case {
    std::string name;
    std::function<void(ClusterState&)> change;  // what happened since planning
    std::vector<Assignment> assignments;
    bool fits;
  };
  const auto nothing = [](ClusterState&) {};
  const std::vector<Case> cases = {
      {"still fits", nothing, {{0, 0, NodeId(0)}, {0, 1, NodeId(1)}}, true},
      {"node went down",
       [](ClusterState& s) { s.SetNodeAvailable(NodeId(1), false); },
       {{0, 0, NodeId(0)}, {0, 1, NodeId(1)}},
       false},
      // Each container alone fits node 0's 3 GB of free memory; the two
      // together need 4 GB.
      {"too little capacity for the per-node total",
       [](ClusterState& s) {
         ASSERT_TRUE(s.Allocate(ApplicationId(9), NodeId(0), Resource(1024, 1), {}, false).ok());
       },
       {{0, 0, NodeId(0)}, {0, 1, NodeId(0)}},
       false},
      {"out-of-range node", nothing, {{0, 0, NodeId(0)}, {0, 1, NodeId(99)}}, false},
      {"invalid node", nothing, {{0, 0, NodeId(0)}, {0, 1, NodeId::Invalid()}}, false},
      {"out-of-range container index", nothing, {{0, 0, NodeId(0)}, {0, 2, NodeId(1)}}, false},
      {"negative container index", nothing, {{0, 0, NodeId(0)}, {0, -1, NodeId(1)}}, false},
      {"another LRA's assignment is ignored", nothing, {{0, 0, NodeId(0)}, {1, 7, NodeId(99)}},
       true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ClusterState live = ThreeNodes();
    c.change(live);
    const LraBatch batch = OneLraBatch();
    EXPECT_EQ(LraPipeline::Revalidate(live, batch, PlanFor(c.assignments), 0), c.fits);
  }
}

TEST(LraPipelineTest, OnlyAStalePlanIsRevalidatedBeforeCommit) {
  struct Case {
    std::string name;
    bool stale;
    int demoted;  // caught by revalidation, before any allocation
  };
  const std::vector<Case> cases = {{"stale", true, 1}, {"fresh", false, 0}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ClusterState live = ThreeNodes();
    live.SetNodeAvailable(NodeId(1), false);
    LraBatch batch = OneLraBatch();
    PlacementPlan plan = PlanFor({{0, 0, NodeId(0)}, {0, 1, NodeId(1)}});
    const LraCommit commit = LraPipeline::Commit(batch, plan, live, c.stale);
    EXPECT_EQ(commit.demoted, c.demoted);
    EXPECT_EQ(plan.lra_placed[0], !c.stale);  // revalidation unplaces it in the plan
    // Either way the LRA does not land, it counts as a conflict, and the
    // failed allocation was rolled back.
    EXPECT_EQ(commit.landed, std::vector<bool>{false});
    EXPECT_EQ(commit.conflicts, 1);
    EXPECT_EQ(live.num_containers(), 0u);
    // The batch gets its requests back from the commit.
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch.lras[0].containers.size(), 2u);
  }
}

TEST(LraPipelineTest, CommitLandsAFittingPlan) {
  ClusterState live = ThreeNodes();
  LraBatch batch = OneLraBatch();
  PlacementPlan plan = PlanFor({{0, 0, NodeId(0)}, {0, 1, NodeId(2)}});
  const LraCommit commit = LraPipeline::Commit(batch, plan, live, /*stale=*/true);
  EXPECT_EQ(commit.landed, std::vector<bool>{true});
  EXPECT_EQ(commit.conflicts, 0);
  EXPECT_EQ(commit.demoted, 0);
  EXPECT_EQ(live.ContainersOf(ApplicationId(1)).size(), 2u);
}

TEST(LraPipelineTest, ResolveSettlesEachLra) {
  struct Case {
    std::string name;
    bool is_failover;
    int attempts;  // failed cycles before this one
    bool landed;
    LraVerdict verdict;
    size_t queued_after;
  };
  // max_attempts = 2: the second failed cycle rejects.
  const std::vector<Case> cases = {
      {"placed", false, 0, true, LraVerdict::kPlaced, 0},
      {"failover placed", true, 1, true, LraVerdict::kFailoverPlaced, 0},
      {"first miss requeues", false, 0, false, LraVerdict::kRequeued, 1},
      {"failover first miss requeues", true, 0, false, LraVerdict::kRequeued, 1},
      {"attempt cap rejects and drops constraints", false, 1, false, LraVerdict::kRejected, 0},
      {"rejected failover keeps constraints", true, 1, false, LraVerdict::kFailoverRejected, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    LraPipeline pipeline(/*max_attempts=*/2);
    LraBatch batch;
    batch.lras.push_back(TwoContainers(ApplicationId(5)));
    batch.submit_ms.push_back(100);
    batch.attempts.push_back(c.attempts);
    batch.is_failover.push_back(c.is_failover);
    const LraResolution resolution = pipeline.Resolve(batch, {c.landed});
    ASSERT_EQ(resolution.verdicts.size(), 1u);
    EXPECT_EQ(resolution.verdicts[0], c.verdict);
    EXPECT_EQ(resolution.Count(c.verdict), 1);
    EXPECT_EQ(pipeline.size(), c.queued_after);
    if (c.queued_after > 0) {
      // A requeued LRA keeps its submit time and failover flag and carries
      // one more attempt.
      const LraBatch next = pipeline.TakeBatch(0);
      EXPECT_EQ(next.lras[0].app, ApplicationId(5));
      EXPECT_EQ(next.lras[0].containers.size(), 2u);
      EXPECT_EQ(next.submit_ms[0], 100);
      EXPECT_EQ(next.attempts[0], c.attempts + 1);
      EXPECT_EQ(next.is_failover[0], c.is_failover);
    }
  }
}

TEST(LraPipelineTest, AttemptCapBoundsTheCyclesAnLraCanFail) {
  LraPipeline pipeline(/*max_attempts=*/3);
  pipeline.Submit(TwoContainers(ApplicationId(1)), 0);
  int cycles = 0;
  LraResolution last;
  while (!pipeline.empty()) {
    LraBatch batch = pipeline.TakeBatch(0);
    last = pipeline.Resolve(batch, {false});
    ++cycles;
  }
  EXPECT_EQ(cycles, 3);
  EXPECT_EQ(last.verdicts, std::vector<LraVerdict>{LraVerdict::kRejected});
}

TEST(LraPipelineTest, TakeBatchTakesTheOldestUpToTheCap) {
  LraPipeline pipeline(3);
  for (uint32_t app = 1; app <= 3; ++app) {
    pipeline.Submit(TwoContainers(ApplicationId(app)), app * 10);
  }
  const LraBatch first = pipeline.TakeBatch(2);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first.lras[0].app, ApplicationId(1));
  EXPECT_EQ(first.lras[1].app, ApplicationId(2));
  EXPECT_EQ(first.submit_ms, (std::vector<SimTimeMs>{10, 20}));
  const LraBatch rest = pipeline.TakeBatch(0);  // 0 = everything pending
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest.lras[0].app, ApplicationId(3));
  EXPECT_TRUE(pipeline.empty());
}

TEST(LraPipelineTest, CancelDropsEveryQueuedRequestOfTheApp) {
  LraPipeline pipeline(3);
  pipeline.Submit(TwoContainers(ApplicationId(1)), 0);
  pipeline.Submit(TwoContainers(ApplicationId(2)), 0);
  pipeline.SubmitFailover({{ApplicationId(1), TwoContainers(ApplicationId(1))}}, 5);
  pipeline.Cancel(ApplicationId(1));
  EXPECT_EQ(pipeline.size(), 1u);
  pipeline.Cancel(ApplicationId(7));
  EXPECT_EQ(pipeline.size(), 1u);
  const LraBatch left = pipeline.TakeBatch(0);
  ASSERT_EQ(left.size(), 1u);
  EXPECT_EQ(left.lras[0].app, ApplicationId(2));
}

TEST(LraPipelineTest, FailNodeTurnsLostLraContainersIntoFailoverRequests) {
  ClusterState live = ThreeNodes();
  ASSERT_TRUE(live.Allocate(ApplicationId(1), NodeId(0), Resource(1024, 1), {}, true).ok());
  ASSERT_TRUE(live.Allocate(ApplicationId(1), NodeId(0), Resource(512, 1), {}, true).ok());
  ASSERT_TRUE(live.Allocate(ApplicationId(2), NodeId(0), Resource(512, 1), {}, true).ok());
  ASSERT_TRUE(live.Allocate(ApplicationId(1), NodeId(1), Resource(512, 1), {}, true).ok());
  const auto task = live.Allocate(ApplicationId(3), NodeId(0), Resource(256, 1), {}, false);
  ASSERT_TRUE(task.ok());

  std::vector<ContainerId> tasks_seen;
  LostLras lost = LraPipeline::FailNode(live, NodeId(0), &tasks_seen);
  EXPECT_FALSE(live.node(NodeId(0)).available());
  EXPECT_EQ(tasks_seen, std::vector<ContainerId>{*task});
  // The LRA containers are released; the task is left to the front end.
  EXPECT_EQ(live.node(NodeId(0)).containers().size(), 1u);
  EXPECT_EQ(live.ContainersOf(ApplicationId(1)).size(), 1u);
  ASSERT_EQ(lost.size(), 2u);
  EXPECT_EQ(lost.at(ApplicationId(1)).app, ApplicationId(1));
  EXPECT_EQ(lost.at(ApplicationId(1)).containers.size(), 2u);
  EXPECT_EQ(lost.at(ApplicationId(2)).containers.size(), 1u);

  LraPipeline pipeline(3);
  EXPECT_EQ(pipeline.SubmitFailover(std::move(lost), 42), 3u);
  const LraBatch batch = pipeline.TakeBatch(0);
  EXPECT_EQ(batch.is_failover, (std::vector<bool>{true, true}));
  EXPECT_EQ(batch.submit_ms, (std::vector<SimTimeMs>{42, 42}));
}

}  // namespace
}  // namespace medea::runtime
