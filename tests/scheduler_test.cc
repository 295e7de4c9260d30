// Tests for the LRA schedulers: Medea-ILP, Medea-NC/TP, Serial, J-Kube,
// J-Kube++ and YARN. Each scenario checks placement validity (capacity,
// all-or-nothing) and the schedulers' characteristic behaviour on affinity,
// anti-affinity and cardinality constraints.

#include <gtest/gtest.h>

#include <memory>

#include "src/core/violation.h"
#include "src/schedulers/candidates.h"
#include "src/schedulers/greedy.h"
#include "src/schedulers/ilp_scheduler.h"
#include "src/schedulers/jkube.h"
#include "src/schedulers/scoring.h"
#include "src/schedulers/yarn.h"

namespace medea {
namespace {

// Shared fixture: a 16-node, 4-rack cluster with a constraint manager.
class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest()
      : state_(ClusterBuilder()
                   .NumNodes(16)
                   .NumRacks(4)
                   .NumUpgradeDomains(4)
                   .NumServiceUnits(4)
                   .NodeCapacity(Resource(16 * 1024, 8))
                   .Build()),
        manager_(state_.groups_ptr()) {}

  TagId Tag(const std::string& name) { return manager_.tags().Intern(name); }

  // Builds an LRA with `n` identical workers tagged {tags...} + appID tag.
  LraRequest MakeLra(ApplicationId app, int n, const std::vector<std::string>& tags,
                     Resource demand = Resource(1024, 1)) {
    LraRequest lra;
    lra.app = app;
    std::vector<TagId> tag_ids = manager_.tags().InternAll(tags);
    tag_ids.push_back(manager_.tags().AppIdTag(app));
    for (int i = 0; i < n; ++i) {
      lra.containers.push_back(ContainerRequest{demand, tag_ids});
    }
    return lra;
  }

  PlacementProblem Problem(std::vector<LraRequest> lras) {
    problem_lras_ = std::move(lras);
    PlacementProblem p;
    p.lras = problem_lras_;
    p.state = &state_;
    p.manager = &manager_;
    return p;
  }

  // Validates structural plan invariants and commits it.
  void CheckAndCommit(const PlacementProblem& problem, const PlacementPlan& plan) {
    // Every assignment's LRA must be marked placed, and placed LRAs must
    // have exactly one assignment per container.
    std::vector<int> counts(problem.lras.size(), 0);
    for (const Assignment& a : plan.assignments) {
      ASSERT_GE(a.lra_index, 0);
      ASSERT_LT(a.lra_index, static_cast<int>(problem.lras.size()));
      EXPECT_TRUE(plan.lra_placed[static_cast<size_t>(a.lra_index)]);
      ++counts[static_cast<size_t>(a.lra_index)];
    }
    for (size_t i = 0; i < problem.lras.size(); ++i) {
      if (plan.lra_placed[i]) {
        EXPECT_EQ(counts[i], static_cast<int>(problem.lras[i].containers.size()))
            << "LRA " << i << " partially placed";
      } else {
        EXPECT_EQ(counts[i], 0);
      }
    }
    EXPECT_TRUE(CommitPlan(problem, plan, state_));
  }

  ClusterState state_;
  ConstraintManager manager_;
  std::vector<LraRequest> problem_lras_;
};

SchedulerConfig SmallConfig() {
  SchedulerConfig config;
  config.node_pool_size = 16;
  config.candidates_per_container = 16;
  config.ilp_time_limit_seconds = 5.0;
  return config;
}

// ---- Candidate selection -----------------------------------------------------

TEST_F(SchedulerTest, CandidatePoolCoversConstraintGroups) {
  auto lra = MakeLra(ApplicationId(1), 4, {"hb"});
  ASSERT_TRUE(manager_
                  .AddFromText("{hb, {hb, 0, 0}, service_unit}", ConstraintOrigin::kApplication,
                               ApplicationId(1))
                  .ok());
  auto problem = Problem({lra});
  const auto relevant = FindRelevantConstraints(problem);
  ASSERT_EQ(relevant.with_new_subjects.size(), 1u);
  SchedulerConfig config;
  config.node_pool_size = 8;
  CandidateSelector selector(config);
  const auto pool = selector.BuildPool(problem, relevant);
  // Pool must span all four service units so the anti-affinity is satisfiable.
  std::set<int> sus;
  for (NodeId n : pool.nodes) {
    for (int s : state_.groups().SetsContaining(kNodeGroupServiceUnit, n)) {
      sus.insert(s);
    }
  }
  EXPECT_EQ(sus.size(), 4u);
}

TEST_F(SchedulerTest, CandidatePoolExcludesUnavailableNodes) {
  state_.SetNodeAvailable(NodeId(0), false);
  auto problem = Problem({MakeLra(ApplicationId(1), 2, {"a"})});
  CandidateSelector selector(SmallConfig());
  const auto pool = selector.BuildPool(problem, FindRelevantConstraints(problem));
  for (NodeId n : pool.nodes) {
    EXPECT_NE(n, NodeId(0));
  }
}

TEST_F(SchedulerTest, CandidatesRespectCapacity) {
  // Fill node 1 completely; it must not be offered for a 1 GB container.
  ASSERT_TRUE(
      state_.Allocate(ApplicationId(9), NodeId(1), Resource(16 * 1024, 8), {}, false).ok());
  auto problem = Problem({MakeLra(ApplicationId(1), 1, {"a"})});
  CandidateSelector selector(SmallConfig());
  const auto pool = selector.BuildPool(problem, FindRelevantConstraints(problem));
  const auto candidates = selector.ForContainer(problem, pool, 0, 1, Resource(1024, 1));
  for (NodeId n : candidates) {
    EXPECT_NE(n, NodeId(1));
  }
}

TEST_F(SchedulerTest, RelevanceSplitsSubjectAndAffected) {
  // Deployed app 7 has an anti-affinity on tag "old"; the new app's
  // containers carry "old", so the constraint is affected-existing.
  ASSERT_TRUE(manager_
                  .AddFromText("{old, {old, 0, 0}, node}", ConstraintOrigin::kApplication,
                               ApplicationId(7))
                  .ok());
  ASSERT_TRUE(manager_
                  .AddFromText("{new, {new, 0, 0}, node}", ConstraintOrigin::kApplication,
                               ApplicationId(8))
                  .ok());
  auto problem = Problem({MakeLra(ApplicationId(8), 2, {"new", "old"})});
  const auto relevant = FindRelevantConstraints(problem);
  EXPECT_EQ(relevant.with_new_subjects.size(), 2u);  // "old" also matches subjects
  auto problem2 = Problem({MakeLra(ApplicationId(8), 2, {"old2"})});
  const auto relevant2 = FindRelevantConstraints(problem2);
  EXPECT_TRUE(relevant2.with_new_subjects.empty());
  EXPECT_TRUE(relevant2.affected_existing.empty());
}

// ---- Scoring ------------------------------------------------------------------

TEST_F(SchedulerTest, ScoreDeltaPrefersAffinityNode) {
  const TagId mem = Tag("mem");
  ASSERT_TRUE(state_.Allocate(ApplicationId(5), NodeId(3), Resource(1024, 1), {mem}, true).ok());
  ASSERT_TRUE(manager_
                  .AddFromText("{storm, {mem, 1, inf}, node}", ConstraintOrigin::kApplication,
                               ApplicationId(6))
                  .ok());
  auto problem = Problem({MakeLra(ApplicationId(6), 1, {"storm"})});
  const auto relevant = FindRelevantConstraints(problem).All();
  ClusterState scratch = state_;
  ContainerRequest req{Resource(1024, 1), manager_.tags().InternAll({"storm"})};
  const double on_affinity =
      PlacementScoreDelta(scratch, relevant, ApplicationId(6), req, NodeId(3));
  const double elsewhere =
      PlacementScoreDelta(scratch, relevant, ApplicationId(6), req, NodeId(9));
  EXPECT_LT(on_affinity, elsewhere);
}

// ---- Individual schedulers ------------------------------------------------------

class AllSchedulers : public SchedulerTest,
                      public ::testing::WithParamInterface<const char*> {
 protected:
  std::unique_ptr<LraScheduler> Make() {
    const std::string which = GetParam();
    const SchedulerConfig config = SmallConfig();
    if (which == "ilp") {
      return std::make_unique<MedeaIlpScheduler>(config);
    }
    if (which == "nc") {
      return std::make_unique<GreedyScheduler>(GreedyOrdering::kNodeCandidates, config);
    }
    if (which == "tp") {
      return std::make_unique<GreedyScheduler>(GreedyOrdering::kTagPopularity, config);
    }
    if (which == "serial") {
      return std::make_unique<GreedyScheduler>(GreedyOrdering::kSerial, config);
    }
    if (which == "jkube") {
      return std::make_unique<JKubeScheduler>(false, config);
    }
    if (which == "jkubepp") {
      return std::make_unique<JKubeScheduler>(true, config);
    }
    return std::make_unique<YarnScheduler>(config);
  }
};

TEST_P(AllSchedulers, PlacesUnconstrainedLra) {
  auto scheduler = Make();
  auto problem = Problem({MakeLra(ApplicationId(1), 5, {"w"})});
  const auto plan = scheduler->Place(problem);
  EXPECT_EQ(plan.NumPlaced(), 1);
  EXPECT_EQ(plan.assignments.size(), 5u);
  CheckAndCommit(problem, plan);
  EXPECT_EQ(state_.num_containers(), 5u);
}

TEST_P(AllSchedulers, AllOrNothingWhenClusterTooSmall) {
  auto scheduler = Make();
  // 40 containers of 8 cores each cannot fit on 16 nodes x 8 cores along
  // with another full-cluster LRA; at least one LRA must be rejected whole.
  auto big1 = MakeLra(ApplicationId(1), 16, {"a"}, Resource(8 * 1024, 8));
  auto big2 = MakeLra(ApplicationId(2), 16, {"b"}, Resource(12 * 1024, 8));
  auto problem = Problem({big1, big2});
  const auto plan = scheduler->Place(problem);
  for (size_t i = 0; i < problem.lras.size(); ++i) {
    int count = 0;
    for (const auto& a : plan.assignments) {
      count += a.lra_index == static_cast<int>(i) ? 1 : 0;
    }
    if (plan.lra_placed[i]) {
      EXPECT_EQ(count, 16);
    } else {
      EXPECT_EQ(count, 0);
    }
  }
  CheckAndCommit(problem, plan);
}

TEST_P(AllSchedulers, PlanDoesNotMutateInputState) {
  auto scheduler = Make();
  auto problem = Problem({MakeLra(ApplicationId(1), 3, {"w"})});
  scheduler->Place(problem);
  EXPECT_EQ(state_.num_containers(), 0u);
}

TEST_P(AllSchedulers, ReportsLatency) {
  auto scheduler = Make();
  auto problem = Problem({MakeLra(ApplicationId(1), 3, {"w"})});
  const auto plan = scheduler->Place(problem);
  EXPECT_GE(plan.latency_ms, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AllSchedulers,
                         ::testing::Values("ilp", "nc", "tp", "serial", "jkube", "jkubepp",
                                           "yarn"));

// ---- Constraint-awareness matrix ---------------------------------------------

// Schedulers that must satisfy a satisfiable anti-affinity constraint.
class ConstraintAware : public SchedulerTest,
                        public ::testing::WithParamInterface<const char*> {
 protected:
  std::unique_ptr<LraScheduler> Make() {
    const std::string which = GetParam();
    const SchedulerConfig config = SmallConfig();
    if (which == "ilp") {
      return std::make_unique<MedeaIlpScheduler>(config);
    }
    if (which == "nc") {
      return std::make_unique<GreedyScheduler>(GreedyOrdering::kNodeCandidates, config);
    }
    if (which == "tp") {
      return std::make_unique<GreedyScheduler>(GreedyOrdering::kTagPopularity, config);
    }
    if (which == "serial") {
      return std::make_unique<GreedyScheduler>(GreedyOrdering::kSerial, config);
    }
    if (which == "jkubepp") {
      return std::make_unique<JKubeScheduler>(true, config);
    }
    return std::make_unique<JKubeScheduler>(false, config);
  }
};

TEST_P(ConstraintAware, SatisfiesNodeAntiAffinity) {
  ASSERT_TRUE(manager_
                  .AddFromText("{hb, {hb, 0, 0}, node}", ConstraintOrigin::kApplication,
                               ApplicationId(1))
                  .ok());
  auto scheduler = Make();
  auto problem = Problem({MakeLra(ApplicationId(1), 8, {"hb"})});
  const auto plan = scheduler->Place(problem);
  ASSERT_EQ(plan.NumPlaced(), 1);
  CheckAndCommit(problem, plan);
  const auto report = ConstraintEvaluator::EvaluateAll(state_, manager_);
  EXPECT_EQ(report.violated_subjects, 0) << scheduler->name();
}

TEST_P(ConstraintAware, SatisfiesIntraAppRackAffinity) {
  ASSERT_TRUE(manager_
                  .AddFromText("{w, {w, 1, inf}, rack}", ConstraintOrigin::kApplication,
                               ApplicationId(1))
                  .ok());
  auto scheduler = Make();
  auto problem = Problem({MakeLra(ApplicationId(1), 4, {"w"})});
  const auto plan = scheduler->Place(problem);
  ASSERT_EQ(plan.NumPlaced(), 1);
  CheckAndCommit(problem, plan);
  const auto report = ConstraintEvaluator::EvaluateAll(state_, manager_);
  EXPECT_EQ(report.violated_subjects, 0) << scheduler->name();
}

INSTANTIATE_TEST_SUITE_P(Sweep, ConstraintAware,
                         ::testing::Values("ilp", "nc", "tp", "serial", "jkubepp", "jkube"));

// Cardinality support matrix: Medea schedulers and J-Kube++ satisfy
// cardinality; J-Kube ignores it.
class CardinalityAware : public SchedulerTest,
                         public ::testing::WithParamInterface<const char*> {};

TEST_F(SchedulerTest, JKubeIgnoresCardinalityJKubePlusPlusHonorsIt) {
  // At most 1 worker per node; 6 workers. With 16 nodes this is satisfiable.
  ASSERT_TRUE(manager_
                  .AddFromText("{w, {w, 0, 1}, node}", ConstraintOrigin::kApplication,
                               ApplicationId(1))
                  .ok());
  // J-Kube++ satisfies it.
  {
    JKubeScheduler jkpp(true, SmallConfig());
    ClusterState snapshot = state_;
    auto problem = Problem({MakeLra(ApplicationId(1), 6, {"w"})});
    const auto plan = jkpp.Place(problem);
    ASSERT_EQ(plan.NumPlaced(), 1);
    ASSERT_TRUE(CommitPlan(problem, plan, snapshot));
    ConstraintManager& m = manager_;
    const auto report = ConstraintEvaluator::EvaluateAll(snapshot, m);
    EXPECT_EQ(report.violated_subjects, 0);
  }
  // Plain J-Kube spreads only via least-requested scoring; on an empty
  // cluster that may or may not collide, so instead verify it reports the
  // constraint as invisible: its plan must be produced without error.
  {
    JKubeScheduler jk(false, SmallConfig());
    auto problem = Problem({MakeLra(ApplicationId(1), 6, {"w"})});
    const auto plan = jk.Place(problem);
    EXPECT_EQ(plan.NumPlaced(), 1);
  }
}

TEST_F(SchedulerTest, IlpSatisfiesCardinalityWindow) {
  // Exactly 2 workers per node (cmin=2, cmax=2) for 8 workers -> 4 nodes.
  ASSERT_TRUE(manager_
                  .AddFromText("{w, {w, 1, 1}, node}", ConstraintOrigin::kApplication,
                               ApplicationId(1))
                  .ok());
  MedeaIlpScheduler ilp(SmallConfig());
  auto problem = Problem({MakeLra(ApplicationId(1), 8, {"w"})});
  const auto plan = ilp.Place(problem);
  ASSERT_EQ(plan.NumPlaced(), 1);
  CheckAndCommit(problem, plan);
  const auto report = ConstraintEvaluator::EvaluateAll(state_, manager_);
  EXPECT_EQ(report.violated_subjects, 0);
  // Every used node must hold exactly 2 workers.
  state_.ForEachNode([&](const Node& node) {
    EXPECT_TRUE(node.containers().empty() || node.containers().size() == 2u);
  });
}

TEST_F(SchedulerTest, IlpSatisfiesInterAppAffinity) {
  // Deploy a memcached container, then require storm near it.
  const TagId mem = Tag("mem");
  ASSERT_TRUE(state_.Allocate(ApplicationId(5), NodeId(7), Resource(1024, 1), {mem}, true).ok());
  ASSERT_TRUE(manager_
                  .AddFromText("{storm, {mem, 1, inf}, node}", ConstraintOrigin::kApplication,
                               ApplicationId(6))
                  .ok());
  MedeaIlpScheduler ilp(SmallConfig());
  auto problem = Problem({MakeLra(ApplicationId(6), 2, {"storm"})});
  const auto plan = ilp.Place(problem);
  ASSERT_EQ(plan.NumPlaced(), 1);
  for (const auto& a : plan.assignments) {
    EXPECT_EQ(a.node, NodeId(7));
  }
}

TEST_F(SchedulerTest, IlpRespectsDeployedAppConstraints) {
  // Deployed app 3 demands anti-affinity between its "db" containers and any
  // "noisy" container on the same node.
  const TagId db = Tag("db");
  ASSERT_TRUE(state_.Allocate(ApplicationId(3), NodeId(2), Resource(1024, 1), {db}, true).ok());
  ASSERT_TRUE(manager_
                  .AddFromText("{db, {noisy, 0, 0}, node}", ConstraintOrigin::kApplication,
                               ApplicationId(3))
                  .ok());
  MedeaIlpScheduler ilp(SmallConfig());
  auto problem = Problem({MakeLra(ApplicationId(4), 3, {"noisy"})});
  const auto plan = ilp.Place(problem);
  ASSERT_EQ(plan.NumPlaced(), 1);
  for (const auto& a : plan.assignments) {
    EXPECT_NE(a.node, NodeId(2));
  }
}

TEST_F(SchedulerTest, IlpHandlesDnfConstraint) {
  // Either all workers on one node (<=1 node total) or fully spread.
  ASSERT_TRUE(manager_
                  .AddFromText("{w, {w, 2, 2}, node} || {w, {w, 0, 0}, node}",
                               ConstraintOrigin::kApplication, ApplicationId(1))
                  .ok());
  MedeaIlpScheduler ilp(SmallConfig());
  auto problem = Problem({MakeLra(ApplicationId(1), 3, {"w"})});
  const auto plan = ilp.Place(problem);
  ASSERT_EQ(plan.NumPlaced(), 1);
  CheckAndCommit(problem, plan);
  const auto report = ConstraintEvaluator::EvaluateAll(state_, manager_);
  EXPECT_EQ(report.violated_subjects, 0);
}

TEST_F(SchedulerTest, IlpPrefersPlacingOverViolating) {
  // Unsatisfiable anti-affinity (more containers than nodes): the ILP must
  // still place the LRA (soft constraints) and minimize violations.
  ASSERT_TRUE(manager_
                  .AddFromText("{w, {w, 0, 0}, rack}", ConstraintOrigin::kApplication,
                               ApplicationId(1))
                  .ok());
  MedeaIlpScheduler ilp(SmallConfig());
  auto problem = Problem({MakeLra(ApplicationId(1), 6, {"w"})});  // 6 > 4 racks
  const auto plan = ilp.Place(problem);
  EXPECT_EQ(plan.NumPlaced(), 1);
}

TEST_F(SchedulerTest, IlpMultiLraBatchSeesInterAppConstraints) {
  // Two LRAs submitted together, with an inter-app affinity: app B's
  // containers must share a rack with app A's.
  ASSERT_TRUE(manager_
                  .AddFromText("{bw, {aw, 1, inf}, rack}", ConstraintOrigin::kApplication,
                               ApplicationId(2))
                  .ok());
  MedeaIlpScheduler ilp(SmallConfig());
  auto problem =
      Problem({MakeLra(ApplicationId(1), 2, {"aw"}), MakeLra(ApplicationId(2), 2, {"bw"})});
  const auto plan = ilp.Place(problem);
  ASSERT_EQ(plan.NumPlaced(), 2);
  CheckAndCommit(problem, plan);
  const auto report = ConstraintEvaluator::EvaluateAll(state_, manager_);
  EXPECT_EQ(report.violated_subjects, 0);
}

TEST_F(SchedulerTest, IlpStatsExposed) {
  MedeaIlpScheduler ilp(SmallConfig());
  auto problem = Problem({MakeLra(ApplicationId(1), 2, {"w"})});
  ilp.Place(problem);
  const auto& stats = ilp.last_stats();
  EXPECT_GT(stats.variables, 0);
  EXPECT_GT(stats.rows, 0);
  EXPECT_TRUE(stats.status == solver::SolveStatus::kOptimal ||
              stats.status == solver::SolveStatus::kFeasible);
}

TEST_F(SchedulerTest, CommitPlanRollsBackOnConflict) {
  auto problem = Problem({MakeLra(ApplicationId(1), 2, {"w"}, Resource(12 * 1024, 4))});
  PlacementPlan plan;
  plan.lra_placed = {true};
  // Both containers planned on node 0: the second cannot fit -> rollback.
  plan.assignments = {{0, 0, NodeId(0)}, {0, 1, NodeId(0)}};
  std::vector<bool> committed;
  EXPECT_FALSE(CommitPlan(problem, plan, state_, &committed));
  EXPECT_FALSE(committed[0]);
  EXPECT_EQ(state_.num_containers(), 0u);
}

TEST_F(SchedulerTest, CommitPlanAllocatesLongRunning) {
  auto problem = Problem({MakeLra(ApplicationId(7), 1, {"w"})});
  PlacementPlan plan;
  plan.lra_placed = {true};
  plan.assignments = {{0, 0, NodeId(2)}};
  std::vector<bool> committed;
  EXPECT_TRUE(CommitPlan(problem, plan, state_, &committed));
  EXPECT_TRUE(committed[0]);
  EXPECT_EQ(state_.num_long_running_containers(), 1u);
}

TEST_F(SchedulerTest, CommitPlanRejectsNodeFilledByTasks) {
  // Tasks took node 2 after the plan was made: the stale plan no longer fits.
  ASSERT_TRUE(
      state_.Allocate(ApplicationId(9), NodeId(2), Resource(16 * 1024, 8), {}, false).ok());
  auto problem = Problem({MakeLra(ApplicationId(7), 1, {"w"})});
  PlacementPlan plan;
  plan.lra_placed = {true};
  plan.assignments = {{0, 0, NodeId(2)}};
  std::vector<bool> committed;
  EXPECT_FALSE(CommitPlan(problem, plan, state_, &committed));
  EXPECT_FALSE(committed[0]);
  EXPECT_EQ(state_.num_long_running_containers(), 0u);
}

TEST_F(SchedulerTest, YarnIsDeterministicPerSeed) {
  SchedulerConfig config = SmallConfig();
  config.seed = 7;
  YarnScheduler a(config);
  YarnScheduler b(config);
  auto problem = Problem({MakeLra(ApplicationId(1), 4, {"w"})});
  const auto plan_a = a.Place(problem);
  const auto plan_b = b.Place(problem);
  ASSERT_EQ(plan_a.assignments.size(), plan_b.assignments.size());
  for (size_t i = 0; i < plan_a.assignments.size(); ++i) {
    EXPECT_EQ(plan_a.assignments[i].node, plan_b.assignments[i].node);
  }
}

}  // namespace
}  // namespace medea
