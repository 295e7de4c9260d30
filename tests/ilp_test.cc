// Targeted tests of the Medea-ILP scheduler's Fig. 5 formulation: exact
// cardinality windows, static-tag affinity, fragmentation pressure (Eq. 5),
// deployed-app rows, weight sensitivity, warm-start and budget behaviour.

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/core/violation.h"
#include "src/schedulers/greedy.h"
#include "src/schedulers/ilp_scheduler.h"
#include "src/solver/lp_reader.h"
#include "src/solver/mip.h"
#include "src/workload/lra_templates.h"

namespace medea {
namespace {

class IlpTest : public ::testing::Test {
 protected:
  IlpTest()
      : state_(ClusterBuilder()
                   .NumNodes(12)
                   .NumRacks(3)
                   .NumUpgradeDomains(3)
                   .NumServiceUnits(3)
                   .NodeCapacity(Resource(16 * 1024, 8))
                   .Build()),
        manager_(state_.groups_ptr()) {}

  SchedulerConfig Config() {
    SchedulerConfig config;
    config.node_pool_size = 12;
    config.candidates_per_container = 12;
    config.ilp_time_limit_seconds = 5.0;
    return config;
  }

  LraRequest Lra(ApplicationId app, int n, const std::string& tag,
                 Resource demand = Resource(1024, 1)) {
    return MakeGenericLra(app, manager_.tags(), n, tag, demand).request;
  }

  PlacementPlan PlaceAndCommit(std::vector<LraRequest> lras, SchedulerConfig config) {
    MedeaIlpScheduler ilp(config);
    PlacementProblem problem;
    problem.lras = std::move(lras);
    problem.state = &state_;
    problem.manager = &manager_;
    const auto plan = ilp.Place(problem);
    CommitPlan(problem, plan, state_);
    last_stats_ = ilp.last_stats();
    return plan;
  }

  ClusterState state_;
  ConstraintManager manager_;
  MedeaIlpScheduler::LastSolveStats last_stats_;
};

TEST_F(IlpTest, ExactCardinalityWindow) {
  // Exactly 3 workers per node (cmin=2 others, cmax=2 others) for 6 workers.
  ASSERT_TRUE(manager_
                  .AddFromText("{w, {w, 2, 2}, node}", ConstraintOrigin::kApplication,
                               ApplicationId(1))
                  .ok());
  const auto plan = PlaceAndCommit({Lra(ApplicationId(1), 6, "w")}, Config());
  ASSERT_EQ(plan.NumPlaced(), 1);
  int used_nodes = 0;
  state_.ForEachNode([&](const Node& node) {
    if (!node.containers().empty()) {
      EXPECT_EQ(node.containers().size(), 3u);
      ++used_nodes;
    }
  });
  EXPECT_EQ(used_nodes, 2);
}

TEST_F(IlpTest, StaticTagAffinity) {
  // "gpu" is a static node tag on nodes 4 and 9; ML workers demand it.
  const TagId gpu = manager_.tags().Intern("gpu");
  state_.AddStaticNodeTag(NodeId(4), gpu);
  state_.AddStaticNodeTag(NodeId(9), gpu);
  ASSERT_TRUE(manager_
                  .AddFromText("{ml, {gpu, 1, inf}, node}", ConstraintOrigin::kApplication,
                               ApplicationId(1))
                  .ok());
  const auto plan = PlaceAndCommit({Lra(ApplicationId(1), 4, "ml")}, Config());
  ASSERT_EQ(plan.NumPlaced(), 1);
  for (const Assignment& a : plan.assignments) {
    EXPECT_TRUE(a.node == NodeId(4) || a.node == NodeId(9)) << "node " << a.node.value;
  }
}

TEST_F(IlpTest, FragmentationPressureAvoidsCreatingCrumbs) {
  // Eq. 5's z-term penalizes leaving a node with less than r_min free.
  // Nodes 0-3 have 3 GB free; placing a 2 GB container there would strand
  // 1 GB (< r_min = 2 GB). With plenty of empty nodes, the ILP must not
  // create new fragmented nodes.
  for (uint32_t n = 0; n < 4; ++n) {
    ASSERT_TRUE(state_
                    .Allocate(ApplicationId(99), NodeId(n), Resource(13 * 1024, 1), {}, false)
                    .ok());
  }
  EXPECT_DOUBLE_EQ(state_.FragmentedNodeFraction(Resource(2048, 1)), 0.0);
  const auto plan = PlaceAndCommit({Lra(ApplicationId(1), 6, "w", Resource(2048, 1))},
                                   Config());
  ASSERT_EQ(plan.NumPlaced(), 1);
  EXPECT_DOUBLE_EQ(state_.FragmentedNodeFraction(Resource(2048, 1)), 0.0);
}

TEST_F(IlpTest, RespectsDeployedAppAntiAffinityViaSharedTag) {
  // Deployed app 5 holds "quiet" containers with an operator rule keeping
  // "noisy" away from quiet nodes.
  const TagId quiet = manager_.tags().Intern("quiet");
  ASSERT_TRUE(state_.Allocate(ApplicationId(5), NodeId(2), Resource(1024, 1), {quiet}, true)
                  .ok());
  ASSERT_TRUE(state_.Allocate(ApplicationId(5), NodeId(7), Resource(1024, 1), {quiet}, true)
                  .ok());
  ASSERT_TRUE(
      manager_.AddFromText("{quiet, {noisy, 0, 0}, node}", ConstraintOrigin::kOperator).ok());
  const auto plan = PlaceAndCommit({Lra(ApplicationId(6), 6, "noisy")}, Config());
  ASSERT_EQ(plan.NumPlaced(), 1);
  for (const Assignment& a : plan.assignments) {
    EXPECT_NE(a.node, NodeId(2));
    EXPECT_NE(a.node, NodeId(7));
  }
}

TEST_F(IlpTest, HigherWeightConstraintWinsConflict) {
  // Two irreconcilable soft constraints on the same subject: affinity to
  // "anchor" (weight 5) vs anti-affinity to it (weight 0.1). The heavy one
  // must be satisfied.
  const TagId anchor = manager_.tags().Intern("anchor");
  ASSERT_TRUE(
      state_.Allocate(ApplicationId(5), NodeId(3), Resource(1024, 1), {anchor}, true).ok());
  ASSERT_TRUE(manager_
                  .AddFromText("{w, {anchor, 1, inf}, node} #5", ConstraintOrigin::kApplication,
                               ApplicationId(1))
                  .ok());
  ASSERT_TRUE(manager_
                  .AddFromText("{w, {anchor, 0, 0}, node} #0.1",
                               ConstraintOrigin::kApplication, ApplicationId(1))
                  .ok());
  const auto plan = PlaceAndCommit({Lra(ApplicationId(1), 2, "w")}, Config());
  ASSERT_EQ(plan.NumPlaced(), 1);
  for (const Assignment& a : plan.assignments) {
    EXPECT_EQ(a.node, NodeId(3));
  }
}

TEST_F(IlpTest, ColdSolveStillPlaces) {
  SchedulerConfig config = Config();
  config.ilp_warm_start = false;
  ASSERT_TRUE(manager_
                  .AddFromText("{w, {w, 0, 0}, node}", ConstraintOrigin::kApplication,
                               ApplicationId(1))
                  .ok());
  const auto plan = PlaceAndCommit({Lra(ApplicationId(1), 4, "w")}, config);
  EXPECT_EQ(plan.NumPlaced(), 1);
  const auto report = ConstraintEvaluator::EvaluateAll(state_, manager_);
  EXPECT_EQ(report.violated_subjects, 0);
}

TEST_F(IlpTest, TimeBudgetRespected) {
  SchedulerConfig config = Config();
  config.ilp_time_limit_seconds = 0.05;
  // A deliberately contended problem.
  ASSERT_TRUE(manager_
                  .AddFromText("{w, {w, 0, 0}, node}", ConstraintOrigin::kApplication,
                               ApplicationId(1))
                  .ok());
  MedeaIlpScheduler ilp(config);
  PlacementProblem problem;
  problem.lras = {Lra(ApplicationId(1), 10, "w")};
  problem.state = &state_;
  problem.manager = &manager_;
  const auto plan = ilp.Place(problem);
  // Budget + greedy warm start + model build: allow generous slack, but the
  // solve must not run unbounded.
  EXPECT_LT(plan.latency_ms, 1500.0);
  EXPECT_EQ(plan.NumPlaced(), 1);  // anytime behaviour: incumbent exists
}

// A budget that runs out before the solve installs any incumbent: the solve
// returns no solution.
constexpr double kExpiredBudgetSeconds = 1e-9;

TEST_F(IlpTest, BudgetOverrunFallsBackToTheGreedyWarmStartPlan) {
  SchedulerConfig config = Config();
  config.ilp_time_limit_seconds = kExpiredBudgetSeconds;
  ASSERT_TRUE(manager_
                  .AddFromText("{w, {w, 0, 0}, node}", ConstraintOrigin::kApplication,
                               ApplicationId(1))
                  .ok());
  PlacementProblem problem;
  problem.lras = {Lra(ApplicationId(1), 6, "w"), Lra(ApplicationId(2), 3, "x")};
  problem.state = &state_;
  problem.manager = &manager_;
  MedeaIlpScheduler ilp(config);
  const PlacementPlan plan = ilp.Place(problem);
  ASSERT_EQ(ilp.last_stats().status, solver::SolveStatus::kTimeLimit);
  EXPECT_TRUE(ilp.last_stats().greedy_fallback);

  GreedyScheduler greedy(GreedyOrdering::kSerial, config, /*impact_aware=*/true);
  const PlacementPlan expected = greedy.Place(problem);
  EXPECT_EQ(plan.NumPlaced(), 2);
  EXPECT_EQ(plan.lra_placed, expected.lra_placed);
  ASSERT_EQ(plan.assignments.size(), expected.assignments.size());
  for (size_t i = 0; i < plan.assignments.size(); ++i) {
    EXPECT_EQ(plan.assignments[i].lra_index, expected.assignments[i].lra_index);
    EXPECT_EQ(plan.assignments[i].container_index, expected.assignments[i].container_index);
    EXPECT_EQ(plan.assignments[i].node, expected.assignments[i].node);
  }
}

TEST_F(IlpTest, BudgetOverrunWithoutWarmStartReturnsNoPlacement) {
  SchedulerConfig config = Config();
  config.ilp_time_limit_seconds = kExpiredBudgetSeconds;
  config.ilp_warm_start = false;
  MedeaIlpScheduler ilp(config);
  PlacementProblem problem;
  problem.lras = {Lra(ApplicationId(1), 6, "w")};
  problem.state = &state_;
  problem.manager = &manager_;
  const PlacementPlan plan = ilp.Place(problem);
  ASSERT_EQ(ilp.last_stats().status, solver::SolveStatus::kTimeLimit);
  EXPECT_FALSE(ilp.last_stats().greedy_fallback);
  EXPECT_EQ(plan.NumPlaced(), 0);
  EXPECT_TRUE(plan.assignments.empty());
}

TEST_F(IlpTest, EmptyProblemYieldsEmptyPlan) {
  MedeaIlpScheduler ilp(Config());
  PlacementProblem problem;
  problem.state = &state_;
  problem.manager = &manager_;
  const auto plan = ilp.Place(problem);
  EXPECT_EQ(plan.NumPlaced(), 0);
  EXPECT_TRUE(plan.assignments.empty());
}

TEST_F(IlpTest, UnplaceableLraReportedNotPlaced) {
  // Demands exceed any node.
  const auto plan = PlaceAndCommit(
      {Lra(ApplicationId(1), 2, "w", Resource(32 * 1024, 16))}, Config());
  EXPECT_EQ(plan.NumPlaced(), 0);
  EXPECT_EQ(state_.num_containers(), 0u);
}

TEST_F(IlpTest, BatchPrefersPlacingBothWhenPossible) {
  const auto plan = PlaceAndCommit(
      {Lra(ApplicationId(1), 6, "a", Resource(4096, 2)),
       Lra(ApplicationId(2), 6, "b", Resource(4096, 2))},
      Config());
  EXPECT_EQ(plan.NumPlaced(), 2);
}

TEST_F(IlpTest, MinMachinesObjectivePrefersUsedNodes) {
  // Node 5 already hosts a container; with w5 on, new containers should
  // favour it over opening fresh machines.
  ASSERT_TRUE(
      state_.Allocate(ApplicationId(9), NodeId(5), Resource(1024, 1), {}, true).ok());
  SchedulerConfig config = Config();
  config.w5_min_machines = 2.0;
  config.w3_fragmentation = 0.0;  // isolate the machine-count term
  const auto plan = PlaceAndCommit({Lra(ApplicationId(1), 4, "w", Resource(2048, 1))}, config);
  ASSERT_EQ(plan.NumPlaced(), 1);
  int newly_used = 0;
  state_.ForEachNode([&](const Node& node) {
    if (node.id() != NodeId(5) && !node.containers().empty()) {
      ++newly_used;
    }
  });
  EXPECT_EQ(newly_used, 0);  // everything fits on the already-used machine
}

TEST_F(IlpTest, LoadBalanceObjectiveFlattensPeak) {
  SchedulerConfig balanced = Config();
  balanced.w4_load_balance = 2.0;
  balanced.w3_fragmentation = 0.0;
  const auto plan = PlaceAndCommit({Lra(ApplicationId(1), 6, "w", Resource(4096, 2))},
                                   balanced);
  ASSERT_EQ(plan.NumPlaced(), 1);
  double max_load = 0.0;
  state_.ForEachNode([&](const Node& node) {
    max_load = std::max(max_load, node.used().DominantShareOf(node.capacity()));
  });
  // 6 x 2-core containers over 12 x 8-core nodes: a flat placement keeps
  // every node at <= 1 container (load 0.25).
  EXPECT_LE(max_load, 0.26);
}

TEST_F(IlpTest, StatsReflectModelShape) {
  PlaceAndCommit({Lra(ApplicationId(1), 3, "w")}, Config());
  EXPECT_GT(last_stats_.variables, 36);  // 3 containers x 12 candidates + extras
  EXPECT_GE(last_stats_.binaries, 36);
  EXPECT_GT(last_stats_.rows, 3);
  EXPECT_TRUE(last_stats_.status == solver::SolveStatus::kOptimal ||
              last_stats_.status == solver::SolveStatus::kFeasible);
}

TEST_F(IlpTest, DumpedModelsParseAndResolve) {
  // ilp_dump_directory writes each cycle's model; the LP reader must parse
  // it back and the re-solved objective must match the scheduler's.
  SchedulerConfig config = Config();
  config.ilp_dump_directory = ::testing::TempDir();
  ASSERT_TRUE(manager_
                  .AddFromText("{w, {w, 0, 1}, node}", ConstraintOrigin::kApplication,
                               ApplicationId(1))
                  .ok());
  MedeaIlpScheduler ilp(config);
  PlacementProblem problem;
  problem.lras = {Lra(ApplicationId(1), 4, "w")};
  problem.state = &state_;
  problem.manager = &manager_;
  const auto plan = ilp.Place(problem);
  ASSERT_EQ(plan.NumPlaced(), 1);

  auto model = solver::ReadLpFile(::testing::TempDir() + "/medea_cycle_0.lp");
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_GT(model->num_variables(), 0);
  solver::MipOptions options;
  options.time_limit_seconds = 5.0;
  const auto solution = SolveMip(*model, options);
  ASSERT_TRUE(solution.HasSolution());
  EXPECT_NEAR(solution.objective, ilp.last_stats().objective, 2e-2);
}

// Property sweep: on tiny instances, the ILP's placement must match the
// brute-force optimum of the violation count (weighted extent as the
// tiebreak dimension is solver-internal; violated-subject count is what the
// paper reports, and on these instances the optima coincide).
class IlpBruteForce : public ::testing::TestWithParam<int> {};

TEST_P(IlpBruteForce, MatchesExhaustiveViolationMinimum) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 2166136261u + 9);
  ClusterState state = ClusterBuilder()
                           .NumNodes(4)
                           .NumRacks(2)
                           .NumUpgradeDomains(2)
                           .NumServiceUnits(2)
                           .NodeCapacity(Resource(8 * 1024, 8))
                           .Build();
  ConstraintManager manager(state.groups_ptr());

  // A couple of pre-placed containers with random tags.
  const char* tag_names[] = {"a", "b", "c"};
  for (int i = 0; i < 2; ++i) {
    const NodeId n(static_cast<uint32_t>(rng.NextBounded(4)));
    ASSERT_TRUE(state
                    .Allocate(ApplicationId(50), n, Resource(1024, 1),
                              {manager.tags().Intern(tag_names[rng.NextBounded(3)])}, true)
                    .ok());
  }

  // One LRA with 3 containers tagged randomly from {a,b,c}.
  LraRequest lra;
  lra.app = ApplicationId(1);
  for (int i = 0; i < 3; ++i) {
    lra.containers.push_back(ContainerRequest{
        Resource(1024, 1), {manager.tags().Intern(tag_names[rng.NextBounded(3)])}});
  }

  // 1-2 random constraints over the tag alphabet.
  const char* groups[] = {"node", "rack"};
  const int num_constraints = 1 + static_cast<int>(rng.NextBounded(2));
  for (int i = 0; i < num_constraints; ++i) {
    const int cmin = static_cast<int>(rng.NextBounded(2));
    const bool unbounded = rng.NextBool(0.4);
    const int cmax = unbounded ? kCardinalityInfinity
                               : cmin + static_cast<int>(rng.NextBounded(2));
    const std::string text =
        StrFormat("{%s, {%s, %d, %s}, %s}", tag_names[rng.NextBounded(3)],
                  tag_names[rng.NextBounded(3)], cmin,
                  unbounded ? "inf" : StrFormat("%d", cmax).c_str(),
                  groups[rng.NextBounded(2)]);
    ASSERT_TRUE(
        manager.AddFromText(text, ConstraintOrigin::kApplication, ApplicationId(1)).ok())
        << text;
  }

  // Brute force: all 4^3 placements of the three containers.
  int best_violations = 1 << 20;
  for (int mask = 0; mask < 4 * 4 * 4; ++mask) {
    ClusterState trial = state;
    int nodes[3] = {mask % 4, (mask / 4) % 4, (mask / 16) % 4};
    bool ok = true;
    for (int c = 0; c < 3 && ok; ++c) {
      ok = trial
               .Allocate(lra.app, NodeId(static_cast<uint32_t>(nodes[c])),
                         lra.containers[static_cast<size_t>(c)].demand,
                         lra.containers[static_cast<size_t>(c)].tags, true)
               .ok();
    }
    if (!ok) {
      continue;
    }
    const auto report = ConstraintEvaluator::EvaluateAll(trial, manager);
    best_violations = std::min(best_violations, report.violated_subjects);
  }
  ASSERT_LT(best_violations, 1 << 20);

  // The ILP (generous budget, full pool).
  SchedulerConfig config;
  config.node_pool_size = 4;
  config.candidates_per_container = 4;
  config.ilp_time_limit_seconds = 10.0;
  MedeaIlpScheduler ilp(config);
  PlacementProblem problem;
  problem.lras = {lra};
  problem.state = &state;
  problem.manager = &manager;
  const auto plan = ilp.Place(problem);
  ASSERT_EQ(plan.NumPlaced(), 1) << "case " << GetParam();
  ASSERT_TRUE(CommitPlan(problem, plan, state));
  const auto report = ConstraintEvaluator::EvaluateAll(state, manager);
  EXPECT_EQ(report.violated_subjects, best_violations) << "case " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sweep, IlpBruteForce, ::testing::Range(0, 25));

}  // namespace
}  // namespace medea
