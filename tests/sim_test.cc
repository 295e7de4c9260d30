// Tests for the discrete-event simulator (two-scheduler pipeline, event
// ordering, resubmission, metrics) and the unavailability-trace generator.

#include <gtest/gtest.h>

#include <memory>

#include "src/schedulers/greedy.h"
#include "src/schedulers/ilp_scheduler.h"
#include "src/sim/simulation.h"
#include "src/sim/unavailability.h"
#include "src/verify/invariant_checker.h"

namespace medea {
namespace {

SimConfig SmallSimConfig() {
  SimConfig config;
  config.num_nodes = 20;
  config.num_racks = 4;
  config.num_upgrade_domains = 4;
  config.num_service_units = 4;
  config.lra_interval_ms = 10000;
  return config;
}

std::unique_ptr<LraScheduler> SmallIlp() {
  SchedulerConfig sc;
  sc.node_pool_size = 20;
  sc.candidates_per_container = 12;
  sc.ilp_time_limit_seconds = 3.0;
  return std::make_unique<MedeaIlpScheduler>(sc);
}

TEST(SimulationTest, LraPlacedAtNextInterval) {
  Simulation sim(SmallSimConfig(), SmallIlp());
  auto spec = MakeGenericLra(ApplicationId(1), sim.manager().tags(), 4, "svc");
  sim.SubmitLraAt(2000, std::move(spec));
  sim.RunUntil(9999);
  EXPECT_FALSE(sim.IsPlaced(ApplicationId(1)));  // interval not reached
  sim.RunUntil(10000);
  EXPECT_TRUE(sim.IsPlaced(ApplicationId(1)));
  EXPECT_EQ(sim.metrics().lras_placed, 1);
  EXPECT_EQ(sim.metrics().cycles, 1);
  // Placement latency = 10000 - 2000.
  EXPECT_DOUBLE_EQ(sim.metrics().lra_placement_latency_ms.Mean(), 8000.0);
}

TEST(SimulationTest, BatchingWithinInterval) {
  Simulation sim(SmallSimConfig(), SmallIlp());
  for (uint32_t i = 1; i <= 3; ++i) {
    sim.SubmitLraAt(1000 * i, MakeGenericLra(ApplicationId(i), sim.manager().tags(), 2, "svc"));
  }
  sim.RunUntil(10000);
  // All three LRAs considered in one cycle.
  EXPECT_EQ(sim.metrics().cycles, 1);
  EXPECT_EQ(sim.metrics().lras_placed, 3);
}

TEST(SimulationTest, PeriodicityCapSplitsCycles) {
  SimConfig config = SmallSimConfig();
  config.max_lras_per_cycle = 1;
  Simulation sim(config, SmallIlp());
  for (uint32_t i = 1; i <= 3; ++i) {
    sim.SubmitLraAt(100, MakeGenericLra(ApplicationId(i), sim.manager().tags(), 2, "svc"));
  }
  sim.RunUntilQuiescent();
  EXPECT_EQ(sim.metrics().lras_placed, 3);
  EXPECT_EQ(sim.metrics().cycles, 3);
}

TEST(SimulationTest, AppConstraintsRegisteredOnSubmission) {
  Simulation sim(SmallSimConfig(), SmallIlp());
  auto spec = MakeHBaseInstance(ApplicationId(1), sim.manager().tags(), 4);
  sim.SubmitLraAt(0, std::move(spec));
  sim.RunUntil(10000);
  // 3 app constraints + 1 shared operator constraint.
  EXPECT_EQ(sim.manager().size(), 4u);
  EXPECT_TRUE(sim.IsPlaced(ApplicationId(1)));
  const auto report = sim.EvaluateViolations();
  EXPECT_EQ(report.violated_subjects, 0);
}

TEST(SimulationTest, SharedConstraintDeduplicated) {
  Simulation sim(SmallSimConfig(), SmallIlp());
  sim.SubmitLraAt(0, MakeHBaseInstance(ApplicationId(1), sim.manager().tags(), 2));
  sim.SubmitLraAt(0, MakeHBaseInstance(ApplicationId(2), sim.manager().tags(), 2));
  sim.RunUntil(10000);
  // 3 + 3 app constraints + 1 shared (deduplicated).
  EXPECT_EQ(sim.manager().size(), 7u);
}

TEST(SimulationTest, OversizedLraRejectedAfterRetries) {
  SimConfig config = SmallSimConfig();
  config.max_lra_attempts = 2;
  Simulation sim(config, SmallIlp());
  // 25 containers of 16 GB cannot fit on 20 x 16 GB nodes along with their
  // own count; a single container demands the full node.
  sim.SubmitLraAt(0, MakeGenericLra(ApplicationId(1), sim.manager().tags(), 25, "big",
                                    Resource(16 * 1024, 8)));
  sim.RunUntilQuiescent();
  EXPECT_FALSE(sim.IsPlaced(ApplicationId(1)));
  EXPECT_EQ(sim.metrics().lras_rejected, 1);
  EXPECT_EQ(sim.metrics().lra_resubmissions, 1);  // attempt 1 failed, retried once
}

TEST(SimulationTest, TaskJobsFlowThroughTaskScheduler) {
  Simulation sim(SmallSimConfig(), SmallIlp());
  std::vector<TaskRequest> tasks(8, TaskRequest{Resource(1024, 1), 5000});
  sim.SubmitTaskJobAt(500, tasks);
  sim.RunUntil(1000);  // heartbeat at 1000 allocates
  EXPECT_EQ(sim.state().num_containers(), 8u);
  sim.RunUntil(7000);  // tasks complete at 6000
  EXPECT_EQ(sim.state().num_containers(), 0u);
  EXPECT_EQ(sim.task_scheduler().allocation_latency_ms().Count(), 8u);
}

TEST(SimulationTest, RemoveLraFreesContainersAndConstraints) {
  Simulation sim(SmallSimConfig(), SmallIlp());
  sim.SubmitLraAt(0, MakeHBaseInstance(ApplicationId(1), sim.manager().tags(), 4));
  sim.RunUntil(10000);
  ASSERT_TRUE(sim.IsPlaced(ApplicationId(1)));
  sim.RemoveLraAt(20000, ApplicationId(1));
  sim.RunUntil(20000);
  EXPECT_FALSE(sim.IsPlaced(ApplicationId(1)));
  EXPECT_EQ(sim.manager().size(), 1u);  // only the shared operator constraint remains
}

TEST(SimulationTest, LraAndTasksCoexist) {
  Simulation sim(SmallSimConfig(), SmallIlp());
  std::vector<TaskRequest> tasks(20, TaskRequest{Resource(2048, 1), 60000});
  sim.SubmitTaskJobAt(0, tasks);
  sim.SubmitLraAt(500, MakeGenericLra(ApplicationId(1), sim.manager().tags(), 4, "svc"));
  sim.RunUntil(30000);
  EXPECT_TRUE(sim.IsPlaced(ApplicationId(1)));
  EXPECT_GT(sim.MemoryUtilization(), 0.0);
}

TEST(SimulationTest, GreedySchedulerWorksInSim) {
  SchedulerConfig sc;
  sc.node_pool_size = 20;
  Simulation sim(SmallSimConfig(),
                 std::make_unique<GreedyScheduler>(GreedyOrdering::kNodeCandidates, sc));
  sim.SubmitLraAt(0, MakeHBaseInstance(ApplicationId(1), sim.manager().tags(), 4));
  sim.RunUntil(10000);
  EXPECT_TRUE(sim.IsPlaced(ApplicationId(1)));
}

TEST(SimulationTest, MetricsLatencyRecorded) {
  Simulation sim(SmallSimConfig(), SmallIlp());
  sim.SubmitLraAt(0, MakeGenericLra(ApplicationId(1), sim.manager().tags(), 2, "svc"));
  sim.RunUntil(10000);
  EXPECT_EQ(sim.metrics().lra_cycle_latency_ms.Count(), 1u);
  EXPECT_GE(sim.metrics().lra_cycle_latency_ms.Mean(), 0.0);
}

TEST(SimulationTest, NodeFailureResubmitsLostLraContainers) {
  Simulation sim(SmallSimConfig(), SmallIlp());
  sim.SubmitLraAt(0, MakeGenericLra(ApplicationId(1), sim.manager().tags(), 4, "svc"));
  sim.RunUntil(10000);
  ASSERT_TRUE(sim.IsPlaced(ApplicationId(1)));
  // Fail the node hosting the first container.
  const auto containers = sim.state().ContainersOf(ApplicationId(1));
  const NodeId victim = sim.state().FindContainer(containers[0])->node;
  size_t on_victim = 0;
  for (ContainerId c : containers) {
    on_victim += sim.state().FindContainer(c)->node == victim ? 1 : 0;
  }
  sim.NodeDownAt(15000, victim);
  sim.RunUntilQuiescent();
  EXPECT_EQ(sim.metrics().lra_containers_lost, static_cast<int>(on_victim));
  EXPECT_EQ(sim.metrics().failover_replacements, 1);
  EXPECT_EQ(sim.metrics().lras_placed, 1);  // replacements are not new LRAs
  // All four containers are running again, none on the dead node.
  EXPECT_EQ(sim.state().ContainersOf(ApplicationId(1)).size(), 4u);
  for (ContainerId c : sim.state().ContainersOf(ApplicationId(1))) {
    EXPECT_NE(sim.state().FindContainer(c)->node, victim);
  }
}

TEST(SimulationTest, RejectedFailoverKeepsApplicationConstraints) {
  // Two nodes, each fully taken by one container of a two-container app:
  // the failed node's container has nowhere to go, so its failover
  // re-placement runs out of attempts.
  SimConfig config = SmallSimConfig();
  config.num_nodes = 2;
  config.num_racks = 1;
  config.num_upgrade_domains = 1;
  config.num_service_units = 1;
  const Resource full_node = config.node_capacity;
  Simulation sim(config, SmallIlp());
  const ApplicationId app(1);
  LraSpec spec = MakeGenericLra(app, sim.manager().tags(), 2, "full", full_node);
  spec.app_constraints.push_back("{full, {full, 0, 1}, node}");
  sim.SubmitLraAt(0, std::move(spec));
  sim.RunUntil(10000);
  ASSERT_EQ(sim.metrics().lras_placed, 1);
  ASSERT_EQ(sim.manager().size(), 1u);

  sim.NodeDownAt(15000, NodeId(0));
  sim.RunUntilQuiescent();
  EXPECT_EQ(sim.metrics().lra_containers_lost, 1);
  EXPECT_EQ(sim.metrics().failover_replacements, 0);
  EXPECT_EQ(sim.metrics().lras_rejected, 1);
  // The surviving container is still deployed, and still constrained.
  EXPECT_EQ(sim.state().ContainersOf(app).size(), 1u);
  EXPECT_EQ(sim.manager().size(), 1u);
}

TEST(SimulationTest, RemovedAppWithPendingFailoverStaysRemoved) {
  Simulation sim(SmallSimConfig(), SmallIlp());
  const ApplicationId app(1);
  sim.SubmitLraAt(0, MakeGenericLra(app, sim.manager().tags(), 4, "svc"));
  sim.RunUntil(10000);
  ASSERT_TRUE(sim.IsPlaced(app));
  // The node loss queues a failover request for the next cycle (t=20000);
  // the application is removed before that cycle runs.
  const NodeId victim = sim.state().FindContainer(sim.state().ContainersOf(app)[0])->node;
  sim.NodeDownAt(12000, victim);
  sim.RemoveLraAt(13000, app);
  sim.RunUntil(20000);
  EXPECT_TRUE(sim.state().ContainersOf(app).empty());
  EXPECT_EQ(sim.metrics().failover_replacements, 0);
  EXPECT_EQ(sim.metrics().lras_rejected, 0);
  sim.RunUntilQuiescent();
  EXPECT_TRUE(sim.state().ContainersOf(app).empty());
}

TEST(SimulationTest, NodeFailureRequeuesTasks) {
  Simulation sim(SmallSimConfig(), SmallIlp());
  std::vector<TaskRequest> tasks(3, TaskRequest{Resource(2048, 1), 600000});
  sim.SubmitTaskJobAt(0, tasks);
  sim.RunUntil(2000);
  ASSERT_EQ(sim.task_scheduler().running_tasks(), 3u);
  // Find a node with a task and fail it.
  NodeId victim = NodeId::Invalid();
  sim.state().ForEachContainer([&](const ContainerInfo& info) { victim = info.node; });
  ASSERT_TRUE(victim.IsValid());
  sim.NodeDownAt(3000, victim);
  sim.RunUntil(5000);
  EXPECT_GE(sim.metrics().tasks_requeued_on_failure, 1);
  // The task reruns elsewhere; total running+pending is conserved.
  EXPECT_EQ(sim.task_scheduler().running_tasks() + sim.task_scheduler().pending_tasks(), 3u);
}

TEST(SimulationTest, NodeRecoveryAcceptsPlacementsAgain) {
  SimConfig config = SmallSimConfig();
  config.num_nodes = 2;
  config.num_racks = 1;
  config.num_upgrade_domains = 1;
  config.num_service_units = 1;
  Simulation sim(config, SmallIlp());
  sim.NodeDownAt(100, NodeId(0));
  sim.NodeDownAt(100, NodeId(1));
  std::vector<TaskRequest> tasks(1, TaskRequest{Resource(1024, 1), 5000});
  sim.SubmitTaskJobAt(200, tasks);
  sim.RunUntil(3000);
  EXPECT_EQ(sim.task_scheduler().running_tasks(), 0u);  // nowhere to run
  sim.NodeUpAt(4000, NodeId(0));
  sim.RunUntil(6000);
  EXPECT_EQ(sim.task_scheduler().pending_tasks(), 0u);  // allocated after recovery
}

TEST(SimulationTest, NodeFailureFailoverIsInvariantClean) {
  // A node failure mid-run forces container loss, failover resubmission and
  // task requeueing. Every plan and every state mutation along the way must
  // pass the independent invariant checker.
  Simulation sim(SmallSimConfig(), SmallIlp());
  sim.SubmitLraAt(0, MakeGenericLra(ApplicationId(1), sim.manager().tags(), 4, "svc"));
  std::vector<TaskRequest> tasks(3, TaskRequest{Resource(2048, 1), 30000});
  sim.SubmitTaskJobAt(0, tasks);

  verify::ScopedInvariantAudit audit(/*abort_on_violation=*/false);
  sim.RunUntil(12000);
  ASSERT_TRUE(sim.IsPlaced(ApplicationId(1)));
  const auto containers = sim.state().ContainersOf(ApplicationId(1));
  const NodeId victim = sim.state().FindContainer(containers[0])->node;
  sim.NodeDownAt(15000, victim);
  sim.RunUntil(22000);
  // While the node is down: accounting still consistent, nothing placed on it.
  EXPECT_TRUE(verify::InvariantChecker::CheckState(sim.state(), &sim.manager()).ok());
  for (ContainerId c : sim.state().ContainersOf(ApplicationId(1))) {
    EXPECT_NE(sim.state().FindContainer(c)->node, victim);
  }
  sim.NodeUpAt(25000, victim);
  sim.RunUntilQuiescent();

  EXPECT_GT(audit.plans_audited(), 0);
  EXPECT_GT(audit.states_audited(), 0);
  EXPECT_TRUE(audit.failures().empty())
      << "first audit failure:\n"
      << (audit.failures().empty() ? "" : audit.failures().front());
  const verify::InvariantReport final_report =
      verify::InvariantChecker::CheckState(sim.state(), &sim.manager());
  EXPECT_TRUE(final_report.ok()) << final_report.ToString();
  EXPECT_EQ(sim.state().ContainersOf(ApplicationId(1)).size(), 4u);
}

TEST(SimulationTest, MetricsSamplingAndCsvExport) {
  SimConfig config = SmallSimConfig();
  config.metrics_sample_interval_ms = 5000;
  Simulation sim(config, SmallIlp());
  sim.SubmitLraAt(0, MakeGenericLra(ApplicationId(1), sim.manager().tags(), 4, "svc"));
  std::vector<TaskRequest> tasks(4, TaskRequest{Resource(1024, 1), 20000});
  sim.SubmitTaskJobAt(0, tasks);
  sim.RunUntil(30000);
  ASSERT_GE(sim.samples().size(), 3u);
  // Samples are chronological and consistent.
  for (size_t i = 0; i < sim.samples().size(); ++i) {
    const MetricsSample& s = sim.samples()[i];
    if (i > 0) {
      EXPECT_GT(s.time_ms, sim.samples()[i - 1].time_ms);
    }
    EXPECT_GE(s.memory_utilization, 0.0);
    EXPECT_LE(s.memory_utilization, 1.0);
  }
  // The post-placement samples must show LRA containers.
  EXPECT_EQ(sim.samples().back().lra_containers, 4u);
  // CSV round-trip.
  const std::string path = ::testing::TempDir() + "/medea_samples.csv";
  ASSERT_TRUE(sim.WriteSamplesCsv(path).ok());
  std::FILE* file = std::fopen(path.c_str(), "r");
  ASSERT_NE(file, nullptr);
  char line[256];
  ASSERT_NE(std::fgets(line, sizeof(line), file), nullptr);
  EXPECT_EQ(std::string(line).rfind("time_ms,", 0), 0u);
  int rows = 0;
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    ++rows;
  }
  std::fclose(file);
  EXPECT_EQ(static_cast<size_t>(rows), sim.samples().size());
}

TEST(SimulationTest, SamplerDoesNotPreventQuiescence) {
  SimConfig config = SmallSimConfig();
  config.metrics_sample_interval_ms = 1000;
  Simulation sim(config, SmallIlp());
  sim.SubmitLraAt(0, MakeGenericLra(ApplicationId(1), sim.manager().tags(), 2, "svc"));
  sim.RunUntilQuiescent();  // must terminate promptly, not at max_t
  EXPECT_LT(sim.now(), 60000);
  EXPECT_TRUE(sim.IsPlaced(ApplicationId(1)));
}

// ---- Conflict policies (§5.4) --------------------------------------------------

// A scheduler that always plans onto node 0 — guaranteeing a commit
// conflict when node 0 is full.
class PinnedToNodeZero : public LraScheduler {
 public:
  PlacementPlan Place(const PlacementProblem& problem) override {
    PlacementPlan plan;
    plan.lra_placed.assign(problem.lras.size(), true);
    for (size_t i = 0; i < problem.lras.size(); ++i) {
      for (size_t j = 0; j < problem.lras[i].containers.size(); ++j) {
        plan.assignments.push_back({static_cast<int>(i), static_cast<int>(j), NodeId(0)});
      }
    }
    return plan;
  }
  std::string name() const override { return "pinned0"; }
};

TEST(ConflictPolicyTest, KillTasksEvictsAndPlaces) {
  SimConfig config = SmallSimConfig();
  config.conflict_policy = ConflictPolicy::kKillTasks;
  config.max_lra_attempts = 1;  // no second chance: eviction must work
  Simulation sim(config, std::make_unique<PinnedToNodeZero>());
  // Node 0 is filled by long-lived tasks (least-loaded fill puts exactly one
  // full-node task there).
  std::vector<TaskRequest> tasks(20, TaskRequest{Resource(16 * 1024, 8), 3600000});
  sim.SubmitTaskJobAt(0, tasks);
  sim.RunUntil(2000);
  ASSERT_GT(sim.state().node(NodeId(0)).used().memory_mb, 0);
  sim.SubmitLraAt(3000, MakeGenericLra(ApplicationId(1), sim.manager().tags(), 2, "svc",
                                       Resource(4096, 2)));
  sim.RunUntil(20000);
  EXPECT_TRUE(sim.IsPlaced(ApplicationId(1)));
  EXPECT_GE(sim.metrics().tasks_killed, 1);
  EXPECT_EQ(sim.metrics().commit_conflicts, 1);
  // The killed task went back to the queue (it may or may not have been
  // reallocated elsewhere by now, but it must not be lost).
  EXPECT_EQ(sim.task_scheduler().pending_tasks() + sim.task_scheduler().running_tasks(),
            20u);
}

TEST(ConflictPolicyTest, ReserveHoldsCapacityForLra) {
  SimConfig config = SmallSimConfig();
  config.conflict_policy = ConflictPolicy::kReserve;
  config.max_lra_attempts = 10;
  Simulation sim(config, std::make_unique<PinnedToNodeZero>());
  // Node 0 full with a task that finishes at t=25s; a steady task stream
  // would normally snap up the freed space.
  sim.SubmitTaskJobAt(0, {TaskRequest{Resource(16 * 1024, 8), 24000}});
  sim.RunUntil(2000);
  sim.SubmitLraAt(3000, MakeGenericLra(ApplicationId(1), sim.manager().tags(), 2, "svc",
                                       Resource(4096, 2)));
  sim.RunUntil(9999);
  // First cycle conflicts and reserves.
  EXPECT_GE(sim.metrics().reservations_made, 0);
  sim.RunUntil(10000);
  EXPECT_GE(sim.metrics().commit_conflicts, 1);
  EXPECT_GE(sim.metrics().reservations_made, 1);
  // Competing tasks arrive while the reservation holds node 0.
  std::vector<TaskRequest> competitors(8, TaskRequest{Resource(4096, 2), 3600000});
  sim.SubmitTaskJobAt(20000, competitors);
  sim.RunUntil(60000);
  EXPECT_TRUE(sim.IsPlaced(ApplicationId(1)));
  // The LRA's containers must be on node 0 (the reserved node).
  for (ContainerId c : sim.state().ContainersOf(ApplicationId(1))) {
    EXPECT_EQ(sim.state().FindContainer(c)->node, NodeId(0));
  }
}

TEST(ConflictPolicyTest, RemovingAnAppReleasesItsReservation) {
  SimConfig config = SmallSimConfig();
  config.conflict_policy = ConflictPolicy::kReserve;
  config.max_lra_attempts = 10;
  Simulation sim(config, std::make_unique<PinnedToNodeZero>());
  // Node 0 is full until t=24s, so the first cycle conflicts and reserves.
  sim.SubmitTaskJobAt(0, {TaskRequest{Resource(16 * 1024, 8), 24000}});
  sim.SubmitLraAt(3000, MakeGenericLra(ApplicationId(1), sim.manager().tags(), 2, "svc",
                                       Resource(4096, 2)));
  sim.RunUntil(10000);
  ASSERT_GE(sim.metrics().reservations_made, 1);
  ASSERT_GT(sim.task_scheduler().ReservedOn(NodeId(0)).memory_mb, 0);
  // Removed while its resubmission is still queued: the hold goes, and the
  // application is never placed.
  sim.RemoveLraAt(15000, ApplicationId(1));
  sim.RunUntil(15000);
  EXPECT_EQ(sim.task_scheduler().ReservedOn(NodeId(0)).memory_mb, 0);
  sim.RunUntil(60000);
  EXPECT_FALSE(sim.IsPlaced(ApplicationId(1)));
}

TEST(ConflictPolicyTest, ResubmitIsDefault) {
  SimConfig config;
  EXPECT_EQ(config.conflict_policy, ConflictPolicy::kResubmit);
}

TEST(TaskSchedulerReservationTest, ReservationBlocksTasksUntilReleased) {
  ClusterState state = ClusterBuilder().NumNodes(2).NumRacks(1).Build();
  TaskScheduler sched(&state);
  // Reserve all of node 0 and node 1.
  sched.AddReservation(ApplicationId(7), {{NodeId(0), Resource(16 * 1024, 8)},
                                          {NodeId(1), Resource(16 * 1024, 8)}});
  sched.SubmitJob(ApplicationId(1), "default", {TaskRequest{Resource(1024, 1), 1000}}, 0);
  EXPECT_TRUE(sched.Tick(0).empty());
  sched.ReleaseReservation(ApplicationId(7));
  EXPECT_EQ(sched.Tick(1).size(), 1u);
}

TEST(TaskSchedulerReservationTest, EvictRequeuesAtHead) {
  ClusterState state = ClusterBuilder().NumNodes(1).NumRacks(1).Build();
  TaskScheduler sched(&state);
  sched.SubmitJob(ApplicationId(1), "default", {TaskRequest{Resource(1024, 1), 5000}}, 0);
  const auto allocations = sched.Tick(0);
  ASSERT_EQ(allocations.size(), 1u);
  EXPECT_TRUE(sched.IsRunning(allocations[0].container));
  ASSERT_TRUE(sched.EvictTask(allocations[0].container, 100).ok());
  EXPECT_FALSE(sched.IsRunning(allocations[0].container));
  EXPECT_EQ(sched.pending_tasks(), 1u);
  EXPECT_EQ(state.num_containers(), 0u);
  // It reruns on the next tick, from scratch with its original duration.
  const auto rerun = sched.Tick(200);
  ASSERT_EQ(rerun.size(), 1u);
  EXPECT_EQ(rerun[0].end_time, 200 + 5000);
}

// ---- Unavailability trace ------------------------------------------------------

TEST(UnavailabilityTest, TraceDimensionsAndRange) {
  UnavailabilityConfig config;
  const auto trace = UnavailabilityTrace::Generate(config, 5);
  EXPECT_EQ(trace.hours(), 360);
  EXPECT_EQ(trace.service_units(), 25);
  for (int h = 0; h < trace.hours(); ++h) {
    for (int s = 0; s < trace.service_units(); ++s) {
      const double f = trace.FractionDown(h, s);
      EXPECT_GE(f, 0.0);
      EXPECT_LE(f, 1.0);
    }
  }
}

TEST(UnavailabilityTest, BaselineUsuallyLow) {
  const auto trace = UnavailabilityTrace::Generate(UnavailabilityConfig{}, 6);
  int low = 0, total = 0;
  for (int h = 0; h < trace.hours(); ++h) {
    for (int s = 0; s < trace.service_units(); ++s) {
      ++total;
      if (trace.FractionDown(h, s) < 0.03) {
        ++low;
      }
    }
  }
  // Property (i) of Fig. 3: usually below 3%.
  EXPECT_GT(static_cast<double>(low) / total, 0.80);
}

TEST(UnavailabilityTest, SpikesOccur) {
  const auto trace = UnavailabilityTrace::Generate(UnavailabilityConfig{}, 7);
  double max_su = 0.0;
  for (int h = 0; h < trace.hours(); ++h) {
    for (int s = 0; s < trace.service_units(); ++s) {
      max_su = std::max(max_su, trace.FractionDown(h, s));
    }
  }
  // Property (ii): spikes to >= 25% within a service unit.
  EXPECT_GE(max_su, 0.25);
}

TEST(UnavailabilityTest, ServiceUnitsFailAsynchronously) {
  const auto trace = UnavailabilityTrace::Generate(UnavailabilityConfig{}, 8);
  // Property (iii): when the worst SU is heavily down, the cluster total
  // stays far lower.
  for (int h = 0; h < trace.hours(); ++h) {
    double worst = 0.0;
    for (int s = 0; s < trace.service_units(); ++s) {
      worst = std::max(worst, trace.FractionDown(h, s));
    }
    if (worst >= 0.9) {
      EXPECT_LT(trace.TotalFractionDown(h), 0.4);
    }
  }
}

TEST(UnavailabilityTest, SpreadPlacementLosesLess) {
  const auto trace = UnavailabilityTrace::Generate(UnavailabilityConfig{}, 9);
  // 100 containers: spread over 25 SUs vs packed into 2.
  std::vector<int> spread(25, 4);
  std::vector<int> packed(25, 0);
  packed[0] = 50;
  packed[1] = 50;
  double spread_max = 0, packed_max = 0;
  for (int h = 0; h < trace.hours(); ++h) {
    spread_max = std::max(spread_max, LraUnavailableFraction(trace, h, spread));
    packed_max = std::max(packed_max, LraUnavailableFraction(trace, h, packed));
  }
  EXPECT_LT(spread_max, packed_max);
}

TEST(UnavailabilityTest, DeterministicPerSeed) {
  const auto a = UnavailabilityTrace::Generate(UnavailabilityConfig{}, 10);
  const auto b = UnavailabilityTrace::Generate(UnavailabilityConfig{}, 10);
  for (int h = 0; h < a.hours(); h += 17) {
    for (int s = 0; s < a.service_units(); ++s) {
      EXPECT_DOUBLE_EQ(a.FractionDown(h, s), b.FractionDown(h, s));
    }
  }
}

}  // namespace
}  // namespace medea
