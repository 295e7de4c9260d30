// Copyright (c) Medea reproduction authors.
// Discrete-event cluster simulator wiring the full Medea pipeline together
// (Fig. 6): ConstraintManager + pluggable LRA scheduler + task-based
// scheduler over one ClusterState, driven by a virtual clock.
//
// This mirrors the paper's own methodology: "we use a simulator that
// executes Medea with simulated machines, merely ignoring RPCs and task
// execution" (§7.1). LRAs submitted during a scheduling interval are
// batched and handed to the LRA scheduler at the next cycle; the resulting
// plan is committed by the task scheduler; commit conflicts resubmit the
// LRA (§5.4); that cycle is the LRA pipeline core (lra_pipeline.h) plus
// the ConflictPolicy step. Task-based jobs flow through the task scheduler
// at heartbeat granularity and complete after their duration.

#ifndef SRC_SIM_SIMULATION_H_
#define SRC_SIM_SIMULATION_H_

#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "src/core/violation.h"
#include "src/runtime/lra_pipeline.h"
#include "src/schedulers/placement.h"
#include "src/tasksched/task_scheduler.h"
#include "src/schedulers/migration.h"
#include "src/workload/lra_templates.h"

namespace medea {

// What to do when an LRA plan no longer fits at commit time because task
// containers took the resources in the meantime (§5.4):
//  kResubmit  — re-queue the LRA for the next cycle (the paper's choice);
//  kKillTasks — evict enough short-running containers from the planned
//               nodes to make the plan fit, then commit;
//  kReserve   — hold the planned nodes' capacity against new task
//               allocations so freed resources accumulate for the LRA,
//               and resubmit.
enum class ConflictPolicy { kResubmit, kKillTasks, kReserve };

struct SimConfig {
  size_t num_nodes = 500;
  size_t num_racks = 10;
  size_t num_upgrade_domains = 10;
  size_t num_service_units = 25;
  Resource node_capacity = Resource(16 * 1024, 8);  // §7.4 simulated machines
  // LRA scheduling interval (10 s in §7.1).
  SimTimeMs lra_interval_ms = 10000;
  // Task-scheduler heartbeat round.
  SimTimeMs task_heartbeat_ms = 1000;
  // Resubmission cap before an LRA is rejected (§5.4 conflict handling).
  int max_lra_attempts = 3;
  // Cap on LRAs considered per cycle (the Fig. 9c "periodicity" knob);
  // 0 = unbounded (all pending).
  int max_lras_per_cycle = 0;
  // §5.4 placement-conflict handling.
  ConflictPolicy conflict_policy = ConflictPolicy::kResubmit;
  // Reactive container migration (§5.4): run a MigrationPlanner cycle every
  // this many ms; 0 disables migration.
  SimTimeMs migration_interval_ms = 0;
  MigrationConfig migration;
  // Periodic metrics sampling into Simulation::samples(); 0 disables.
  SimTimeMs metrics_sample_interval_ms = 0;
};

// One periodic metrics snapshot (enabled by metrics_sample_interval_ms).
struct MetricsSample {
  SimTimeMs time_ms = 0;
  double violation_fraction = 0.0;
  double memory_utilization = 0.0;
  double fragmented_fraction = 0.0;
  size_t lra_containers = 0;
  size_t task_containers = 0;
};

struct SimMetrics {
  // LRA scheduler latency per invoked cycle (the Fig. 11a metric).
  Distribution lra_cycle_latency_ms;
  // Submission-to-commit latency per placed LRA.
  Distribution lra_placement_latency_ms;
  int lras_placed = 0;
  int lras_rejected = 0;
  int lra_resubmissions = 0;
  int commit_conflicts = 0;
  int cycles = 0;
  // §5.4 conflict-policy accounting.
  int tasks_killed = 0;
  int reservations_made = 0;
  // Node-failure accounting.
  int lra_containers_lost = 0;
  int tasks_requeued_on_failure = 0;
  // Successful re-placements of containers lost to node failures (kept out
  // of lras_placed, which counts user submissions only).
  int failover_replacements = 0;
  // Containers relocated by the reactive migration cycles (§5.4).
  int migrations = 0;
};

class Simulation {
 public:
  Simulation(SimConfig config, std::unique_ptr<LraScheduler> lra_scheduler);

  ClusterState& state() { return state_; }
  const ClusterState& state() const { return state_; }
  ConstraintManager& manager() { return manager_; }
  TaskScheduler& task_scheduler() { return task_scheduler_; }
  LraScheduler& lra_scheduler() { return *lra_scheduler_; }
  SimTimeMs now() const { return now_; }
  const SimMetrics& metrics() const { return metrics_; }
  const SimConfig& config() const { return config_; }

  // Registers a cluster-operator constraint (deduplicated by text).
  Status AddOperatorConstraint(const std::string& text);

  // Schedules an LRA submission at time `t` (>= now). The spec's
  // application constraints are registered when the submission fires;
  // shared constraints are registered as operator constraints immediately
  // (deduplicated).
  void SubmitLraAt(SimTimeMs t, LraSpec spec);

  // Schedules a task-based job submission.
  void SubmitTaskJobAt(SimTimeMs t, std::vector<TaskRequest> tasks,
                       const std::string& queue = "default");

  // Schedules removal of a deployed LRA (releases containers + constraints).
  void RemoveLraAt(SimTimeMs t, ApplicationId app);

  // Schedules a node failure (§2.3): running tasks on the node are
  // requeued, lost LRA containers are resubmitted as fresh requests for
  // their applications (their constraints are still registered), and the
  // node rejects placements until NodeUpAt.
  void NodeDownAt(SimTimeMs t, NodeId node);
  void NodeUpAt(SimTimeMs t, NodeId node);

  // Processes all events with time <= t and advances the clock to t.
  void RunUntil(SimTimeMs t);

  // Runs until no events remain (bounded by `max_t` as a safety net).
  void RunUntilQuiescent(SimTimeMs max_t = 100L * 3600 * 1000);

  // True iff the LRA was placed and is still deployed.
  bool IsPlaced(ApplicationId app) const { return !state_.ContainersOf(app).empty(); }

  // Violation report over the currently deployed containers.
  ViolationReport EvaluateViolations() const {
    return ConstraintEvaluator::EvaluateAll(state_, manager_);
  }

  // Current cluster memory utilization in [0,1].
  double MemoryUtilization() const;

  // Periodic metrics snapshots (metrics_sample_interval_ms > 0).
  const std::vector<MetricsSample>& samples() const { return samples_; }

  // Writes the samples as CSV (header + one row per sample) for plotting.
  Status WriteSamplesCsv(const std::string& path) const;

 private:
  enum class EventType { kSubmitLra, kSubmitTaskJob, kRemoveLra, kLraCycle, kTaskTick,
                         kTaskComplete, kMigrationCycle, kMetricsSample, kNodeDown, kNodeUp };
  struct Event {
    SimTimeMs time = 0;
    uint64_t seq = 0;  // FIFO tiebreak
    EventType type = EventType::kLraCycle;
    int payload_index = -1;          // into pending payload vectors
    ContainerId container;           // for kTaskComplete
    ApplicationId app;               // for kRemoveLra
    NodeId node;                     // for kNodeDown / kNodeUp
  };
  struct EventOrder {
    bool operator()(const Event& a, const Event& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  struct PendingTaskJob {
    std::vector<TaskRequest> tasks;
    std::string queue;
  };

  void Push(SimTimeMs time, EventType type, int payload_index = -1,
            ContainerId container = ContainerId::Invalid(),
            ApplicationId app = ApplicationId::Invalid());
  void EnsureLraCycleScheduled();
  void EnsureTaskTickScheduled();
  void RunLraCycle();
  void RunTaskTick();
  void RunMigrationCycle();
  void EnsureMigrationScheduled();
  void TakeMetricsSample();
  void HandleNodeDown(NodeId node);
  // Evicts running task `container` and requeues it with its duration.
  void RequeueTask(ContainerId container);
  // kKillTasks: evicts short tasks from the LRA's planned nodes and retries
  // the commit for that one LRA. Returns true when the LRA landed.
  bool TryCommitWithEviction(runtime::LraBatch& batch, const PlacementPlan& plan,
                             size_t lra_index);

  SimConfig config_;
  ClusterState state_;
  ConstraintManager manager_;
  TaskScheduler task_scheduler_;
  std::unique_ptr<LraScheduler> lra_scheduler_;

  std::priority_queue<Event, std::vector<Event>, EventOrder> events_;
  uint64_t next_seq_ = 0;
  SimTimeMs now_ = 0;
  bool lra_cycle_scheduled_ = false;
  bool task_tick_scheduled_ = false;
  bool migration_scheduled_ = false;

  std::vector<LraSpec> lra_payloads_;
  std::vector<PendingTaskJob> task_payloads_;
  runtime::LraPipeline lra_pipeline_;
  ApplicationId next_task_app_{1u << 20};  // task jobs get synthetic app ids
  std::vector<MetricsSample> samples_;
  SimMetrics metrics_;
};

}  // namespace medea

#endif  // SRC_SIM_SIMULATION_H_
