// Copyright (c) Medea reproduction authors.
// The LRA placement problem and the LraScheduler interface (§5.1).
//
// Once per scheduling interval, Medea hands the LRA scheduler: the container
// requests and constraints of the newly submitted LRAs, the constraints of
// already-deployed LRAs and of the cluster operator (via the
// ConstraintManager), and the current cluster state. The scheduler returns a
// placement *plan*; the task-based scheduler performs the actual allocation
// (two-scheduler design, §3).

#ifndef SRC_SCHEDULERS_PLACEMENT_H_
#define SRC_SCHEDULERS_PLACEMENT_H_

#include <string>
#include <vector>

#include "src/cluster/cluster_state.h"
#include "src/common/resource.h"
#include "src/common/types.h"
#include "src/core/constraint_manager.h"

namespace medea {

// One container request of an LRA.
struct ContainerRequest {
  Resource demand;
  std::vector<TagId> tags;
};

// One LRA submitted within the scheduling interval. Its placement
// constraints are assumed to already be registered with the
// ConstraintManager under `app`.
struct LraRequest {
  ApplicationId app;
  std::vector<ContainerRequest> containers;
};

// The input to one scheduling cycle.
struct PlacementProblem {
  // LRAs submitted during the latest interval (k in Fig. 5).
  std::vector<LraRequest> lras;
  const ClusterState* state = nullptr;
  const ConstraintManager* manager = nullptr;
};

// Assignment for one container request, indexed by (lra_index,
// container_index) within the problem.
struct Assignment {
  int lra_index = 0;
  int container_index = 0;
  NodeId node = NodeId::Invalid();
};

// The plan produced by an LRA scheduler.
struct PlacementPlan {
  // Per-LRA placement verdicts, same order as the problem's `lras`. An LRA
  // is either fully placed or not placed at all (Eq. 4).
  std::vector<bool> lra_placed;
  std::vector<Assignment> assignments;
  // Scheduler-reported wall-clock latency of this cycle in milliseconds.
  double latency_ms = 0.0;

  int NumPlaced() const {
    int placed = 0;
    for (const bool p : lra_placed) {
      placed += p ? 1 : 0;
    }
    return placed;
  }
};

// Interface implemented by Medea-ILP, the heuristics, and the baselines.
class LraScheduler {
 public:
  virtual ~LraScheduler() = default;

  // Computes a placement plan. Must not mutate the cluster state.
  virtual PlacementPlan Place(const PlacementProblem& problem) = 0;

  virtual std::string name() const = 0;
};

// Applies a plan to `state` by allocating the planned containers (tagging
// each with its request tags plus the automatic appID tag). The only path
// from a plan to allocations: LraPipeline::Commit, the fuzzer, benches and
// examples all call it. Returns false and rolls back the partially applied
// LRA if an allocation fails (placement conflict, §5.4).
bool CommitPlan(const PlacementProblem& problem, const PlacementPlan& plan, ClusterState& state,
                std::vector<bool>* committed_lras = nullptr);

// --- Placement audit hook ---------------------------------------------------
//
// A process-wide observer that every LraScheduler implementation reports its
// finished plan to (before returning it), and that state-mutating pipeline
// stages (simulation commits, migrations, failure handling) notify after
// touching the cluster. The scheduler layer only sees this abstract
// interface; src/verify installs an implementation that independently
// re-checks every invariant, so the schedulers never grade their own
// homework. No auditor is installed by default (zero overhead beyond one
// pointer load).
class PlacementAuditor {
 public:
  virtual ~PlacementAuditor() = default;

  // Called by a scheduler with its finished plan, before returning it.
  virtual void OnPlan(const PlacementProblem& problem, const PlacementPlan& plan,
                      const std::string& scheduler) = 0;

  // Called after a pipeline stage mutated `state` (`where` names the stage,
  // e.g. "lra-commit", "migration", "node-down").
  virtual void OnStateMutation(const ClusterState& state, const char* where) = 0;
};

// Installs `auditor` (nullptr uninstalls). Returns the previous auditor so
// scoped installers can restore it. The pointer itself is atomic (the
// two-scheduler runtime audits from both of its threads); install and
// uninstall must still happen with the pipeline quiesced, and the auditor
// implementation must be internally synchronized when used concurrently
// (ScopedInvariantAudit is).
PlacementAuditor* SetPlacementAuditor(PlacementAuditor* auditor);
PlacementAuditor* GetPlacementAuditor();

// Convenience guards used at the call sites.
inline void AuditPlan(const PlacementProblem& problem, const PlacementPlan& plan,
                      const std::string& scheduler) {
  if (PlacementAuditor* a = GetPlacementAuditor()) {
    a->OnPlan(problem, plan, scheduler);
  }
}
inline void AuditStateMutation(const ClusterState& state, const char* where) {
  if (PlacementAuditor* a = GetPlacementAuditor()) {
    a->OnStateMutation(state, where);
  }
}

// Tuning knobs shared by the schedulers.
struct SchedulerConfig {
  // Approximate size of the node pool a cycle works with (candidate
  // pruning; see DESIGN.md decision 3).
  int node_pool_size = 96;
  // Minimum candidate nodes per container within the pool (floor of the
  // per-container window when the batch is large).
  int candidates_per_container = 32;
  // Total X-variable budget of a cycle. Small batches receive the whole
  // pool as candidates (joint constraints need shared nodes); large batches
  // are capped at x_var_budget / containers per container.
  int x_var_budget = 4096;
  // Objective weights of Eq. 1 (defaults from §7.1).
  double w1_placement = 1.0;
  double w2_violations = 0.5;
  double w3_fragmentation = 0.25;
  // Optional additional objective components ("additional ones can be
  // easily added, such as load imbalance or minimizing the number of nodes
  // used", §5.2). Zero disables them.
  // Penalizes the maximum post-placement node load (dominant share).
  double w4_load_balance = 0.0;
  // Penalizes bringing currently-empty machines into use (§2.4 "minimize
  // number of machines used" for cloud clusters).
  double w5_min_machines = 0.0;
  // Fragmentation threshold r_min (Eq. 5); §7.4 uses 1 core / 2 GB.
  Resource rmin = Resource(2048, 1);
  // ILP solve budget per cycle.
  double ilp_time_limit_seconds = 2.0;
  // Component decomposition for the cycle ILP (MipOptions::decompose): split
  // the placement model into the connected components of its variable-row
  // incidence graph — disjoint rack/tag neighborhoods — and solve them as
  // independent sub-MIPs, largest first, with a relax-and-round fast lane
  // for large components. Exposed on the CLI as --solver-decompose; see
  // docs/solver.md.
  bool solver_decompose = false;
  // Seed the branch-and-bound with the Serial greedy's plan (strongly
  // recommended; placement models are too symmetric to dive cold). Exposed
  // for the warm-start ablation.
  bool ilp_warm_start = true;
  // When non-empty, every scheduling cycle's ILP is dumped to
  // <dir>/medea_cycle_<n>.lp in CPLEX LP format (src/solver/lp_writer.h) —
  // for debugging or cross-checking against an external solver.
  std::string ilp_dump_directory;
  // Deterministic seed for tie-breaking.
  uint64_t seed = 42;
};

}  // namespace medea

#endif  // SRC_SCHEDULERS_PLACEMENT_H_
