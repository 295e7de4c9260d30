// Copyright (c) Medea reproduction authors.
// LraPipeline: the one LRA scheduling cycle under every front end.
//
// Medea's LRA path is one policy (§3.2, §5.4): batch the pending LRAs, plan
// them against a snapshot, commit the plan, then requeue or reject whatever
// did not land. Simulation, TwoSchedulerRuntime and PlacementService each
// supply only their driver and the live state they commit on
// (docs/architecture.md).
//
// The core owns no mutex. Member functions touch the queue, under the lock
// that guards the front end's queue; static ones touch only their arguments,
// so the service runs them under the epoch writer lock instead.

#ifndef SRC_RUNTIME_LRA_PIPELINE_H_
#define SRC_RUNTIME_LRA_PIPELINE_H_

#include <algorithm>
#include <cstddef>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/cluster/cluster_state.h"
#include "src/core/constraint_manager.h"
#include "src/schedulers/placement.h"

namespace medea::runtime {

// One LRA waiting for a scheduling cycle.
struct PendingLra {
  LraRequest request;
  SimTimeMs submit_ms = 0;  // on the front end's clock (virtual or wall ms)
  int attempts = 0;         // cycles it already failed to land in
  // A re-placement of containers lost to a node failure: counted apart from
  // user submissions, and a rejection keeps the application's constraints.
  bool is_failover = false;
};

// A batch in flight through plan and commit. A struct of arrays, so that
// `lras` can be lent to a PlacementProblem without a copy.
struct LraBatch {
  std::vector<LraRequest> lras;
  std::vector<SimTimeMs> submit_ms;
  std::vector<int> attempts;
  std::vector<bool> is_failover;

  size_t size() const { return lras.size(); }
};

// What one commit did to a batch.
struct LraCommit {
  std::vector<bool> landed;  // per LRA: planned and allocated
  int conflicts = 0;         // planned LRAs that did not land (§5.4)
  int demoted = 0;           // of those, unplaced by revalidation first
};

// The front end drops the application constraints of a kRejected LRA. A
// rejected failover keeps them: the application's surviving containers stay
// deployed.
enum class LraVerdict { kPlaced, kFailoverPlaced, kRequeued, kRejected, kFailoverRejected };

// How Resolve settled a committed batch: one verdict per batch LRA.
struct LraResolution {
  std::vector<LraVerdict> verdicts;

  int Count(LraVerdict verdict) const {
    return static_cast<int>(std::count(verdicts.begin(), verdicts.end(), verdict));
  }
};

// The failover requests of one node loss: the lost containers, grouped per
// application.
using LostLras = std::unordered_map<ApplicationId, LraRequest, std::hash<ApplicationId>>;

class LraPipeline {
 public:
  // An LRA is rejected once it has failed `max_attempts` cycles.
  explicit LraPipeline(int max_attempts) : max_attempts_(max_attempts) {}

  void Submit(LraRequest request, SimTimeMs now);
  // Queues FailNode's failover requests; returns the containers they carry.
  size_t SubmitFailover(LostLras lost, SimTimeMs now);
  // Drops every queued request of a removed application.
  void Cancel(ApplicationId app);

  bool empty() const { return queue_.empty(); }
  size_t size() const { return queue_.size(); }

  // Takes up to `max` queued LRAs, oldest first; `max` <= 0 takes them all.
  LraBatch TakeBatch(int max);

  // Runs `scheduler` on the batch against `state` and `manager`.
  static PlacementPlan Plan(LraBatch& batch, const ClusterState& state,
                            const ConstraintManager& manager, LraScheduler& scheduler);

  // The plan's total demand on each node for `lra`, LRA `lra_index` of the
  // plan; nullopt when a container index is out of range.
  static std::optional<std::unordered_map<NodeId, Resource, std::hash<NodeId>>> PlannedDemand(
      const LraRequest& lra, const PlacementPlan& plan, size_t lra_index);

  // True when the plan's assignments for `lra_index` still fit `live`: every
  // node is in range and up, every container index is in range, and each
  // node's free capacity covers the plan's total demand on it.
  static bool Revalidate(const ClusterState& live, const LraBatch& batch,
                         const PlacementPlan& plan, size_t lra_index);

  // Allocates `plan` on `live` with CommitPlan, per LRA atomically. `live`
  // is the task scheduler's state in the simulator and the two-scheduler
  // runtime, so the task scheduler performs all allocations (§3.2), and an
  // epoch's working state in the service. A plan is stale when `live`
  // changed since the snapshot it was planned on, judged inside the
  // caller's critical section. Only a stale plan is revalidated: each
  // planned LRA that fails Revalidate is unplaced in `plan` before the
  // commit.
  static LraCommit Commit(LraBatch& batch, PlacementPlan& plan, ClusterState& live, bool stale);

  // Settles every LRA of a committed batch. A landed LRA is placed; any
  // other has failed one more attempt and is requeued at the back, or
  // rejected at the attempt cap. Requeued requests are moved out of `batch`.
  LraResolution Resolve(LraBatch& batch, const std::vector<bool>& landed);

  // Marks `node` down in `live`, releases its LRA containers and returns
  // them as failover requests. Every other container on the node is
  // appended to `tasks`, in node order, for the front end to evict.
  static LostLras FailNode(ClusterState& live, NodeId node,
                           std::vector<ContainerId>* tasks = nullptr);

 private:
  const int max_attempts_;
  std::deque<PendingLra> queue_;
};

}  // namespace medea::runtime

#endif  // SRC_RUNTIME_LRA_PIPELINE_H_
