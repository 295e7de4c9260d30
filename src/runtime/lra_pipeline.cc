#include "src/runtime/lra_pipeline.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "src/common/logging.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace medea::runtime {
namespace {

bool Placed(const PlacementPlan& plan, size_t lra_index) {
  return lra_index < plan.lra_placed.size() && plan.lra_placed[lra_index];
}

}  // namespace

void LraPipeline::Submit(LraRequest request, SimTimeMs now) {
  queue_.push_back(PendingLra{std::move(request), now, 0, /*is_failover=*/false});
}

size_t LraPipeline::SubmitFailover(LostLras lost, SimTimeMs now) {
  size_t containers = 0;
  for (auto& [app, request] : lost) {
    containers += request.containers.size();
    queue_.push_back(PendingLra{std::move(request), now, 0, /*is_failover=*/true});
  }
  return containers;
}

void LraPipeline::Cancel(ApplicationId app) {
  queue_.erase(std::remove_if(queue_.begin(), queue_.end(),
                              [app](const PendingLra& lra) { return lra.request.app == app; }),
               queue_.end());
}

LraBatch LraPipeline::TakeBatch(int max) {
  const size_t n = max <= 0 ? queue_.size() : std::min(static_cast<size_t>(max), queue_.size());
  LraBatch batch;
  for (size_t i = 0; i < n; ++i) {
    PendingLra& lra = queue_.front();
    batch.lras.push_back(std::move(lra.request));
    batch.submit_ms.push_back(lra.submit_ms);
    batch.attempts.push_back(lra.attempts);
    batch.is_failover.push_back(lra.is_failover);
    queue_.pop_front();
  }
  return batch;
}

PlacementPlan LraPipeline::Plan(LraBatch& batch, const ClusterState& state,
                                const ConstraintManager& manager, LraScheduler& scheduler) {
  PlacementProblem problem;
  problem.lras = std::move(batch.lras);
  problem.state = &state;
  problem.manager = &manager;
  PlacementPlan plan = scheduler.Place(problem);
  batch.lras = std::move(problem.lras);
  return plan;
}

std::optional<std::unordered_map<NodeId, Resource, std::hash<NodeId>>> LraPipeline::PlannedDemand(
    const LraRequest& lra, const PlacementPlan& plan, size_t lra_index) {
  std::unordered_map<NodeId, Resource, std::hash<NodeId>> per_node;
  for (const Assignment& a : plan.assignments) {
    if (a.lra_index != static_cast<int>(lra_index)) {
      continue;
    }
    if (a.container_index < 0 || static_cast<size_t>(a.container_index) >= lra.containers.size()) {
      return std::nullopt;
    }
    per_node[a.node] += lra.containers[static_cast<size_t>(a.container_index)].demand;
  }
  return per_node;
}

bool LraPipeline::Revalidate(const ClusterState& live, const LraBatch& batch,
                             const PlacementPlan& plan, size_t lra_index) {
  const auto demand = PlannedDemand(batch.lras[lra_index], plan, lra_index);
  if (!demand) {
    return false;
  }
  for (const auto& [node, needed] : *demand) {
    if (!node.IsValid() || node.value >= live.num_nodes() || !live.node(node).available() ||
        !live.node(node).Free().Fits(needed)) {
      return false;
    }
  }
  return true;
}

LraCommit LraPipeline::Commit(LraBatch& batch, PlacementPlan& plan, ClusterState& live,
                              bool stale) {
  LraCommit result;
  if (stale) {
    const obs::ScopedSpan revalidate_span("runtime.revalidate", "runtime");
    const obs::ScopedLatencyTimer revalidate_timer("runtime.revalidate_ms");
    for (size_t i = 0; i < batch.size(); ++i) {
      if (Placed(plan, i) && !Revalidate(live, batch, plan, i)) {
        plan.lra_placed[i] = false;
        ++result.demoted;
      }
    }
  }

  PlacementProblem problem;
  problem.lras = std::move(batch.lras);
  problem.state = &live;
  std::vector<bool> committed;
  CommitPlan(problem, plan, live, &committed);
  batch.lras = std::move(problem.lras);

  result.conflicts = result.demoted;
  for (size_t i = 0; i < batch.size(); ++i) {
    result.landed.push_back(Placed(plan, i) && i < committed.size() && committed[i]);
    if (Placed(plan, i) && !result.landed[i]) {
      ++result.conflicts;
    }
  }
  return result;
}

LraResolution LraPipeline::Resolve(LraBatch& batch, const std::vector<bool>& landed) {
  LraResolution resolution;
  for (size_t i = 0; i < batch.size(); ++i) {
    const bool failover = batch.is_failover[i];
    const int attempts = batch.attempts[i] + 1;
    if (landed[i]) {
      resolution.verdicts.push_back(failover ? LraVerdict::kFailoverPlaced : LraVerdict::kPlaced);
    } else if (attempts >= max_attempts_) {
      resolution.verdicts.push_back(failover ? LraVerdict::kFailoverRejected
                                             : LraVerdict::kRejected);
    } else {
      resolution.verdicts.push_back(LraVerdict::kRequeued);
      queue_.push_back(
          PendingLra{std::move(batch.lras[i]), batch.submit_ms[i], attempts, failover});
    }
  }
  return resolution;
}

LostLras LraPipeline::FailNode(ClusterState& live, NodeId node, std::vector<ContainerId>* tasks) {
  // Copy first: releases mutate the node's container list.
  const std::vector<ContainerId> containers(live.node(node).containers().begin(),
                                            live.node(node).containers().end());
  LostLras lost;
  for (ContainerId c : containers) {
    const ContainerInfo* info = live.FindContainer(c);
    MEDEA_CHECK(info != nullptr);
    if (!info->long_running) {
      if (tasks != nullptr) {
        tasks->push_back(c);
      }
      continue;
    }
    LraRequest& request = lost[info->app];
    request.app = info->app;
    request.containers.push_back(ContainerRequest{info->resource, info->tags});
    MEDEA_CHECK(live.Release(c).ok());
  }
  live.SetNodeAvailable(node, false);
  return lost;
}

}  // namespace medea::runtime
