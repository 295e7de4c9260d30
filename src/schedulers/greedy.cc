#include "src/schedulers/greedy.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/schedulers/scoring.h"

namespace medea {
namespace {

struct PendingContainer {
  int lra_index;
  int container_index;
  int flat_index;
  double priority = 0.0;  // ordering key, larger = earlier
};

// Tag popularity: number of relevant constraints mentioning each tag
// (subjects and targets).
std::unordered_map<uint32_t, int> TagPopularity(const RelevantConstraints& relevant) {
  std::unordered_map<uint32_t, int> popularity;
  const auto count_expr = [&](const TagExpression& expr) {
    for (TagId t : expr.tags()) {
      ++popularity[t.value];
    }
  };
  for (const auto& [id, constraint] : relevant.All()) {
    for (const auto* atomic : constraint->AllAtomics()) {
      count_expr(atomic->subject);
      for (const TagConstraint& tc : atomic->targets) {
        count_expr(tc.c_tags);
      }
    }
  }
  return popularity;
}

}  // namespace

PlacementPlan GreedyScheduler::Place(const PlacementProblem& problem) {
  const obs::ScopedSpan place_span("greedy.place", "sched");
  const auto start = std::chrono::steady_clock::now();
  PlacementPlan plan;
  plan.lra_placed.assign(problem.lras.size(), false);
  MEDEA_CHECK(problem.state != nullptr && problem.manager != nullptr);

  const RelevantConstraints relevant = FindRelevantConstraints(problem);
  const auto relevant_all = relevant.All();
  const CandidateSelector selector(config_);
  const CandidatePool pool = [&] {
    const obs::ScopedSpan pool_span("greedy.build_pool", "sched");
    const obs::ScopedLatencyTimer pool_timer("sched.pool_build_ms");
    return selector.BuildPool(problem, relevant);
  }();
  // Pruning/scoring volume, reported once per cycle (plain locals on the
  // per-candidate path; see docs/observability.md).
  long long candidates_scored = 0;
  long long candidates_pruned = 0;

  ClusterState scratch = *problem.state;
  SubjectIndex index(scratch, relevant_all);

  // Flatten the batch's containers.
  std::vector<PendingContainer> pending;
  int flat = 0;
  for (size_t i = 0; i < problem.lras.size(); ++i) {
    for (size_t j = 0; j < problem.lras[i].containers.size(); ++j) {
      pending.push_back({static_cast<int>(i), static_cast<int>(j), flat++, 0.0});
    }
  }

  const auto container_of = [&](const PendingContainer& p) -> const ContainerRequest& {
    return problem.lras[static_cast<size_t>(p.lra_index)]
        .containers[static_cast<size_t>(p.container_index)];
  };

  // With no relevant constraint every candidate scores exactly 0 at either
  // depth, so the trial allocation is skipped and the load tie-break decides.
  const auto score = [&](ApplicationId app, const ContainerRequest& req, NodeId n) {
    if (relevant_all.empty()) {
      return 0.0;
    }
    return impact_aware_ ? PlacementScoreDelta(scratch, index, app, req, n)
                         : SubjectOnlyScore(scratch, relevant_all, app, req, n);
  };

  // Nc for the node-candidates heuristic: number of candidate nodes where
  // the container can be placed with zero violation-extent score.
  const auto compute_nc = [&](const PendingContainer& p) {
    const ContainerRequest& req = container_of(p);
    auto candidates = selector.ForContainer(problem, pool, p.flat_index,
                                            static_cast<int>(pending.size()), req.demand);
    std::erase_if(candidates, [&](NodeId n) { return !scratch.node(n).CanFit(req.demand); });
    int nc = 0;
    for (NodeId n : candidates) {
      if (score(problem.lras[static_cast<size_t>(p.lra_index)].app, req, n) <= 1e-12) {
        ++nc;
      }
    }
    return nc;
  };

  const auto apply_ordering = [&](std::vector<PendingContainer>& items) {
    switch (ordering_) {
      case GreedyOrdering::kSerial:
        return;  // submission order
      case GreedyOrdering::kTagPopularity: {
        const auto popularity = TagPopularity(relevant);
        for (auto& p : items) {
          double priority_score = 0.0;
          for (TagId t : container_of(p).tags) {
            const auto it = popularity.find(t.value);
            priority_score += it == popularity.end() ? 0 : it->second;
          }
          p.priority = priority_score;
        }
        std::stable_sort(items.begin(), items.end(),
                         [](const auto& a, const auto& b) { return a.priority > b.priority; });
        return;
      }
      case GreedyOrdering::kNodeCandidates: {
        for (auto& p : items) {
          p.priority = -compute_nc(p);  // fewest candidates first
        }
        std::stable_sort(items.begin(), items.end(),
                         [](const auto& a, const auto& b) { return a.priority > b.priority; });
        return;
      }
    }
  };

  apply_ordering(pending);

  // Greedy placement with all-or-nothing per LRA.
  std::vector<std::vector<ContainerId>> scratch_allocated(problem.lras.size());
  std::vector<bool> lra_failed(problem.lras.size(), false);
  std::vector<Assignment> assignments;
  int last_completed_lra = -1;

  for (size_t idx = 0; idx < pending.size(); ++idx) {
    const PendingContainer& p = pending[idx];
    const size_t lra = static_cast<size_t>(p.lra_index);
    if (lra_failed[lra]) {
      continue;
    }
    const obs::ScopedLatencyTimer container_timer("sched.container_place_ms");
    const ContainerRequest& req = container_of(p);
    auto candidates = selector.ForContainer(problem, pool, p.flat_index, static_cast<int>(pending.size()), req.demand);
    // The selector checked capacity against the pre-cycle state; re-check
    // against the scratch state that reflects this cycle's placements.
    const size_t before_capacity_filter = candidates.size();
    std::erase_if(candidates, [&](NodeId n) { return !scratch.node(n).CanFit(req.demand); });
    candidates_pruned += static_cast<long long>(before_capacity_filter - candidates.size());
    candidates_scored += static_cast<long long>(candidates.size());
    NodeId best = NodeId::Invalid();
    double best_score = 1e300;
    double best_load = 0.0;
    for (NodeId n : candidates) {
      const double delta = score(problem.lras[lra].app, req, n);
      const double load = scratch.node(n).used().DominantShareOf(scratch.node(n).capacity());
      if (delta < best_score - 1e-12 ||
          (delta < best_score + 1e-12 && load < best_load - 1e-12)) {
        best_score = delta;
        best_load = load;
        best = n;
      }
    }
    if (!best.IsValid()) {
      lra_failed[lra] = true;
      for (ContainerId c : scratch_allocated[lra]) {
        index.Remove(c);
        MEDEA_CHECK(scratch.Release(c).ok());
      }
      scratch_allocated[lra].clear();
      continue;
    }
    auto allocated =
        scratch.Allocate(problem.lras[lra].app, best, req.demand, req.tags, true);
    MEDEA_CHECK(allocated.ok());
    index.Add(scratch, *allocated);
    scratch_allocated[lra].push_back(*allocated);
    assignments.push_back({p.lra_index, p.container_index, best});

    // Lazy Nc refresh: when an LRA's batch position advances, re-rank the
    // remaining containers (their placement opportunities changed).
    if (ordering_ == GreedyOrdering::kNodeCandidates && p.lra_index != last_completed_lra &&
        idx + 1 < pending.size()) {
      last_completed_lra = p.lra_index;
      std::vector<PendingContainer> rest(pending.begin() + static_cast<long>(idx) + 1,
                                         pending.end());
      apply_ordering(rest);
      std::copy(rest.begin(), rest.end(), pending.begin() + static_cast<long>(idx) + 1);
    }
  }

  for (size_t i = 0; i < problem.lras.size(); ++i) {
    plan.lra_placed[i] = !lra_failed[i];
  }
  // Drop assignments of failed LRAs.
  assignments.erase(std::remove_if(assignments.begin(), assignments.end(),
                                   [&](const Assignment& a) {
                                     return lra_failed[static_cast<size_t>(a.lra_index)];
                                   }),
                    assignments.end());
  plan.assignments = std::move(assignments);
  plan.latency_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  if (obs::MetricsEnabled()) {
    obs::Observe("sched.place_ms." + name(), plan.latency_ms);
    obs::Count("sched.candidates_scored", candidates_scored);
    obs::Count("sched.candidates_pruned", candidates_pruned);
    obs::Count("sched.containers_placed", static_cast<long long>(plan.assignments.size()));
  }
  AuditPlan(problem, plan, name());
  return plan;
}

std::string GreedyScheduler::name() const {
  switch (ordering_) {
    case GreedyOrdering::kSerial:
      return "Serial";
    case GreedyOrdering::kTagPopularity:
      return "Medea-TP";
    case GreedyOrdering::kNodeCandidates:
      return "Medea-NC";
  }
  return "Greedy";
}

}  // namespace medea
