#include "src/schedulers/candidates.h"

#include <algorithm>
#include <unordered_set>

namespace medea {
namespace {

// True iff any new container of the problem matches `expr`.
bool AnyNewContainerMatches(const PlacementProblem& problem, const TagExpression& expr) {
  for (const LraRequest& lra : problem.lras) {
    for (const ContainerRequest& req : lra.containers) {
      if (expr.MatchedBy(req.tags)) {
        return true;
      }
    }
  }
  return false;
}

// True iff any new container carries at least one tag of `expr` (a weaker
// test used for target relevance: a new container can only change a
// conjunction's cardinality if it carries all its tags, but carrying the
// tags is what MatchedBy checks, so reuse it).
bool AnyNewContainerMatchesTargets(const PlacementProblem& problem,
                                   const PlacementConstraint& constraint) {
  for (const auto* atomic : constraint.AllAtomics()) {
    for (const TagConstraint& tc : atomic->targets) {
      if (AnyNewContainerMatches(problem, tc.c_tags)) {
        return true;
      }
    }
  }
  return false;
}

bool AnyNewContainerIsSubject(const PlacementProblem& problem,
                              const PlacementConstraint& constraint) {
  for (const auto* atomic : constraint.AllAtomics()) {
    if (AnyNewContainerMatches(problem, atomic->subject)) {
      return true;
    }
  }
  return false;
}

double NodeLoad(const Node& node) { return node.used().DominantShareOf(node.capacity()); }

}  // namespace

std::vector<std::pair<ConstraintId, const PlacementConstraint*>> RelevantConstraints::All()
    const {
  auto all = with_new_subjects;
  all.insert(all.end(), affected_existing.begin(), affected_existing.end());
  return all;
}

RelevantConstraints FindRelevantConstraints(const PlacementProblem& problem) {
  RelevantConstraints out;
  MEDEA_CHECK(problem.manager != nullptr);
  for (const auto& entry : problem.manager->Effective()) {
    if (AnyNewContainerIsSubject(problem, *entry.second)) {
      out.with_new_subjects.push_back(entry);
    } else if (AnyNewContainerMatchesTargets(problem, *entry.second)) {
      out.affected_existing.push_back(entry);
    }
  }
  return out;
}

CandidatePool CandidateSelector::BuildPool(const PlacementProblem& problem,
                                           const RelevantConstraints& relevant) const {
  const ClusterState& state = *problem.state;
  std::unordered_set<uint32_t> chosen;
  CandidatePool pool;
  const size_t target = static_cast<size_t>(std::max(config_.node_pool_size, 1));

  const auto add = [&](NodeId n) {
    if (pool.nodes.size() >= target * 2) {  // hard cap including anchors
      return;
    }
    const Node& node = state.node(n);
    if (!node.available()) {
      return;
    }
    if (chosen.insert(n.value).second) {
      pool.nodes.push_back(n);
    }
  };

  // Tier 1: affinity anchors — nodes already holding targeted tags, plus
  // nodes holding *subjects* of constraints whose targets we are about to
  // place (an affected deployed LRA is only satisfiable if its nodes are
  // candidates for the new target containers).
  const auto all_relevant = relevant.All();
  const auto anchor_expr = [&](const TagExpression& expr) {
    int added = 0;
    for (size_t n = 0; n < state.num_nodes() && added < 16; ++n) {
      const NodeId node_id(static_cast<uint32_t>(n));
      if (state.TagCardinality(node_id, expr.tags()) > 0) {
        add(node_id);
        ++added;
      }
    }
  };
  for (const auto& [id, constraint] : all_relevant) {
    for (const auto* atomic : constraint->AllAtomics()) {
      for (const TagConstraint& tc : atomic->targets) {
        if (tc.cmin >= 1) {
          anchor_expr(tc.c_tags);  // affinity-like targets anchor
        }
      }
    }
  }
  for (const auto& [id, constraint] : relevant.affected_existing) {
    for (const auto* atomic : constraint->AllAtomics()) {
      anchor_expr(atomic->subject);
    }
  }

  pool.num_anchors = pool.nodes.size();

  // Each node's load, computed once for both sorting tiers.
  std::vector<double> load(state.num_nodes());
  size_t unavailable = 0;
  for (size_t n = 0; n < load.size(); ++n) {
    const Node& node = state.node(NodeId(static_cast<uint32_t>(n)));
    load[n] = NodeLoad(node);
    unavailable += node.available() ? 0 : 1;
  }

  // Tier 2: spread representatives per referenced group kind.
  std::unordered_set<std::string> kinds;
  for (const auto& [id, constraint] : all_relevant) {
    for (const auto* atomic : constraint->AllAtomics()) {
      kinds.insert(atomic->node_group);
    }
  }
  kinds.erase(kNodeGroupNode);  // singleton sets are covered by tier 3
  for (const auto& kind : kinds) {
    if (!state.groups().HasKind(kind)) {
      continue;
    }
    for (const auto& node_set : state.groups().SetsOf(kind)) {
      // Up to a few least-loaded nodes per set, scaled so large clusters
      // with many sets do not blow past the pool budget.
      std::vector<NodeId> sorted(node_set);
      std::stable_sort(sorted.begin(), sorted.end(),
                       [&](NodeId a, NodeId b) { return load[a.value] < load[b.value]; });
      const size_t per_set =
          std::max<size_t>(1, target / (2 * std::max<size_t>(1, state.groups().NumSets(kind))));
      for (size_t i = 0; i < sorted.size() && i < per_set + 1; ++i) {
        add(sorted[i]);
      }
    }
  }

  // Tier 3: globally least-loaded fill. Each node the fill reads is added
  // (at most target - pool size of them), unavailable, or already in the pool
  // (at most pool size), so it never reads past the first target +
  // unavailable nodes of the load order. Only that prefix is sorted, by
  // (load, index): the order a stable sort by load gives.
  if (pool.nodes.size() < target) {
    std::vector<NodeId> all_nodes;
    all_nodes.reserve(state.num_nodes());
    for (size_t n = 0; n < state.num_nodes(); ++n) {
      all_nodes.push_back(NodeId(static_cast<uint32_t>(n)));
    }
    const size_t reach = std::min(all_nodes.size(), target + unavailable);
    std::partial_sort(all_nodes.begin(), all_nodes.begin() + static_cast<long>(reach),
                      all_nodes.end(), [&](NodeId a, NodeId b) {
                        return load[a.value] < load[b.value] ||
                               (load[a.value] == load[b.value] && a.value < b.value);
                      });
    for (size_t i = 0; i < reach && pool.nodes.size() < target; ++i) {
      add(all_nodes[i]);
    }
  }
  return pool;
}

std::vector<NodeId> CandidateSelector::ForContainer(const PlacementProblem& problem,
                                                    const CandidatePool& pool, int flat_index,
                                                    int total_containers,
                                                    const Resource& demand) const {
  const ClusterState& state = *problem.state;
  std::vector<NodeId> candidates;
  if (pool.nodes.empty()) {
    return candidates;
  }
  const size_t floor_limit = static_cast<size_t>(std::max(config_.candidates_per_container, 1));
  const size_t budget_limit = static_cast<size_t>(
      std::max(config_.x_var_budget, 1) / std::max(total_containers, 1));
  const size_t limit = std::min(pool.nodes.size(), std::max(floor_limit, budget_limit));
  // Every anchor node is a candidate for every container (affinity targets
  // live there), capped at half the budget.
  const size_t anchor_cap = std::min(pool.num_anchors, std::max<size_t>(limit / 2, 1));
  for (size_t i = 0; i < anchor_cap; ++i) {
    if (state.node(pool.nodes[i]).CanFit(demand)) {
      candidates.push_back(pool.nodes[i]);
    }
  }
  // Remaining budget: slowly rotated window over the rest of the pool, so
  // neighbouring containers share most of their candidates.
  const size_t rest_begin = pool.num_anchors;
  const size_t rest_size = pool.nodes.size() - rest_begin;
  if (rest_size > 0) {
    const size_t stride = std::max<size_t>(1, limit / 8);
    const size_t start = (static_cast<size_t>(flat_index) * stride) % rest_size;
    for (size_t step = 0; step < rest_size && candidates.size() < limit; ++step) {
      const NodeId n = pool.nodes[rest_begin + (start + step) % rest_size];
      if (state.node(n).CanFit(demand)) {
        candidates.push_back(n);
      }
    }
  }
  return candidates;
}

}  // namespace medea
