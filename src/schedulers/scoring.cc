#include "src/schedulers/scoring.h"

#include <limits>
#include <map>
#include <tuple>
#include <unordered_set>

#include "src/core/violation.h"

namespace medea {
namespace {

// Caches set-cardinalities gamma_S(c_tags) within one scoring pass: all
// subjects sharing a node set reuse one computation (self-exclusion is
// applied per subject on top of the cached raw count).
class GammaCache {
 public:
  explicit GammaCache(const ClusterState& state) : state_(state) {}

  int Cardinality(const AtomicConstraint& atomic, int target_index, int set_index) {
    const auto key = std::make_tuple(static_cast<const void*>(&atomic), target_index, set_index);
    const auto it = values_.find(key);
    if (it != values_.end()) {
      return it->second;
    }
    const auto& node_set =
        state_.groups().SetsOf(atomic.node_group)[static_cast<size_t>(set_index)];
    const int gamma = state_.SetTagCardinality(
        node_set, atomic.targets[static_cast<size_t>(target_index)].c_tags.tags());
    values_.emplace(key, gamma);
    return gamma;
  }

 private:
  const ClusterState& state_;
  std::map<std::tuple<const void*, int, int>, int> values_;
};

// Mirrors ConstraintEvaluator::EvaluateConstraint with cached cardinalities.
double CachedConstraintExtent(const ClusterState& state, const PlacementConstraint& constraint,
                              NodeId node, std::span<const TagId> subject_tags,
                              GammaCache& cache) {
  double best = std::numeric_limits<double>::infinity();
  for (const auto& clause : constraint.clauses) {
    double clause_extent = 0.0;
    for (const AtomicConstraint& atomic : clause) {
      const auto& containing = state.groups().SetsContaining(atomic.node_group, node);
      if (containing.empty()) {
        for (const TagConstraint& tc : atomic.targets) {
          clause_extent += ConstraintEvaluator::TagConstraintExtent(tc, 0);
        }
        continue;
      }
      double atomic_best = std::numeric_limits<double>::infinity();
      for (int set_index : containing) {
        double extent = 0.0;
        for (int t = 0; t < static_cast<int>(atomic.targets.size()); ++t) {
          const TagConstraint& tc = atomic.targets[static_cast<size_t>(t)];
          int gamma = cache.Cardinality(atomic, t, set_index);
          if (tc.c_tags.MatchedBy(subject_tags)) {
            gamma = std::max(0, gamma - 1);  // self-exclusion
          }
          extent += ConstraintEvaluator::TagConstraintExtent(tc, gamma);
        }
        atomic_best = std::min(atomic_best, extent);
        if (atomic_best == 0.0) {
          break;
        }
      }
      clause_extent += atomic_best;
    }
    best = std::min(best, clause_extent);
    if (best == 0.0) {
      break;
    }
  }
  return best;
}

}  // namespace

double LocalViolationExtent(
    const ClusterState& state,
    std::span<const std::pair<ConstraintId, const PlacementConstraint*>> relevant, NodeId node) {
  double total = 0.0;
  for (const auto& [id, constraint] : relevant) {
    GammaCache cache(state);
    // Union of local nodes over the atomics' group kinds.
    std::unordered_set<uint32_t> local_nodes;
    for (const auto* atomic : constraint->AllAtomics()) {
      const auto& groups = state.groups();
      for (int set_index : groups.SetsContaining(atomic->node_group, node)) {
        for (NodeId n : groups.SetsOf(atomic->node_group)[static_cast<size_t>(set_index)]) {
          local_nodes.insert(n.value);
        }
      }
    }
    // Evaluate every subject container located on a local node.
    for (uint32_t raw : local_nodes) {
      const Node& n = state.node(NodeId(raw));
      for (ContainerId c : n.containers()) {
        const ContainerInfo* info = state.FindContainer(c);
        MEDEA_CHECK(info != nullptr);
        if (!info->long_running) {
          continue;
        }
        bool is_subject = false;
        for (const auto* atomic : constraint->AllAtomics()) {
          if (atomic->subject.MatchedBy(info->tags)) {
            is_subject = true;
            break;
          }
        }
        if (!is_subject) {
          continue;
        }
        total += CachedConstraintExtent(state, *constraint, info->node, info->tags, cache) *
                 constraint->weight;
      }
    }
  }
  return total;
}

double PlacementScoreDelta(
    ClusterState& scratch,
    std::span<const std::pair<ConstraintId, const PlacementConstraint*>> relevant,
    ApplicationId app, const ContainerRequest& req, NodeId node) {
  const double before = LocalViolationExtent(scratch, relevant, node);
  auto allocated = scratch.Allocate(app, node, req.demand, req.tags, /*long_running=*/true);
  MEDEA_CHECK(allocated.ok());
  const double after = LocalViolationExtent(scratch, relevant, node);
  MEDEA_CHECK(scratch.Release(*allocated).ok());
  return after - before;
}

SubjectIndex::SubjectIndex(
    const ClusterState& state,
    std::vector<std::pair<ConstraintId, const PlacementConstraint*>> relevant)
    : relevant_(std::move(relevant)), subjects_(relevant_.size()) {
  if (relevant_.empty()) {
    return;  // nothing can have a subject: skip the full-cluster scan
  }
  state.ForEachContainer([&](const ContainerInfo& info) {
    if (!info.long_running) {
      return;
    }
    for (size_t i = 0; i < relevant_.size(); ++i) {
      for (const auto* atomic : relevant_[i].second->AllAtomics()) {
        if (atomic->subject.MatchedBy(info.tags)) {
          subjects_[i].push_back(SubjectEntry{info.id, info.node, info.tags});
          break;
        }
      }
    }
  });
}

void SubjectIndex::Add(const ClusterState& state, ContainerId id) {
  const ContainerInfo* info = state.FindContainer(id);
  MEDEA_CHECK(info != nullptr);
  for (size_t i = 0; i < relevant_.size(); ++i) {
    for (const auto* atomic : relevant_[i].second->AllAtomics()) {
      if (atomic->subject.MatchedBy(info->tags)) {
        subjects_[i].push_back(SubjectEntry{info->id, info->node, info->tags});
        break;
      }
    }
  }
}

void SubjectIndex::Remove(ContainerId id) {
  for (auto& list : subjects_) {
    std::erase_if(list, [&](const SubjectEntry& e) { return e.id == id; });
  }
}

namespace {

// True iff `a` and `b` share a node set of kind `kind`.
bool ShareSet(const ClusterState& state, const std::string& kind, NodeId a, NodeId b) {
  const auto& sa = state.groups().SetsContaining(kind, a);
  const auto& sb = state.groups().SetsContaining(kind, b);
  for (int x : sa) {
    for (int y : sb) {
      if (x == y) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

double LocalViolationExtent(const ClusterState& state, const SubjectIndex& index, NodeId node) {
  double total = 0.0;
  for (size_t i = 0; i < index.num_constraints(); ++i) {
    const PlacementConstraint& constraint = index.constraint(i);
    if (index.subjects(i).empty()) {
      continue;
    }
    GammaCache cache(state);
    for (const auto& subject : index.subjects(i)) {
      bool local = false;
      for (const auto* atomic : constraint.AllAtomics()) {
        if (ShareSet(state, atomic->node_group, node, subject.node)) {
          local = true;
          break;
        }
      }
      if (!local) {
        continue;
      }
      total += CachedConstraintExtent(state, constraint, subject.node, subject.tags, cache) *
               constraint.weight;
    }
  }
  return total;
}

double PlacementScoreDelta(ClusterState& scratch, const SubjectIndex& index, ApplicationId app,
                           const ContainerRequest& req, NodeId node) {
  const double before = LocalViolationExtent(scratch, index, node);
  auto allocated = scratch.Allocate(app, node, req.demand, req.tags, /*long_running=*/true);
  MEDEA_CHECK(allocated.ok());
  // The hypothetical container is itself a subject of any constraint it
  // matches; account for its own extent plus the change it causes others.
  double after = LocalViolationExtent(scratch, index, node);
  for (size_t i = 0; i < index.num_constraints(); ++i) {
    const PlacementConstraint& constraint = index.constraint(i);
    for (const auto* atomic : constraint.AllAtomics()) {
      if (atomic->subject.MatchedBy(req.tags)) {
        const auto eval = ConstraintEvaluator::EvaluateConstraint(scratch, constraint,
                                                                  *allocated, node, req.tags);
        after += eval.extent * constraint.weight;
        break;
      }
    }
  }
  MEDEA_CHECK(scratch.Release(*allocated).ok());
  return after - before;
}

double SubjectOnlyScore(
    ClusterState& scratch,
    std::span<const std::pair<ConstraintId, const PlacementConstraint*>> relevant,
    ApplicationId app, const ContainerRequest& req, NodeId node) {
  auto allocated = scratch.Allocate(app, node, req.demand, req.tags, /*long_running=*/true);
  MEDEA_CHECK(allocated.ok());
  double total = 0.0;
  for (const auto& [id, constraint] : relevant) {
    bool is_subject = false;
    for (const auto* atomic : constraint->AllAtomics()) {
      if (atomic->subject.MatchedBy(req.tags)) {
        is_subject = true;
        break;
      }
    }
    if (!is_subject) {
      continue;
    }
    const auto eval = ConstraintEvaluator::EvaluateConstraint(scratch, *constraint, *allocated,
                                                              node, req.tags);
    total += eval.extent * constraint->weight;
  }
  MEDEA_CHECK(scratch.Release(*allocated).ok());
  return total;
}

}  // namespace medea
