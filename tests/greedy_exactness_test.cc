// Exactness of the greedy cycle's shortcuts: the candidate pool's partial
// tier-3 sort against the full stable sort it replaces, the greedy schedulers'
// unscored path (a batch with no relevant constraint) against a reference
// loop that scores every candidate with the scan-based oracles on a trial
// allocation, and the SubjectIndex built without constraints.

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "src/common/rng.h"
#include "src/schedulers/candidates.h"
#include "src/schedulers/greedy.h"
#include "src/schedulers/scoring.h"

namespace medea {
namespace {

double Load(const ClusterState& state, NodeId n) {
  return state.node(n).used().DominantShareOf(state.node(n).capacity());
}

// The pool as built with a full stable sort of every node in tier 3 and
// loads recomputed inside every comparison (tiers 1 and 2 as in BuildPool).
CandidatePool FullSortPool(const PlacementProblem& problem, const RelevantConstraints& relevant,
                           const SchedulerConfig& config) {
  const ClusterState& state = *problem.state;
  std::unordered_set<uint32_t> chosen;
  CandidatePool pool;
  const size_t target = static_cast<size_t>(std::max(config.node_pool_size, 1));
  const auto add = [&](NodeId n) {
    if (pool.nodes.size() < target * 2 && state.node(n).available() &&
        chosen.insert(n.value).second) {
      pool.nodes.push_back(n);
    }
  };
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
  const auto all_relevant = relevant.All();
  for (const auto& [id, constraint] : all_relevant) {
    for (const auto* atomic : constraint->AllAtomics()) {
      for (const TagConstraint& tc : atomic->targets) {
        if (tc.cmin >= 1) {
          anchor_expr(tc.c_tags);
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
  const auto by_load = [&](NodeId a, NodeId b) { return Load(state, a) < Load(state, b); };
  std::unordered_set<std::string> kinds;
  for (const auto& [id, constraint] : all_relevant) {
    for (const auto* atomic : constraint->AllAtomics()) {
      kinds.insert(atomic->node_group);
    }
  }
  kinds.erase(kNodeGroupNode);
  for (const auto& kind : kinds) {
    if (!state.groups().HasKind(kind)) {
      continue;
    }
    for (const auto& node_set : state.groups().SetsOf(kind)) {
      std::vector<NodeId> sorted(node_set);
      std::stable_sort(sorted.begin(), sorted.end(), by_load);
      const size_t per_set =
          std::max<size_t>(1, target / (2 * std::max<size_t>(1, state.groups().NumSets(kind))));
      for (size_t i = 0; i < sorted.size() && i < per_set + 1; ++i) {
        add(sorted[i]);
      }
    }
  }
  std::vector<NodeId> all_nodes;
  for (size_t n = 0; n < state.num_nodes(); ++n) {
    all_nodes.push_back(NodeId(static_cast<uint32_t>(n)));
  }
  std::stable_sort(all_nodes.begin(), all_nodes.end(), by_load);
  for (NodeId n : all_nodes) {
    if (pool.nodes.size() >= target) {
      break;
    }
    add(n);
  }
  return pool;
}

class GreedyExactnessTest : public ::testing::Test {
 protected:
  explicit GreedyExactnessTest(size_t nodes = 64, size_t racks = 4)
      : state_(ClusterBuilder()
                   .NumNodes(nodes)
                   .NumRacks(racks)
                   .NumUpgradeDomains(racks)
                   .NumServiceUnits(racks)
                   .NodeCapacity(Resource(16 * 1024, 8))
                   .Build()),
        manager_(state_.groups_ptr()) {}

  // Loads every node with 0-3 one-core containers (many tied loads) and
  // takes every `unavailable_every`-th node down, low indices included.
  void Preload(uint64_t seed, size_t unavailable_every) {
    Rng rng(seed);
    const std::vector<TagId> filler = manager_.tags().InternAll({"filler"});
    for (size_t n = 0; n < state_.num_nodes(); ++n) {
      const NodeId node(static_cast<uint32_t>(n));
      const int count = static_cast<int>(rng.NextBounded(4));
      for (int i = 0; i < count; ++i) {
        ASSERT_TRUE(
            state_.Allocate(ApplicationId(900), node, Resource(2048, 1), filler, true).ok());
      }
      if (n % unavailable_every == 1) {
        state_.SetNodeAvailable(node, false);
      }
    }
  }

  LraRequest MakeLra(ApplicationId app, int n, const std::vector<std::string>& tags,
                     Resource demand) {
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
    lras_ = std::move(lras);
    PlacementProblem p;
    p.lras = lras_;
    p.state = &state_;
    p.manager = &manager_;
    return p;
  }

  ClusterState state_;
  ConstraintManager manager_;
  std::vector<LraRequest> lras_;
};

class CandidatePoolExactnessTest : public GreedyExactnessTest {
 protected:
  CandidatePoolExactnessTest() : GreedyExactnessTest(10000, 40) {}

  void ExpectSamePool(const PlacementProblem& problem) {
    const RelevantConstraints relevant = FindRelevantConstraints(problem);
    for (const int pool_size : {1, 8, 96, 700, 9990, 20000}) {
      SchedulerConfig config;
      config.node_pool_size = pool_size;
      const CandidatePool expected = FullSortPool(problem, relevant, config);
      const CandidatePool actual = CandidateSelector(config).BuildPool(problem, relevant);
      EXPECT_EQ(actual.num_anchors, expected.num_anchors) << "pool size " << pool_size;
      ASSERT_EQ(actual.nodes.size(), expected.nodes.size()) << "pool size " << pool_size;
      for (size_t i = 0; i < expected.nodes.size(); ++i) {
        ASSERT_EQ(actual.nodes[i], expected.nodes[i]) << "pool size " << pool_size << " at " << i;
      }
    }
  }
};

TEST_F(CandidatePoolExactnessTest, UnconstrainedPoolMatchesFullStableSort) {
  Preload(3, 37);
  ExpectSamePool(Problem({MakeLra(ApplicationId(1), 4, {"w"}, Resource(1024, 1))}));
}

TEST_F(CandidatePoolExactnessTest, AnchoredAndSpreadPoolMatchesFullStableSort) {
  Preload(5, 23);
  // Affinity targets ("mem") and an affected deployed LRA's subjects ("old")
  // anchor tier 1; the rack-level anti-affinity fills tier 2.
  const std::vector<TagId> mem = manager_.tags().InternAll({"mem"});
  const std::vector<TagId> old = manager_.tags().InternAll({"old"});
  for (const uint32_t n : {5u, 77u, 1203u, 9001u}) {
    ASSERT_TRUE(state_.Allocate(ApplicationId(800), NodeId(n), Resource(1024, 1), mem, true).ok());
  }
  for (const uint32_t n : {2u, 3u, 4444u}) {
    ASSERT_TRUE(state_.Allocate(ApplicationId(801), NodeId(n), Resource(1024, 1), old, true).ok());
  }
  ASSERT_TRUE(manager_
                  .AddFromText("{hb, {mem, 1, inf}, node}", ConstraintOrigin::kApplication,
                               ApplicationId(1))
                  .ok());
  ASSERT_TRUE(manager_
                  .AddFromText("{hb, {hb, 0, 1}, rack}", ConstraintOrigin::kApplication,
                               ApplicationId(1))
                  .ok());
  ASSERT_TRUE(manager_
                  .AddFromText("{old, {hb, 0, 0}, node}", ConstraintOrigin::kApplication,
                               ApplicationId(801))
                  .ok());
  const auto problem = Problem({MakeLra(ApplicationId(1), 6, {"hb"}, Resource(1024, 1))});
  const RelevantConstraints relevant = FindRelevantConstraints(problem);
  ASSERT_EQ(relevant.with_new_subjects.size(), 2u);
  ASSERT_EQ(relevant.affected_existing.size(), 1u);
  ExpectSamePool(problem);
}

// What a trial allocation on `node` could disturb: the node's used
// resources, its container count, the request tags' cardinality on it, and
// the cluster's container count.
using NodeFingerprint = std::tuple<Resource, size_t, std::vector<int>, size_t>;

NodeFingerprint Fingerprint(const ClusterState& state, NodeId node,
                            const std::vector<TagId>& tags) {
  std::vector<int> cardinality;
  for (TagId t : tags) {
    cardinality.push_back(state.TagCardinality(node, t));
  }
  return {state.node(node).used(), state.node(node).containers().size(), cardinality,
          state.num_containers()};
}

// The greedy cycle as it runs when it scores every candidate: each score is
// taken by the scan-based oracle on a trial allocation of `scratch`, which
// must come back unchanged. With no relevant constraint no tag is popular,
// so Medea-TP keeps submission order as Serial does.
PlacementPlan ReferencePlace(const PlacementProblem& problem, GreedyOrdering ordering,
                             bool impact_aware, const SchedulerConfig& config) {
  const RelevantConstraints relevant = FindRelevantConstraints(problem);
  const auto all = relevant.All();
  EXPECT_TRUE(all.empty());
  const CandidateSelector selector(config);
  const CandidatePool pool = selector.BuildPool(problem, relevant);
  ClusterState scratch = *problem.state;

  struct Item {
    int lra;
    int index;
    int flat;
    double priority;
  };
  std::vector<Item> pending;
  int flat = 0;
  for (size_t i = 0; i < problem.lras.size(); ++i) {
    for (size_t j = 0; j < problem.lras[i].containers.size(); ++j) {
      pending.push_back({static_cast<int>(i), static_cast<int>(j), flat++, 0.0});
    }
  }
  const int total = static_cast<int>(pending.size());
  const auto request = [&](const Item& p) -> const ContainerRequest& {
    return problem.lras[static_cast<size_t>(p.lra)].containers[static_cast<size_t>(p.index)];
  };
  const auto candidates_for = [&](const Item& p) {
    auto candidates =
        selector.ForContainer(problem, pool, p.flat, total, request(p).demand);
    std::erase_if(candidates,
                  [&](NodeId n) { return !scratch.node(n).CanFit(request(p).demand); });
    return candidates;
  };
  const auto score = [&](const Item& p, NodeId n) {
    const ContainerRequest& req = request(p);
    const ApplicationId app = problem.lras[static_cast<size_t>(p.lra)].app;
    const NodeFingerprint before = Fingerprint(scratch, n, req.tags);
    const double s = impact_aware ? PlacementScoreDelta(scratch, all, app, req, n)
                                  : SubjectOnlyScore(scratch, all, app, req, n);
    EXPECT_EQ(Fingerprint(scratch, n, req.tags), before);
    return s;
  };
  const auto order = [&](std::vector<Item>& items) {
    if (ordering != GreedyOrdering::kNodeCandidates) {
      return;
    }
    for (Item& p : items) {
      int nc = 0;
      for (NodeId n : candidates_for(p)) {
        nc += score(p, n) <= 1e-12 ? 1 : 0;
      }
      p.priority = -nc;
    }
    std::stable_sort(items.begin(), items.end(),
                     [](const Item& a, const Item& b) { return a.priority > b.priority; });
  };
  order(pending);

  std::vector<std::vector<ContainerId>> allocated(problem.lras.size());
  std::vector<bool> failed(problem.lras.size(), false);
  std::vector<Assignment> assignments;
  int last_lra = -1;
  for (size_t idx = 0; idx < pending.size(); ++idx) {
    const Item p = pending[idx];
    const size_t lra = static_cast<size_t>(p.lra);
    if (failed[lra]) {
      continue;
    }
    NodeId best = NodeId::Invalid();
    double best_score = 1e300;
    double best_load = 0.0;
    for (NodeId n : candidates_for(p)) {
      const double delta = score(p, n);
      const double load = Load(scratch, n);
      if (delta < best_score - 1e-12 ||
          (delta < best_score + 1e-12 && load < best_load - 1e-12)) {
        best_score = delta;
        best_load = load;
        best = n;
      }
    }
    if (!best.IsValid()) {
      failed[lra] = true;
      for (ContainerId c : allocated[lra]) {
        EXPECT_TRUE(scratch.Release(c).ok());
      }
      allocated[lra].clear();
      continue;
    }
    const auto c = scratch.Allocate(problem.lras[lra].app, best, request(p).demand,
                                    request(p).tags, true);
    EXPECT_TRUE(c.ok());
    allocated[lra].push_back(*c);
    assignments.push_back({p.lra, p.index, best});
    if (ordering == GreedyOrdering::kNodeCandidates && p.lra != last_lra &&
        idx + 1 < pending.size()) {
      last_lra = p.lra;
      std::vector<Item> rest(pending.begin() + static_cast<long>(idx) + 1, pending.end());
      order(rest);
      std::copy(rest.begin(), rest.end(), pending.begin() + static_cast<long>(idx) + 1);
    }
  }
  PlacementPlan plan;
  for (size_t i = 0; i < problem.lras.size(); ++i) {
    plan.lra_placed.push_back(!failed[i]);
  }
  std::erase_if(assignments,
                [&](const Assignment& a) { return failed[static_cast<size_t>(a.lra_index)]; });
  plan.assignments = std::move(assignments);
  return plan;
}

TEST_F(GreedyExactnessTest, UnconstrainedBatchMatchesScoredReference) {
  Preload(11, 9);
  // A constraint none of the batch's containers is a subject or target of.
  ASSERT_TRUE(manager_
                  .AddFromText("{zz, {yy, 0, 0}, node}", ConstraintOrigin::kApplication,
                               ApplicationId(99))
                  .ok());
  const auto problem = Problem({
      MakeLra(ApplicationId(1), 5, {"web"}, Resource(2048, 1)),
      MakeLra(ApplicationId(2), 3, {"db"}, Resource(8 * 1024, 2)),
      MakeLra(ApplicationId(3), 80, {"big"}, Resource(12 * 1024, 4)),  // cannot all fit
      MakeLra(ApplicationId(4), 7, {"web", "cache"}, Resource(1024, 3)),
      MakeLra(ApplicationId(5), 2, {"db"}, Resource(4096, 1)),
  });
  std::vector<std::tuple<Resource, size_t>> live_before;
  for (size_t n = 0; n < state_.num_nodes(); ++n) {
    const Node& node = state_.node(NodeId(static_cast<uint32_t>(n)));
    live_before.emplace_back(node.used(), node.containers().size());
  }
  SchedulerConfig narrow;
  narrow.node_pool_size = 24;
  narrow.candidates_per_container = 6;
  narrow.x_var_budget = 64;
  for (const SchedulerConfig& config : {SchedulerConfig{}, narrow}) {
    for (const GreedyOrdering ordering :
         {GreedyOrdering::kSerial, GreedyOrdering::kTagPopularity,
          GreedyOrdering::kNodeCandidates}) {
      for (const bool impact_aware : {true, false}) {
        GreedyScheduler scheduler(ordering, config, impact_aware);
        const PlacementPlan actual = scheduler.Place(problem);
        const PlacementPlan expected = ReferencePlace(problem, ordering, impact_aware, config);
        const std::string label = scheduler.name() + (impact_aware ? " impact" : " subject") +
                                  " pool " + std::to_string(config.node_pool_size);
        EXPECT_EQ(actual.lra_placed, expected.lra_placed) << label;
        EXPECT_FALSE(actual.lra_placed[2]) << label;
        ASSERT_EQ(actual.assignments.size(), expected.assignments.size()) << label;
        for (size_t i = 0; i < expected.assignments.size(); ++i) {
          EXPECT_EQ(actual.assignments[i].lra_index, expected.assignments[i].lra_index) << label;
          EXPECT_EQ(actual.assignments[i].container_index,
                    expected.assignments[i].container_index)
              << label;
          EXPECT_EQ(actual.assignments[i].node, expected.assignments[i].node) << label;
        }
      }
    }
  }
  for (size_t n = 0; n < state_.num_nodes(); ++n) {
    const Node& node = state_.node(NodeId(static_cast<uint32_t>(n)));
    EXPECT_EQ(std::make_tuple(node.used(), node.containers().size()), live_before[n]);
  }
}

TEST_F(GreedyExactnessTest, SubjectIndexWithoutConstraintsHoldsNoSubjects) {
  Preload(13, 5);
  SubjectIndex index(state_, {});
  EXPECT_EQ(index.num_constraints(), 0u);
  auto c = state_.Allocate(ApplicationId(1), NodeId(0), Resource(1024, 1),
                           manager_.tags().InternAll({"hb"}), true);
  ASSERT_TRUE(c.ok());
  index.Add(state_, *c);
  index.Remove(*c);
  EXPECT_EQ(index.num_constraints(), 0u);
}

}  // namespace
}  // namespace medea
