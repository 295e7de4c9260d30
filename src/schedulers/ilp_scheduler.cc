#include "src/schedulers/ilp_scheduler.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/schedulers/candidates.h"
#include "src/schedulers/greedy.h"
#include "src/solver/lp_writer.h"

namespace medea {
namespace {

using solver::Model;
using solver::RowSense;
using solver::VarIndex;
using solver::VarType;

// One flattened new container with its candidate nodes and X variables.
struct FlatContainer {
  int lra_index = 0;
  int container_index = 0;
  const ContainerRequest* request = nullptr;
  ApplicationId app;
  std::vector<NodeId> candidates;
  std::vector<VarIndex> x;  // parallel to candidates
};

class IlpBuilder {
 public:
  IlpBuilder(const PlacementProblem& problem, const SchedulerConfig& config)
      : problem_(problem), config_(config), state_(*problem.state) {}

  void Build();

  const Model& model() const { return model_; }
  const std::vector<FlatContainer>& containers() const { return containers_; }
  const std::vector<VarIndex>& lra_placed_vars() const { return s_vars_; }

  // Fills in the auxiliary integer variables (machine-use u_n) implied by
  // the X assignments of a warm-start vector, so the solver's fix-and-repair
  // pass sees a consistent point.
  void CompleteWarmStart(std::vector<double>& warm) const {
    for (const auto& [node, u] : min_machine_vars_) {
      double any = 0.0;
      for (const auto& fc : containers_) {
        for (size_t c = 0; c < fc.candidates.size(); ++c) {
          if (fc.candidates[c] == node && warm[static_cast<size_t>(fc.x[c])] > 0.5) {
            any = 1.0;
          }
        }
      }
      warm[static_cast<size_t>(u)] = any;
    }
  }

 private:
  void BuildContainersAndPool();
  void AddPlacementRows();       // Eqs. 2-4
  void AddCapacityRows();        // Eq. 3
  void AddFragmentationRows();   // Eq. 5
  void AddConstraintRows();      // Eqs. 6-8
  void AddLoadBalanceRows();     // optional w4 component (§5.2 extension)
  void AddMinMachinesRows();     // optional w5 component (§2.4 objective)

  // X variables of new containers matching `expr`, restricted to candidate
  // nodes inside `node_set`, excluding container `exclude` (-1 = none).
  std::vector<std::pair<VarIndex, double>> TargetTermsInSet(
      const TagExpression& expr, const std::vector<NodeId>& node_set, int exclude) const;

  // Existing (already placed) cardinality of `expr` in `node_set`.
  int ExistingCount(const TagExpression& expr, const std::vector<NodeId>& node_set) const {
    return state_.SetTagCardinality(node_set, expr.tags());
  }

  // Sum of X over subject container `f`'s candidates inside `node_set`.
  std::vector<std::pair<VarIndex, double>> SubjectInSetTerms(
      int f, const std::vector<NodeId>& node_set) const;

  // Emits Eq. 6/7 rows for one atomic, one subject (new container f, or an
  // existing container when f < 0), over the relevant node sets.
  // `clause_var` (if >= 0) is the DNF clause selector binary.
  void EmitAtomicRows(const AtomicConstraint& atomic, double weight, int f,
                      const ContainerInfo* existing_subject, VarIndex clause_var,
                      int subject_count);

  // Count of potential targets of `expr` (existing + new) — the big-D.
  double BigD(const TagExpression& expr) const;

  const PlacementProblem& problem_;
  const SchedulerConfig& config_;
  const ClusterState& state_;

  Model model_;
  std::vector<FlatContainer> containers_;
  CandidatePool pool_;
  std::unordered_set<uint32_t> pool_set_;
  std::vector<VarIndex> s_vars_;
  std::vector<std::pair<NodeId, VarIndex>> min_machine_vars_;
  RelevantConstraints relevant_;
  double violation_scale_ = 0.0;  // w2 / m
};

void IlpBuilder::BuildContainersAndPool() {
  relevant_ = FindRelevantConstraints(problem_);
  const CandidateSelector selector(config_);
  pool_ = selector.BuildPool(problem_, relevant_);
  for (NodeId n : pool_.nodes) {
    pool_set_.insert(n.value);
  }
  int total_containers = 0;
  for (const LraRequest& lra : problem_.lras) {
    total_containers += static_cast<int>(lra.containers.size());
  }
  int flat = 0;
  for (size_t i = 0; i < problem_.lras.size(); ++i) {
    const LraRequest& lra = problem_.lras[i];
    for (size_t j = 0; j < lra.containers.size(); ++j) {
      FlatContainer fc;
      fc.lra_index = static_cast<int>(i);
      fc.container_index = static_cast<int>(j);
      fc.request = &lra.containers[j];
      fc.app = lra.app;
      fc.candidates = selector.ForContainer(problem_, pool_, flat, total_containers, lra.containers[j].demand);
      containers_.push_back(std::move(fc));
      ++flat;
    }
  }
}

void IlpBuilder::AddPlacementRows() {
  const int k = static_cast<int>(problem_.lras.size());
  // X variables + Eq. 2.
  for (auto& fc : containers_) {
    std::vector<std::pair<VarIndex, double>> once;
    for (NodeId n : fc.candidates) {
      const VarIndex x = model_.AddBinary(
          0.0, StrFormat("x_%d_%d_n%u", fc.lra_index, fc.container_index, n.value));
      fc.x.push_back(x);
      once.emplace_back(x, 1.0);
    }
    if (!once.empty()) {
      model_.AddRow(std::move(once), RowSense::kLessEqual, 1.0, "eq2");
    }
  }
  // S_i + Eq. 4. S_i is binary, as in Table 2: all-or-none per LRA. (A
  // continuous S would let the relaxation bank partial-placement credit.)
  for (int i = 0; i < k; ++i) {
    const VarIndex s = model_.AddBinary(config_.w1_placement / std::max(k, 1),
                                        StrFormat("S_%d", i));
    s_vars_.push_back(s);
    std::vector<std::pair<VarIndex, double>> terms;
    double ti = 0.0;
    for (const auto& fc : containers_) {
      if (fc.lra_index != i) {
        continue;
      }
      ti += 1.0;
      for (VarIndex x : fc.x) {
        terms.emplace_back(x, 1.0);
      }
    }
    terms.emplace_back(s, -ti);
    model_.AddRow(std::move(terms), RowSense::kEqual, 0.0, "eq4");
  }
}

void IlpBuilder::AddCapacityRows() {
  // Eq. 3, one row per pool node per resource dimension.
  for (NodeId n : pool_.nodes) {
    std::vector<std::pair<VarIndex, double>> mem_terms;
    std::vector<std::pair<VarIndex, double>> cpu_terms;
    for (const auto& fc : containers_) {
      for (size_t c = 0; c < fc.candidates.size(); ++c) {
        if (fc.candidates[c] != n) {
          continue;
        }
        mem_terms.emplace_back(fc.x[c], static_cast<double>(fc.request->demand.memory_mb));
        cpu_terms.emplace_back(fc.x[c], static_cast<double>(fc.request->demand.vcores));
      }
    }
    if (mem_terms.empty()) {
      continue;
    }
    const Resource free = state_.node(n).Free();
    model_.AddRow(mem_terms, RowSense::kLessEqual, static_cast<double>(free.memory_mb),
                  StrFormat("cap_mem_n%u", n.value));
    model_.AddRow(cpu_terms, RowSense::kLessEqual, static_cast<double>(free.vcores),
                  StrFormat("cap_cpu_n%u", n.value));
  }
}

void IlpBuilder::AddFragmentationRows() {
  // Eq. 5 with z relaxed to [0,1] and B = r_min (tightest valid big-B; see
  // header). Both dimensions share one z per node.
  const double scale = config_.w3_fragmentation / std::max<size_t>(pool_.nodes.size(), 1);
  for (NodeId n : pool_.nodes) {
    std::vector<std::pair<VarIndex, double>> mem_terms;
    std::vector<std::pair<VarIndex, double>> cpu_terms;
    for (const auto& fc : containers_) {
      for (size_t c = 0; c < fc.candidates.size(); ++c) {
        if (fc.candidates[c] != n) {
          continue;
        }
        mem_terms.emplace_back(fc.x[c], static_cast<double>(fc.request->demand.memory_mb));
        cpu_terms.emplace_back(fc.x[c], static_cast<double>(fc.request->demand.vcores));
      }
    }
    const Resource free = state_.node(n).Free();
    const VarIndex z =
        model_.AddContinuous(0.0, 1.0, scale, StrFormat("z_n%u", n.value));
    mem_terms.emplace_back(z, static_cast<double>(config_.rmin.memory_mb));
    cpu_terms.emplace_back(z, static_cast<double>(config_.rmin.vcores));
    model_.AddRow(std::move(mem_terms), RowSense::kLessEqual,
                  static_cast<double>(free.memory_mb), StrFormat("eq5_mem_n%u", n.value));
    model_.AddRow(std::move(cpu_terms), RowSense::kLessEqual,
                  static_cast<double>(free.vcores), StrFormat("eq5_cpu_n%u", n.value));
  }
}

std::vector<std::pair<VarIndex, double>> IlpBuilder::TargetTermsInSet(
    const TagExpression& expr, const std::vector<NodeId>& node_set, int exclude) const {
  std::unordered_set<uint32_t> set_nodes;
  for (NodeId n : node_set) {
    set_nodes.insert(n.value);
  }
  std::vector<std::pair<VarIndex, double>> terms;
  for (size_t f = 0; f < containers_.size(); ++f) {
    if (static_cast<int>(f) == exclude) {
      continue;
    }
    const FlatContainer& fc = containers_[f];
    if (!expr.MatchedBy(fc.request->tags)) {
      continue;
    }
    for (size_t c = 0; c < fc.candidates.size(); ++c) {
      if (set_nodes.count(fc.candidates[c].value) > 0) {
        terms.emplace_back(fc.x[c], 1.0);
      }
    }
  }
  return terms;
}

std::vector<std::pair<VarIndex, double>> IlpBuilder::SubjectInSetTerms(
    int f, const std::vector<NodeId>& node_set) const {
  std::unordered_set<uint32_t> set_nodes;
  for (NodeId n : node_set) {
    set_nodes.insert(n.value);
  }
  std::vector<std::pair<VarIndex, double>> terms;
  const FlatContainer& fc = containers_[static_cast<size_t>(f)];
  for (size_t c = 0; c < fc.candidates.size(); ++c) {
    if (set_nodes.count(fc.candidates[c].value) > 0) {
      terms.emplace_back(fc.x[c], 1.0);
    }
  }
  return terms;
}

double IlpBuilder::BigD(const TagExpression& expr) const {
  double count = 0.0;
  for (const auto& fc : containers_) {
    if (expr.MatchedBy(fc.request->tags)) {
      count += 1.0;
    }
  }
  // Existing matches across the whole cluster.
  state_.ForEachContainer([&](const ContainerInfo& info) {
    if (expr.MatchedBy(info.tags)) {
      count += 1.0;
    }
  });
  return count + 1.0;
}

void IlpBuilder::EmitAtomicRows(const AtomicConstraint& atomic, double weight, int f,
                                const ContainerInfo* existing_subject, VarIndex clause_var,
                                int subject_count) {
  const auto& groups = state_.groups();
  if (!groups.HasKind(atomic.node_group)) {
    return;
  }
  const auto& sets = groups.SetsOf(atomic.node_group);

  // Node sets to consider: those containing a candidate of the new subject,
  // or the set(s) containing the existing subject's node.
  std::vector<int> set_indices;
  if (existing_subject != nullptr) {
    set_indices = groups.SetsContaining(atomic.node_group, existing_subject->node);
  } else {
    std::unordered_set<int> seen;
    for (NodeId n : containers_[static_cast<size_t>(f)].candidates) {
      for (int s : groups.SetsContaining(atomic.node_group, n)) {
        if (seen.insert(s).second) {
          set_indices.push_back(s);
        }
      }
    }
  }

  for (const TagConstraint& tc : atomic.targets) {
    const double d = BigD(tc.c_tags) + tc.cmin;
    // Violation normalization per Eq. 8, scaled by w2/m and the soft weight.
    // The paper shares one violation variable per constraint (it tracks the
    // worst violation); we keep one per subject for count-sensitivity and
    // divide by the subject count so a constraint still contributes at most
    // ~w2/m per unit of average extent.
    const double divisor = std::max(subject_count, 1);
    const double vmin_cost = -violation_scale_ * weight / (std::max(tc.cmin, 1) * divisor);
    const double vmax_cost = -violation_scale_ * weight / (std::max(tc.cmax, 1) * divisor);

    for (int set_index : set_indices) {
      const std::vector<NodeId>& node_set = sets[static_cast<size_t>(set_index)];
      auto targets = TargetTermsInSet(tc.c_tags, node_set, f);
      double existing = ExistingCount(tc.c_tags, node_set);
      if (existing_subject != nullptr && tc.c_tags.MatchedBy(existing_subject->tags)) {
        existing -= 1.0;  // self-exclusion for an already-placed subject
      }

      // cmin row: targets + D*(1 - SubjInS) [+ D*(1 - y_clause)] + vmin >= cmin - existing.
      if (tc.cmin >= 1) {
        std::vector<std::pair<VarIndex, double>> row = targets;
        double rhs = static_cast<double>(tc.cmin) - existing;
        if (existing_subject == nullptr) {
          for (auto [x, coeff] : SubjectInSetTerms(f, node_set)) {
            row.emplace_back(x, -d * coeff);
          }
          rhs -= d;
        }
        if (clause_var >= 0) {
          row.emplace_back(clause_var, -d);
          rhs -= d;
        }
        const VarIndex vmin = model_.AddContinuous(0.0, tc.cmin, vmin_cost, "vmin");
        row.emplace_back(vmin, 1.0);
        model_.AddRow(std::move(row), RowSense::kGreaterEqual, rhs, "eq6");
      }

      // cmax row: targets - D*(1 - SubjInS) [- D*(1 - y)] - vmax <= cmax - existing.
      if (tc.cmax != kCardinalityInfinity) {
        std::vector<std::pair<VarIndex, double>> row = targets;
        double rhs = static_cast<double>(tc.cmax) - existing;
        if (existing_subject == nullptr) {
          for (auto [x, coeff] : SubjectInSetTerms(f, node_set)) {
            row.emplace_back(x, d * coeff);
          }
          rhs += d;
        }
        if (clause_var >= 0) {
          row.emplace_back(clause_var, d);
          rhs += d;
        }
        const VarIndex vmax = model_.AddContinuous(0.0, solver::kInfinity, vmax_cost, "vmax");
        row.emplace_back(vmax, -1.0);
        model_.AddRow(std::move(row), RowSense::kLessEqual, rhs, "eq7");
      }
    }
  }
}

void IlpBuilder::AddConstraintRows() {
  const auto all_relevant = relevant_.All();
  violation_scale_ =
      config_.w2_violations / std::max<size_t>(all_relevant.size(), 1);

  for (const auto& [id, constraint] : all_relevant) {
    // Aggregated fast path: simple self-cardinality constraint
    // (subject == target, cmin = 0, finite cmax). One row per node set.
    if (constraint->IsSimple()) {
      const AtomicConstraint& atomic = constraint->clauses[0][0];
      if (atomic.targets.size() == 1) {
        const TagConstraint& tc = atomic.targets[0];
        if (tc.cmin == 0 && tc.cmax != kCardinalityInfinity &&
            tc.c_tags == atomic.subject && state_.groups().HasKind(atomic.node_group)) {
          const auto& sets = state_.groups().SetsOf(atomic.node_group);
          std::unordered_set<int> touched;
          for (const auto& fc : containers_) {
            if (!atomic.subject.MatchedBy(fc.request->tags)) {
              continue;
            }
            for (NodeId n : fc.candidates) {
              for (int s : state_.groups().SetsContaining(atomic.node_group, n)) {
                touched.insert(s);
              }
            }
          }
          const double vmax_cost = -violation_scale_ * constraint->weight /
                                   (std::max(tc.cmax, 1) *
                                    std::max<size_t>(touched.size(), 1));
          for (int set_index : touched) {
            const auto& node_set = sets[static_cast<size_t>(set_index)];
            auto terms = TargetTermsInSet(tc.c_tags, node_set, /*exclude=*/-1);
            if (terms.empty()) {
              continue;
            }
            const double existing = ExistingCount(tc.c_tags, node_set);
            // Per-subject semantics "<= cmax others" aggregate to
            // "<= cmax + 1 total" for any set holding a subject.
            const VarIndex vmax =
                model_.AddContinuous(0.0, solver::kInfinity, vmax_cost, "vagg");
            terms.emplace_back(vmax, -1.0);
            model_.AddRow(std::move(terms), RowSense::kLessEqual,
                          static_cast<double>(tc.cmax) + 1.0 - existing, "eq7agg");
          }
          continue;  // constraint fully handled
        }
      }
    }

    // Subjects among the new containers.
    const bool compound = constraint->clauses.size() > 1;
    const auto is_subject_tags = [&](std::span<const TagId> tags) {
      for (const auto* atomic : constraint->AllAtomics()) {
        if (atomic->subject.MatchedBy(tags)) {
          return true;
        }
      }
      return false;
    };
    int subject_count = 0;
    for (const auto& fc : containers_) {
      subject_count += is_subject_tags(fc.request->tags) ? 1 : 0;
    }
    state_.ForEachContainer([&](const ContainerInfo& info) {
      if (info.long_running && is_subject_tags(info.tags)) {
        ++subject_count;
      }
    });
    for (size_t f = 0; f < containers_.size(); ++f) {
      if (!is_subject_tags(containers_[f].request->tags)) {
        continue;
      }
      std::vector<VarIndex> clause_vars;
      if (compound) {
        std::vector<std::pair<VarIndex, double>> pick;
        for (size_t cl = 0; cl < constraint->clauses.size(); ++cl) {
          const VarIndex y = model_.AddBinary(0.0, "y_clause");
          clause_vars.push_back(y);
          pick.emplace_back(y, 1.0);
        }
        model_.AddRow(std::move(pick), RowSense::kEqual, 1.0, "dnf_pick");
      }
      for (size_t cl = 0; cl < constraint->clauses.size(); ++cl) {
        const VarIndex y = compound ? clause_vars[cl] : -1;
        for (const AtomicConstraint& atomic : constraint->clauses[cl]) {
          if (!atomic.subject.MatchedBy(containers_[f].request->tags)) {
            continue;
          }
          EmitAtomicRows(atomic, constraint->weight, static_cast<int>(f), nullptr, y,
                         subject_count);
        }
      }
    }

    // Subjects among already-deployed containers (only for constraints whose
    // targets the new containers can affect).
    bool targets_new = false;
    for (const auto* atomic : constraint->AllAtomics()) {
      for (const TagConstraint& tc : atomic->targets) {
        for (const auto& fc : containers_) {
          if (tc.c_tags.MatchedBy(fc.request->tags)) {
            targets_new = true;
            break;
          }
        }
      }
    }
    if (!targets_new) {
      continue;
    }
    state_.ForEachContainer([&](const ContainerInfo& info) {
      if (!info.long_running) {
        return;
      }
      for (const auto& clause : constraint->clauses) {
        for (const AtomicConstraint& atomic : clause) {
          if (atomic.subject.MatchedBy(info.tags)) {
            // DNF for existing subjects is approximated by the first clause
            // (compound constraints on deployed apps are rare; the
            // evaluator still reports them exactly).
            EmitAtomicRows(atomic, constraint->weight, -1, &info, -1, subject_count);
          }
        }
        break;
      }
    });
  }
}

void IlpBuilder::AddLoadBalanceRows() {
  if (config_.w4_load_balance <= 0.0) {
    return;
  }
  // One continuous L >= post-placement dominant-share load of every pool
  // node; the objective pays -w4 * L, flattening the peak (§2.4 "balance
  // node load"). L's lower bound is the *current* peak so the sunk part of
  // the penalty cannot discourage placing at all.
  double current_peak = 0.0;
  for (NodeId n : pool_.nodes) {
    current_peak = std::max(
        current_peak, state_.node(n).used().DominantShareOf(state_.node(n).capacity()));
  }
  const VarIndex load =
      model_.AddContinuous(current_peak, 1e9, -config_.w4_load_balance, "L_max");
  for (NodeId n : pool_.nodes) {
    const Resource capacity = state_.node(n).capacity();
    const Resource used = state_.node(n).used();
    for (int dim = 0; dim < 2; ++dim) {
      const double cap = dim == 0 ? static_cast<double>(capacity.memory_mb)
                                  : static_cast<double>(capacity.vcores);
      if (cap <= 0) {
        continue;
      }
      std::vector<std::pair<VarIndex, double>> terms;
      for (const auto& fc : containers_) {
        for (size_t c = 0; c < fc.candidates.size(); ++c) {
          if (fc.candidates[c] != n) {
            continue;
          }
          const double demand = dim == 0 ? static_cast<double>(fc.request->demand.memory_mb)
                                         : static_cast<double>(fc.request->demand.vcores);
          terms.emplace_back(fc.x[c], demand / cap);
        }
      }
      if (terms.empty()) {
        continue;
      }
      terms.emplace_back(load, -1.0);
      const double existing =
          dim == 0 ? static_cast<double>(used.memory_mb) / cap
                   : static_cast<double>(used.vcores) / cap;
      model_.AddRow(std::move(terms), RowSense::kLessEqual, -existing,
                    StrFormat("lb_n%u_d%d", n.value, dim));
    }
  }
}

void IlpBuilder::AddMinMachinesRows() {
  if (config_.w5_min_machines <= 0.0) {
    return;
  }
  // u_n = 1 if a currently-empty node receives any new container; the
  // objective pays -w5/P per machine brought into use.
  const double scale = config_.w5_min_machines / std::max<size_t>(pool_.nodes.size(), 1);
  for (NodeId n : pool_.nodes) {
    if (!state_.node(n).containers().empty()) {
      continue;  // already in use: no marginal machine cost
    }
    std::vector<std::pair<VarIndex, double>> terms;
    for (const auto& fc : containers_) {
      for (size_t c = 0; c < fc.candidates.size(); ++c) {
        if (fc.candidates[c] == n) {
          terms.emplace_back(fc.x[c], 1.0);
        }
      }
    }
    if (terms.empty()) {
      continue;
    }
    const double big = static_cast<double>(terms.size());
    const VarIndex u = model_.AddBinary(-scale, StrFormat("u_n%u", n.value));
    min_machine_vars_.emplace_back(n, u);
    terms.emplace_back(u, -big);
    model_.AddRow(std::move(terms), RowSense::kLessEqual, 0.0,
                  StrFormat("minmach_n%u", n.value));
  }
}

void IlpBuilder::Build() {
  model_.SetMaximize(true);
  BuildContainersAndPool();
  AddPlacementRows();
  AddCapacityRows();
  AddFragmentationRows();
  AddConstraintRows();
  AddLoadBalanceRows();
  AddMinMachinesRows();
}

}  // namespace

PlacementPlan MedeaIlpScheduler::Place(const PlacementProblem& problem) {
  const obs::ScopedSpan place_span("ilp.place", "sched");
  const auto start = std::chrono::steady_clock::now();
  PlacementPlan plan;
  plan.lra_placed.assign(problem.lras.size(), false);
  MEDEA_CHECK(problem.state != nullptr && problem.manager != nullptr);
  last_stats_ = LastSolveStats{};

  IlpBuilder builder(problem, config_);
  {
    const obs::ScopedSpan build_span("ilp.build_model", "sched");
    const obs::ScopedLatencyTimer build_timer("sched.ilp_build_model_ms");
    builder.Build();
  }

  if (!config_.ilp_dump_directory.empty()) {
    const std::string path = StrFormat("%s/medea_cycle_%d.lp",
                                       config_.ilp_dump_directory.c_str(), dump_counter_++);
    const Status status = solver::WriteLpFile(builder.model(), path);
    if (!status.ok()) {
      MEDEA_LOG(kWarning) << "ILP dump failed: " << status.ToString();
    }
  }

  solver::MipOptions options;
  options.time_limit_seconds = config_.ilp_time_limit_seconds;
  // Component decomposition (SchedulerConfig::solver_decompose /
  // --solver-decompose): sparse tag graphs separate into independent
  // sub-MIPs, each exponentially cheaper than the stitched model.
  options.decompose = config_.solver_decompose;
  // Under an installed audit hook, have the solver re-certify any incumbent
  // it returns against the model (bounds, rows, integrality).
  options.certify = GetPlacementAuditor() != nullptr;

  // Warm start from the Serial greedy heuristic: placement models are highly
  // symmetric, so branch-and-bound needs a strong incumbent up front to
  // prune. The greedy plan maps 1:1 onto X/S variables (same candidate
  // selector, same flat container order); the solver repairs the continuous
  // violation/fragmentation variables with one LP. The greedy plan is also
  // the fallback if the solve returns no solution.
  std::optional<PlacementPlan> greedy_plan;
  if (config_.ilp_warm_start) {
    const obs::ScopedSpan warm_span("ilp.warm_start", "sched");
    GreedyScheduler greedy(GreedyOrdering::kSerial, config_, /*impact_aware=*/true);
    greedy_plan = greedy.Place(problem);
    std::vector<double> warm(static_cast<size_t>(builder.model().num_variables()), 0.0);
    bool mapped = true;
    for (const Assignment& a : greedy_plan->assignments) {
      const FlatContainer* match = nullptr;
      for (const FlatContainer& fc : builder.containers()) {
        if (fc.lra_index == a.lra_index && fc.container_index == a.container_index) {
          match = &fc;
          break;
        }
      }
      if (match == nullptr) {
        mapped = false;
        break;
      }
      bool found = false;
      for (size_t c = 0; c < match->candidates.size(); ++c) {
        if (match->candidates[c] == a.node) {
          warm[static_cast<size_t>(match->x[c])] = 1.0;
          found = true;
          break;
        }
      }
      if (!found) {
        mapped = false;
        break;
      }
    }
    if (mapped) {
      for (size_t i = 0; i < greedy_plan->lra_placed.size(); ++i) {
        if (greedy_plan->lra_placed[i]) {
          warm[static_cast<size_t>(builder.lra_placed_vars()[i])] = 1.0;
        }
      }
      builder.CompleteWarmStart(warm);
      options.warm_start = std::move(warm);
    }
  }
  solver::MipStats mip_stats;
  const solver::Solution solution = solver::SolveMip(builder.model(), options, &mip_stats);

  last_stats_.variables = builder.model().num_variables();
  last_stats_.rows = builder.model().num_rows();
  last_stats_.binaries = builder.model().num_integer_variables();
  last_stats_.mip = mip_stats;
  last_stats_.status = solution.status;
  last_stats_.objective = solution.objective;

  if (!solution.HasSolution()) {
    MEDEA_LOG(kWarning) << "ILP solve failed: " << solver::SolveStatusName(solution.status)
                        << (greedy_plan ? "; returning the greedy warm-start plan" : "");
    if (greedy_plan) {
      plan.lra_placed = std::move(greedy_plan->lra_placed);
      plan.assignments = std::move(greedy_plan->assignments);
      last_stats_.greedy_fallback = true;
    }
    plan.latency_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
            .count();
    if (obs::MetricsEnabled()) {
      obs::Observe("sched.place_ms." + name(), plan.latency_ms);
      obs::Count("sched.ilp_solve_failures");
      if (last_stats_.greedy_fallback) {
        obs::Count("sched.ilp_fallbacks");
      }
    }
    AuditPlan(problem, plan, name());
    return plan;
  }

  // Extract assignments.
  std::vector<int> placed_count(problem.lras.size(), 0);
  for (const FlatContainer& fc : builder.containers()) {
    for (size_t c = 0; c < fc.candidates.size(); ++c) {
      if (solution.values[static_cast<size_t>(fc.x[c])] > 0.5) {
        plan.assignments.push_back({fc.lra_index, fc.container_index, fc.candidates[c]});
        ++placed_count[static_cast<size_t>(fc.lra_index)];
        break;
      }
    }
  }
  for (size_t i = 0; i < problem.lras.size(); ++i) {
    plan.lra_placed[i] =
        placed_count[i] == static_cast<int>(problem.lras[i].containers.size());
  }
  // Drop assignments of partially placed LRAs (Eq. 4 should prevent these;
  // guard against solver tolerance edge cases).
  plan.assignments.erase(
      std::remove_if(plan.assignments.begin(), plan.assignments.end(),
                     [&](const Assignment& a) {
                       return !plan.lra_placed[static_cast<size_t>(a.lra_index)];
                     }),
      plan.assignments.end());

  plan.latency_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  if (obs::MetricsEnabled()) {
    obs::Observe("sched.place_ms." + name(), plan.latency_ms);
    obs::Count("sched.containers_placed", static_cast<long long>(plan.assignments.size()));
    // Multi-app batch accounting: how many LRAs this solve placed jointly,
    // and how many independent components the decomposition recovered.
    obs::Observe("sched.ilp_batch_apps", static_cast<double>(problem.lras.size()));
    if (mip_stats.components > 0) {
      obs::Observe("sched.ilp_batch_components", static_cast<double>(mip_stats.components));
    }
  }
  AuditPlan(problem, plan, name());
  return plan;
}

}  // namespace medea
