#include "src/solver/mip.h"

#include "src/common/result.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/solver/bnb_internal.h"
#include "src/solver/cuts.h"
#include "src/solver/decompose.h"
#include "src/solver/incremental_lp.h"
#include "src/solver/presolve.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>

namespace medea::solver {
namespace {

using Clock = std::chrono::steady_clock;

class BranchAndBound {
 public:
  BranchAndBound(const Model& model, const MipOptions& options, MipStats* stats)
      : model_(model), opts_(options), stats_(stats), budget_(options) {
    perturb_.Apply(model_, opts_);
  }

  Solution Run();

 private:
  // Applies a branching bound change to the model copy and, when active, the
  // incremental solver (which holds its own copy and basis).
  void SetVarBounds(VarIndex j, double lower, double upper) {
    model_.SetBounds(j, lower, upper);
    if (inc_ != nullptr) {
      inc_->SetBounds(j, lower, upper);
    }
  }

  // Solves one node relaxation — incremental (warm-started) when enabled,
  // dense otherwise — and records timing/pivot/warm-vs-cold statistics.
  Solution NodeLp() {
    const auto start = Clock::now();
    Solution lp;
    if (inc_ != nullptr) {
      lp = inc_->Solve(budget_.NodeLpOptions(opts_.lp));
      const auto& info = inc_->last_info();
      internal::CountLp(stats_, info.dual_pivots, info.primal_pivots, start);
      if (info.warm && !info.dense_fallback) {
        ++stats_->warm_start_hits;
      } else {
        ++stats_->cold_restarts;
      }
    } else {
      lp = internal::CountedSolveLp(model_, budget_.NodeLpOptions(opts_.lp), stats_);
      ++stats_->cold_restarts;
    }
    obs::Observe("solver.node_lp_ms",
                 std::chrono::duration<double, std::milli>(Clock::now() - start).count());
    return lp;
  }

  // Direction-normalized score: larger is better.
  double Score(double objective) const { return model_.maximize() ? objective : -objective; }

  // Branch-variable selection (MipOptions::branching): pseudo-cost product
  // score when enabled, most-fractional otherwise. Returns -1 if integral.
  int SelectBranch(const std::vector<double>& x) const {
    return internal::SelectBranchVariable(model_, x, opts_.integrality_tol, opts_.branching,
                                          pseudo_costs_);
  }

  // Tries rounding `x` to the nearest integers; installs as incumbent if
  // feasible.
  void TryRounding(const std::vector<double>& x);

  void MaybeUpdateIncumbent(const std::vector<double>& x, double objective);

  // One search node. `parent_bound` / `parent_branch_var` / `parent_up` /
  // `parent_frac` describe the branch that created this node (var -1 at the
  // root): the child's LP bound against the parent's feeds the pseudo-cost
  // tables. Both bounds carry the same +perturb_.slack term, which cancels
  // in the difference.
  void Dfs(int depth, double parent_bound, int parent_branch_var, bool parent_up,
           double parent_frac);

  Model model_;  // mutable copy: bounds change during the search
  // Persistent warm-started node solver; null when opts_.use_incremental_lp
  // is off. Branch bounds are mirrored into it via SetVarBounds; the
  // temporary all-integers-fixed bounds of TryRounding deliberately are NOT
  // (those solves stay on the dense path — with every integer fixed, the
  // dense solver's fixed-column elimination makes them tiny, and keeping
  // them out preserves the parent basis for the next node).
  std::unique_ptr<IncrementalLpSolver> inc_;
  const MipOptions& opts_;
  MipStats* stats_;  // never null
  // Wall-clock / node-cap accounting.
  internal::SearchBudget budget_;

  bool have_incumbent_ = false;
  std::vector<double> best_x_;
  double best_score_ = -kInfinity;
  bool search_complete_ = true;  // false once pruned by budget
  int nodes_ = 0;
  // Dual-bound bookkeeping for MipStats::best_bound. A subtree abandoned by
  // the gap test still bounds its own optimum by its node LP value; budget
  // prunes leave the subtree bound unknown, so an incomplete search can only
  // claim the root relaxation bound.
  bool have_root_bound_ = false;
  double root_bound_score_ = kInfinity;
  double pruned_bound_max_ = -kInfinity;
  // Branching-perturbation state (internal::Perturbation): original
  // objective coefficients, and a bound on |perturbed - true| objective over
  // the variable box, added to every node bound to keep pruning sound.
  internal::Perturbation perturb_;
  // Pseudo-cost tables (BranchingRule::kPseudoCost), strong-branch
  // initialized in Run() and updated from observed child bounds in Dfs().
  internal::PseudoCosts pseudo_costs_;
};

void BranchAndBound::TryRounding(const std::vector<double>& x) {
  // Any feasible repaired point is a valid incumbent.
  const Solution repaired =
      internal::RoundAndRepair(model_, x, budget_.NodeLpOptions(opts_.lp), stats_);
  if (repaired.status == SolveStatus::kOptimal &&
      model_.IsFeasible(repaired.values, 1e-5)) {
    MaybeUpdateIncumbent(repaired.values, perturb_.TrueObjective(model_, repaired.values));
  }
}

void BranchAndBound::MaybeUpdateIncumbent(const std::vector<double>& x, double objective) {
  const double score = Score(objective);
  if (!have_incumbent_ || score > best_score_) {
    have_incumbent_ = true;
    best_score_ = score;
    best_x_ = x;
  }
}

void BranchAndBound::Dfs(int depth, double parent_bound, int parent_branch_var, bool parent_up,
                         double parent_frac) {
  if (budget_.LatchTimeLimitIfExpired()) {
    search_complete_ = false;
    return;
  }
  if (!budget_.ClaimNode()) {
    search_complete_ = false;
    return;
  }
  ++nodes_;
  ++stats_->nodes_explored;

  const Solution lp = NodeLp();
  if (lp.status == SolveStatus::kInfeasible) {
    // No pseudo-cost observation: infeasible children carry no finite bound.
    return;
  }
  if (lp.status != SolveStatus::kOptimal) {
    // No usable verdict (unbounded, iteration limit, or the LP's fair-share
    // time budget expired — lp.values may be empty). Treat as unexplorable;
    // keep the search sound by marking incomplete. An LP cut off by its
    // fair-share cap is only a *global* timeout if the deadline has really
    // passed — otherwise the search carries on with the remaining budget.
    search_complete_ = false;
    ++stats_->lp_failures;
    if (lp.status == SolveStatus::kTimeLimit) {
      budget_.OnNodeLpTimeLimit();
    }
    return;
  }
  // Node bound in the TRUE objective: the perturbed LP bound can understate
  // or overstate the true score by at most perturb_.slack.
  const double bound = Score(lp.objective) + perturb_.slack;
  if (depth == 0) {
    have_root_bound_ = true;
    root_bound_score_ = bound;
  } else if (parent_branch_var >= 0 && !pseudo_costs_.empty()) {
    // Observed dual-bound degradation of the branch that created this node,
    // per unit of fractionality moved.
    pseudo_costs_.Update(parent_branch_var, parent_up,
                         (parent_bound - bound) / std::max(parent_frac, 1e-6));
  }
  const double gap =
      std::max(opts_.absolute_gap, opts_.relative_gap * std::fabs(best_score_));
  if (have_incumbent_ && bound <= best_score_ + gap) {
    pruned_bound_max_ = std::max(pruned_bound_max_, bound);
    return;  // cannot improve (within tolerance)
  }

  const int branch_var = SelectBranch(lp.values);
  if (branch_var < 0) {
    MaybeUpdateIncumbent(lp.values, perturb_.TrueObjective(model_, lp.values));
    return;
  }
  // Round-and-repair heuristic: at the root and periodically during the
  // dive, so good incumbents appear long before the tree bottoms out.
  if (depth == 0 || nodes_ % 16 == 0) {
    TryRounding(lp.values);
    const double new_gap =
        std::max(opts_.absolute_gap, opts_.relative_gap * std::fabs(best_score_));
    if (have_incumbent_ && bound <= best_score_ + new_gap) {
      pruned_bound_max_ = std::max(pruned_bound_max_, bound);
      return;  // the repaired incumbent already matches this node's bound
    }
  }
  // Root reduced-cost fixing (MipOptions::reduced_cost_fixing): by LP
  // duality, any feasible point that moves variable j one unit off the
  // bound its reduced cost d holds it at scores no better than the root
  // bound plus -|d|. When even that ceiling cannot beat the incumbent by
  // more than the pruning gap, the variable is fixed at its bound — the
  // same within-gap solutions the gap test already forfeits. The fixes are
  // permanent (Dfs(0) is the root invocation, nothing outlives them).
  if (depth == 0 && opts_.reduced_cost_fixing && have_incumbent_ &&
      lp.reduced_costs.size() == static_cast<size_t>(model_.num_variables())) {
    const double fix_gap =
        std::max(opts_.absolute_gap, opts_.relative_gap * std::fabs(best_score_));
    for (int j = 0; j < model_.num_variables(); ++j) {
      const auto& col = model_.column(j);
      if (col.type == VarType::kContinuous || col.lower >= col.upper || j == branch_var) {
        continue;
      }
      const double rc = lp.reduced_costs[static_cast<size_t>(j)];
      double fix_at = 0.0;
      if (rc < 0.0 && bound + rc <= best_score_ + fix_gap) {
        fix_at = col.lower;  // nonbasic at lower, cannot profitably rise
      } else if (rc > 0.0 && bound - rc <= best_score_ + fix_gap) {
        fix_at = col.upper;  // nonbasic at upper, cannot profitably drop
      } else {
        continue;
      }
      if (!std::isfinite(fix_at) ||
          std::fabs(fix_at - std::round(fix_at)) > opts_.integrality_tol) {
        continue;  // only fix at a clean integer bound
      }
      SetVarBounds(j, std::round(fix_at), std::round(fix_at));
      ++stats_->reduced_cost_fixed;
    }
  }

  const double v = lp.values[static_cast<size_t>(branch_var)];
  const double floor_v = std::floor(v);
  const double ceil_v = std::ceil(v);
  const auto& col = model_.column(branch_var);
  const double old_lower = col.lower;
  const double old_upper = col.upper;

  // Explore the round-to-nearest side first (diving).
  const bool down_first = (v - floor_v) <= (ceil_v - v);
  for (int pass = 0; pass < 2; ++pass) {
    const bool down = (pass == 0) == down_first;
    if (down) {
      if (floor_v < old_lower - 1e-12) {
        continue;
      }
      SetVarBounds(branch_var, old_lower, std::min(floor_v, old_upper));
    } else {
      if (ceil_v > old_upper + 1e-12) {
        continue;
      }
      SetVarBounds(branch_var, std::max(ceil_v, old_lower), old_upper);
    }
    Dfs(depth + 1, bound, branch_var, !down, down ? v - floor_v : ceil_v - v);
    SetVarBounds(branch_var, old_lower, old_upper);
    if (budget_.LatchTimeLimitIfExpired()) {
      search_complete_ = false;
      break;
    }
  }
}

Solution BranchAndBound::Run() {
  // Root cutting planes (cuts.h) tighten model_ BEFORE the node solvers are
  // built, so every node relaxation — warm or cold — branches on the
  // cut-augmented polytope. Cuts are valid for every integer point, so
  // incumbent scoring, rounding repair and the dual bound all stay sound.
  internal::AddRootCuts(model_, opts_, stats_, budget_);
  internal::InitPseudoCostsAtRoot(model_, opts_, &pseudo_costs_, stats_, budget_);
  if (opts_.use_incremental_lp) {
    inc_ = std::make_unique<IncrementalLpSolver>(model_);
  }
  if (static_cast<int>(opts_.warm_start.size()) == model_.num_variables()) {
    TryRounding(opts_.warm_start);
  }
  Dfs(0, 0.0, -1, false, 0.0);
  Solution solution;
  if (have_incumbent_) {
    solution.status = search_complete_ ? SolveStatus::kOptimal : SolveStatus::kFeasible;
    solution.values = best_x_;
    solution.objective = perturb_.TrueObjective(model_, best_x_);
  } else {
    solution.status = search_complete_ ? SolveStatus::kInfeasible : SolveStatus::kTimeLimit;
  }
  stats_->hit_time_limit = budget_.hit_time_limit();
  stats_->hit_node_limit = budget_.hit_node_limit();
  // A complete search proves the optimum is at most the best explored or
  // gap-pruned score; a budget-limited one can only claim the root bound.
  double bound_score = kInfinity;
  bool have_bound = false;
  if (search_complete_ && (have_incumbent_ || pruned_bound_max_ > -kInfinity)) {
    bound_score = std::max(best_score_, pruned_bound_max_);
    have_bound = true;
  } else if (have_root_bound_) {
    bound_score = root_bound_score_;
    have_bound = true;
  }
  if (have_bound) {
    stats_->has_best_bound = true;
    stats_->best_bound = model_.maximize() ? bound_score : -bound_score;
  }
  return solution;
}

// MipOptions::certify: re-verify a returned incumbent against the model with
// CheckIncumbent (every row and bound, integrality of every integer
// variable) and abort the process on mismatch (a wrong incumbent means the
// search itself is broken; nothing downstream can be trusted).
void CertifyIncumbent(const Model& model, const MipOptions& options, const Solution& solution) {
  if (!options.certify || !solution.HasSolution()) {
    return;
  }
  std::string violation;
  if (!CheckIncumbent(model, solution.values, 1e-5, 1e-5, &violation)) {
    std::fprintf(stderr, "MIP certify: incumbent rejected: %s\n", violation.c_str());
    MEDEA_CHECK(false);
  }
}

}  // namespace

void MipStats::Merge(const MipStats& other) {
  nodes_explored += other.nodes_explored;
  lp_solves += other.lp_solves;
  lp_failures += other.lp_failures;
  hit_time_limit = hit_time_limit || other.hit_time_limit;
  hit_node_limit = hit_node_limit || other.hit_node_limit;
  lp_time_seconds += other.lp_time_seconds;
  total_pivots += other.total_pivots;
  dual_pivots += other.dual_pivots;
  primal_pivots += other.primal_pivots;
  warm_start_hits += other.warm_start_hits;
  cold_restarts += other.cold_restarts;
  presolve.Merge(other.presolve);
  reduced_cost_fixed += other.reduced_cost_fixed;
  cuts_generated += other.cuts_generated;
  cuts_active += other.cuts_active;
  cuts_aged_out += other.cuts_aged_out;
  cut_rounds += other.cut_rounds;
  cut_pivots += other.cut_pivots;
  strong_branch_solves += other.strong_branch_solves;
  relax_round_accepted += other.relax_round_accepted;
  relax_round_rejected += other.relax_round_rejected;
}

namespace internal {

Solution CountedSolveLp(const Model& model, const LpOptions& options, MipStats* stats) {
  const auto start = Clock::now();
  LpStats lp_stats;
  Solution lp = SolveLp(model, options, &lp_stats);
  CountLp(stats, 0, lp_stats.iterations, start);
  return lp;
}

Solution RoundAndRepair(Model& model, const std::vector<double>& x, const LpOptions& options,
                        MipStats* stats) {
  std::vector<std::pair<double, double>> saved;
  saved.reserve(static_cast<size_t>(model.num_variables()));
  for (int j = 0; j < model.num_variables(); ++j) {
    const auto& col = model.column(j);
    saved.emplace_back(col.lower, col.upper);
    if (col.type == VarType::kContinuous) {
      continue;
    }
    const double v = std::clamp(std::round(x[static_cast<size_t>(j)]), col.lower, col.upper);
    model.SetBounds(j, v, v);
  }
  Solution repaired = CountedSolveLp(model, options, stats);
  for (int j = 0; j < model.num_variables(); ++j) {
    model.SetBounds(j, saved[static_cast<size_t>(j)].first, saved[static_cast<size_t>(j)].second);
  }
  return repaired;
}

Solution SolveMipImpl(const Model& model, const MipOptions& options, MipStats* stats) {
  *stats = MipStats{};
  if (options.presolve) {
    PresolveStats presolve_stats;
    const Model reduced = Presolved(model, &presolve_stats);
    if (presolve_stats.proven_infeasible) {
      stats->presolve = presolve_stats;
      Solution solution;
      solution.status = SolveStatus::kInfeasible;
      return solution;
    }
    if (presolve_stats.singleton_rows > 0 || presolve_stats.redundant_rows > 0 ||
        presolve_stats.bounds_tightened > 0 || presolve_stats.probed_fixings > 0 ||
        presolve_stats.clique_rows_added > 0 || presolve_stats.probe_implications > 0) {
      MipOptions reduced_options = options;
      reduced_options.presolve = false;
      Solution solution = SolveMipImpl(reduced, reduced_options, stats);
      // The recursion reset *stats, so fold this pass's reductions in after
      // it returns.
      stats->presolve.Merge(presolve_stats);
      return solution;
    }
  }
  if (model.num_integer_variables() == 0) {
    Solution solution = CountedSolveLp(model, options.lp, stats);
    stats->nodes_explored = 1;
    stats->cold_restarts = 1;
    if (solution.status == SolveStatus::kOptimal) {
      stats->has_best_bound = true;
      stats->best_bound = solution.objective;
    }
    CertifyIncumbent(model, options, solution);
    return solution;
  }
  if (options.decompose) {
    Solution solution = SolveMipDecomposed(model, options, stats);
    CertifyIncumbent(model, options, solution);
    return solution;
  }
  BranchAndBound bnb(model, options, stats);
  Solution solution = bnb.Run();
  CertifyIncumbent(model, options, solution);
  return solution;
}

}  // namespace internal

Solution SolveMip(const Model& model, const MipOptions& options, MipStats* stats) {
  obs::ScopedSpan span("solver.solve_mip", "solver");
  obs::ScopedLatencyTimer timer("solver.solve_mip_ms");
  MipStats local_stats;
  MipStats& out = stats != nullptr ? *stats : local_stats;
  Solution solution = internal::SolveMipImpl(model, options, &out);
  if (obs::MetricsEnabled()) {
    obs::Count("solver.nodes_explored", out.nodes_explored);
    obs::Count("solver.lp_solves", out.lp_solves);
    obs::Count("solver.pivots", out.total_pivots);
    obs::Count("solver.dual.pivots", out.dual_pivots);
    obs::Count("solver.dual.cleanup_pivots", out.primal_pivots);
    obs::Count("solver.warm_start_hits", out.warm_start_hits);
    obs::Count("solver.cold_restarts", out.cold_restarts);
    obs::Count("solver.cuts.generated", out.cuts_generated);
    obs::Count("solver.cuts.active", out.cuts_active);
    obs::Count("solver.cuts.aged_out", out.cuts_aged_out);
    obs::Count("solver.cuts.rounds", out.cut_rounds);
    obs::Count("solver.cuts.pivots", out.cut_pivots);
    obs::Count("solver.branching.strong_branch_solves", out.strong_branch_solves);
    obs::Count("solver.presolve.singleton_rows", out.presolve.singleton_rows);
    obs::Count("solver.presolve.redundant_rows", out.presolve.redundant_rows);
    obs::Count("solver.presolve.bounds_tightened", out.presolve.bounds_tightened);
    obs::Count("solver.presolve.probed_fixings", out.presolve.probed_fixings);
    obs::Count("solver.presolve.probe_implications", out.presolve.probe_implications);
    obs::Count("solver.presolve.clique_rows", out.presolve.clique_rows_added);
    obs::Count("solver.reduced_cost_fixed", out.reduced_cost_fixed);
    obs::Count("solver.time_limit_hits", out.hit_time_limit ? 1 : 0);
    if (solution.HasSolution() && out.has_best_bound) {
      // Relative distance between the incumbent and the proven bound (a
      // ratio, recorded in the ms histogram's buckets).
      obs::Observe("solver.final_gap", std::abs(solution.objective - out.best_bound) /
                                           std::max(1.0, std::abs(solution.objective)));
    }
    if (out.components > 0) {
      obs::SetGauge("solver.components", out.components);
      obs::Count("solver.relax_round.accepted", out.relax_round_accepted);
      obs::Count("solver.relax_round.rejected", out.relax_round_rejected);
    }
  }
  return solution;
}

}  // namespace medea::solver
