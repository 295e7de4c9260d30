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
      if (stats_ != nullptr) {
        const auto& info = inc_->last_info();
        stats_->total_pivots += info.pivots;
        stats_->dual_pivots += info.dual_pivots;
        stats_->primal_pivots += info.primal_pivots;
        if (info.warm && !info.dense_fallback) {
          ++stats_->warm_start_hits;
        } else {
          ++stats_->cold_restarts;
        }
      }
    } else {
      LpStats lp_stats;
      lp = SolveLp(model_, budget_.NodeLpOptions(opts_.lp), &lp_stats);
      if (stats_ != nullptr) {
        stats_->total_pivots += lp_stats.iterations;
        stats_->primal_pivots += lp_stats.iterations;
        ++stats_->cold_restarts;
      }
    }
    const double elapsed_seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (stats_ != nullptr) {
      ++stats_->lp_solves;
      stats_->lp_time_seconds += elapsed_seconds;
    }
    obs::Observe("solver.node_lp_ms", elapsed_seconds * 1000.0);
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
  MipStats* stats_;
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
  // Round-and-repair: fix every integer variable at its rounded LP value and
  // re-solve the continuous part, so slack/penalty variables become
  // consistent with the rounded integers. Any feasible result is a valid
  // incumbent.
  std::vector<double> rounded = x;
  std::vector<std::pair<double, double>> saved;
  saved.reserve(static_cast<size_t>(model_.num_variables()));
  for (int j = 0; j < model_.num_variables(); ++j) {
    const auto& col = model_.column(j);
    saved.emplace_back(col.lower, col.upper);
    if (col.type == VarType::kContinuous) {
      continue;
    }
    const double v =
        std::clamp(std::round(rounded[static_cast<size_t>(j)]), col.lower, col.upper);
    model_.SetBounds(j, v, v);
  }
  const auto start = Clock::now();
  LpStats lp_stats;
  const Solution repaired = SolveLp(model_, budget_.NodeLpOptions(opts_.lp), &lp_stats);
  for (int j = 0; j < model_.num_variables(); ++j) {
    model_.SetBounds(j, saved[static_cast<size_t>(j)].first,
                     saved[static_cast<size_t>(j)].second);
  }
  if (stats_ != nullptr) {
    ++stats_->lp_solves;
    stats_->total_pivots += lp_stats.iterations;
    stats_->primal_pivots += lp_stats.iterations;
    stats_->lp_time_seconds += std::chrono::duration<double>(Clock::now() - start).count();
  }
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
  if (stats_ != nullptr) {
    ++stats_->nodes_explored;
  }

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
    if (stats_ != nullptr) {
      ++stats_->lp_failures;
    }
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
  // Reduced-cost fixing (MipOptions::reduced_cost_fixing / node_...): by LP
  // duality, any feasible point that moves variable j one unit off the
  // bound its reduced cost d holds it at scores no better than the node
  // bound plus -|d|. When even that ceiling cannot beat the incumbent by
  // more than the pruning gap, the variable is fixed at its bound — the
  // same within-gap solutions the gap test already forfeits. Root fixes are
  // permanent (Dfs(0) is the root invocation, nothing outlives them);
  // node-level fixes are scoped to this subtree and restored below.
  std::vector<std::pair<int, std::pair<double, double>>> rc_restore;
  const bool fix_here =
      (depth == 0 ? opts_.reduced_cost_fixing : opts_.node_reduced_cost_fixing) &&
      have_incumbent_ &&
      lp.reduced_costs.size() == static_cast<size_t>(model_.num_variables());
  if (fix_here) {
    const double fix_gap =
        std::max(opts_.absolute_gap, opts_.relative_gap * std::fabs(best_score_));
    int fixed = 0;
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
      if (depth > 0) {
        rc_restore.emplace_back(j, std::make_pair(col.lower, col.upper));
      }
      SetVarBounds(j, std::round(fix_at), std::round(fix_at));
      ++fixed;
    }
    if (stats_ != nullptr) {
      if (depth == 0) {
        stats_->reduced_cost_fixed += fixed;
      } else {
        stats_->node_reduced_cost_fixed += fixed;
      }
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
  // Unwind this node's reduced-cost fixes on every exit path, so siblings
  // above see the bounds they branched with.
  for (auto it = rc_restore.rbegin(); it != rc_restore.rend(); ++it) {
    SetVarBounds(it->first, it->second.first, it->second.second);
  }
}

Solution BranchAndBound::Run() {
  // Root cutting planes (cuts.h) tighten model_ BEFORE the node solvers are
  // built, so every node relaxation — warm or cold — branches on the
  // cut-augmented polytope. Cuts are valid for every integer point, so
  // incumbent scoring, rounding repair and the dual bound all stay sound.
  internal::RootCutStats cut_stats;
  internal::AddRootCuts(model_, opts_, &cut_stats, budget_);
  internal::StrongBranchStats sb_stats;
  internal::InitPseudoCostsAtRoot(model_, opts_, &pseudo_costs_, &sb_stats, budget_);
  if (stats_ != nullptr) {
    stats_->cuts_generated += cut_stats.generated;
    stats_->cuts_active += cut_stats.active;
    stats_->cuts_aged_out += cut_stats.aged_out;
    stats_->cut_rounds += cut_stats.rounds;
    stats_->cut_pivots += cut_stats.pivots;
    stats_->lp_solves += cut_stats.lp_solves + sb_stats.lp_solves;
    stats_->total_pivots += cut_stats.pivots + sb_stats.pivots;
    stats_->dual_pivots += cut_stats.dual_pivots;
    stats_->primal_pivots += cut_stats.pivots - cut_stats.dual_pivots + sb_stats.pivots;
    stats_->lp_time_seconds += cut_stats.lp_time_seconds + sb_stats.lp_time_seconds;
    stats_->strong_branch_solves += sb_stats.lp_solves;
  }
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
  if (stats_ != nullptr) {
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
  }
  return solution;
}

// MipOptions::certify: re-verify a returned incumbent against the model —
// primal feasibility of every row/bound plus integrality of every integer
// variable — and abort the process on mismatch (a wrong incumbent means the
// search itself is broken; nothing downstream can be trusted).
void CertifyIncumbent(const Model& model, const MipOptions& options, const Solution& solution) {
  if (!options.certify || !solution.HasSolution()) {
    return;
  }
  MEDEA_CHECK(static_cast<int>(solution.values.size()) == model.num_variables());
  std::string violation;
  if (!model.IsFeasible(solution.values, 1e-5, &violation)) {
    std::fprintf(stderr, "MIP certify: incumbent infeasible: %s\n", violation.c_str());
    MEDEA_CHECK(false);
  }
  for (int j = 0; j < model.num_variables(); ++j) {
    if (model.column(j).type == VarType::kContinuous) {
      continue;
    }
    const double v = solution.values[static_cast<size_t>(j)];
    MEDEA_CHECK(std::fabs(v - std::round(v)) <= 1e-5);
  }
}

}  // namespace

namespace internal {

Solution SolveMipImpl(const Model& model, const MipOptions& options, MipStats* stats) {
  if (stats != nullptr) {
    *stats = MipStats{};
  }
  if (options.presolve) {
    PresolveStats presolve_stats;
    const Model reduced = Presolved(model, &presolve_stats);
    if (presolve_stats.proven_infeasible) {
      if (stats != nullptr) {
        stats->presolve = presolve_stats;
      }
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
      // it returns (on top of any reductions component sub-presolves found).
      if (stats != nullptr) {
        stats->presolve.singleton_rows += presolve_stats.singleton_rows;
        stats->presolve.redundant_rows += presolve_stats.redundant_rows;
        stats->presolve.bounds_tightened += presolve_stats.bounds_tightened;
        stats->presolve.probed_fixings += presolve_stats.probed_fixings;
        stats->presolve.probe_implications += presolve_stats.probe_implications;
        stats->presolve.clique_rows_added += presolve_stats.clique_rows_added;
      }
      return solution;
    }
  }
  if (model.num_integer_variables() == 0) {
    const auto start = Clock::now();
    LpStats lp_stats;
    Solution solution = SolveLp(model, options.lp, &lp_stats);
    if (stats != nullptr) {
      stats->lp_solves = 1;
      stats->nodes_explored = 1;
      stats->cold_restarts = 1;
      stats->total_pivots = lp_stats.iterations;
      stats->primal_pivots = lp_stats.iterations;
      stats->lp_time_seconds = std::chrono::duration<double>(Clock::now() - start).count();
      if (solution.status == SolveStatus::kOptimal) {
        stats->has_best_bound = true;
        stats->best_bound = solution.objective;
      }
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
  // When metrics are on, collect MipStats even if the caller passed none so
  // the aggregate counters below can be fed from a single source of truth.
  MipStats local_stats;
  MipStats* effective_stats =
      stats != nullptr ? stats : (obs::MetricsEnabled() ? &local_stats : nullptr);
  Solution solution = internal::SolveMipImpl(model, options, effective_stats);
  if (effective_stats != nullptr && obs::MetricsEnabled()) {
    obs::Count("solver.nodes_explored", effective_stats->nodes_explored);
    obs::Count("solver.lp_solves", effective_stats->lp_solves);
    obs::Count("solver.pivots", effective_stats->total_pivots);
    obs::Count("solver.dual.pivots", effective_stats->dual_pivots);
    obs::Count("solver.dual.cleanup_pivots", effective_stats->primal_pivots);
    obs::Count("solver.warm_start_hits", effective_stats->warm_start_hits);
    obs::Count("solver.cold_restarts", effective_stats->cold_restarts);
    obs::Count("solver.cuts.generated", effective_stats->cuts_generated);
    obs::Count("solver.cuts.active", effective_stats->cuts_active);
    obs::Count("solver.cuts.aged_out", effective_stats->cuts_aged_out);
    obs::Count("solver.cuts.rounds", effective_stats->cut_rounds);
    obs::Count("solver.cuts.pivots", effective_stats->cut_pivots);
    obs::Count("solver.branching.strong_branch_solves",
               effective_stats->strong_branch_solves);
    obs::Count("solver.branching.node_rc_fixed",
               effective_stats->node_reduced_cost_fixed);
    obs::Count("solver.presolve.singleton_rows", effective_stats->presolve.singleton_rows);
    obs::Count("solver.presolve.redundant_rows", effective_stats->presolve.redundant_rows);
    obs::Count("solver.presolve.bounds_tightened", effective_stats->presolve.bounds_tightened);
    obs::Count("solver.presolve.probed_fixings", effective_stats->presolve.probed_fixings);
    obs::Count("solver.presolve.probe_implications",
               effective_stats->presolve.probe_implications);
    obs::Count("solver.presolve.clique_rows", effective_stats->presolve.clique_rows_added);
    obs::Count("solver.reduced_cost_fixed", effective_stats->reduced_cost_fixed);
    obs::Count("solver.time_limit_hits", effective_stats->hit_time_limit ? 1 : 0);
    if (solution.HasSolution() && effective_stats->has_best_bound) {
      // Relative distance between the incumbent and the proven bound (a
      // ratio, recorded in the ms histogram's buckets).
      obs::Observe("solver.final_gap",
                   std::abs(solution.objective - effective_stats->best_bound) /
                       std::max(1.0, std::abs(solution.objective)));
    }
    if (effective_stats->components > 0) {
      obs::SetGauge("solver.components", effective_stats->components);
      obs::Count("solver.relax_round.accepted", effective_stats->relax_round_accepted);
      obs::Count("solver.relax_round.rejected", effective_stats->relax_round_rejected);
    }
  }
  return solution;
}

}  // namespace medea::solver
