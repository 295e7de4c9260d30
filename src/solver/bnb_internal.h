// Copyright (c) Medea reproduction authors.
// Branch-and-bound internals shared by mip.cc, cuts.cc and decompose.cc: the
// search budget, LP accounting and round-and-repair, the deterministic
// branching perturbation, and the branching-variable rule. Not installed;
// solver-internal only.

#ifndef SRC_SOLVER_BNB_INTERNAL_H_
#define SRC_SOLVER_BNB_INTERNAL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <vector>

#include "src/solver/mip.h"
#include "src/solver/model.h"
#include "src/solver/simplex.h"

namespace medea::solver::internal {

using Clock = std::chrono::steady_clock;

// Fraction of the remaining global budget a single node LP may consume.
// Deriving the per-LP cap from the remaining budget *at dispatch time* —
// instead of handing every LP the entire remainder — keeps one degenerate
// early LP from starving every later node of wall-clock (the search carries
// on with the other 75% after cutting the offender off).
inline constexpr double kNodeLpBudgetShare = 0.25;

// Wall-clock deadline + node-cap accounting for one branch-and-bound search.
class SearchBudget {
 public:
  explicit SearchBudget(const MipOptions& options)
      : deadline_set_(options.time_limit_seconds > 0),
        user_lp_limit_set_(options.lp.time_limit_seconds > 0),
        max_nodes_(options.max_nodes > 0
                       ? static_cast<long long>(options.max_nodes)
                       : std::numeric_limits<long long>::max()) {
    if (deadline_set_) {
      deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(options.time_limit_seconds));
    }
  }

  bool TimeUp() const { return deadline_set_ && Clock::now() >= deadline_; }

  // Claims one search node against the cap. Returns false (and sets
  // hit_node_limit) when the cap is exhausted.
  bool ClaimNode() {
    if (nodes_claimed_++ >= max_nodes_) {
      hit_node_limit_ = true;
      return false;
    }
    return true;
  }

  // Sets hit_time_limit if the global deadline has actually passed (an LP
  // cut off by its fair-share cap is NOT a global timeout). Returns whether
  // the deadline has passed.
  bool LatchTimeLimitIfExpired() {
    if (!TimeUp()) {
      return false;
    }
    hit_time_limit_ = true;
    return true;
  }

  // A node relaxation came back kTimeLimit. Sets hit_time_limit when the
  // global deadline has passed, and also when the USER'S OWN LpOptions time
  // limit was in force (they asked for that cutoff, so the solve must report
  // it). An expiry caused only by the fair-share cap is neither: the search
  // carries on with the remaining budget and the node counts as an
  // lp_failure. Returns whether the global deadline has passed — only then
  // should the whole search stop.
  bool OnNodeLpTimeLimit() {
    const bool deadline_passed = LatchTimeLimitIfExpired();
    if (user_lp_limit_set_) {
      hit_time_limit_ = true;
    }
    return deadline_passed;
  }

  // LP options for one node relaxation: the time budget is clipped to a fair
  // share (kNodeLpBudgetShare) of the remaining global budget at dispatch
  // time. An already-expired budget maps to a ~zero (not zero: zero means
  // unlimited) LP deadline, so post-deadline nodes fail their first deadline
  // check instead of each getting a fresh grace period.
  LpOptions NodeLpOptions(const LpOptions& base) const {
    LpOptions lp = base;
    if (deadline_set_) {
      const double remaining =
          std::chrono::duration<double>(deadline_ - Clock::now()).count();
      const double capped = std::max(1e-9, remaining * kNodeLpBudgetShare);
      lp.time_limit_seconds =
          lp.time_limit_seconds > 0 ? std::min(lp.time_limit_seconds, capped) : capped;
    }
    return lp;
  }

  bool hit_time_limit() const { return hit_time_limit_; }
  bool hit_node_limit() const { return hit_node_limit_; }

 private:
  const bool deadline_set_;
  const bool user_lp_limit_set_;
  const long long max_nodes_;
  Clock::time_point deadline_;
  long long nodes_claimed_ = 0;
  bool hit_time_limit_ = false;
  bool hit_node_limit_ = false;
};

// Charges one LP solve to `stats`: the solve, its pivots and its wall time.
// Every LP the solver runs is counted here — node relaxations, rounding
// repairs, the cut loop, strong branching, the LP-only path and the
// relax-and-round lane — so total_pivots is always dual + primal.
inline void CountLp(MipStats* stats, long long dual_pivots, long long primal_pivots,
                    Clock::time_point start) {
  ++stats->lp_solves;
  stats->total_pivots += dual_pivots + primal_pivots;
  stats->dual_pivots += dual_pivots;
  stats->primal_pivots += primal_pivots;
  stats->lp_time_seconds += std::chrono::duration<double>(Clock::now() - start).count();
}

// A dense SolveLp counted through CountLp (its iterations are all primal).
Solution CountedSolveLp(const Model& model, const LpOptions& options, MipStats* stats);

// Round-and-repair: fixes every integer variable of `model` at its value in
// `x` rounded to the nearest integer (clamped into its bounds), re-solves the
// continuous part with one counted dense LP, and restores the bounds. The
// result is an incumbent candidate when kOptimal; callers apply their own
// acceptance test.
Solution RoundAndRepair(Model& model, const std::vector<double>& x, const LpOptions& options,
                        MipStats* stats);

// The deterministic branching perturbation (MipOptions::branching_perturbation
// and docs/solver.md): makes the node LP optimum unique so branching no
// longer depends on which vertex of an optimal face a node LP solver happens
// to return. Applied once per search to the root model, so the node solvers
// of the warm and cold configurations land on the same vertices. `slack`
// bounds |perturbed - true| objective over the whole variable box; adding it
// to every node bound keeps pruning sound.
struct Perturbation {
  bool active = false;
  std::vector<double> original_objective;
  double slack = 0.0;

  // Perturbs `model` in place (integer variables only, deterministic
  // index-keyed deltas in the improving direction, pairwise distinct via
  // golden-ratio hashing) and records the original coefficients.
  void Apply(Model& model, const MipOptions& options) {
    if (options.branching_perturbation <= 0.0 || model.num_integer_variables() == 0) {
      return;
    }
    double cmax = 0.0;
    for (int j = 0; j < model.num_variables(); ++j) {
      cmax = std::max(cmax, std::fabs(model.column(j).objective));
    }
    const double base = options.branching_perturbation * std::max(1.0, cmax);
    const double sign = model.maximize() ? 1.0 : -1.0;
    original_objective.resize(static_cast<size_t>(model.num_variables()));
    for (int j = 0; j < model.num_variables(); ++j) {
      const auto& col = model.column(j);
      original_objective[static_cast<size_t>(j)] = col.objective;
      if (col.type == VarType::kContinuous || !std::isfinite(col.lower) ||
          !std::isfinite(col.upper)) {
        continue;  // unbounded columns would make the slack term infinite
      }
      // Distinct deterministic value in (base/4, base], keyed by index only —
      // identical for every solver configuration.
      const double frac = std::fmod(static_cast<double>(j + 1) * 0.6180339887498949, 1.0);
      const double delta = base * (0.25 + 0.75 * frac);
      model.SetObjectiveCoefficient(j, col.objective + sign * delta);
      slack += delta * std::max(std::fabs(col.lower), std::fabs(col.upper));
    }
    active = slack > 0.0;
  }

  // Objective of `x` under the ORIGINAL (unperturbed) coefficients —
  // incumbents are scored and reported in the caller's objective.
  double TrueObjective(const Model& model, const std::vector<double>& x) const {
    if (!active) {
      return model.Objective(x);
    }
    double objective = 0.0;
    for (size_t j = 0; j < original_objective.size(); ++j) {
      objective += original_objective[j] * x[j];
    }
    return objective;
  }
};

// Finds the integer variable whose LP value is farthest from integral;
// -1 if the point is integral. Two passes: find the maximum fractionality,
// then take the LOWEST index within a tolerance of it. A single
// `frac > best` scan would let last-bit evaluation noise between node LP
// solvers pick different variables when two fractionalities are
// (mathematically) equal, and trees would diverge from that node on.
inline int MostFractionalVar(const Model& model, const std::vector<double>& x,
                             double integrality_tol) {
  double best_frac = integrality_tol;
  for (int j = 0; j < model.num_variables(); ++j) {
    if (model.column(j).type == VarType::kContinuous) {
      continue;
    }
    const double v = x[static_cast<size_t>(j)];
    best_frac = std::max(best_frac, std::fabs(v - std::round(v)));
  }
  if (best_frac <= integrality_tol) {
    return -1;
  }
  constexpr double kTieTol = 1e-9;
  for (int j = 0; j < model.num_variables(); ++j) {
    if (model.column(j).type == VarType::kContinuous) {
      continue;
    }
    const double v = x[static_cast<size_t>(j)];
    if (std::fabs(v - std::round(v)) >= best_frac - kTieTol) {
      return j;
    }
  }
  return -1;  // unreachable
}

// Per-variable pseudo-cost tables for BranchingRule::kPseudoCost: observed
// dual-bound degradation per unit of fractionality, kept separately for the
// down (floor) and up (ceil) child. Initialized by root strong branching
// (InitPseudoCostsAtRoot in cuts.h), updated from observed child bounds as
// the search dives.
struct PseudoCosts {
  std::vector<double> down_sum, up_sum;
  std::vector<int> down_count, up_count;

  void Resize(int num_variables) {
    down_sum.assign(static_cast<size_t>(num_variables), 0.0);
    up_sum.assign(static_cast<size_t>(num_variables), 0.0);
    down_count.assign(static_cast<size_t>(num_variables), 0);
    up_count.assign(static_cast<size_t>(num_variables), 0);
  }
  bool empty() const { return down_sum.empty(); }

  // Records an observed degradation: `gain` = (parent bound - child bound) /
  // fractionality moved, clamped nonnegative (bound noise can go slightly
  // negative).
  void Update(int var, bool up, double gain) {
    const size_t sj = static_cast<size_t>(var);
    const double g = std::max(gain, 0.0);
    if (up) {
      up_sum[sj] += g;
      ++up_count[sj];
    } else {
      down_sum[sj] += g;
      ++down_count[sj];
    }
  }

  // Average degradation, falling back to the global average over observed
  // variables, then to 1.0 (uninformed) — the standard reliability cascade.
  double Average(int var, bool up) const {
    const size_t sj = static_cast<size_t>(var);
    const double sum = up ? up_sum[sj] : down_sum[sj];
    const int count = up ? up_count[sj] : down_count[sj];
    if (count > 0) {
      return sum / count;
    }
    double gsum = 0.0;
    int gcount = 0;
    const auto& sums = up ? up_sum : down_sum;
    const auto& counts = up ? up_count : down_count;
    for (size_t j = 0; j < sums.size(); ++j) {
      gsum += sums[j];
      gcount += counts[j];
    }
    return gcount > 0 ? gsum / gcount : 1.0;
  }
};

// Branch-variable selection honoring MipOptions::branching. kMostFractional
// delegates to MostFractionalVar; kPseudoCost maximizes the product score
//   max(eps, avg_down * f_down) * max(eps, avg_up * f_up)
// with a RELATIVE tie band and lowest-index tie-break, so last-bit noise in
// the LP values cannot make the warm and cold configurations pick different
// variables. Returns -1 when x is integral.
inline int SelectBranchVariable(const Model& model, const std::vector<double>& x,
                                double integrality_tol, BranchingRule rule,
                                const PseudoCosts& pc) {
  if (rule == BranchingRule::kMostFractional || pc.empty()) {
    return MostFractionalVar(model, x, integrality_tol);
  }
  constexpr double kEps = 1e-6;
  double best_score = -1.0;
  for (int j = 0; j < model.num_variables(); ++j) {
    if (model.column(j).type == VarType::kContinuous) {
      continue;
    }
    const double v = x[static_cast<size_t>(j)];
    const double frac = v - std::floor(v);
    if (frac <= integrality_tol || frac >= 1.0 - integrality_tol) {
      continue;
    }
    const double score = std::max(kEps, pc.Average(j, false) * frac) *
                         std::max(kEps, pc.Average(j, true) * (1.0 - frac));
    best_score = std::max(best_score, score);
  }
  if (best_score < 0.0) {
    return -1;
  }
  constexpr double kRelTieTol = 1e-6;
  for (int j = 0; j < model.num_variables(); ++j) {
    if (model.column(j).type == VarType::kContinuous) {
      continue;
    }
    const double v = x[static_cast<size_t>(j)];
    const double frac = v - std::floor(v);
    if (frac <= integrality_tol || frac >= 1.0 - integrality_tol) {
      continue;
    }
    const double score = std::max(kEps, pc.Average(j, false) * frac) *
                         std::max(kEps, pc.Average(j, true) * (1.0 - frac));
    if (score >= best_score * (1.0 - kRelTieTol)) {
      return j;
    }
  }
  return -1;  // unreachable
}

// The full solve pipeline behind the public SolveMip, without its obs span
// and counter emission: presolve, the decomposition dispatch, the LP-only
// path, branch and bound, and incumbent certification. `stats` must be
// non-null; it is reset first.
// The decomposed path (decompose.cc) re-enters it for component sub-solves
// (with decompose off), so sub-solve statistics roll up into one MipStats
// and observability counters are emitted exactly once per public call.
Solution SolveMipImpl(const Model& model, const MipOptions& options, MipStats* stats);

}  // namespace medea::solver::internal

#endif  // SRC_SOLVER_BNB_INTERNAL_H_
