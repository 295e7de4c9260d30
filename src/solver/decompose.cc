// Copyright (c) Medea reproduction authors.
// Component-decomposed MIP solving (see decompose.h).
//
// Pipeline, entered from SolveMipImpl when MipOptions::decompose is set and
// the (presolved) model still has integer variables:
//
//   1. DecomposeModel: union-find over the variable-row incidence graph.
//      One component, nothing to gain -> monolithic solve, same engine as
//      before, only the component accounting recorded.
//   2. Components are solved one after another, largest first. Each
//      component sub-solve gets the remaining global wall-clock budget at
//      dispatch time as its own deadline.
//   3. Per component: a relax-and-round fast lane (one LP relaxation, then
//      the exact engine's round-and-repair) whose result is accepted only
//      when the solver-side certifier passes AND the objective is within
//      the pruning gap of the LP dual bound. Anything else falls back to
//      exact branch and bound for that component only — with the rounded
//      point as a warm start when it was feasible, and root reduced-cost
//      fixing enabled.
//   4. Stitching: per-component solutions map back through Component::vars,
//      fixed variables contribute their bound value, constant rows are
//      checked directly. The dual bound is the sum of the per-component
//      bounds (valid because objective and constraints separate), so
//      verify::CertifySolution can audit the stitched result exactly like a
//      monolithic one.

#include "src/solver/decompose.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/solver/bnb_internal.h"
#include "src/solver/simplex.h"

namespace medea::solver {
namespace {

using internal::Clock;

// Path-halving union-find over variable indices.
class UnionFind {
 public:
  explicit UnionFind(int n) : parent_(static_cast<size_t>(n)) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  int Find(int x) {
    while (parent_[static_cast<size_t>(x)] != x) {
      parent_[static_cast<size_t>(x)] = parent_[static_cast<size_t>(parent_[static_cast<size_t>(x)])];
      x = parent_[static_cast<size_t>(x)];
    }
    return x;
  }

  void Union(int a, int b) {
    a = Find(a);
    b = Find(b);
    if (a != b) {
      parent_[static_cast<size_t>(b)] = a;
    }
  }

 private:
  std::vector<int> parent_;
};

// Fixed columns are constants: no component membership, no row gluing.
bool FixedColumn(const Model::Column& col) { return col.lower == col.upper; }

}  // namespace

Decomposition DecomposeModel(const Model& model) {
  const int n = model.num_variables();
  const int m = model.num_rows();
  UnionFind uf(n);
  for (int r = 0; r < m; ++r) {
    const auto& row = model.row(r);
    int anchor = -1;
    for (const auto& term : row.terms) {
      if (FixedColumn(model.column(term.first))) {
        continue;
      }
      if (anchor < 0) {
        anchor = term.first;
      } else {
        uf.Union(anchor, term.first);
      }
    }
  }

  Decomposition dec;
  dec.component_of_var.assign(static_cast<size_t>(n), -1);
  std::vector<int> comp_of_root(static_cast<size_t>(n), -1);
  for (int j = 0; j < n; ++j) {
    const auto& col = model.column(j);
    if (FixedColumn(col)) {
      continue;
    }
    int& cid = comp_of_root[static_cast<size_t>(uf.Find(j))];
    if (cid < 0) {
      cid = static_cast<int>(dec.components.size());
      dec.components.emplace_back();
    }
    dec.component_of_var[static_cast<size_t>(j)] = cid;
    Component& comp = dec.components[static_cast<size_t>(cid)];
    comp.vars.push_back(j);
    if (col.type != VarType::kContinuous) {
      ++comp.num_integer;
    }
  }
  for (int r = 0; r < m; ++r) {
    const auto& row = model.row(r);
    int cid = -1;
    for (const auto& term : row.terms) {
      cid = dec.component_of_var[static_cast<size_t>(term.first)];
      if (cid >= 0) {
        break;
      }
    }
    if (cid < 0) {
      dec.constant_rows.push_back(r);
    } else {
      dec.components[static_cast<size_t>(cid)].rows.push_back(r);
    }
  }

  // Largest searches first (see Decomposition::components). Stable sort so
  // equal-size components keep model order and the result is deterministic.
  std::vector<int> order(dec.components.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&dec](int a, int b) {
    const Component& ca = dec.components[static_cast<size_t>(a)];
    const Component& cb = dec.components[static_cast<size_t>(b)];
    if (ca.num_integer != cb.num_integer) {
      return ca.num_integer > cb.num_integer;
    }
    return ca.rows.size() > cb.rows.size();
  });
  std::vector<Component> sorted;
  sorted.reserve(dec.components.size());
  std::vector<int> new_of_old(dec.components.size(), 0);
  for (size_t i = 0; i < order.size(); ++i) {
    new_of_old[static_cast<size_t>(order[i])] = static_cast<int>(i);
    sorted.push_back(std::move(dec.components[static_cast<size_t>(order[i])]));
  }
  dec.components = std::move(sorted);
  for (int& c : dec.component_of_var) {
    if (c >= 0) {
      c = new_of_old[static_cast<size_t>(c)];
    }
  }
  return dec;
}

Model ExtractComponent(const Model& model, const Component& comp) {
  Model sub;
  sub.SetMaximize(model.maximize());
  std::vector<int> local(static_cast<size_t>(model.num_variables()), -1);
  for (size_t i = 0; i < comp.vars.size(); ++i) {
    const VarIndex v = comp.vars[i];
    const auto& col = model.column(v);
    local[static_cast<size_t>(v)] = static_cast<int>(i);
    const VarIndex added = sub.AddVariable(col.lower, col.upper, col.objective, col.type, col.name);
    // AddVariable clamps binary bounds to [0,1]; restore the exact incoming
    // box (branching / presolve may have tightened it already).
    sub.SetBounds(added, col.lower, col.upper);
  }
  for (const RowIndex r : comp.rows) {
    const auto& row = model.row(r);
    std::vector<std::pair<VarIndex, double>> terms;
    terms.reserve(row.terms.size());
    double rhs = row.rhs;
    for (const auto& term : row.terms) {
      const int lv = local[static_cast<size_t>(term.first)];
      if (lv >= 0) {
        terms.emplace_back(lv, term.second);
      } else {
        // Fixed variable: fold its constant contribution into the rhs.
        rhs -= term.second * model.column(term.first).lower;
      }
    }
    sub.AddRow(std::move(terms), row.sense, rhs, row.name);
  }
  return sub;
}

bool CheckIncumbent(const Model& model, const std::vector<double>& values,
                    double feasibility_tol, double integrality_tol, std::string* violation) {
  if (static_cast<int>(values.size()) != model.num_variables()) {
    if (violation != nullptr) {
      *violation = "value count differs from the variable count";
    }
    return false;
  }
  if (!model.IsFeasible(values, feasibility_tol, violation)) {
    return false;
  }
  for (int j = 0; j < model.num_variables(); ++j) {
    if (model.column(j).type == VarType::kContinuous) {
      continue;
    }
    const double v = values[static_cast<size_t>(j)];
    if (std::fabs(v - std::round(v)) > integrality_tol) {
      if (violation != nullptr) {
        *violation = "integer variable " + std::to_string(j) + " is fractional";
      }
      return false;
    }
  }
  return true;
}

namespace internal {
namespace {

// One component solve: its solution and its accounting, merged into the
// caller's MipStats by the stitcher (the dual bound is summed separately).
struct ComponentResult {
  Solution solution;
  MipStats stats;
};

// Analytic solve of a row-less singleton component: push the variable to
// whichever bound the objective favors.
Solution SolveFreeVariable(const Model::Column& col, bool maximize) {
  Solution s;
  const double cscore = maximize ? col.objective : -col.objective;
  double lo = col.lower;
  double hi = col.upper;
  if (col.type != VarType::kContinuous) {
    lo = std::ceil(lo - 1e-9);
    hi = std::floor(hi + 1e-9);
    if (lo > hi) {
      s.status = SolveStatus::kInfeasible;
      return s;
    }
  }
  double v = 0.0;
  if (cscore > 0.0) {
    if (!std::isfinite(hi)) {
      s.status = SolveStatus::kUnbounded;
      return s;
    }
    v = hi;
  } else if (cscore < 0.0) {
    if (!std::isfinite(lo)) {
      s.status = SolveStatus::kUnbounded;
      return s;
    }
    v = lo;
  } else {
    v = std::isfinite(lo) ? lo : (std::isfinite(hi) ? hi : 0.0);
  }
  s.status = SolveStatus::kOptimal;
  s.values = {v};
  s.objective = col.objective * v;
  return s;
}

enum class FastLane {
  kAccepted,  // *out holds a certified, within-gap incumbent
  kRejected,  // fall back to exact branch and bound
  kVerdict,   // the LP relaxation settled the component (infeasible/unbounded)
};

// Relax-and-round fast lane on one component sub-model: one LP relaxation,
// then (if fractional) the exact engines' round-and-repair, which leaves
// `sub`'s bounds as it found them. Acceptance requires the solver-side
// certifier AND an objective within the pruning gap of the LP dual bound. On
// rejection, a feasible but out-of-gap rounded point is left in *warm to
// seed the exact search. Both LPs are cold dense solves.
FastLane TryRelaxAndRound(Model& sub, const MipOptions& options, const LpOptions& lp_options,
                          MipStats* stats, Solution* out, std::vector<double>* warm) {
  ++stats->cold_restarts;
  const Solution relax = CountedSolveLp(sub, lp_options, stats);
  if (relax.status == SolveStatus::kInfeasible || relax.status == SolveStatus::kUnbounded) {
    out->status = relax.status;
    return FastLane::kVerdict;
  }
  if (relax.status != SolveStatus::kOptimal) {
    return FastLane::kRejected;
  }

  std::vector<double> candidate;
  if (MostFractionalVar(sub, relax.values, options.integrality_tol) < 0) {
    candidate = relax.values;
  } else {
    ++stats->cold_restarts;
    const Solution repaired = RoundAndRepair(sub, relax.values, lp_options, stats);
    if (repaired.status != SolveStatus::kOptimal) {
      return FastLane::kRejected;
    }
    candidate = repaired.values;
  }
  if (!CheckIncumbent(sub, candidate, 1e-5, options.integrality_tol)) {
    return FastLane::kRejected;
  }

  const double objective = sub.Objective(candidate);
  const double score = sub.maximize() ? objective : -objective;
  const double bound_score = sub.maximize() ? relax.objective : -relax.objective;
  const double gap =
      std::max(options.absolute_gap, options.relative_gap * std::fabs(objective));
  if (bound_score - score > gap) {
    // Feasible and integral but not provably near-optimal: hand it to the
    // exact search as a warm start instead.
    *warm = std::move(candidate);
    return FastLane::kRejected;
  }
  out->status = SolveStatus::kOptimal;
  out->objective = objective;
  out->values = std::move(candidate);
  stats->has_best_bound = true;
  stats->best_bound = relax.objective;
  return FastLane::kAccepted;
}

ComponentResult SolveOneComponent(const Model& model, const Component& comp,
                                  const MipOptions& options, bool deadline_active,
                                  Clock::time_point deadline) {
  obs::ScopedSpan span("solver.component", "solver");
  ComponentResult res;
  if (comp.rows.empty() && comp.vars.size() == 1) {
    res.solution = SolveFreeVariable(model.column(comp.vars[0]), model.maximize());
    if (res.solution.status == SolveStatus::kOptimal) {
      res.stats.has_best_bound = true;
      res.stats.best_bound = res.solution.objective;
    }
    return res;
  }

  Model sub = ExtractComponent(model, comp);
  MipOptions sub_options = options;
  sub_options.decompose = false;
  // The dispatcher certifies the stitched full solution.
  sub_options.certify = false;
  // Sub-searches are compared by certified objective only (tree shape is
  // per-component anyway), so the basis-dependent fixing is pure win here.
  sub_options.reduced_cost_fixing = true;
  // Per-component deadline: the remaining global budget at dispatch time.
  if (deadline_active) {
    const double remaining =
        std::chrono::duration<double>(deadline - Clock::now()).count();
    sub_options.time_limit_seconds = std::max(1e-9, remaining);
  }
  sub_options.warm_start.clear();
  if (static_cast<int>(options.warm_start.size()) == model.num_variables()) {
    sub_options.warm_start.reserve(comp.vars.size());
    for (const VarIndex v : comp.vars) {
      sub_options.warm_start.push_back(options.warm_start[static_cast<size_t>(v)]);
    }
  }

  if (sub.num_integer_variables() >= options.relax_round_min_integers) {
    std::vector<double> warm;
    LpOptions fast_lp = sub_options.lp;
    if (deadline_active) {
      const double remaining = std::max(
          1e-9, std::chrono::duration<double>(deadline - Clock::now()).count());
      fast_lp.time_limit_seconds = fast_lp.time_limit_seconds > 0
                                       ? std::min(fast_lp.time_limit_seconds, remaining)
                                       : remaining;
    }
    const FastLane lane =
        TryRelaxAndRound(sub, sub_options, fast_lp, &res.stats, &res.solution, &warm);
    if (lane == FastLane::kAccepted) {
      res.stats.relax_round_accepted = 1;
      return res;
    }
    if (lane == FastLane::kVerdict) {
      return res;
    }
    res.stats.relax_round_rejected = 1;
    if (!warm.empty()) {
      sub_options.warm_start = std::move(warm);
    }
  }

  MipStats search_stats;
  res.solution = SolveMipImpl(sub, sub_options, &search_stats);
  res.stats.Merge(search_stats);
  res.stats.has_best_bound = search_stats.has_best_bound;
  res.stats.best_bound = search_stats.best_bound;
  return res;
}

}  // namespace

Solution SolveMipDecomposed(const Model& model, const MipOptions& options, MipStats* stats) {
  const auto start = Clock::now();
  const bool deadline_active = options.time_limit_seconds > 0;
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(std::max(0.0, options.time_limit_seconds)));

  const Decomposition dec = DecomposeModel(model);
  const int num_components = static_cast<int>(dec.components.size());
  int largest = 0;
  for (const Component& comp : dec.components) {
    largest = std::max(largest, comp.num_integer);
  }
  if (obs::MetricsEnabled()) {
    // "solver.components" is a histogram over solves: how often multi-app
    // batches actually separate back into independent sub-models.
    obs::Count("solver.decomposed_solves");
    obs::Observe("solver.components", static_cast<double>(num_components));
    obs::SetGauge("solver.largest_component_integers", static_cast<double>(largest));
  }

  if (num_components <= 1) {
    // The model did not separate (or is all-fixed): monolithic solve, with
    // only the component accounting added on top.
    MipOptions mono = options;
    mono.decompose = false;
    Solution solution = SolveMipImpl(model, mono, stats);
    stats->components = num_components;
    stats->largest_component_integers = largest;
    return solution;
  }

  stats->components = num_components;
  stats->largest_component_integers = largest;

  Solution solution;
  // Constant rows reference only fixed variables: check them against the
  // fixed values directly (1e-5, the certifier's feasibility tolerance).
  for (const RowIndex r : dec.constant_rows) {
    const auto& row = model.row(r);
    double activity = 0.0;
    for (const auto& term : row.terms) {
      activity += term.second * model.column(term.first).lower;
    }
    const bool ok = row.sense == RowSense::kLessEqual ? activity <= row.rhs + 1e-5
                    : row.sense == RowSense::kGreaterEqual
                        ? activity >= row.rhs - 1e-5
                        : std::fabs(activity - row.rhs) <= 1e-5;
    if (!ok) {
      solution.status = SolveStatus::kInfeasible;
      return solution;
    }
  }

  // Solve components in order, largest first (DecomposeModel's order).
  std::vector<ComponentResult> results;
  results.reserve(static_cast<size_t>(num_components));
  for (const Component& comp : dec.components) {
    results.push_back(SolveOneComponent(model, comp, options, deadline_active, deadline));
  }

  // Stitch: fixed variables contribute their bound value, component
  // solutions map back through Component::vars.
  std::vector<double> values(static_cast<size_t>(model.num_variables()), 0.0);
  double fixed_objective = 0.0;
  for (int j = 0; j < model.num_variables(); ++j) {
    const auto& col = model.column(j);
    if (dec.component_of_var[static_cast<size_t>(j)] < 0) {
      values[static_cast<size_t>(j)] = col.lower;
      fixed_objective += col.objective * col.lower;
    }
  }
  bool all_solved = true;
  bool all_optimal = true;
  bool any_infeasible = false;
  bool any_unbounded = false;
  bool all_bounded = true;
  double bound_sum = fixed_objective;
  for (int i = 0; i < num_components; ++i) {
    const ComponentResult& res = results[static_cast<size_t>(i)];
    const Component& comp = dec.components[static_cast<size_t>(i)];
    stats->Merge(res.stats);
    if (res.solution.status == SolveStatus::kInfeasible) {
      any_infeasible = true;
    } else if (res.solution.status == SolveStatus::kUnbounded) {
      any_unbounded = true;
    } else if (res.solution.HasSolution()) {
      for (size_t k = 0; k < comp.vars.size(); ++k) {
        values[static_cast<size_t>(comp.vars[k])] = res.solution.values[k];
      }
      all_optimal = all_optimal && res.solution.status == SolveStatus::kOptimal;
    } else {
      all_solved = false;
    }
    if (res.stats.has_best_bound) {
      bound_sum += res.stats.best_bound;
    } else {
      all_bounded = false;
    }
  }
  // Any infeasible component proves the whole model infeasible; any
  // unbounded one (absent infeasibility) makes it unbounded. A component
  // with no incumbent at all leaves no full assignment to stitch.
  if (any_infeasible) {
    solution.status = SolveStatus::kInfeasible;
    return solution;
  }
  if (any_unbounded) {
    solution.status = SolveStatus::kUnbounded;
    return solution;
  }
  if (!all_solved) {
    solution.status = SolveStatus::kTimeLimit;
    return solution;
  }
  solution.status = all_optimal ? SolveStatus::kOptimal : SolveStatus::kFeasible;
  solution.values = std::move(values);
  solution.objective = model.Objective(solution.values);
  if (all_bounded) {
    stats->has_best_bound = true;
    stats->best_bound = bound_sum;
  }
  return solution;
}

}  // namespace internal
}  // namespace medea::solver
