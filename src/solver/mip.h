// Copyright (c) Medea reproduction authors.
// Branch-and-bound solver for mixed-integer linear programs.
//
// Depth-first diving: at each node the LP relaxation is solved; the most
// fractional integer variable is branched on, exploring the round-to-nearest
// child first so that feasible incumbents appear early. A root rounding
// heuristic seeds the incumbent. The solver is *anytime*: with a time or
// node budget it returns the best incumbent with status kFeasible, which is
// exactly how the Medea LRA scheduler uses it (a scheduling cycle has a
// latency budget, not an optimality requirement).

#ifndef SRC_SOLVER_MIP_H_
#define SRC_SOLVER_MIP_H_

#include <vector>

#include "src/solver/model.h"
#include "src/solver/presolve.h"
#include "src/solver/simplex.h"

namespace medea::solver {

// Controls the root cutting-plane loop (src/solver/cuts.h): cover and clique
// cuts separated from the placement rows of the root relaxation, applied
// through the incremental solver's basis-preserving AddRow and re-optimized
// by the dual simplex (cut-and-branch: cuts generated at the root are
// globally valid and stay for the whole search). The loop's round, per-round,
// violation and aging limits are constants in cuts.cc.
struct CutOptions {
  bool enable = true;
};

// Branch-variable selection rule (MipOptions::branching).
enum class BranchingRule {
  // Most fractional value, lowest index on ties (the legacy rule).
  kMostFractional,
  // Pseudo-cost product score, initialized by strong branching at the root
  // and updated from observed dual-bound degradations during the search.
  kPseudoCost,
};

struct MipOptions {
  // Wall-clock budget; <= 0 means unlimited.
  double time_limit_seconds = 10.0;
  // Branch-and-bound node cap; <= 0 means unlimited.
  int max_nodes = 200000;
  // Run the presolve reductions (src/solver/presolve.h) before branch and
  // bound. Variables are preserved, so solutions need no back-mapping.
  bool presolve = true;
  // A value within this distance of an integer counts as integral.
  double integrality_tol = 1e-6;
  // Prune nodes whose LP bound is within this of the incumbent.
  double absolute_gap = 1e-6;
  // Also prune when the bound is within relative_gap * |incumbent| — the
  // standard MIP gap tolerance. Placement models are highly symmetric, so
  // proving exact optimality can take arbitrarily long even when the
  // incumbent is optimal; a small relative gap terminates those searches.
  double relative_gap = 0.01;
  // Optional warm start: integer variables are fixed at these (rounded)
  // values and the continuous part is repaired by one LP solve; if feasible,
  // the result seeds the incumbent. Size must equal the model's variable
  // count (or be empty).
  std::vector<double> warm_start;
  // Solve node relaxations with the persistent warm-started solver
  // (src/solver/incremental_lp.h) instead of a cold dense solve per node.
  // Results are identical up to tolerances; see docs/solver.md.
  bool use_incremental_lp = true;
  // Deterministic, basis-independent branching: the search internally adds a
  // tiny deterministic perturbation (this value, relative to the largest
  // objective coefficient) to every integer variable's objective
  // coefficient, making the node LP optimum unique. Placement models are
  // highly degenerate — they have many alternate optimal vertices — and the
  // warm-started (dual simplex) and cold (dense) node solvers land on
  // *different* vertices of the same optimal face, so MostFractional would
  // branch differently and the two configurations could explore trees of
  // wildly different size (the BENCH_solver_micro 12x6 explosion; see
  // docs/solver.md). With the perturbation both land on the same vertex and
  // the trees coincide. Incumbents are always scored and returned in the
  // ORIGINAL objective; pruning and dual bounds account for the perturbation
  // with a rigorous slack term, so bounds stay sound (merely up to the slack
  // looser). 0 disables.
  double branching_perturbation = 1e-9;
  // Self-certification (src/verify): after the search, re-verify the
  // returned incumbent against the Model (bounds, rows, integrality) and
  // abort on mismatch. Enabled by the verify layer's audit hook so that
  // every audited scheduling cycle also certifies its MIP incumbent.
  bool certify = false;
  // Component decomposition (src/solver/decompose.h): split the (presolved)
  // model into the connected components of its variable-row incidence graph
  // and solve them one after another as independent sub-MIPs, largest first.
  // Placement ILPs with sparse tag graphs routinely separate, and k
  // small branch-and-bound trees are exponentially cheaper than one big one.
  // The stitched solution carries the same optimality contract as the
  // monolithic search (kOptimal only when every component completed within
  // the configured gaps). Off by default: models that do not separate pay a
  // single O(nnz) union-find pass for nothing, and tree-shape statistics
  // stop being comparable with the monolithic engine.
  bool decompose = false;
  // Relax-and-round fast lane for decomposed solves: a component with at
  // least relax_round_min_integers integer variables first solves its LP
  // relaxation ONCE and rounds with a repair heuristic (the root-rounding
  // dive generalized; see docs/solver.md). The rounded point is accepted
  // only when it passes the solver-side certifier (row/bound feasibility +
  // integrality) AND its objective is within the pruning gap
  // (absolute_gap/relative_gap) of the LP bound — otherwise the component
  // falls back to exact branch and bound. Ignored unless decompose is set.
  int relax_round_min_integers = 64;
  // Reduced-cost fixing at the root node: after the root relaxation and
  // first incumbent, permanently fix 0/1 (and general integer) variables
  // whose reduced cost proves no improving solution moves them off their
  // bound. Off by default: reduced costs are basis-dependent, so fixing
  // makes the explored tree depend on which optimal basis the node LP
  // solver happened to reach — the cold/warm tree-identity guarantee of
  // MipOptions::branching_perturbation (docs/solver.md) would no longer
  // hold. The decomposed path enables it for its per-component fallback
  // searches, where only the certified objective is compared.
  bool reduced_cost_fixing = false;
  // Root cutting planes (see CutOptions). Applied identically on the warm
  // and cold node-LP paths, so tree identity (branching_perturbation above)
  // is preserved.
  CutOptions cuts;
  // Branch-variable selection. Pseudo-cost branching typically shrinks the
  // tree well below MostFractional on placement models; both rules break
  // ties by lowest variable index and are deterministic across the warm and
  // cold configurations. kPseudoCost strong-branches a fixed number of root
  // candidates (cuts.cc) with the dense solver, so the initialization is
  // identical in every configuration.
  BranchingRule branching = BranchingRule::kPseudoCost;
  LpOptions lp;
};

struct MipStats {
  int nodes_explored = 0;
  int lp_solves = 0;
  // LP relaxations that ended without a usable verdict (iteration limit /
  // time limit / unbounded); any such node leaves the search incomplete.
  int lp_failures = 0;
  bool hit_time_limit = false;
  bool hit_node_limit = false;
  // Wall-clock seconds spent inside LP solves: node relaxations, rounding
  // repairs, warm-start seeding, the root cut loop and strong branching.
  double lp_time_seconds = 0.0;
  // Simplex pivots + bound flips summed over every LP solve, incremental and
  // dense alike — including the root cut loop and strong branching, so the
  // bench pivot floors account for everything the search spent. The headline
  // metric for the warm-start speedup.
  long long total_pivots = 0;
  // Pivot split: dual-simplex pivots (the warm-restart path) vs primal
  // pivots (cleanup, bound flips and dense-solver iterations). Every path
  // counts its LPs the same way, so total_pivots == dual_pivots +
  // primal_pivots always holds.
  long long dual_pivots = 0;
  long long primal_pivots = 0;
  // Node relaxations re-entered from the parent's final basis by the
  // incremental solver.
  int warm_start_hits = 0;
  // Node relaxations solved cold: the root solve, plus every basis-repair
  // failure that fell back to a from-scratch solve.
  int cold_restarts = 0;
  // Reductions applied by the presolve pass that preceded the search (all
  // zeros when MipOptions::presolve was off). Lets callers report presolve
  // effectiveness without re-running Presolved() on the side.
  PresolveStats presolve;
  // Integer variables permanently fixed by root reduced-cost fixing
  // (MipOptions::reduced_cost_fixing). Summed over all components of a
  // decomposed solve.
  int reduced_cost_fixed = 0;
  // --- Root cutting planes (MipOptions::cuts) -------------------------------
  // Cover/clique cuts generated by the root separation loop, how many were
  // still tight when branching started (active: appended to the search
  // model), how many aged out, separation rounds run, and the pivots the cut
  // loop's dual re-solves cost (also included in total_pivots).
  int cuts_generated = 0;
  int cuts_active = 0;
  int cuts_aged_out = 0;
  int cut_rounds = 0;
  long long cut_pivots = 0;
  // Dense LP solves spent initializing pseudo-costs by root strong branching
  // (BranchingRule::kPseudoCost; also included in lp_solves/total_pivots).
  int strong_branch_solves = 0;
  // --- Decomposed search (MipOptions::decompose) ---------------------------
  // Connected components of the variable-row incidence graph (0 when the
  // decomposed path did not run; 1 means the model did not separate).
  int components = 0;
  // Integer-variable count of the largest component.
  int largest_component_integers = 0;
  // Components whose relax-and-round candidate passed the certifier and gap
  // test (no branch and bound needed) vs. components where the fast lane was
  // attempted and rejected (fell back to exact search).
  int relax_round_accepted = 0;
  int relax_round_rejected = 0;
  // Best dual (optimality) bound proven by the search, in the model's
  // objective sense: for a maximization no feasible point can exceed it
  // (minimization: fall below it). A complete search tightens it to the
  // incumbent plus the pruning gap; a budget-limited search falls back to
  // the root relaxation bound. Consumed by verify::CertifySolution.
  bool has_best_bound = false;
  double best_bound = 0.0;

  // Folds the counters of a sub-search (a presolved re-solve or one
  // component of a decomposed solve) into this one: counts add, limit flags
  // OR. The decomposition shape (components, largest_component_integers)
  // and the dual bound are left alone; their owners set them.
  void Merge(const MipStats& other);
};

// Solves `model` to (proven or budget-limited) optimality.
// `stats`, when non-null, receives search statistics.
Solution SolveMip(const Model& model, const MipOptions& options = MipOptions(),
                  MipStats* stats = nullptr);

}  // namespace medea::solver

#endif  // SRC_SOLVER_MIP_H_
