// Copyright (c) Medea reproduction authors.
// Placement-structure cutting planes for the branch-and-bound root, plus the
// strong-branching initializer for pseudo-cost branching.
//
// The placement ILP (PAPER.md section 4) is built from three row families —
// one-node-per-container SOS rows, per-node capacity knapsacks and
// tag-cardinality rows — all of which are 0/1 knapsacks. Two classic cut
// families tighten their LP relaxation:
//
//  * COVER cuts: for a knapsack sum(a_j x_j) <= b, a minimal cover C (a set
//    whose coefficients together exceed b) yields sum_{C} x_j <= |C| - 1,
//    extended by every variable whose coefficient dominates the cover's.
//  * CLIQUE cuts: when any two of the k largest coefficients already exceed
//    b, at most one of those k binaries can be 1: sum_{K} x_j <= 1.
//
// Both are derived from a SINGLE row, so they are valid for every
// integer-feasible point of the model (cut-and-branch: generated once at the
// root, kept for the whole search) and they never merge the components the
// decomposer (decompose.h) would otherwise split.
//
// AddRootCuts runs the separation loop against an internal IncrementalLpSolver
// so each accepted cut is applied through the basis-preserving AddRow and
// re-optimized by the dual simplex — the cut loop itself exercises (and is
// benchmarked as) the dual warm-restart path. The loop is independent of
// MipOptions::use_incremental_lp, so the warm and cold branch-and-bound
// configurations receive bit-identical cut sets and explore identical trees
// (see MipOptions::branching_perturbation and docs/solver.md).

#ifndef SRC_SOLVER_CUTS_H_
#define SRC_SOLVER_CUTS_H_

#include <utility>
#include <vector>

#include "src/solver/bnb_internal.h"
#include "src/solver/mip.h"
#include "src/solver/model.h"

namespace medea::solver::internal {

// One generated cut, always in the sense sum(terms) <= rhs.
struct Cut {
  std::vector<std::pair<VarIndex, double>> terms;  // sorted by variable index
  double rhs = 0.0;
  RowIndex source_row = -1;
  const char* family = "";  // "cover" or "clique"
  double violation = 0.0;   // at the LP point it was separated from
};

// A separated cut must be violated by at least this much at the LP point.
inline constexpr double kMinCutViolation = 1e-4;

// Root candidates strong-branched by InitPseudoCostsAtRoot.
inline constexpr int kStrongBranchCandidates = 8;

// Separates cover cuts violated by at least `min_violation` from the first
// `original_rows` rows of `model` at the fractional point `x`. Exposed for
// the validity tests.
std::vector<Cut> SeparateCoverCuts(const Model& model, int original_rows,
                                   const std::vector<double>& x, double min_violation);

// Separates violated clique cuts (pairwise-conflicting binary prefixes).
std::vector<Cut> SeparateCliqueCuts(const Model& model, int original_rows,
                                    const std::vector<double>& x, double min_violation);

// Runs the root cutting-plane loop on `model` (already perturbed by the
// caller) and appends the surviving active cuts to it as kLessEqual rows.
// The loop's LPs and its cuts_* counters go to `stats`. No-op unless
// options.cuts.enable, the model has integer variables and at least one
// row. The loop stops at `budget`'s deadline, and each re-solve gets that
// budget's node-LP share of the time left.
void AddRootCuts(Model& model, const MipOptions& options, MipStats* stats,
                 const SearchBudget& budget);

// Initializes pseudo-cost tables by strong-branching the
// kStrongBranchCandidates most fractional root-LP candidates (two child LPs
// each); every dense LP it runs, the root LP included, is counted into
// `stats` and its strong_branch_solves. Uses the DENSE solver exclusively so
// the resulting tables — and therefore every branching decision seeded by
// them — are identical across the warm and cold configurations. `pc` is
// resized to the model's variable count; tables stay zero when the rule is
// not kPseudoCost. Strong branching stops at `budget`'s deadline, and each
// LP gets that budget's node-LP share of the time left.
void InitPseudoCostsAtRoot(const Model& model, const MipOptions& options, PseudoCosts* pc,
                           MipStats* stats, const SearchBudget& budget);

}  // namespace medea::solver::internal

#endif  // SRC_SOLVER_CUTS_H_
