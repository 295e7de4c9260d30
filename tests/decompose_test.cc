// Copyright (c) Medea reproduction authors.
// Unit tests for the component-decomposed solve path (src/solver/decompose.h):
// union-find component extraction on hand-written models, sub-model index
// mapping, stitched-solution correctness against the monolithic engine, the
// relax-and-round fast lane's accept/reject behavior (a rejected candidate
// must fall back to exact branch and bound), status propagation, and root
// reduced-cost fixing.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "src/solver/decompose.h"
#include "src/solver/mip.h"
#include "src/solver/model.h"
#include "src/solver/testing/placement_model.h"

namespace medea::solver {
namespace {

MipOptions ExactOptions() {
  MipOptions options;
  options.time_limit_seconds = 10.0;
  options.absolute_gap = 1e-9;
  options.relative_gap = 0.0;
  return options;
}

MipOptions DecomposeExact() {
  MipOptions options = ExactOptions();
  options.decompose = true;
  return options;
}

// --- DecomposeModel: union-find over the incidence graph --------------------

TEST(DecomposeModelTest, TwoIndependentBlocksSeparate) {
  Model m;
  const int a0 = m.AddBinary(1.0);
  const int a1 = m.AddBinary(2.0);
  const int b0 = m.AddBinary(3.0);
  const int b1 = m.AddBinary(4.0);
  m.AddRow({{a0, 1.0}, {a1, 1.0}}, RowSense::kLessEqual, 1.0);
  m.AddRow({{b0, 1.0}, {b1, 1.0}}, RowSense::kLessEqual, 1.0);
  m.AddRow({{b0, 2.0}}, RowSense::kLessEqual, 2.0);

  const Decomposition dec = DecomposeModel(m);
  ASSERT_EQ(dec.components.size(), 2u);
  EXPECT_TRUE(dec.constant_rows.empty());
  // Both components have 2 integers; the stable tie-break is row count, so
  // the b-block (2 rows) sorts first.
  EXPECT_EQ(dec.components[0].vars, (std::vector<VarIndex>{b0, b1}));
  EXPECT_EQ(dec.components[0].rows, (std::vector<RowIndex>{1, 2}));
  EXPECT_EQ(dec.components[0].num_integer, 2);
  EXPECT_EQ(dec.components[1].vars, (std::vector<VarIndex>{a0, a1}));
  EXPECT_EQ(dec.components[1].rows, (std::vector<RowIndex>{0}));
  // component_of_var is consistent with membership.
  EXPECT_EQ(dec.component_of_var[static_cast<size_t>(a0)], 1);
  EXPECT_EQ(dec.component_of_var[static_cast<size_t>(a1)], 1);
  EXPECT_EQ(dec.component_of_var[static_cast<size_t>(b0)], 0);
  EXPECT_EQ(dec.component_of_var[static_cast<size_t>(b1)], 0);
}

TEST(DecomposeModelTest, SharedRowGluesComponents) {
  Model m;
  const int x0 = m.AddBinary(1.0);
  const int x1 = m.AddBinary(1.0);
  const int x2 = m.AddBinary(1.0);
  m.AddRow({{x0, 1.0}, {x1, 1.0}}, RowSense::kLessEqual, 1.0);
  m.AddRow({{x1, 1.0}, {x2, 1.0}}, RowSense::kLessEqual, 1.0);

  const Decomposition dec = DecomposeModel(m);
  ASSERT_EQ(dec.components.size(), 1u);
  EXPECT_EQ(dec.components[0].vars, (std::vector<VarIndex>{x0, x1, x2}));
}

TEST(DecomposeModelTest, FixedVariableDoesNotGlueRows) {
  // x1 is fixed by its bounds, so the two rows sharing it stay independent
  // and the fixed column belongs to no component.
  Model m;
  const int x0 = m.AddBinary(1.0);
  const int x1 = m.AddVariable(2.0, 2.0, 1.0, VarType::kContinuous);
  const int x2 = m.AddBinary(1.0);
  m.AddRow({{x0, 1.0}, {x1, 1.0}}, RowSense::kLessEqual, 3.0);
  m.AddRow({{x1, 1.0}, {x2, 1.0}}, RowSense::kLessEqual, 3.0);

  const Decomposition dec = DecomposeModel(m);
  ASSERT_EQ(dec.components.size(), 2u);
  EXPECT_EQ(dec.component_of_var[static_cast<size_t>(x1)], -1);
  for (const Component& comp : dec.components) {
    EXPECT_EQ(comp.vars.size(), 1u);
    EXPECT_EQ(comp.rows.size(), 1u);
  }
}

TEST(DecomposeModelTest, AllFixedRowIsConstant) {
  Model m;
  const int x0 = m.AddVariable(1.0, 1.0, 5.0, VarType::kContinuous);
  const int x1 = m.AddBinary(1.0);
  m.AddRow({{x0, 2.0}}, RowSense::kLessEqual, 3.0);
  m.AddRow({{x1, 1.0}}, RowSense::kLessEqual, 1.0);

  const Decomposition dec = DecomposeModel(m);
  ASSERT_EQ(dec.components.size(), 1u);
  ASSERT_EQ(dec.constant_rows.size(), 1u);
  EXPECT_EQ(dec.constant_rows[0], 0);
  EXPECT_EQ(dec.components[0].vars, (std::vector<VarIndex>{x1}));
}

TEST(DecomposeModelTest, RowLessVariableIsItsOwnComponent) {
  Model m;
  const int x0 = m.AddBinary(1.0);
  const int free = m.AddContinuous(0.0, 4.0, 2.0);
  m.AddRow({{x0, 1.0}}, RowSense::kLessEqual, 1.0);

  const Decomposition dec = DecomposeModel(m);
  ASSERT_EQ(dec.components.size(), 2u);
  // x0 is the only integer, so it sorts first; the row-less continuous
  // component comes last.
  EXPECT_EQ(dec.components[0].vars, (std::vector<VarIndex>{x0}));
  EXPECT_EQ(dec.components[1].vars, (std::vector<VarIndex>{free}));
  EXPECT_TRUE(dec.components[1].rows.empty());
}

TEST(DecomposeModelTest, GeneratorBlockCountIsRecovered) {
  const Model m = testing::DecomposablePlacementModel(20, 10, 5, /*seed=*/3);
  const Decomposition dec = DecomposeModel(m);
  EXPECT_EQ(dec.components.size(), 5u);
  for (const Component& comp : dec.components) {
    EXPECT_EQ(comp.vars.size(), 8u);   // (20/5) containers x (10/5) nodes
    EXPECT_EQ(comp.num_integer, 8);
    EXPECT_EQ(comp.rows.size(), 8u);   // 4 <=1 rows + 2 nodes x 2 capacity rows
  }
}

// --- ExtractComponent: index mapping and fixed-term substitution ------------

TEST(ExtractComponentTest, MapsIndicesAndSubstitutesFixedTerms) {
  Model m;
  const int fixed = m.AddVariable(2.0, 2.0, 7.0, VarType::kContinuous);
  const int x0 = m.AddVariable(0.0, 3.0, 1.5, VarType::kInteger);
  const int x1 = m.AddContinuous(0.5, 4.0, -2.0);
  m.AddRow({{fixed, 3.0}, {x0, 1.0}, {x1, 2.0}}, RowSense::kLessEqual, 10.0);
  m.AddRow({{x0, 1.0}}, RowSense::kGreaterEqual, 1.0);

  const Decomposition dec = DecomposeModel(m);
  ASSERT_EQ(dec.components.size(), 1u);
  const Component& comp = dec.components[0];
  ASSERT_EQ(comp.vars, (std::vector<VarIndex>{x0, x1}));

  const Model sub = ExtractComponent(m, comp);
  ASSERT_EQ(sub.num_variables(), 2);
  ASSERT_EQ(sub.num_rows(), 2);
  // Local index i is comp.vars[i]: bounds, objective and type carry over.
  EXPECT_EQ(sub.column(0).lower, 0.0);
  EXPECT_EQ(sub.column(0).upper, 3.0);
  EXPECT_EQ(sub.column(0).objective, 1.5);
  EXPECT_EQ(sub.column(0).type, VarType::kInteger);
  EXPECT_EQ(sub.column(1).lower, 0.5);
  EXPECT_EQ(sub.column(1).upper, 4.0);
  EXPECT_EQ(sub.column(1).objective, -2.0);
  // The fixed variable's contribution (3.0 * 2.0) moved into the rhs.
  EXPECT_EQ(sub.row(0).terms.size(), 2u);
  EXPECT_DOUBLE_EQ(sub.row(0).rhs, 10.0 - 3.0 * 2.0);
  EXPECT_DOUBLE_EQ(sub.row(1).rhs, 1.0);
}

TEST(ExtractComponentTest, PreservesTightenedBinaryBounds) {
  // Branching / presolve may hand the extractor a binary already fixed to 1;
  // AddVariable clamps binary bounds, so extraction must restore the box.
  Model m;
  const int x0 = m.AddBinary(1.0);
  const int x1 = m.AddBinary(1.0);
  m.SetBounds(x0, 1.0, 1.0);
  m.AddRow({{x0, 1.0}, {x1, 1.0}}, RowSense::kLessEqual, 2.0);

  const Decomposition dec = DecomposeModel(m);
  // x0 is fixed -> only x1 is a graph node.
  ASSERT_EQ(dec.components.size(), 1u);
  const Model sub = ExtractComponent(m, dec.components[0]);
  ASSERT_EQ(sub.num_variables(), 1);
  EXPECT_DOUBLE_EQ(sub.row(0).rhs, 1.0);  // rhs absorbed x0 = 1
}

// --- Stitched solve vs monolithic -------------------------------------------

TEST(DecomposedSolveTest, StitchedObjectiveMatchesMonolithicExactly) {
  const Model m = testing::DecomposablePlacementModel(16, 8, 4, /*seed=*/5);
  MipStats mono_stats;
  const Solution mono = SolveMip(m, ExactOptions(), &mono_stats);
  ASSERT_EQ(mono.status, SolveStatus::kOptimal);
  EXPECT_EQ(mono_stats.total_pivots, mono_stats.dual_pivots + mono_stats.primal_pivots);

  MipStats dec_stats;
  const Solution dec = SolveMip(m, DecomposeExact(), &dec_stats);
  ASSERT_EQ(dec.status, SolveStatus::kOptimal);
  EXPECT_NEAR(dec.objective, mono.objective, 1e-6);
  EXPECT_EQ(dec_stats.components, 4);
  EXPECT_EQ(dec_stats.largest_component_integers, 8);
  ASSERT_EQ(static_cast<int>(dec.values.size()), m.num_variables());
  // The stitched assignment itself scores the reported objective.
  EXPECT_NEAR(m.Objective(dec.values), dec.objective, 1e-9);
}

// The stitcher merges every counter of the component searches: the pivot
// split, the root cut loop and strong branching all reach the caller.
TEST(DecomposedSolveTest, StitchedStatsKeepEveryComponentCounter) {
  const Model m = testing::DecomposablePlacementModel(40, 20, 5, /*seed=*/1);
  MipOptions options;
  options.decompose = true;
  MipStats stats;
  const Solution dec = SolveMip(m, options, &stats);
  ASSERT_TRUE(dec.HasSolution());
  EXPECT_EQ(stats.components, 5);
  EXPECT_GT(stats.total_pivots, 0);
  EXPECT_EQ(stats.total_pivots, stats.dual_pivots + stats.primal_pivots);
  EXPECT_GT(stats.cuts_generated, 0);
  EXPECT_GT(stats.cut_pivots, 0);
  EXPECT_GT(stats.strong_branch_solves, 0);
}

TEST(DecomposedSolveTest, StitchingMapsInterleavedIndicesCorrectly) {
  // Two components whose variable indices interleave (a0, b0, a1, b1): the
  // stitcher must write each component's values through Component::vars, not
  // contiguously. Objectives are chosen so every variable's optimal value is
  // forced and distinct per component.
  Model m;
  const int a0 = m.AddBinary(5.0);
  const int b0 = m.AddBinary(-1.0);
  const int a1 = m.AddBinary(1.0);
  const int b1 = m.AddBinary(4.0);
  m.AddRow({{a0, 1.0}, {a1, 1.0}}, RowSense::kLessEqual, 1.0);
  m.AddRow({{b0, 1.0}, {b1, 1.0}}, RowSense::kLessEqual, 1.0);

  MipStats stats;
  const Solution dec = SolveMip(m, DecomposeExact(), &stats);
  ASSERT_EQ(dec.status, SolveStatus::kOptimal);
  EXPECT_EQ(stats.components, 2);
  EXPECT_NEAR(dec.objective, 9.0, 1e-9);
  EXPECT_NEAR(dec.values[static_cast<size_t>(a0)], 1.0, 1e-9);
  EXPECT_NEAR(dec.values[static_cast<size_t>(a1)], 0.0, 1e-9);
  EXPECT_NEAR(dec.values[static_cast<size_t>(b0)], 0.0, 1e-9);
  EXPECT_NEAR(dec.values[static_cast<size_t>(b1)], 1.0, 1e-9);
}

TEST(DecomposedSolveTest, FixedVariablesAndConstantRowsStitchThrough) {
  // Presolve off so the fixed column and the constant row reach the
  // decomposed stitcher instead of being folded away beforehand; a second
  // block keeps the model multi-component (one component hands the model
  // back to the monolithic engine).
  Model m;
  const int fixed = m.AddVariable(3.0, 3.0, 2.0, VarType::kContinuous);
  const int x0 = m.AddBinary(1.0);
  const int x1 = m.AddBinary(1.0);
  const int y0 = m.AddBinary(1.0);
  m.AddRow({{fixed, 1.0}}, RowSense::kLessEqual, 5.0);  // constant row, satisfied
  m.AddRow({{fixed, 1.0}, {x0, 1.0}, {x1, 1.0}}, RowSense::kLessEqual, 4.0);
  m.AddRow({{y0, 1.0}}, RowSense::kLessEqual, 1.0);

  MipOptions options = DecomposeExact();
  options.presolve = false;
  MipStats stats;
  const Solution dec = SolveMip(m, options, &stats);
  ASSERT_EQ(dec.status, SolveStatus::kOptimal);
  EXPECT_EQ(stats.components, 2);
  // fixed contributes 2*3=6; one of x0/x1 fits in the remaining capacity
  // 4-3=1; y0 is free to take its bound.
  EXPECT_NEAR(dec.objective, 8.0, 1e-9);
  EXPECT_NEAR(dec.values[static_cast<size_t>(fixed)], 3.0, 1e-9);
  EXPECT_NEAR(dec.values[static_cast<size_t>(y0)], 1.0, 1e-9);
}

TEST(DecomposedSolveTest, ViolatedConstantRowIsInfeasible) {
  Model m;
  const int fixed = m.AddVariable(3.0, 3.0, 2.0, VarType::kContinuous);
  const int x0 = m.AddBinary(1.0);
  m.AddRow({{fixed, 2.0}}, RowSense::kLessEqual, 5.0);  // 6 > 5: violated
  m.AddRow({{x0, 1.0}}, RowSense::kLessEqual, 1.0);
  // A second non-fixed variable so the model actually separates (the
  // single-component path hands the model back to the monolithic engine).
  const int x1 = m.AddBinary(1.0);
  m.AddRow({{x1, 1.0}}, RowSense::kLessEqual, 1.0);

  MipOptions options = DecomposeExact();
  options.presolve = false;  // reach the stitcher's constant-row check
  const Solution dec = SolveMip(m, options);
  EXPECT_EQ(dec.status, SolveStatus::kInfeasible);
}

TEST(DecomposedSolveTest, InfeasibleComponentMakesModelInfeasible) {
  Model m;
  const int x0 = m.AddBinary(1.0);
  const int x1 = m.AddBinary(1.0);
  m.AddRow({{x0, 1.0}}, RowSense::kGreaterEqual, 2.0);  // infeasible for a binary
  m.AddRow({{x1, 1.0}}, RowSense::kLessEqual, 1.0);

  MipOptions options = DecomposeExact();
  options.presolve = false;  // let the component sub-search prove infeasibility
  const Solution dec = SolveMip(m, options);
  EXPECT_EQ(dec.status, SolveStatus::kInfeasible);
}

// --- Relax-and-round fast lane ----------------------------------------------

// One knapsack block whose LP relaxation is fractional at every optimal
// vertex and whose naive rounding is infeasible: maximize 2a+2b subject to
// 2a+2b <= 3. LP optimum 3.0 at (1, 0.5) (or symmetric); rounding fixes both
// to 1, which violates the row, so the repair LP is infeasible and the fast
// lane must reject. The exact optimum is 2.0 (one variable at 1).
void AddRejectingKnapsack(Model& m) {
  const int a = m.AddBinary(2.0);
  const int b = m.AddBinary(2.0);
  m.AddRow({{a, 2.0}, {b, 2.0}}, RowSense::kLessEqual, 3.0);
}

TEST(RelaxAndRoundTest, RejectedCandidateFallsBackToExactBranchAndBound) {
  Model m;
  AddRejectingKnapsack(m);
  AddRejectingKnapsack(m);

  // Monolithic exact reference.
  const Solution mono = SolveMip(m, ExactOptions());
  ASSERT_EQ(mono.status, SolveStatus::kOptimal);
  EXPECT_NEAR(mono.objective, 4.0, 1e-9);

  MipOptions options = DecomposeExact();
  options.relax_round_min_integers = 1;  // force the fast lane on every component
  // Presolve probing derives the clique a + b <= 1 from 2a + 2b <= 3, which
  // makes the LP vertex integral and the fast lane accept. Disable it so the
  // rejection/fallback path stays exercised.
  options.presolve = false;
  MipStats stats;
  const Solution dec = SolveMip(m, options, &stats);
  ASSERT_EQ(dec.status, SolveStatus::kOptimal);
  EXPECT_EQ(stats.components, 2);
  // Both components attempted the fast lane, both were rejected by the
  // certifier (infeasible rounding), and the exact fallback still produced
  // the monolithic optimum.
  EXPECT_EQ(stats.relax_round_rejected, 2);
  EXPECT_EQ(stats.relax_round_accepted, 0);
  EXPECT_GT(stats.nodes_explored, 0);
  EXPECT_NEAR(dec.objective, mono.objective, 1e-9);
}

TEST(RelaxAndRoundTest, IntegralRelaxationIsAcceptedWithoutSearch) {
  // Each block's LP optimum is the integral vertex (1, 0), so the fast lane
  // accepts and no branch-and-bound node is ever explored. (The row is not
  // redundant — max activity 2 > rhs 1 — so presolve keeps it.)
  Model m;
  for (int b = 0; b < 2; ++b) {
    const int x0 = m.AddBinary(2.0);
    const int x1 = m.AddBinary(1.0);
    m.AddRow({{x0, 1.0}, {x1, 1.0}}, RowSense::kLessEqual, 1.0);
  }

  MipOptions options = DecomposeExact();
  options.relax_round_min_integers = 1;
  MipStats stats;
  const Solution dec = SolveMip(m, options, &stats);
  ASSERT_EQ(dec.status, SolveStatus::kOptimal);
  EXPECT_NEAR(dec.objective, 4.0, 1e-9);
  EXPECT_EQ(stats.relax_round_accepted, 2);
  EXPECT_EQ(stats.relax_round_rejected, 0);
  EXPECT_EQ(stats.nodes_explored, 0);
  // The fast lane's LPs count their pivots like every other LP.
  EXPECT_GT(stats.total_pivots, 0);
  EXPECT_EQ(stats.total_pivots, stats.dual_pivots + stats.primal_pivots);
}

TEST(RelaxAndRoundTest, ThresholdGatesTheFastLane) {
  // With the threshold above every component size the fast lane never runs:
  // the exact searches solve both components directly.
  Model m;
  AddRejectingKnapsack(m);
  AddRejectingKnapsack(m);

  MipOptions options = DecomposeExact();
  options.relax_round_min_integers = 64;  // components have 2 integers each
  MipStats stats;
  const Solution dec = SolveMip(m, options, &stats);
  ASSERT_EQ(dec.status, SolveStatus::kOptimal);
  EXPECT_EQ(stats.relax_round_accepted, 0);
  EXPECT_EQ(stats.relax_round_rejected, 0);
  EXPECT_NEAR(dec.objective, 4.0, 1e-9);
}

// --- Root reduced-cost fixing -----------------------------------------------

TEST(ReducedCostFixingTest, FixingPreservesTheExactObjective) {
  // Fixing is basis-dependent but must never change the certified optimum.
  for (const uint64_t seed : {3ULL, 5ULL, 7ULL, 11ULL}) {
    const Model m = testing::PlacementModel(12, 6, seed);
    MipOptions off = ExactOptions();
    MipOptions on = ExactOptions();
    on.reduced_cost_fixing = true;
    MipStats off_stats, on_stats;
    const Solution base = SolveMip(m, off, &off_stats);
    const Solution fixed = SolveMip(m, on, &on_stats);
    ASSERT_EQ(base.status, SolveStatus::kOptimal) << "seed " << seed;
    ASSERT_EQ(fixed.status, SolveStatus::kOptimal) << "seed " << seed;
    EXPECT_NEAR(fixed.objective, base.objective, 1e-6) << "seed " << seed;
    EXPECT_EQ(off_stats.reduced_cost_fixed, 0);
    EXPECT_GE(on_stats.reduced_cost_fixed, 0);
  }
}

}  // namespace
}  // namespace medea::solver
