// Tests for the root cutting-plane machinery (src/solver/cuts.h): separation
// correctness on hand-built knapsacks, a brute-force validity property (every
// generated cut is satisfied by EVERY integer-feasible point of its source
// model), the cut-pool loop, and the strong-branching pseudo-cost
// initializer. Validity is what keeps cut-and-branch sound: a single invalid
// cut silently removes the optimum.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/common/rng.h"
#include "src/solver/cuts.h"
#include "src/solver/mip.h"
#include "src/solver/model.h"
#include "src/solver/testing/placement_model.h"

namespace medea::solver::internal {
namespace {

// Enumerates every integral point of `model` (all integer variables over
// their bounds, continuous fixed at lower) and checks that each point that
// satisfies the ORIGINAL rows also satisfies every cut. Models stay small
// (<= ~16 binaries) so the 2^n sweep is instant.
void ExpectCutsValid(const Model& model, const std::vector<Cut>& cuts) {
  const int n = model.num_variables();
  std::vector<double> point(static_cast<size_t>(n), 0.0);
  std::vector<int> lo(static_cast<size_t>(n), 0), hi(static_cast<size_t>(n), 0);
  long long combos = 1;
  for (int j = 0; j < n; ++j) {
    const auto& col = model.column(j);
    if (col.type == VarType::kContinuous) {
      point[static_cast<size_t>(j)] = col.lower;
      continue;
    }
    lo[static_cast<size_t>(j)] = static_cast<int>(std::ceil(col.lower - 1e-9));
    hi[static_cast<size_t>(j)] = static_cast<int>(std::floor(col.upper + 1e-9));
    ASSERT_GE(hi[static_cast<size_t>(j)], lo[static_cast<size_t>(j)]);
    combos *= hi[static_cast<size_t>(j)] - lo[static_cast<size_t>(j)] + 1;
    ASSERT_LE(combos, 1 << 20) << "model too large to enumerate";
  }
  std::vector<int> idx(static_cast<size_t>(n), 0);
  for (long long it = 0; it < combos; ++it) {
    long long rest = it;
    for (int j = 0; j < n; ++j) {
      if (model.column(j).type == VarType::kContinuous) {
        continue;
      }
      const int span = hi[static_cast<size_t>(j)] - lo[static_cast<size_t>(j)] + 1;
      point[static_cast<size_t>(j)] = lo[static_cast<size_t>(j)] + static_cast<int>(rest % span);
      rest /= span;
    }
    if (!model.IsFeasible(point, 1e-9)) {
      continue;
    }
    for (const Cut& cut : cuts) {
      double lhs = 0.0;
      for (const auto& [var, coeff] : cut.terms) {
        lhs += coeff * point[static_cast<size_t>(var)];
      }
      EXPECT_LE(lhs, cut.rhs + 1e-9)
          << cut.family << " cut from row " << cut.source_row
          << " violated by an integer-feasible point";
    }
  }
}

TEST(CoverCutTest, SeparatesMinimalCoverFromFractionalKnapsack) {
  // 3x + 3y + 3z <= 7: any two items fit, all three do not, so {x, y, z} is
  // a (minimal) cover and x + y + z <= 2 is valid. The fractional point
  // (0.75, 0.75, 0.75) satisfies the knapsack (activity 6.75) but violates
  // the cover cut (2.25 > 2).
  Model m;
  const int x = m.AddBinary(1.0);
  const int y = m.AddBinary(1.0);
  const int z = m.AddBinary(1.0);
  m.AddRow({{x, 3.0}, {y, 3.0}, {z, 3.0}}, RowSense::kLessEqual, 7.0);

  const std::vector<Cut> cuts =
      SeparateCoverCuts(m, m.num_rows(), {0.75, 0.75, 0.75}, kMinCutViolation);
  ASSERT_EQ(cuts.size(), 1u);
  EXPECT_EQ(cuts[0].terms.size(), 3u);
  EXPECT_DOUBLE_EQ(cuts[0].rhs, 2.0);
  EXPECT_GT(cuts[0].violation, kMinCutViolation);
  ExpectCutsValid(m, cuts);
}

TEST(CoverCutTest, ExtendsCoverWithDominatingCoefficient) {
  // 5w + 3x + 3y + 3z <= 7: {x, y, z} is a cover; w's coefficient dominates
  // every cover member's, so the extended cut w + x + y + z <= 2 is valid
  // and strictly stronger.
  Model m;
  const int w = m.AddBinary(1.0);
  const int x = m.AddBinary(1.0);
  const int y = m.AddBinary(1.0);
  const int z = m.AddBinary(1.0);
  m.AddRow({{w, 5.0}, {x, 3.0}, {y, 3.0}, {z, 3.0}}, RowSense::kLessEqual, 7.0);

  const std::vector<Cut> cuts =
      SeparateCoverCuts(m, m.num_rows(), {0.0, 0.75, 0.75, 0.75}, kMinCutViolation);
  ASSERT_EQ(cuts.size(), 1u);
  EXPECT_EQ(cuts[0].terms.size(), 4u);  // extension pulled w in
  EXPECT_DOUBLE_EQ(cuts[0].rhs, 2.0);
  ExpectCutsValid(m, cuts);
}

TEST(CoverCutTest, GreaterEqualRowSeparatesThroughNegation) {
  // -3x - 3y - 3z >= -7 is the same knapsack in >= form; separation must
  // reach it through the negated view.
  Model m;
  const int x = m.AddBinary(1.0);
  const int y = m.AddBinary(1.0);
  const int z = m.AddBinary(1.0);
  m.AddRow({{x, -3.0}, {y, -3.0}, {z, -3.0}}, RowSense::kGreaterEqual, -7.0);

  const std::vector<Cut> cuts =
      SeparateCoverCuts(m, m.num_rows(), {0.75, 0.75, 0.75}, kMinCutViolation);
  ASSERT_EQ(cuts.size(), 1u);
  EXPECT_DOUBLE_EQ(cuts[0].rhs, 2.0);
  ExpectCutsValid(m, cuts);
}

TEST(CoverCutTest, IneligibleTermsTightenTheResidualKnapsack) {
  // The continuous term c in [1, 2] with coefficient 2 consumes at least 2
  // of the capacity: the binaries face 3x + 3y <= 7 - 2 = 5, a cover.
  Model m;
  const int x = m.AddBinary(1.0);
  const int y = m.AddBinary(1.0);
  const int c = m.AddContinuous(1.0, 2.0, 0.0);
  m.AddRow({{x, 3.0}, {y, 3.0}, {c, 2.0}}, RowSense::kLessEqual, 7.0);

  const std::vector<Cut> cuts = SeparateCoverCuts(m, m.num_rows(), {0.9, 0.9, 1.0}, kMinCutViolation);
  ASSERT_EQ(cuts.size(), 1u);
  EXPECT_DOUBLE_EQ(cuts[0].rhs, 1.0);  // x + y <= 1
  ExpectCutsValid(m, cuts);
}

TEST(CliqueCutTest, PairwiseConflictingPrefixYieldsCliqueCut) {
  // 4x + 4y + 4z + w <= 7: any two of {x, y, z} overflow, so at most one
  // can be 1.
  Model m;
  const int x = m.AddBinary(1.0);
  const int y = m.AddBinary(1.0);
  const int z = m.AddBinary(1.0);
  const int w = m.AddBinary(1.0);
  m.AddRow({{x, 4.0}, {y, 4.0}, {z, 4.0}, {w, 1.0}}, RowSense::kLessEqual, 7.0);

  const std::vector<Cut> cuts =
      SeparateCliqueCuts(m, m.num_rows(), {0.5, 0.5, 0.5, 0.0}, kMinCutViolation);
  ASSERT_EQ(cuts.size(), 1u);
  EXPECT_EQ(cuts[0].terms.size(), 3u);
  EXPECT_DOUBLE_EQ(cuts[0].rhs, 1.0);
  ExpectCutsValid(m, cuts);
}

TEST(CliqueCutTest, NoCutWhenTwoLargestFit) {
  // 3x + 3y + 3z <= 7: two items fit together, so no clique exists (the
  // cover cut handles this shape instead).
  Model m;
  const int x = m.AddBinary(1.0);
  const int y = m.AddBinary(1.0);
  const int z = m.AddBinary(1.0);
  m.AddRow({{x, 3.0}, {y, 3.0}, {z, 3.0}}, RowSense::kLessEqual, 7.0);

  EXPECT_TRUE(SeparateCliqueCuts(m, m.num_rows(), {0.75, 0.75, 0.75}, kMinCutViolation).empty());
}

TEST(CliqueCutTest, SatisfiedCutIsNotSeparated) {
  Model m;
  const int x = m.AddBinary(1.0);
  const int y = m.AddBinary(1.0);
  m.AddRow({{x, 4.0}, {y, 4.0}}, RowSense::kLessEqual, 7.0);

  // x + y = 0.9 <= 1: the clique inequality holds at this point.
  EXPECT_TRUE(SeparateCliqueCuts(m, m.num_rows(), {0.45, 0.45}, kMinCutViolation).empty());
}

// Randomized validity sweep: on random small knapsack models, every cut both
// separators produce at a random fractional point is satisfied by every
// integer-feasible solution (brute-force enumeration).
TEST(CutValidityTest, RandomKnapsacksAllCutsValid) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed * 2654435761ULL + 7);
    Model m;
    const int n = static_cast<int>(rng.NextInt(3, 10));
    for (int j = 0; j < n; ++j) {
      m.AddBinary(rng.NextDouble(0.5, 1.5));
    }
    const int rows = static_cast<int>(rng.NextInt(1, 4));
    for (int r = 0; r < rows; ++r) {
      std::vector<std::pair<int, double>> terms;
      for (int j = 0; j < n; ++j) {
        if (rng.NextBool(0.8)) {
          terms.emplace_back(j, rng.NextDouble(1.0, 5.0));
        }
      }
      if (terms.empty()) {
        continue;
      }
      const RowSense sense = rng.NextBool(0.3) ? RowSense::kGreaterEqual : RowSense::kLessEqual;
      const double rhs = rng.NextDouble(2.0, 8.0);
      m.AddRow(terms, sense, sense == RowSense::kGreaterEqual ? -rhs : rhs);
    }
    std::vector<double> x(static_cast<size_t>(n));
    for (int j = 0; j < n; ++j) {
      x[static_cast<size_t>(j)] = rng.NextDouble(0.0, 1.0);
    }
    const double min_violation = 1e-6;
    std::vector<Cut> cuts = SeparateCoverCuts(m, m.num_rows(), x, min_violation);
    const std::vector<Cut> cliques = SeparateCliqueCuts(m, m.num_rows(), x, min_violation);
    cuts.insert(cuts.end(), cliques.begin(), cliques.end());
    ExpectCutsValid(m, cuts);
  }
}

// The cut-pool loop preserves the MIP optimum: cuts-on and cuts-off solves
// of placement models agree on status and objective. The default 1% pruning
// gap is zeroed because the two searches explore different trees, and
// "optimal within gap" may land on different incumbents.
TEST(AddRootCutsTest, PreservesOptimumOnPlacementModels) {
  int total_generated = 0;
  for (const uint64_t seed : {3ULL, 5ULL, 7ULL}) {
    const Model m = testing::PlacementModel(10, 5, seed);

    MipOptions with_cuts;
    with_cuts.relative_gap = 0.0;
    with_cuts.absolute_gap = 1e-9;
    MipOptions without_cuts = with_cuts;
    without_cuts.cuts.enable = false;
    MipStats stats_on, stats_off;
    const Solution on = SolveMip(m, with_cuts, &stats_on);
    const Solution off = SolveMip(m, without_cuts, &stats_off);
    ASSERT_EQ(on.status, SolveStatus::kOptimal) << "seed " << seed;
    ASSERT_EQ(off.status, SolveStatus::kOptimal) << "seed " << seed;
    EXPECT_NEAR(on.objective, off.objective, 1e-6) << "seed " << seed;
    EXPECT_LE(stats_on.cuts_active, stats_on.cuts_generated);
    total_generated += stats_on.cuts_generated;
  }
  // Not every seed separates a cut, but the family must fire somewhere.
  EXPECT_GT(total_generated, 0);
}

// Warm (incremental) and cold (dense) node-LP configurations must receive
// bit-identical cut sets — AddRootCuts runs its own engine either way — so
// the perturbation-pinned trees stay identical.
TEST(AddRootCutsTest, CutSetIndependentOfNodeLpEngine) {
  const Model m = testing::PlacementModel(12, 6, 11);
  MipOptions warm;
  warm.use_incremental_lp = true;
  MipOptions cold = warm;
  cold.use_incremental_lp = false;
  MipStats warm_stats, cold_stats;
  const Solution a = SolveMip(m, warm, &warm_stats);
  const Solution b = SolveMip(m, cold, &cold_stats);
  ASSERT_EQ(a.status, SolveStatus::kOptimal);
  ASSERT_EQ(b.status, SolveStatus::kOptimal);
  EXPECT_NEAR(a.objective, b.objective, 1e-9);
  EXPECT_EQ(warm_stats.cuts_generated, cold_stats.cuts_generated);
  EXPECT_EQ(warm_stats.cuts_active, cold_stats.cuts_active);
  EXPECT_EQ(warm_stats.cut_rounds, cold_stats.cut_rounds);
  EXPECT_EQ(warm_stats.nodes_explored, cold_stats.nodes_explored);
}

TEST(AddRootCutsTest, DisabledLeavesModelUntouched) {
  Model m = testing::PlacementModel(10, 5, 3);
  const int rows_before = m.num_rows();
  MipOptions options;
  options.cuts.enable = false;
  MipStats stats;
  AddRootCuts(m, options, &stats, SearchBudget(options));
  EXPECT_EQ(m.num_rows(), rows_before);
  EXPECT_EQ(stats.cuts_generated, 0);
  EXPECT_EQ(stats.lp_solves, 0);
}

TEST(AddRootCutsTest, CountsDualPivotsFromTheCutLoop) {
  Model m = testing::PlacementModel(12, 6, 5);
  MipOptions options;
  MipStats stats;
  AddRootCuts(m, options, &stats, SearchBudget(options));
  ASSERT_GT(stats.cuts_generated, 0);
  // Each accepted cut is repaired by the dual simplex on the extended basis:
  // the loop must be exercising the dual warm-restart path, not cold primal
  // re-solves.
  EXPECT_GT(stats.dual_pivots, 0);
  EXPECT_EQ(stats.cut_pivots, stats.total_pivots);
  EXPECT_EQ(stats.total_pivots, stats.dual_pivots + stats.primal_pivots);
}

// A search whose deadline has passed spends nothing more at the root: the
// cut loop adds no round and strong branching records no observation.
TEST(AddRootCutsTest, ExpiredSearchBudgetStopsTheRootWork) {
  Model m = testing::PlacementModel(12, 6, 5);
  const int rows_before = m.num_rows();
  MipOptions options;
  options.time_limit_seconds = 1e-9;
  const SearchBudget budget(options);
  while (!budget.TimeUp()) {
  }
  MipStats cut_stats;
  AddRootCuts(m, options, &cut_stats, budget);
  EXPECT_EQ(cut_stats.lp_solves, 0);
  EXPECT_EQ(m.num_rows(), rows_before);

  PseudoCosts pc;
  MipStats sb_stats;
  InitPseudoCostsAtRoot(m, options, &pc, &sb_stats, budget);
  EXPECT_LE(sb_stats.strong_branch_solves, 1);  // at most the time-limited root LP
  for (int j = 0; j < m.num_variables(); ++j) {
    EXPECT_EQ(pc.down_count[static_cast<size_t>(j)], 0);
    EXPECT_EQ(pc.up_count[static_cast<size_t>(j)], 0);
  }
}

TEST(PseudoCostTest, StrongBranchInitObservesBothDirections) {
  const Model m = testing::PlacementModel(10, 5, 7);
  MipOptions options;  // branching defaults to kPseudoCost
  PseudoCosts pc;
  MipStats stats;
  InitPseudoCostsAtRoot(m, options, &pc, &stats, SearchBudget(options));
  ASSERT_FALSE(pc.empty());
  EXPECT_GT(stats.strong_branch_solves, 0);
  EXPECT_EQ(stats.lp_solves, stats.strong_branch_solves);
  // Every strong-branched candidate contributes a down and an up
  // observation (kOptimal or kInfeasible children both count).
  int observed = 0;
  for (int j = 0; j < m.num_variables(); ++j) {
    if (pc.down_count[static_cast<size_t>(j)] > 0 ||
        pc.up_count[static_cast<size_t>(j)] > 0) {
      ++observed;
      EXPECT_GE(pc.Average(j, false), 0.0);
      EXPECT_GE(pc.Average(j, true), 0.0);
    }
  }
  EXPECT_GT(observed, 0);
  EXPECT_LE(observed, kStrongBranchCandidates);
}

TEST(PseudoCostTest, MostFractionalRuleSkipsInitialization) {
  const Model m = testing::PlacementModel(10, 5, 7);
  MipOptions options;
  options.branching = BranchingRule::kMostFractional;
  PseudoCosts pc;
  MipStats stats;
  InitPseudoCostsAtRoot(m, options, &pc, &stats, SearchBudget(options));
  EXPECT_EQ(stats.strong_branch_solves, 0);
  for (int j = 0; j < m.num_variables(); ++j) {
    EXPECT_EQ(pc.down_count[static_cast<size_t>(j)], 0);
    EXPECT_EQ(pc.up_count[static_cast<size_t>(j)], 0);
  }
}

TEST(PseudoCostTest, BothBranchingRulesReachTheSameOptimum) {
  for (const uint64_t seed : {3ULL, 7ULL, 13ULL}) {
    const Model m = testing::PlacementModel(12, 6, seed);
    MipOptions pseudo;
    pseudo.branching = BranchingRule::kPseudoCost;
    MipOptions frac;
    frac.branching = BranchingRule::kMostFractional;
    const Solution a = SolveMip(m, pseudo);
    const Solution b = SolveMip(m, frac);
    ASSERT_EQ(a.status, SolveStatus::kOptimal) << "seed " << seed;
    ASSERT_EQ(b.status, SolveStatus::kOptimal) << "seed " << seed;
    EXPECT_NEAR(a.objective, b.objective, 1e-6) << "seed " << seed;
  }
}

TEST(PseudoCostTest, UpdateAndAverageCascade) {
  PseudoCosts pc;
  pc.Resize(3);
  EXPECT_DOUBLE_EQ(pc.Average(0, false), 1.0);  // no data anywhere: unit
  pc.Update(1, /*up=*/false, 4.0);
  EXPECT_DOUBLE_EQ(pc.Average(1, false), 4.0);  // own observation wins
  // Var 0 has no down observations: falls back to the global down average.
  EXPECT_DOUBLE_EQ(pc.Average(0, false), 4.0);
  pc.Update(1, /*up=*/false, 2.0);
  EXPECT_DOUBLE_EQ(pc.Average(1, false), 3.0);
  // Negative gains (dual bound cannot improve downward) clamp to zero.
  pc.Update(2, /*up=*/true, -5.0);
  EXPECT_DOUBLE_EQ(pc.Average(2, true), 0.0);
}

}  // namespace
}  // namespace medea::solver::internal
