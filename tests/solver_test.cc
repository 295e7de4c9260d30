// Tests for the from-scratch LP/MIP solver: textbook LPs, bound handling,
// infeasibility/unboundedness detection, knapsack/assignment MIPs, and
// randomized property tests cross-checked against brute force.

#include <gtest/gtest.h>

#include <cmath>

#include "src/common/rng.h"
#include "src/obs/metrics.h"
#include "src/solver/mip.h"
#include "src/solver/model.h"
#include "src/solver/simplex.h"
#include "src/solver/testing/placement_model.h"

namespace medea::solver {
namespace {

TEST(LpTest, TextbookTwoVariable) {
  // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0 -> (4,0), obj 12.
  Model m;
  const int x = m.AddContinuous(0, kInfinity, 3, "x");
  const int y = m.AddContinuous(0, kInfinity, 2, "y");
  m.AddRow({{x, 1}, {y, 1}}, RowSense::kLessEqual, 4);
  m.AddRow({{x, 1}, {y, 3}}, RowSense::kLessEqual, 6);
  const Solution s = SolveLp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 12.0, 1e-6);
  EXPECT_NEAR(s.values[static_cast<size_t>(x)], 4.0, 1e-6);
  EXPECT_NEAR(s.values[static_cast<size_t>(y)], 0.0, 1e-6);
}

TEST(LpTest, MinimizationWithGreaterEqual) {
  // min 2x + 3y s.t. x + y >= 10, x <= 6 -> x=6, y=4, obj 24.
  Model m;
  m.SetMaximize(false);
  const int x = m.AddContinuous(0, 6, 2, "x");
  const int y = m.AddContinuous(0, kInfinity, 3, "y");
  m.AddRow({{x, 1}, {y, 1}}, RowSense::kGreaterEqual, 10);
  const Solution s = SolveLp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 24.0, 1e-6);
  EXPECT_NEAR(s.values[static_cast<size_t>(x)], 6.0, 1e-6);
  EXPECT_NEAR(s.values[static_cast<size_t>(y)], 4.0, 1e-6);
}

TEST(LpTest, EqualityRow) {
  // max x + y s.t. x + y = 5, x <= 2 -> obj 5.
  Model m;
  const int x = m.AddContinuous(0, 2, 1, "x");
  const int y = m.AddContinuous(0, kInfinity, 1, "y");
  m.AddRow({{x, 1}, {y, 1}}, RowSense::kEqual, 5);
  const Solution s = SolveLp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 5.0, 1e-6);
  EXPECT_NEAR(s.values[0] + s.values[1], 5.0, 1e-6);
}

TEST(LpTest, InfeasibleDetected) {
  Model m;
  const int x = m.AddContinuous(0, 1, 1, "x");
  m.AddRow({{x, 1}}, RowSense::kGreaterEqual, 2);
  EXPECT_EQ(SolveLp(m).status, SolveStatus::kInfeasible);
}

TEST(LpTest, InfeasibleContradictoryRows) {
  Model m;
  const int x = m.AddContinuous(0, kInfinity, 1, "x");
  const int y = m.AddContinuous(0, kInfinity, 1, "y");
  m.AddRow({{x, 1}, {y, 1}}, RowSense::kLessEqual, 1);
  m.AddRow({{x, 1}, {y, 1}}, RowSense::kGreaterEqual, 3);
  EXPECT_EQ(SolveLp(m).status, SolveStatus::kInfeasible);
}

TEST(LpTest, UnboundedDetected) {
  Model m;
  const int x = m.AddContinuous(0, kInfinity, 1, "x");
  const int y = m.AddContinuous(0, kInfinity, 0, "y");
  m.AddRow({{x, 1}, {y, -1}}, RowSense::kLessEqual, 1);
  EXPECT_EQ(SolveLp(m).status, SolveStatus::kUnbounded);
}

TEST(LpTest, NoRowsUsesBounds) {
  Model m;
  const int x = m.AddContinuous(1, 3, 2, "x");
  const int y = m.AddContinuous(-2, 5, -1, "y");
  const Solution s = SolveLp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.values[static_cast<size_t>(x)], 3.0, 1e-9);
  EXPECT_NEAR(s.values[static_cast<size_t>(y)], -2.0, 1e-9);
}

TEST(LpTest, NegativeLowerBounds) {
  // max x s.t. x + y <= 0, y >= -3 -> x = 3.
  Model m;
  const int x = m.AddContinuous(0, kInfinity, 1, "x");
  const int y = m.AddContinuous(-3, kInfinity, 0, "y");
  m.AddRow({{x, 1}, {y, 1}}, RowSense::kLessEqual, 0);
  const Solution s = SolveLp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 3.0, 1e-6);
}

TEST(LpTest, BoundFlipPath) {
  // Optimum forces a variable to its upper bound without pivoting.
  Model m;
  const int x = m.AddContinuous(0, 2, 5, "x");
  const int y = m.AddContinuous(0, 2, 1, "y");
  m.AddRow({{x, 1}, {y, 1}}, RowSense::kLessEqual, 10);  // slack basis stays
  const Solution s = SolveLp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 12.0, 1e-6);
}

TEST(LpTest, DegenerateProblemTerminates) {
  // Many redundant rows through the same vertex.
  Model m;
  const int x = m.AddContinuous(0, kInfinity, 1, "x");
  const int y = m.AddContinuous(0, kInfinity, 1, "y");
  for (int i = 0; i < 20; ++i) {
    m.AddRow({{x, 1.0 + i * 1e-9}, {y, 1.0}}, RowSense::kLessEqual, 1.0);
  }
  const Solution s = SolveLp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 1.0, 1e-5);
}

TEST(MipTest, SimpleKnapsack) {
  // max 10a + 6b + 4c s.t. a+b+c <= 2 (binary) -> 16.
  Model m;
  m.AddBinary(10, "a");
  m.AddBinary(6, "b");
  m.AddBinary(4, "c");
  m.AddRow({{0, 1}, {1, 1}, {2, 1}}, RowSense::kLessEqual, 2);
  const Solution s = SolveMip(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 16.0, 1e-6);
  EXPECT_NEAR(s.values[0], 1.0, 1e-6);
  EXPECT_NEAR(s.values[1], 1.0, 1e-6);
  EXPECT_NEAR(s.values[2], 0.0, 1e-6);
}

TEST(MipTest, WeightedKnapsackNeedsBranching) {
  // Classic: LP relaxation is fractional. max 60x1+100x2+120x3,
  // 10x1+20x2+30x3 <= 50, binary -> 220 (x2=x3=1).
  Model m;
  m.AddBinary(60);
  m.AddBinary(100);
  m.AddBinary(120);
  m.AddRow({{0, 10}, {1, 20}, {2, 30}}, RowSense::kLessEqual, 50);
  const Solution s = SolveMip(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 220.0, 1e-6);
}

TEST(MipTest, GeneralIntegerVariable) {
  // max 7x + 2y s.t. 3x + y <= 10, x,y integer >= 0 -> x=3, y=1 -> 23.
  Model m;
  const int x = m.AddVariable(0, kInfinity, 7, VarType::kInteger, "x");
  const int y = m.AddVariable(0, kInfinity, 2, VarType::kInteger, "y");
  m.AddRow({{x, 3}, {y, 1}}, RowSense::kLessEqual, 10);
  const Solution s = SolveMip(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 23.0, 1e-6);
}

TEST(MipTest, InfeasibleIntegerProblem) {
  // 0.4 <= x <= 0.6, x binary -> infeasible.
  Model m;
  const int x = m.AddBinary(1);
  m.AddRow({{x, 1}}, RowSense::kGreaterEqual, 0.4);
  m.AddRow({{x, 1}}, RowSense::kLessEqual, 0.6);
  EXPECT_EQ(SolveMip(m).status, SolveStatus::kInfeasible);
}

TEST(MipTest, AssignmentProblemIsIntegral) {
  // 3x3 assignment: every agent to exactly one task. Costs chosen so the
  // optimum is the diagonal.
  Model m;
  m.SetMaximize(false);
  const double cost[3][3] = {{1, 5, 5}, {5, 1, 5}, {5, 5, 1}};
  int v[3][3];
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      v[i][j] = m.AddBinary(cost[i][j]);
    }
  }
  for (int i = 0; i < 3; ++i) {
    m.AddRow({{v[i][0], 1}, {v[i][1], 1}, {v[i][2], 1}}, RowSense::kEqual, 1);
    m.AddRow({{v[0][i], 1}, {v[1][i], 1}, {v[2][i], 1}}, RowSense::kEqual, 1);
  }
  const Solution s = SolveMip(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 3.0, 1e-6);
}

TEST(MipTest, StatsPopulated) {
  Model m;
  m.AddBinary(60);
  m.AddBinary(100);
  m.AddBinary(120);
  m.AddRow({{0, 10}, {1, 20}, {2, 30}}, RowSense::kLessEqual, 50);
  MipStats stats;
  const Solution s = SolveMip(m, MipOptions(), &stats);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_GE(stats.nodes_explored, 1);
  EXPECT_GE(stats.lp_solves, stats.nodes_explored);
}

TEST(MipTest, TimeLimitReturnsIncumbent) {
  // A larger knapsack with a tiny budget still yields a feasible solution.
  Model m;
  Rng rng(5);
  std::vector<std::pair<int, double>> terms;
  for (int i = 0; i < 40; ++i) {
    const int v = m.AddBinary(rng.NextDouble(1, 100));
    terms.emplace_back(v, rng.NextDouble(1, 50));
  }
  m.AddRow(terms, RowSense::kLessEqual, 200);
  MipOptions opts;
  opts.time_limit_seconds = 0.05;
  const Solution s = SolveMip(m, opts);
  EXPECT_TRUE(s.HasSolution());
  EXPECT_TRUE(m.IsFeasible(s.values, 1e-6));
}

TEST(MipTest, NodeLimitStopsSearchWithoutClaimingOptimality) {
  const Model m = testing::PlacementModel(16, 8, 11);
  MipOptions options;
  options.time_limit_seconds = 0.0;
  options.relative_gap = 0.0;
  options.absolute_gap = 1e-9;
  // Root cuts shrink this search to a couple of nodes; disable them so the
  // tree is deep enough to run into the 8-node budget.
  options.cuts.enable = false;
  options.max_nodes = 8;
  MipStats stats;
  const Solution solution = SolveMip(m, options, &stats);
  EXPECT_TRUE(stats.hit_node_limit);
  EXPECT_FALSE(stats.hit_time_limit);
  EXPECT_EQ(stats.nodes_explored, 8);
  // An interrupted search never claims optimality.
  EXPECT_NE(solution.status, SolveStatus::kOptimal);
}

TEST(MipTest, TelemetryReportsTimeLimitHitsAndFinalGap) {
  obs::EnableMetrics(true);
  obs::MetricsRegistry::Default().Reset();
  const auto& hits = obs::MetricsRegistry::Default().CounterNamed("solver.time_limit_hits");
  auto& gaps = obs::MetricsRegistry::Default().HistogramNamed("solver.final_gap");
  const Model m = testing::PlacementModel(6, 10, 7);

  // An expired budget: one hit, and a gap sample only if the search still
  // ended with both an incumbent and a bound.
  MipOptions limited;
  limited.time_limit_seconds = 1e-6;
  limited.presolve = false;
  MipStats limited_stats;
  const Solution cut_short = SolveMip(m, limited, &limited_stats);
  ASSERT_TRUE(limited_stats.hit_time_limit);
  EXPECT_EQ(hits.value(), 1);
  const auto after_limited = gaps.TakeSnapshot();
  EXPECT_EQ(after_limited.count,
            cut_short.HasSolution() && limited_stats.has_best_bound ? 1u : 0u);

  // A complete solve adds no hit, and its gap is within the search's
  // relative-gap tolerance.
  MipOptions unlimited;
  unlimited.time_limit_seconds = 0.0;
  const Solution solved = SolveMip(m, unlimited);
  ASSERT_EQ(solved.status, SolveStatus::kOptimal);
  EXPECT_EQ(hits.value(), 1);
  const auto after_complete = gaps.TakeSnapshot();
  ASSERT_EQ(after_complete.count, after_limited.count + 1);
  EXPECT_LE(after_complete.sum_ms - after_limited.sum_ms, unlimited.relative_gap + 1e-9);
  obs::EnableMetrics(false);
}

TEST(ModelTest, RowTermMerging) {
  Model m;
  const int x = m.AddContinuous(0, 1, 1, "x");
  const int r = m.AddRow({{x, 1}, {x, 2}, {x, -3}}, RowSense::kLessEqual, 5);
  EXPECT_TRUE(m.row(r).terms.empty());  // coefficients cancel
}

TEST(ModelTest, FeasibilityChecker) {
  Model m;
  const int x = m.AddBinary(1, "x");
  m.AddRow({{x, 1}}, RowSense::kLessEqual, 0.5);
  std::string why;
  EXPECT_TRUE(m.IsFeasible({0.0}, 1e-9));
  EXPECT_FALSE(m.IsFeasible({1.0}, 1e-9, &why));
  EXPECT_FALSE(m.IsFeasible({0.5}, 1e-9, &why));  // not integral
  EXPECT_FALSE(m.IsFeasible({-1.0}, 1e-9, &why));
}

// ---- Property tests ---------------------------------------------------------

// Random small binary MIPs cross-checked against exhaustive enumeration.
class RandomMipProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomMipProperty, MatchesBruteForce) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  const int n = static_cast<int>(rng.NextInt(3, 10));
  const int rows = static_cast<int>(rng.NextInt(1, 6));
  Model m;
  std::vector<double> obj(static_cast<size_t>(n));
  for (int j = 0; j < n; ++j) {
    obj[static_cast<size_t>(j)] = rng.NextDouble(-10, 10);
    m.AddBinary(obj[static_cast<size_t>(j)]);
  }
  struct RawRow {
    std::vector<double> coeffs;
    RowSense sense;
    double rhs;
  };
  std::vector<RawRow> raw;
  for (int r = 0; r < rows; ++r) {
    RawRow row;
    std::vector<std::pair<int, double>> terms;
    for (int j = 0; j < n; ++j) {
      const double c = rng.NextBool(0.7) ? rng.NextDouble(-5, 5) : 0.0;
      row.coeffs.push_back(c);
      if (c != 0.0) {
        terms.emplace_back(j, c);
      }
    }
    const int sense_pick = static_cast<int>(rng.NextInt(0, 2));
    row.sense = sense_pick == 0   ? RowSense::kLessEqual
                : sense_pick == 1 ? RowSense::kGreaterEqual
                                  : RowSense::kEqual;
    // Make equality rows achievable by pinning them to a random point.
    if (row.sense == RowSense::kEqual) {
      double lhs = 0.0;
      for (int j = 0; j < n; ++j) {
        lhs += row.coeffs[static_cast<size_t>(j)] * (rng.NextBool(0.5) ? 1.0 : 0.0);
      }
      row.rhs = lhs;
    } else {
      row.rhs = rng.NextDouble(-6, 8);
    }
    raw.push_back(row);
    m.AddRow(terms, row.sense, row.rhs);
  }

  // Brute force over all 2^n assignments.
  bool any_feasible = false;
  double best = -1e300;
  for (int mask = 0; mask < (1 << n); ++mask) {
    bool ok = true;
    for (const RawRow& row : raw) {
      double lhs = 0.0;
      for (int j = 0; j < n; ++j) {
        if ((mask >> j) & 1) {
          lhs += row.coeffs[static_cast<size_t>(j)];
        }
      }
      const bool sat = row.sense == RowSense::kLessEqual      ? lhs <= row.rhs + 1e-9
                       : row.sense == RowSense::kGreaterEqual ? lhs >= row.rhs - 1e-9
                                                              : std::fabs(lhs - row.rhs) <= 1e-9;
      if (!sat) {
        ok = false;
        break;
      }
    }
    if (!ok) {
      continue;
    }
    any_feasible = true;
    double value = 0.0;
    for (int j = 0; j < n; ++j) {
      if ((mask >> j) & 1) {
        value += obj[static_cast<size_t>(j)];
      }
    }
    best = std::max(best, value);
  }

  const Solution s = SolveMip(m);
  if (!any_feasible) {
    EXPECT_EQ(s.status, SolveStatus::kInfeasible);
  } else {
    ASSERT_EQ(s.status, SolveStatus::kOptimal) << "case " << GetParam();
    EXPECT_NEAR(s.objective, best, 1e-5) << "case " << GetParam();
    EXPECT_TRUE(m.IsFeasible(s.values, 1e-6));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomMipProperty, ::testing::Range(0, 40));

// Random LPs: verify the simplex solution is feasible and at least as good
// as a sample of random feasible points (local optimality evidence).
class RandomLpProperty : public ::testing::TestWithParam<int> {};

TEST_P(RandomLpProperty, FeasibleAndDominatesRandomPoints) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 104729 + 7);
  const int n = static_cast<int>(rng.NextInt(2, 8));
  const int rows = static_cast<int>(rng.NextInt(1, 5));
  Model m;
  for (int j = 0; j < n; ++j) {
    m.AddContinuous(0, rng.NextDouble(0.5, 5.0), rng.NextDouble(-5, 5));
  }
  for (int r = 0; r < rows; ++r) {
    std::vector<std::pair<int, double>> terms;
    for (int j = 0; j < n; ++j) {
      if (rng.NextBool(0.8)) {
        terms.emplace_back(j, rng.NextDouble(0.1, 3.0));  // positive -> feasible at 0
      }
    }
    m.AddRow(terms, RowSense::kLessEqual, rng.NextDouble(1, 10));
  }
  const Solution s = SolveLp(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_TRUE(m.IsFeasible(s.values, 1e-6));
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> x(static_cast<size_t>(n));
    for (int j = 0; j < n; ++j) {
      x[static_cast<size_t>(j)] = rng.NextDouble(0, m.column(j).upper);
    }
    if (m.IsFeasible(x, 1e-9)) {
      EXPECT_LE(m.Objective(x), s.objective + 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomLpProperty, ::testing::Range(0, 25));

}  // namespace
}  // namespace medea::solver
