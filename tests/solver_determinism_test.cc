// Copyright (c) Medea reproduction authors.
// Regression test for basis-independent branch and bound: on the exact
// size/seed grid of the solver micro-benchmark (BENCH_solver_micro.json),
// the cold (dense per-node) and warm-started (incremental dual simplex)
// configurations must agree on status and objective AND explore the same
// number of branch-and-bound nodes. Before the deterministic branching
// perturbation (MipOptions::branching_perturbation) the two solvers would
// land on different vertices of the degenerate node LPs' optimal faces,
// branch differently, and explore trees of wildly different size (the
// historical 12x6 seeds 3/11 explosion: warm 275/435 nodes vs cold 13/89).

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "src/solver/mip.h"
#include "src/solver/testing/placement_model.h"

namespace medea::solver {
namespace {

MipOptions ExactOptions(bool incremental) {
  MipOptions options;
  options.time_limit_seconds = 0.0;  // run to completion
  options.relative_gap = 0.0;
  options.absolute_gap = 1e-9;
  options.use_incremental_lp = incremental;
  return options;
}

TEST(SolverDeterminismTest, WarmAndColdExploreIdenticalTrees) {
  for (const auto& [containers, nodes] : testing::MicroBenchSizes()) {
    for (const uint64_t seed : testing::MicroBenchSeeds()) {
      const Model m = testing::PlacementModel(containers, nodes, seed);
      const std::string label = std::to_string(containers) + "x" +
                                std::to_string(nodes) + " seed " +
                                std::to_string(seed);

      MipStats cold_stats, warm_stats;
      const Solution cold = SolveMip(m, ExactOptions(false), &cold_stats);
      const Solution warm = SolveMip(m, ExactOptions(true), &warm_stats);

      EXPECT_EQ(cold.status, warm.status) << label;
      ASSERT_EQ(cold.status, SolveStatus::kOptimal) << label;
      EXPECT_NEAR(cold.objective, warm.objective, 1e-6) << label;
      // The load-bearing assertion: identical branching decisions in both
      // modes, hence identical trees. Without the perturbation this diverges
      // by an order of magnitude on the degenerate seeds.
      EXPECT_EQ(cold_stats.nodes_explored, warm_stats.nodes_explored) << label;
      EXPECT_FALSE(cold_stats.hit_time_limit) << label;
      EXPECT_FALSE(warm_stats.hit_time_limit) << label;
    }
  }
}

TEST(SolverDeterminismTest, PerturbationOffStillSolvesCorrectly) {
  // Sanity: disabling the perturbation must not change reported optima (only
  // tree shapes), so the slack-adjusted pruning bound is not cutting off the
  // true optimum.
  for (const uint64_t seed : testing::MicroBenchSeeds()) {
    const Model m = testing::PlacementModel(12, 6, seed);
    MipOptions plain = ExactOptions(true);
    plain.branching_perturbation = 0.0;
    const Solution unperturbed = SolveMip(m, plain);
    const Solution perturbed = SolveMip(m, ExactOptions(true));
    ASSERT_EQ(unperturbed.status, SolveStatus::kOptimal) << seed;
    ASSERT_EQ(perturbed.status, SolveStatus::kOptimal) << seed;
    EXPECT_NEAR(unperturbed.objective, perturbed.objective, 1e-6) << seed;
  }
}

}  // namespace
}  // namespace medea::solver
