// Microbenchmarks for the in-repo LP/MIP solver (the CPLEX substitute):
// LP relaxation solve time and full branch-and-bound time on synthetic
// placement-shaped models (X-assignment binaries + capacity rows), across
// model sizes. Establishes the per-cycle solver budget the scheduler
// latency figures (11a/11b) build on.
//
// Before the Google Benchmark loops, a cold-vs-warm comparison harness runs
// branch and bound over every model size twice — once per dense cold LP
// solve per node, once with the warm-started incremental solver — verifies
// the objectives agree, and writes the per-model wall time / node / LP /
// pivot counters to BENCH_solver_micro.json (in the working directory).
// The file's "env" record names the build type, compiler, hardware thread
// count and git revision that produced it.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/solver/incremental_lp.h"
#include "src/solver/mip.h"
#include "src/solver/testing/placement_model.h"

namespace medea::solver {
namespace {

using testing::DecomposablePlacementModel;
using testing::PlacementModel;

void BM_LpRelaxation(::benchmark::State& state) {
  const Model m =
      PlacementModel(static_cast<int>(state.range(0)), static_cast<int>(state.range(1)), 7);
  for (auto _ : state) {
    const Solution s = SolveLp(m);
    ::benchmark::DoNotOptimize(s.objective);
    state.counters["status_ok"] = s.status == SolveStatus::kOptimal ? 1 : 0;
  }
  state.counters["vars"] = m.num_variables();
  state.counters["rows"] = m.num_rows();
}

void BM_BranchAndBound(::benchmark::State& state) {
  const Model m =
      PlacementModel(static_cast<int>(state.range(0)), static_cast<int>(state.range(1)), 7);
  MipOptions options;
  options.time_limit_seconds = 5.0;
  options.use_incremental_lp = state.range(2) != 0;
  for (auto _ : state) {
    MipStats stats;
    const Solution s = SolveMip(m, options, &stats);
    ::benchmark::DoNotOptimize(s.objective);
    state.counters["bnb_nodes"] = stats.nodes_explored;
    state.counters["pivots"] = static_cast<double>(stats.total_pivots);
    state.counters["warm_hits"] = stats.warm_start_hits;
  }
}

BENCHMARK(BM_LpRelaxation)
    ->Args({8, 4})
    ->Args({16, 8})
    ->Args({26, 13})
    ->Args({40, 20})
    ->Unit(::benchmark::kMillisecond);
BENCHMARK(BM_BranchAndBound)
    ->Args({8, 4, 0})
    ->Args({8, 4, 1})
    ->Args({12, 6, 0})
    ->Args({12, 6, 1})
    ->Args({16, 8, 0})
    ->Args({16, 8, 1})
    ->Unit(::benchmark::kMillisecond);

// ---- Cold-vs-warm comparison + BENCH_solver_micro.json ---------------------

struct RunResult {
  double wall_seconds = 0.0;
  MipStats stats;
  Solution solution;
};

RunResult RunOnce(const Model& m, bool incremental, bool decompose = false) {
  MipOptions options;
  options.time_limit_seconds = 0.0;  // run each search to completion
  options.relative_gap = 0.0;
  options.absolute_gap = 1e-9;
  options.use_incremental_lp = incremental;
  options.decompose = decompose;
  RunResult r;
  const auto start = std::chrono::steady_clock::now();
  r.solution = SolveMip(m, options, &r.stats);
  r.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return r;
}

void EmitRun(bench::JsonRecords& out, const std::string& label, uint64_t seed,
             const Model& m, const char* mode, const RunResult& r) {
  out.Begin()
      .Field("kind", "run")
      .Field("model", label)
      .Field("seed", static_cast<long long>(seed))
      .Field("mode", mode)
      .Field("vars", m.num_variables())
      .Field("rows", m.num_rows())
      .Field("status", SolveStatusName(r.solution.status))
      .Field("objective", r.solution.objective)
      .Field("wall_seconds", r.wall_seconds)
      .Field("nodes_explored", r.stats.nodes_explored)
      .Field("lp_solves", r.stats.lp_solves)
      .Field("lp_time_seconds", r.stats.lp_time_seconds)
      .Field("total_pivots", r.stats.total_pivots)
      .Field("dual_pivots", r.stats.dual_pivots)
      .Field("primal_pivots", r.stats.primal_pivots)
      .Field("warm_start_hits", r.stats.warm_start_hits)
      .Field("cold_restarts", r.stats.cold_restarts)
      .Field("cuts_generated", r.stats.cuts_generated)
      .Field("cuts_active", r.stats.cuts_active)
      .Field("cut_rounds", r.stats.cut_rounds)
      .Field("cut_pivots", r.stats.cut_pivots)
      .Field("strong_branch_solves", r.stats.strong_branch_solves)
      // Presolve reductions now ride along in MipStats (no separate
      // Presolved() re-run needed to report them).
      .Field("presolve_singleton_rows", r.stats.presolve.singleton_rows)
      .Field("presolve_redundant_rows", r.stats.presolve.redundant_rows)
      .Field("presolve_bounds_tightened", r.stats.presolve.bounds_tightened)
      .Field("presolve_probed_fixings", r.stats.presolve.probed_fixings)
      .Field("presolve_clique_rows", r.stats.presolve.clique_rows_added)
      .Field("presolve_probe_implications", r.stats.presolve.probe_implications)
      .End();
}

// ---- Bound-change restart microbench --------------------------------------
//
// Isolates the dual-simplex warm-restart path from the surrounding search:
// solve the root LP with the incremental engine, apply ONE branching-style
// bound change (fix the first fractional integer variable downward — exactly
// a "down" branch), and re-solve warm. The reference is a cold incremental
// solve of the same modified model (all-slack basis, full Phase-1/Phase-2).
// Pivot counts are deterministic, so tools/check_bench.py gates the summed
// warm-vs-cold reduction as a hardware-independent floor on every "restart"
// record.
int RunRestartMicrobench(bench::JsonRecords& out) {
  bench::PrintHeader("Solver micro: single bound-change dual restart",
                     "warm dual re-solve after one branch vs cold solve of the same LP");
  bench::PrintRow({"model", "warm pivots", "dual", "cold pivots", "reduction", "objective"});

  const std::vector<std::pair<int, int>> kSizes = {{10, 5}, {12, 6}, {16, 8}, {20, 10}};
  const std::vector<uint64_t> kSeeds = {3, 5, 7, 11, 13};
  int failures = 0;
  long long warm_total = 0;
  long long dual_total = 0;
  long long cold_total = 0;
  for (const auto& [containers, nodes] : kSizes) {
    const std::string label = std::to_string(containers) + "x" + std::to_string(nodes);
    long long warm_pivots = 0;
    long long dual_pivots = 0;
    long long cold_pivots = 0;
    bool objectives_match = true;
    bool warm_path = true;
    for (const uint64_t seed : kSeeds) {
      Model m = PlacementModel(containers, nodes, seed);
      IncrementalLpSolver inc(m);
      const Solution root = inc.Solve();
      if (root.status != SolveStatus::kOptimal) {
        objectives_match = false;
        continue;
      }
      int branch = -1;
      for (int j = 0; j < m.num_variables(); ++j) {
        if (m.column(j).type == VarType::kContinuous) {
          continue;
        }
        const double v = root.values[static_cast<size_t>(j)];
        if (std::fabs(v - std::round(v)) > 1e-6) {
          branch = j;
          break;
        }
      }
      if (branch < 0) {
        continue;  // integral root LP: no branch to restart from
      }
      const double down = std::floor(root.values[static_cast<size_t>(branch)]);
      m.SetBounds(branch, m.column(branch).lower, down);
      inc.SetBounds(branch, m.column(branch).lower, down);
      const Solution warm = inc.Solve();
      warm_path = warm_path && inc.last_info().warm;
      warm_pivots += inc.last_info().pivots;
      dual_pivots += inc.last_info().dual_pivots;

      IncrementalLpSolver cold(m);
      const Solution reference = cold.Solve();
      cold_pivots += cold.stats().pivots;
      objectives_match =
          objectives_match && warm.status == reference.status &&
          (warm.status != SolveStatus::kOptimal ||
           std::fabs(warm.objective - reference.objective) < 1e-6);
    }
    const double reduction =
        warm_pivots > 0 ? static_cast<double>(cold_pivots) / static_cast<double>(warm_pivots)
                        : 0.0;
    out.Begin()
        .Field("kind", "restart")
        .Field("model", label)
        .Field("seeds", static_cast<long long>(kSeeds.size()))
        .Field("warm_pivots", warm_pivots)
        .Field("dual_pivots", dual_pivots)
        .Field("cold_pivots", cold_pivots)
        .Field("pivot_reduction", reduction)
        .Field("warm_path", warm_path)
        .Field("objectives_match", objectives_match)
        .End();
    bench::PrintRow({label, std::to_string(warm_pivots), std::to_string(dual_pivots),
                     std::to_string(cold_pivots), bench::Fmt(reduction) + "x",
                     objectives_match && warm_path ? "match" : "MISMATCH"});
    if (!objectives_match || !warm_path) {
      ++failures;
    }
    warm_total += warm_pivots;
    dual_total += dual_pivots;
    cold_total += cold_pivots;
  }
  const double total_reduction =
      warm_total > 0 ? static_cast<double>(cold_total) / static_cast<double>(warm_total) : 0.0;
  out.Begin()
      .Field("kind", "restart_total")
      .Field("warm_pivots", warm_total)
      .Field("dual_pivots", dual_total)
      .Field("cold_pivots", cold_total)
      .Field("pivot_reduction", total_reduction)
      .End();
  bench::PrintRow({"TOTAL", std::to_string(warm_total), std::to_string(dual_total),
                   std::to_string(cold_total), bench::Fmt(total_reduction) + "x", ""});
  return failures;
}

// ---- Decomposition sweep: monolithic vs component-decomposed --------------
//
// Block-diagonal placement models (sparse tag graphs: containers only have
// candidate nodes inside their own block) solved twice with exact gaps —
// once monolithically, once with MipOptions::decompose (components solved
// one after another) —
// and the certified objectives compared. Branch and bound is exponential in
// the component size, so the decomposed path's k small trees beat the one
// big tree by orders of magnitude; tools/check_bench.py enforces a speedup
// floor and the component-count sanity (components == blocks) on the
// emitted "decompose" records.
int RunDecompositionSweep(bench::JsonRecords& out) {
  bench::PrintHeader("Solver micro: monolithic vs component-decomposed",
                     "decomposed solves of block-diagonal models must certify the "
                     "monolithic objective, >= 5x faster");
  bench::PrintRow({"model", "blocks", "mono ms", "dec ms", "speedup", "components",
                   "objective"});

  struct Tier {
    int containers;
    int nodes;
    int blocks;
  };
  const std::vector<Tier> kTiers = {{40, 20, 5}, {80, 40, 10}};
  // Seeds where the monolithic search completes within the node cap (the
  // comparison needs both sides to certify optimality).
  const std::vector<uint64_t> kSeeds = {3, 5, 13};

  int failures = 0;
  for (const Tier& tier : kTiers) {
    const std::string label =
        std::to_string(tier.containers) + "x" + std::to_string(tier.nodes);
    double mono_wall = 0.0;
    double dec_wall = 0.0;
    long long mono_nodes = 0;
    long long dec_nodes = 0;
    int components = 0;
    int relax_accepted = 0;
    int relax_rejected = 0;
    int model_vars = 0;
    bool objectives_match = true;
    bool components_ok = true;
    for (const uint64_t seed : kSeeds) {
      const Model m =
          DecomposablePlacementModel(tier.containers, tier.nodes, tier.blocks, seed);
      model_vars = m.num_variables();
      const RunResult mono = RunOnce(m, /*incremental=*/true);
      const RunResult dec = RunOnce(m, /*incremental=*/true, /*decompose=*/true);
      mono_wall += mono.wall_seconds;
      dec_wall += dec.wall_seconds;
      mono_nodes += mono.stats.nodes_explored;
      dec_nodes += dec.stats.nodes_explored;
      components = dec.stats.components;
      relax_accepted += dec.stats.relax_round_accepted;
      relax_rejected += dec.stats.relax_round_rejected;
      objectives_match = objectives_match &&
                         mono.solution.status == SolveStatus::kOptimal &&
                         dec.solution.status == SolveStatus::kOptimal &&
                         std::fabs(mono.solution.objective - dec.solution.objective) < 1e-6;
      components_ok = components_ok && dec.stats.components == tier.blocks;
    }
    const double speedup = dec_wall > 0.0 ? mono_wall / dec_wall : 0.0;
    out.Begin()
        .Field("kind", "decompose")
        .Field("model", label)
        .Field("vars", model_vars)
        .Field("blocks", static_cast<long long>(tier.blocks))
        .Field("components", components)
        .Field("components_ok", components_ok)
        .Field("seeds", static_cast<long long>(kSeeds.size()))
        .Field("mono_wall_seconds", mono_wall)
        .Field("decomposed_wall_seconds", dec_wall)
        .Field("mono_nodes", mono_nodes)
        .Field("decomposed_nodes", dec_nodes)
        .Field("relax_round_accepted", relax_accepted)
        .Field("relax_round_rejected", relax_rejected)
        .Field("speedup_vs_mono", speedup)
        .Field("objectives_match", objectives_match)
        .End();
    bench::PrintRow({label, std::to_string(tier.blocks), bench::Fmt(mono_wall * 1e3),
                     bench::Fmt(dec_wall * 1e3), bench::Fmt(speedup) + "x",
                     std::to_string(components),
                     objectives_match ? "match" : "MISMATCH"});
    if (!objectives_match || !components_ok) {
      ++failures;
    }
  }
  return failures;
}

int RunComparison() {
  bench::PrintHeader(
      "Solver micro: cold vs warm-started branch and bound",
      "warm-started incremental simplex needs >= 5x fewer pivots per search");
  bench::PrintRow({"model", "mode", "wall ms", "nodes", "lp", "pivots", "warm", "objective"});

  // Several seeds per size: one B&B tree is luck (alternate LP optima give
  // different branching orders in the two modes); the per-size sums isolate
  // the systematic warm-start effect.
  const std::vector<std::pair<int, int>> kSizes = {{10, 5}, {12, 6}, {16, 8}, {20, 10}};
  const std::vector<uint64_t> kSeeds = {3, 5, 7, 11, 13};
  bench::JsonRecords out;
  out.Begin()
      .Field("kind", "env")
      .Field("build_type", MEDEA_BENCH_BUILD_TYPE)
      .Field("compiler", MEDEA_BENCH_COMPILER)
      .Field("hardware_threads",
             static_cast<long long>(std::thread::hardware_concurrency()))
      .Field("git_sha", MEDEA_BENCH_GIT_SHA)
      .End();
  int failures = 0;
  long long cold_pivots_total = 0;
  long long warm_pivots_total = 0;
  long long warm_dual_total = 0;
  long long cut_total = 0;
  double cold_wall_total = 0.0;
  double warm_wall_total = 0.0;
  for (const auto& [containers, nodes] : kSizes) {
    const std::string label =
        std::to_string(containers) + "x" + std::to_string(nodes);
    long long cold_pivots = 0, warm_pivots = 0;
    double cold_wall = 0.0, warm_wall = 0.0;
    int cold_nodes = 0, warm_nodes = 0;
    int cold_lps = 0, warm_lps = 0;
    int warm_hits = 0;
    bool objectives_match = true;
    for (const uint64_t seed : kSeeds) {
      const Model m = PlacementModel(containers, nodes, seed);
      const RunResult cold = RunOnce(m, false);
      const RunResult warm = RunOnce(m, true);
      EmitRun(out, label, seed, m, "cold", cold);
      EmitRun(out, label, seed, m, "warm", warm);
      objectives_match = objectives_match &&
                         cold.solution.status == warm.solution.status &&
                         std::fabs(cold.solution.objective - warm.solution.objective) < 1e-6;
      cold_pivots += cold.stats.total_pivots;
      warm_pivots += warm.stats.total_pivots;
      warm_dual_total += warm.stats.dual_pivots;
      cut_total += warm.stats.cuts_generated;
      cold_wall += cold.wall_seconds;
      warm_wall += warm.wall_seconds;
      cold_nodes += cold.stats.nodes_explored;
      warm_nodes += warm.stats.nodes_explored;
      cold_lps += cold.stats.lp_solves;
      warm_lps += warm.stats.lp_solves;
      warm_hits += warm.stats.warm_start_hits;
    }
    bench::PrintRow({label, "cold", bench::Fmt(cold_wall * 1e3),
                     std::to_string(cold_nodes), std::to_string(cold_lps),
                     std::to_string(cold_pivots), "0", ""});
    bench::PrintRow({label, "warm", bench::Fmt(warm_wall * 1e3),
                     std::to_string(warm_nodes), std::to_string(warm_lps),
                     std::to_string(warm_pivots), std::to_string(warm_hits), ""});

    const double pivot_ratio =
        warm_pivots > 0 ? static_cast<double>(cold_pivots) / warm_pivots : 0.0;
    const double wall_ratio = warm_wall > 0.0 ? cold_wall / warm_wall : 0.0;
    out.Begin()
        .Field("kind", "summary")
        .Field("model", label)
        .Field("seeds", static_cast<long long>(kSeeds.size()))
        .Field("objectives_match", objectives_match)
        .Field("pivot_reduction", pivot_ratio)
        .Field("wall_speedup", wall_ratio)
        .End();
    bench::PrintRow({label, "ratio", bench::Fmt(wall_ratio) + "x", "", "",
                     bench::Fmt(pivot_ratio) + "x", "",
                     objectives_match ? "match" : "MISMATCH"});
    if (!objectives_match) {
      ++failures;
    }
    cold_pivots_total += cold_pivots;
    warm_pivots_total += warm_pivots;
    cold_wall_total += cold_wall;
    warm_wall_total += warm_wall;
  }
  const double total_pivot_ratio =
      warm_pivots_total > 0
          ? static_cast<double>(cold_pivots_total) / warm_pivots_total
          : 0.0;
  const double total_wall_ratio =
      warm_wall_total > 0.0 ? cold_wall_total / warm_wall_total : 0.0;
  out.Begin()
      .Field("kind", "total")
      .Field("cold_pivots", cold_pivots_total)
      .Field("warm_pivots", warm_pivots_total)
      .Field("warm_dual_pivots", warm_dual_total)
      .Field("cuts_generated", cut_total)
      .Field("pivot_reduction", total_pivot_ratio)
      .Field("cold_wall_seconds", cold_wall_total)
      .Field("warm_wall_seconds", warm_wall_total)
      .Field("wall_speedup", total_wall_ratio)
      .End();
  bench::PrintRow({"TOTAL", "ratio", bench::Fmt(total_wall_ratio) + "x", "", "",
                   bench::Fmt(total_pivot_ratio) + "x", "", ""});
  failures += RunRestartMicrobench(out);
  failures += RunDecompositionSweep(out);
  if (!out.WriteFile("BENCH_solver_micro.json")) {
    ++failures;
  }
  std::printf("\nwrote BENCH_solver_micro.json\n");
  return failures;
}

}  // namespace
}  // namespace medea::solver

int main(int argc, char** argv) {
  const int failures = medea::solver::RunComparison();
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return failures;
}
