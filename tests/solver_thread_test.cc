// Copyright (c) Medea reproduction authors.
// ThreadSanitizer test for the branch-and-bound solver in the thread shapes
// production uses (the suite name matches the tsan preset's "ThreadTest"
// ctest filter, so this runs under TSan in CI). A search owns all of its
// state; what threads share is the process-wide obs registry and the
// runtime around the scheduler:
//   1. Several threads each running their own SolveMip against the shared
//      metrics registry and trace ring — PlacementService's planner threads.
//   2. An ILP scheduler solving inside the TwoSchedulerRuntime's LRA
//      scheduler thread while the heartbeat thread churns.
// medea-lint: allow-file(raw-sync): deliberate raw std::thread use — external pressure
// threads here must not inherit the sync wrappers' annotations or extra ordering.

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/runtime/two_scheduler_runtime.h"
#include "src/schedulers/ilp_scheduler.h"
#include "src/solver/mip.h"
#include "src/solver/testing/placement_model.h"
#include "src/workload/lra_templates.h"

namespace medea {
namespace {

solver::MipOptions Exact() {
  solver::MipOptions options;
  options.time_limit_seconds = 0.0;
  options.relative_gap = 0.0;
  options.absolute_gap = 1e-9;
  options.certify = true;
  return options;
}

TEST(SolverThreadTest, ConcurrentSolvesShareTheObsRegistry) {
  // Each caller thread solves its own model twice (cold and warm node LPs)
  // while the others record into the same counters, histograms and trace
  // ring. Every search must still certify, and both configurations must
  // agree on the objective and the tree.
  obs::EnableMetrics(true);
  obs::MetricsRegistry::Default().Reset();
  obs::TraceRecorder::Default().Enable(1 << 12);
  constexpr int kCallers = 3;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([c, &mismatches] {
      const uint64_t seed = 3 + 2 * static_cast<uint64_t>(c);
      const solver::Model m = solver::testing::PlacementModel(12, 6, seed);
      solver::MipOptions cold_options = Exact();
      cold_options.use_incremental_lp = false;
      solver::MipStats cold_stats;
      solver::MipStats warm_stats;
      const solver::Solution cold = solver::SolveMip(m, cold_options, &cold_stats);
      const solver::Solution warm = solver::SolveMip(m, Exact(), &warm_stats);
      if (cold.status != solver::SolveStatus::kOptimal ||
          warm.status != solver::SolveStatus::kOptimal ||
          std::fabs(cold.objective - warm.objective) > 1e-6 ||
          cold_stats.nodes_explored != warm_stats.nodes_explored) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : callers) {
    t.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(obs::MetricsRegistry::Default().CounterNamed("solver.nodes_explored").value(),
            2 * kCallers);
  obs::EnableMetrics(false);
  obs::TraceRecorder::Default().Disable();
}

TEST(SolverThreadTest, IlpSchedulerSolvesInsideRuntimeThreads) {
  // The ILP scheduler runs its cycle solves INSIDE the runtime's LRA
  // scheduler thread while the heartbeat thread churns — the thread
  // topology of a --runtime deployment.
  runtime::RuntimeConfig config;
  config.num_nodes = 24;
  config.num_racks = 4;
  config.num_upgrade_domains = 4;
  config.num_service_units = 4;
  config.heartbeat_period = std::chrono::milliseconds(2);

  SchedulerConfig sched_config;
  sched_config.node_pool_size = 24;
  sched_config.ilp_time_limit_seconds = 0.5;
  sched_config.seed = 11;

  runtime::TwoSchedulerRuntime runtime(config,
                                       std::make_unique<MedeaIlpScheduler>(sched_config));
  runtime.Start();
  for (int i = 0; i < 4; ++i) {
    const ApplicationId app(static_cast<uint32_t>(1 + i));
    runtime.SubmitLra(runtime.BuildSpec([&](TagPool& tags) {
      return MakeGenericLra(app, tags, 3, "ilp");
    }));
  }
  ASSERT_TRUE(runtime.WaitLraIdle(std::chrono::minutes(3)));
  runtime.Stop();
  const runtime::RuntimeMetrics metrics = runtime.metrics();
  EXPECT_EQ(metrics.lras_placed + metrics.lras_rejected, 4);
}

}  // namespace
}  // namespace medea
