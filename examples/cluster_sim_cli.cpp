// Command-line cluster simulator: run a configurable shared-cluster
// scenario through the full Medea pipeline and print the metrics the paper
// evaluates (violations, fragmentation, load imbalance, latencies).
//
//   cluster_sim_cli [--nodes N] [--racks R] [--service-units S]
//                   [--scheduler medea-ilp|medea-nc|medea-tp|serial|
//                               j-kube|j-kube++|yarn]
//                   [--hbase N] [--tensorflow N] [--gridmix-frac F]
//                   [--interval MS] [--minutes M] [--migration MS]
//                   [--conflict resubmit|kill|reserve] [--seed S]
//                   [--runtime] [--runtime-wall-ms MS]
//                   [--solver-decompose]
//                   [--metrics-out FILE] [--trace-out FILE]
//
// --solver-decompose splits each cycle ILP into the connected components of
// its variable-row incidence graph and solves them as independent sub-MIPs,
// largest first, with a relax-and-round fast lane for large components (see
// docs/solver.md). Only the medea-ilp scheduler uses it.
//
// With --runtime the scenario is replayed through the real concurrent
// TwoSchedulerRuntime (src/runtime/) — actual scheduler + heartbeat
// threads, wall-clock compressed to --runtime-wall-ms — instead of the
// deterministic discrete-event simulator.
//
// --metrics-out writes a JSON-lines snapshot of the process-wide
// MetricsRegistry (src/obs) at exit; --trace-out writes a Chrome
// trace_event file loadable in chrome://tracing or https://ui.perfetto.dev
// (see docs/observability.md). Either flag turns the instrumentation on;
// without them the obs layer stays disabled and costs nothing.
//
// Example:
//   ./cluster_sim_cli --nodes 200 --hbase 12 --tensorflow 8
//       --gridmix-frac 0.4 --scheduler medea-ilp --minutes 15

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "src/common/rng.h"
#include "src/core/violation.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/schedulers/greedy.h"
#include "src/schedulers/ilp_scheduler.h"
#include "src/schedulers/jkube.h"
#include "src/schedulers/yarn.h"
#include "src/sim/runtime_driver.h"
#include "src/sim/scenario.h"
#include "src/sim/simulation.h"
#include "src/workload/gridmix.h"
#include "src/workload/lra_templates.h"

using namespace medea;

namespace {

struct Options {
  size_t nodes = 100;
  size_t racks = 10;
  size_t service_units = 10;
  std::string scheduler = "medea-ilp";
  int hbase = 8;
  int tensorflow = 4;
  double gridmix_frac = 0.3;
  SimTimeMs interval_ms = 10000;
  int minutes = 10;
  SimTimeMs migration_ms = 0;
  std::string conflict = "resubmit";
  uint64_t seed = 42;
  // Concurrent mode: drive the same workload through the two-thread
  // TwoSchedulerRuntime instead of the event simulator, compressing the
  // simulated horizon into ~`runtime_wall_ms` of wall time.
  bool runtime_mode = false;
  SimTimeMs runtime_wall_ms = 3000;
  // Component-decomposed cycle ILP (SchedulerConfig::solver_decompose).
  bool solver_decompose = false;
  // Observability sinks: enabling either turns the src/obs layer on.
  std::string metrics_out;
  std::string trace_out;
};

std::unique_ptr<LraScheduler> MakeLraScheduler(const Options& options) {
  SchedulerConfig config;
  config.node_pool_size = static_cast<int>(std::min<size_t>(options.nodes, 96));
  config.ilp_time_limit_seconds = 1.0;
  config.solver_decompose = options.solver_decompose;
  config.seed = options.seed;
  if (options.scheduler == "medea-ilp") {
    return std::make_unique<MedeaIlpScheduler>(config);
  }
  if (options.scheduler == "medea-nc") {
    return std::make_unique<GreedyScheduler>(GreedyOrdering::kNodeCandidates, config);
  }
  if (options.scheduler == "medea-tp") {
    return std::make_unique<GreedyScheduler>(GreedyOrdering::kTagPopularity, config);
  }
  if (options.scheduler == "serial") {
    return std::make_unique<GreedyScheduler>(GreedyOrdering::kSerial, config);
  }
  if (options.scheduler == "j-kube") {
    return std::make_unique<JKubeScheduler>(false, config);
  }
  if (options.scheduler == "j-kube++") {
    return std::make_unique<JKubeScheduler>(true, config);
  }
  if (options.scheduler == "yarn") {
    return std::make_unique<YarnScheduler>(config);
  }
  std::fprintf(stderr, "unknown scheduler '%s'\n", options.scheduler.c_str());
  std::exit(2);
}

bool ParseArgs(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--nodes") {
      options.nodes = static_cast<size_t>(std::atoi(next()));
    } else if (flag == "--racks") {
      options.racks = static_cast<size_t>(std::atoi(next()));
    } else if (flag == "--service-units") {
      options.service_units = static_cast<size_t>(std::atoi(next()));
    } else if (flag == "--scheduler") {
      options.scheduler = next();
    } else if (flag == "--hbase") {
      options.hbase = std::atoi(next());
    } else if (flag == "--tensorflow") {
      options.tensorflow = std::atoi(next());
    } else if (flag == "--gridmix-frac") {
      options.gridmix_frac = std::atof(next());
    } else if (flag == "--interval") {
      options.interval_ms = std::atol(next());
    } else if (flag == "--minutes") {
      options.minutes = std::atoi(next());
    } else if (flag == "--migration") {
      options.migration_ms = std::atol(next());
    } else if (flag == "--conflict") {
      options.conflict = next();
    } else if (flag == "--seed") {
      options.seed = static_cast<uint64_t>(std::atoll(next()));
    } else if (flag == "--runtime") {
      options.runtime_mode = true;
    } else if (flag == "--runtime-wall-ms") {
      options.runtime_wall_ms = std::atol(next());
    } else if (flag == "--solver-decompose") {
      options.solver_decompose = true;
    } else if (flag == "--metrics-out") {
      options.metrics_out = next();
    } else if (flag == "--trace-out") {
      options.trace_out = next();
    } else if (flag == "--help" || flag == "-h") {
      return false;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", flag.c_str());
      return false;
    }
  }
  return true;
}

// Turns the obs layer on when a sink flag was given and flushes the
// exporters when the run (either mode) finishes.
class ObsSinks {
 public:
  explicit ObsSinks(const Options& options) : options_(options) {
    if (!options_.metrics_out.empty()) {
      obs::EnableMetrics(true);
    }
    if (!options_.trace_out.empty()) {
      obs::TraceRecorder::Default().Enable(1 << 16);
      obs::SetCurrentThreadName("main");
    }
  }
  ~ObsSinks() {
    if (!options_.metrics_out.empty()) {
      const Status status =
          obs::MetricsRegistry::Default().WriteSnapshotFile(options_.metrics_out);
      if (status.ok()) {
        std::printf("metrics snapshot:         %s\n", options_.metrics_out.c_str());
      } else {
        std::fprintf(stderr, "metrics export failed: %s\n", status.ToString().c_str());
      }
    }
    if (!options_.trace_out.empty()) {
      const Status status =
          obs::TraceRecorder::Default().WriteChromeTrace(options_.trace_out);
      if (status.ok()) {
        std::printf("chrome trace:             %s (open in ui.perfetto.dev)\n",
                    options_.trace_out.c_str());
      } else {
        std::fprintf(stderr, "trace export failed: %s\n", status.ToString().c_str());
      }
    }
  }

 private:
  const Options& options_;
};

// --runtime: same workload, but replayed in wall-clock time against the
// concurrent TwoSchedulerRuntime (LRA scheduler thread + heartbeat thread).
// The simulated horizon is compressed into ~runtime_wall_ms.
int RunRuntimeMode(const Options& options) {
  runtime::RuntimeConfig config;
  config.num_nodes = options.nodes;
  config.num_racks = options.racks;
  config.num_upgrade_domains = options.racks;
  config.num_service_units = options.service_units;
  const SimTimeMs horizon = static_cast<SimTimeMs>(options.minutes) * 60000;
  const SimTimeMs wall = std::max<SimTimeMs>(options.runtime_wall_ms, 100);
  const double compress = std::max(1.0, static_cast<double>(horizon) / static_cast<double>(wall));
  if (options.migration_ms > 0) {
    config.migration_every_heartbeats = std::max<int>(
        1, static_cast<int>(static_cast<double>(options.migration_ms) / compress /
                            static_cast<double>(config.heartbeat_period.count())));
  }
  RuntimeDriver driver(config, MakeLraScheduler(options));

  const auto compressed = [&](SimTimeMs t) {
    return static_cast<SimTimeMs>(static_cast<double>(t) / compress);
  };

  // GridMix batch stream, durations compressed to the wall-clock scale.
  GridMixGenerator gridmix(GridMixConfig{}, options.seed);
  Rng arrivals(options.seed + 1);
  const Resource total_capacity =
      config.node_capacity * static_cast<int64_t>(config.num_nodes);
  auto jobs = gridmix.JobsForMemoryFraction(total_capacity, options.gridmix_frac);
  SimTimeMs t = 0;
  for (auto& job : jobs) {
    t += static_cast<SimTimeMs>(arrivals.NextExponential(
        static_cast<double>(jobs.size()) / static_cast<double>(horizon / 2)));
    for (TaskRequest& task : job) {
      task.duration_ms = std::max<SimTimeMs>(1, compressed(task.duration_ms));
    }
    driver.At(compressed(std::min(t, horizon - 1)),
              [job = std::move(job)](runtime::TwoSchedulerRuntime& rt) mutable {
                rt.SubmitTaskJob(std::move(job));
              });
  }

  // LRAs arriving through the first half of the run.
  uint32_t app = 1;
  Rng lra_arrivals(options.seed + 2);
  for (int i = 0; i < options.hbase; ++i) {
    const ApplicationId id(app++);
    driver.At(compressed(static_cast<SimTimeMs>(
                  lra_arrivals.NextBounded(static_cast<uint64_t>(horizon / 2)))),
              [id](runtime::TwoSchedulerRuntime& rt) {
                rt.SubmitLra(rt.BuildSpec(
                    [&](TagPool& tags) { return MakeHBaseInstance(id, tags, 10); }));
              });
  }
  for (int i = 0; i < options.tensorflow; ++i) {
    const ApplicationId id(app++);
    driver.At(compressed(static_cast<SimTimeMs>(
                  lra_arrivals.NextBounded(static_cast<uint64_t>(horizon / 2)))),
              [id](runtime::TwoSchedulerRuntime& rt) {
                rt.SubmitLra(rt.BuildSpec(
                    [&](TagPool& tags) { return MakeTensorFlowInstance(id, tags, 8, 2); }));
              });
  }

  const runtime::RuntimeMetrics metrics = driver.Run(wall);

  ViolationReport report;
  double memory_utilization = 0.0;
  double fragmented = 0.0;
  driver.runtime().WithStateLocked([&](const ClusterState& state,
                                       const ConstraintManager& manager) {
    report = ConstraintEvaluator::EvaluateAll(state, manager);
    const Resource total = state.TotalCapacity();
    memory_utilization = total.memory_mb == 0
                             ? 0.0
                             : static_cast<double>(state.TotalUsed().memory_mb) /
                                   static_cast<double>(total.memory_mb);
    fragmented = state.FragmentedNodeFraction(Resource(2048, 1));
  });

  std::printf("=== %s (concurrent runtime) on %zu nodes, %lld ms wall ===\n",
              options.scheduler.c_str(), options.nodes, static_cast<long long>(wall));
  std::printf("LRA cycles / heartbeats:  %d / %d\n", metrics.lra_cycles, metrics.heartbeats);
  std::printf("LRAs placed/rejected:     %d / %d (resubmissions %d, conflicts %d, stale "
              "plans %d)\n",
              metrics.lras_placed, metrics.lras_rejected, metrics.lra_resubmissions,
              metrics.commit_conflicts, metrics.stale_plans);
  std::printf("tasks completed:          %d\n", metrics.tasks_completed);
  if (options.migration_ms > 0) {
    std::printf("containers migrated:      %d\n", metrics.migrations);
  }
  std::printf("constraint violations:    %d / %d subjects (%.1f%%)\n", report.violated_subjects,
              report.total_subjects, 100.0 * report.ViolationFraction());
  std::printf("memory utilization:       %.0f%%\n", 100.0 * memory_utilization);
  std::printf("fragmented nodes:         %.1f%%\n", 100.0 * fragmented);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Scenario-file mode: `cluster_sim_cli --scenario FILE` replays a textual
  // scenario (see src/sim/scenario.h for the format).
  if (argc == 3 && std::string(argv[1]) == "--scenario") {
    auto outcome = RunScenarioFile(argv[2]);
    if (!outcome.ok()) {
      std::fprintf(stderr, "%s\n", outcome.status().ToString().c_str());
      return 1;
    }
    std::printf("=== scenario %s ===\n%s", argv[2], outcome->Summary().c_str());
    return 0;
  }

  Options options;
  if (!ParseArgs(argc, argv, options)) {
    std::printf("usage: %s [--nodes N] [--scheduler NAME] [--hbase N] [--tensorflow N]\n"
                "          [--gridmix-frac F] [--interval MS] [--minutes M]\n"
                "          [--migration MS] [--conflict resubmit|kill|reserve] [--seed S]\n"
                "          [--runtime] [--runtime-wall-ms MS]\n"
                "          [--solver-decompose]\n"
                "          [--metrics-out FILE] [--trace-out FILE]\n"
                "       %s --scenario FILE\n",
                argv[0], argv[0]);
    return 2;
  }

  const ObsSinks sinks(options);

  if (options.runtime_mode) {
    return RunRuntimeMode(options);
  }

  SimConfig config;
  config.num_nodes = options.nodes;
  config.num_racks = options.racks;
  config.num_upgrade_domains = options.racks;
  config.num_service_units = options.service_units;
  config.lra_interval_ms = options.interval_ms;
  config.migration_interval_ms = options.migration_ms;
  if (options.conflict == "kill") {
    config.conflict_policy = ConflictPolicy::kKillTasks;
  } else if (options.conflict == "reserve") {
    config.conflict_policy = ConflictPolicy::kReserve;
  }

  Simulation sim(config, MakeLraScheduler(options));
  const SimTimeMs horizon = static_cast<SimTimeMs>(options.minutes) * 60000;

  // GridMix batch stream: jobs arriving through the run, sized so the
  // aggregate reaches the requested fraction of memory.
  GridMixGenerator gridmix(GridMixConfig{}, options.seed);
  Rng arrivals(options.seed + 1);
  const auto jobs =
      gridmix.JobsForMemoryFraction(sim.state().TotalCapacity(), options.gridmix_frac);
  SimTimeMs t = 0;
  for (const auto& job : jobs) {
    t += static_cast<SimTimeMs>(arrivals.NextExponential(
        static_cast<double>(jobs.size()) / static_cast<double>(horizon / 2)));
    sim.SubmitTaskJobAt(std::min(t, horizon - 1), job);
  }

  // LRAs arriving through the first half of the run.
  uint32_t app = 1;
  Rng lra_arrivals(options.seed + 2);
  for (int i = 0; i < options.hbase; ++i) {
    sim.SubmitLraAt(lra_arrivals.NextBounded(static_cast<uint64_t>(horizon / 2)),
                    MakeHBaseInstance(ApplicationId(app++), sim.manager().tags(), 10));
  }
  for (int i = 0; i < options.tensorflow; ++i) {
    sim.SubmitLraAt(lra_arrivals.NextBounded(static_cast<uint64_t>(horizon / 2)),
                    MakeTensorFlowInstance(ApplicationId(app++), sim.manager().tags(), 8, 2));
  }

  sim.RunUntil(horizon);

  const SimMetrics& metrics = sim.metrics();
  const auto report = sim.EvaluateViolations();
  Distribution node_util;
  node_util.AddAll(sim.state().NodeMemoryUtilization());

  std::printf("=== %s on %zu nodes, %d min ===\n", options.scheduler.c_str(), options.nodes,
              options.minutes);
  std::printf("LRAs placed/rejected:     %d / %d (resubmissions %d, conflicts %d)\n",
              metrics.lras_placed, metrics.lras_rejected, metrics.lra_resubmissions,
              metrics.commit_conflicts);
  if (config.conflict_policy == ConflictPolicy::kKillTasks) {
    std::printf("tasks killed:             %d\n", metrics.tasks_killed);
  }
  if (config.conflict_policy == ConflictPolicy::kReserve) {
    std::printf("reservations made:        %d\n", metrics.reservations_made);
  }
  if (options.migration_ms > 0) {
    std::printf("containers migrated:      %d\n", metrics.migrations);
  }
  std::printf("LRA cycle latency (ms):   mean %.1f  max %.1f over %d cycles\n",
              metrics.lra_cycle_latency_ms.Mean(),
              metrics.lra_cycle_latency_ms.Empty() ? 0.0 : metrics.lra_cycle_latency_ms.Max(),
              metrics.cycles);
  std::printf("task allocations:         %zu, mean queueing %.0f ms\n",
              sim.task_scheduler().allocation_latency_ms().Count(),
              sim.task_scheduler().allocation_latency_ms().Mean());
  std::printf("constraint violations:    %d / %d subjects (%.1f%%)\n",
              report.violated_subjects, report.total_subjects,
              100.0 * report.ViolationFraction());
  std::printf("memory utilization:       %.0f%% (node CV %.1f%%)\n",
              100.0 * sim.MemoryUtilization(), node_util.CoefficientOfVariationPct());
  std::printf("fragmented nodes:         %.1f%%\n",
              100.0 * sim.state().FragmentedNodeFraction(Resource(2048, 1)));
  return 0;
}
