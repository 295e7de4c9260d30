// Copyright (c) Medea reproduction authors.
// End-to-end placement benchmark: three workloads through the public APIs
// of the placement path, measured from outside.
//
//   bulk-greedy  ~1M tagged, unconstrained containers in 128-container LRAs
//                on 10k nodes through PlacementService + the Serial greedy
//                planner, closed loop bounded by admission_capacity.
//   ilp-5k       a §7.1 template mix (HBase, TensorFlow, Storm, Memcached,
//                with their constraints) on 5000 nodes in 40-node racks,
//                pre-loaded to ~20%, through PlacementService +
//                MedeaIlpScheduler (batches of 2, 2 planners) — the Fig. 11a
//                cycle at scale.
//   sim-trace    a deterministic Simulation replay on 150 nodes: the
//                Google-trace-like task stream, constrained HBase LRAs and
//                node failures/recoveries from the unavailability generator.
//
// Every planner is wrapped in a TimedPlanner decorator (wall time of each
// Place() call, plus MedeaIlpScheduler::last_stats()); placement latency is
// measured by watching AcquireSnapshot() for the first epoch that holds an
// LRA's containers. No instrumentation is added to the library: the traced
// mode (--trace 1) turns on the existing obs registry and TraceRecorder and
// adds the benchmark's own spans around Submit, AcquireSnapshot, Place,
// RunUntil and EvaluateAll.
//
// Usage: placebench --workload NAME --seed N --seconds S --trace 0|1
//                   [--git-sha SHA] [--src-digest HEX]
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; see README.md for the metric definitions.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "placebench/bench_lib.h"
#include "src/cluster/cluster_state.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/core/violation.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/runtime/placement_service.h"
#include "src/schedulers/greedy.h"
#include "src/schedulers/ilp_scheduler.h"
#include "src/sim/simulation.h"
#include "src/sim/unavailability.h"
#include "src/verify/invariant_checker.h"
#include "src/workload/google_trace.h"
#include "src/workload/lra_templates.h"

#ifndef PLACEBENCH_BUILD_TYPE
#define PLACEBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PLACEBENCH_COMPILER
#define PLACEBENCH_COMPILER "unknown"
#endif

namespace medea::placebench {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// Set-ups per run (repetitions plus throwaway ones); setup_s is their median.
// The throwaway set-ups run first: after a repetition, the heap it left
// behind made later set-ups up to 1.5x slower, by an amount that changed
// from process to process.
constexpr int kSetupRepeats = 11;

double MedianOf(const std::vector<double>& samples) {
  Distribution d;
  d.AddAll(samples);
  return d.Percentile(50);
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

// ---- Benchmark spans ----------------------------------------------------------

// The benchmark's own spans, keyed by app id, recorded next to (and into)
// the library's TraceRecorder ring. Names and categories are literals.
struct KeyedSpan {
  obs::TraceEvent event;
  uint32_t app = 0;
};

class SpanLog {
 public:
  bool enabled() const { return obs::TraceRecorder::Default().enabled(); }
  int64_t NowUs() const { return obs::TraceRecorder::Default().NowUs(); }

  // Records a span into the trace ring and, keyed by `app`, into this log.
  // `more_apps` are further apps the same span serves (a batch): keyed
  // entries only, so the ring holds the span once.
  void Add(const char* name, const char* category, int64_t start_us, uint32_t app,
           const std::vector<uint32_t>& more_apps = {}) {
    KeyedSpan span;
    span.event.name = name;
    span.event.category = category;
    span.event.tid = obs::CurrentThreadId();
    span.event.start_us = start_us;
    span.event.duration_us = NowUs() - start_us;
    span.app = app;
    obs::TraceRecorder::Default().Record(span.event);
    spans_.push_back(span);
    for (const uint32_t other : more_apps) {
      span.app = other;
      spans_.push_back(span);
    }
  }
  const std::vector<KeyedSpan>& spans() const { return spans_; }

 private:
  std::vector<KeyedSpan> spans_;
};

// ---- Planner decorator ----------------------------------------------------------

struct PlannerStats {
  std::vector<double> place_ms;  // wall time of each Place() call
  long long lras = 0;          // LRAs handed to Place()
  long long lras_planned = 0;  // LRAs the plans marked placed
  // MedeaIlpScheduler::last_stats() accumulated over ILP cycles.
  long long ilp_cycles = 0;
  double ilp_place_ms = 0.0;
  double lp_ms = 0.0;
  long long pivots = 0;
  long long cut_pivots = 0;
  long long strong_branch_solves = 0;
  long long nodes = 0;
  long long warm_start_hits = 0;
  long long time_limit_hits = 0;
  long long solve_failures = 0;
  double budget_overrun_ms = 0.0;
  long long vars = 0;
  long long rows = 0;
  long long binaries = 0;

  void Merge(const PlannerStats& o) {
    place_ms.insert(place_ms.end(), o.place_ms.begin(), o.place_ms.end());
    lras += o.lras;
    lras_planned += o.lras_planned;
    ilp_cycles += o.ilp_cycles;
    ilp_place_ms += o.ilp_place_ms;
    lp_ms += o.lp_ms;
    pivots += o.pivots;
    cut_pivots += o.cut_pivots;
    strong_branch_solves += o.strong_branch_solves;
    nodes += o.nodes;
    warm_start_hits += o.warm_start_hits;
    time_limit_hits += o.time_limit_hits;
    solve_failures += o.solve_failures;
    budget_overrun_ms += o.budget_overrun_ms;
    vars += o.vars;
    rows += o.rows;
    binaries += o.binaries;
  }
};

// Wraps one planner: times every Place() from outside and reads the ILP
// scheduler's exported last_stats(). One instance per planner thread.
class TimedPlanner : public LraScheduler {
 public:
  TimedPlanner(std::unique_ptr<LraScheduler> inner, double time_limit_s)
      : inner_(std::move(inner)), time_limit_ms_(time_limit_s * 1000.0) {}

  PlacementPlan Place(const PlacementProblem& problem) override {
    const int64_t span_start = spans_.enabled() ? spans_.NowUs() : 0;
    const auto t0 = Clock::now();
    PlacementPlan plan = inner_->Place(problem);
    const double ms = MsSince(t0);
    if (spans_.enabled() && !problem.lras.empty()) {
      std::vector<uint32_t> more;
      for (size_t i = 1; i < problem.lras.size(); ++i) {
        more.push_back(problem.lras[i].app.value);
      }
      spans_.Add("bench.place", "sched", span_start, problem.lras[0].app.value, more);
    }
    stats_.place_ms.push_back(ms);
    stats_.lras += static_cast<long long>(problem.lras.size());
    stats_.lras_planned += plan.NumPlaced();
    if (const auto* ilp = dynamic_cast<const MedeaIlpScheduler*>(inner_.get())) {
      const MedeaIlpScheduler::LastSolveStats& s = ilp->last_stats();
      ++stats_.ilp_cycles;
      stats_.ilp_place_ms += ms;
      stats_.lp_ms += s.mip.lp_time_seconds * 1000.0;
      stats_.pivots += s.mip.total_pivots;
      stats_.cut_pivots += s.mip.cut_pivots;
      stats_.strong_branch_solves += s.mip.strong_branch_solves;
      stats_.nodes += s.mip.nodes_explored;
      stats_.warm_start_hits += s.mip.warm_start_hits;
      stats_.time_limit_hits += s.mip.hit_time_limit ? 1 : 0;
      stats_.solve_failures += (s.status == solver::SolveStatus::kOptimal ||
                                s.status == solver::SolveStatus::kFeasible)
                                   ? 0
                                   : 1;
      stats_.budget_overrun_ms += std::max(0.0, ms - time_limit_ms_);
      stats_.vars += s.variables;
      stats_.rows += s.rows;
      stats_.binaries += s.binaries;
    }
    return plan;
  }

  std::string name() const override { return inner_->name(); }

  const PlannerStats& stats() const { return stats_; }
  const SpanLog& spans() const { return spans_; }

 private:
  std::unique_ptr<LraScheduler> inner_;
  double time_limit_ms_;
  PlannerStats stats_;
  SpanLog spans_;
};

// ---- Report -------------------------------------------------------------------------

struct Value {
  double value = 0.0;
  std::string unit;
  std::string note;
};

struct Outcome {
  // Every end-to-end metric that applies to the workload, by name.
  std::map<std::string, Value> e2e;
  // Per-layer metrics (traced pass only).
  std::map<std::string, Value> layer;
  // Output checks by name; a check repeated per repetition keeps its first
  // failure.
  struct CheckResult {
    bool ok = true;
    std::string detail;
  };
  std::map<std::string, CheckResult> checks;
  long long attempted = 0;
  long long failed = 0;
  double wall_s = 0.0;  // measured phase of the pass

  void E2e(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    e2e[name] = Value{value, unit, note};
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layer[name] = Value{value, unit, ""};
  }
  void Check(const std::string& name, bool ok, const std::string& detail = "") {
    CheckResult& check = checks[name];
    if (check.ok && !ok) {
      check = CheckResult{false, detail};
    }
  }
  bool correct() const {
    return std::all_of(checks.begin(), checks.end(),
                       [](const auto& check) { return check.second.ok; });
  }
  void Tail(const std::string& name, const TailStat& tail, const std::string& unit) {
    char note[96];
    std::snprintf(note, sizeof(note), "p%.3f of %zu samples%s", tail.percentile, tail.samples,
                  tail.defined ? "" : ", too few: max");
    E2e(name, tail.value, unit, note);
  }
};

// The gated end-to-end metrics (BENCHMARK.json "end_to_end"), printed in the
// final JSON line of an untraced run: the ones that apply to all three
// workloads and hold still across seeds. The cycle, placement-latency,
// violation, speed-up and task-wait metrics are printed above it.
const std::vector<std::string>& GatedEndToEnd() {
  static const std::vector<std::string> names = {"setup_s", "containers_per_s",
                                                 "lra_placed_pct", "peak_rss_mb"};
  return names;
}

// The per-layer metrics (BENCHMARK.json "per_layer"), printed in the final
// JSON line of a traced run; a layer a workload does not touch reports 0.
const std::vector<std::pair<std::string, std::string>>& PerLayer() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"runtime.submit_blocked_ms", "ms"},
      {"runtime.batches", "count"},
      {"runtime.lras_per_batch", "count"},
      {"runtime.resubmissions", "count"},
      {"runtime.commit_conflicts", "count"},
      {"runtime.stale_plans", "count"},
      {"runtime.first_commit_ratio", "ratio"},
      {"runtime.queue_wait_p50_ms", "ms"},
      {"service.plan.busy_ms", "ms"},
      {"service.plan.self_ms", "ms"},
      {"service.commit.busy_ms", "ms"},
      {"service.commit.self_ms", "ms"},
      {"cluster.epochs", "count"},
      {"cluster.epochs_per_lra", "count"},
      {"cluster.snapshot_acquire_us", "us"},
      {"sched.place_ms.count", "count"},
      {"sched.place_ms.busy", "ms"},
      {"sched.place_ms.p50", "ms"},
      {"sched.place_ms.tail", "ms"},
      {"sched.model_vars", "count"},
      {"sched.model_rows", "count"},
      {"sched.model_binaries", "count"},
      {"sched.ilp_solve_failures", "count"},
      {"sched.pool_build_ms", "ms"},
      {"sched.ilp_build_model_ms", "ms"},
      {"sched.container_place_ms", "ms"},
      {"sched.candidates_scored", "count"},
      {"solver.lp_ms", "ms"},
      {"solver.lp_share", "ratio"},
      {"solver.pivots", "count"},
      {"solver.cut_pivots", "count"},
      {"solver.strong_branch_solves", "count"},
      {"solver.nodes", "count"},
      {"solver.warm_start_hits", "count"},
      {"solver.time_limit_hits", "count"},
      {"solver.budget_overrun_ms", "ms"},
      {"solver.solve_mip_ms", "ms"},
      {"solver.node_lp_ms", "ms"},
      {"core.evaluate_all_ms", "ms"},
      {"core.subjects", "count"},
      {"sim.slice_ms.p50", "ms"},
      {"sim.slice_ms.tail", "ms"},
      {"sim.events", "count"},
      {"sim.event_dispatch_ms", "ms"},
      {"sim.events.submit_lra", "count"},
      {"sim.events.submit_task_job", "count"},
      {"sim.events.lra_cycle", "count"},
      {"sim.events.task_tick", "count"},
      {"sim.events.task_complete", "count"},
      {"sim.events.node_down", "count"},
      {"sim.events.node_up", "count"},
      {"tasksched.tasks_allocated", "count"},
      {"layer.runtime.self_ms", "ms"},
      {"layer.cluster.self_ms", "ms"},
      {"layer.sched.self_ms", "ms"},
      {"layer.solver.self_ms", "ms"},
      {"layer.core.self_ms", "ms"},
      {"layer.sim.self_ms", "ms"},
      {"trace.overhead_pct", "%"},
      {"trace.spans", "count"},
      {"trace.spans_dropped", "count"},
  };
  return names;
}

// ---- Shared measurement pieces ---------------------------------------------------

// Turns the obs registry and trace ring on (traced pass) or off.
void SetTracing(bool on) {
  obs::MetricsRegistry::Default().Reset();
  obs::EnableMetrics(on);
  if (on) {
    obs::TraceRecorder::Default().Enable(size_t{1} << 22);
  } else {
    obs::TraceRecorder::Default().Disable();
  }
}

double HistSumMs(const std::string& name) {
  return obs::MetricsRegistry::Default().HistogramNamed(name).TakeSnapshot().sum_ms;
}

long long CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Default().CounterNamed(name).value();
}

// Planner-layer and solver-layer metrics from the merged decorator stats.
void ReportPlannerLayers(const PlannerStats& s, Outcome* out) {
  const std::vector<double>& place_ms = s.place_ms;
  const TailStat tail = TailOf(place_ms);
  double busy = 0.0;
  for (const double ms : place_ms) {
    busy += ms;
  }
  out->Layer("sched.place_ms.count", static_cast<double>(place_ms.size()), "count");
  out->Layer("sched.place_ms.busy", busy, "ms");
  out->Layer("sched.place_ms.p50", NearestRank(place_ms, 50.0), "ms");
  out->Layer("sched.place_ms.tail", tail.value, "ms");
  const double cycles = std::max<double>(1.0, static_cast<double>(s.ilp_cycles));
  out->Layer("sched.model_vars", static_cast<double>(s.vars) / cycles, "count");
  out->Layer("sched.model_rows", static_cast<double>(s.rows) / cycles, "count");
  out->Layer("sched.model_binaries", static_cast<double>(s.binaries) / cycles, "count");
  out->Layer("sched.ilp_solve_failures", static_cast<double>(s.solve_failures), "count");
  out->Layer("solver.lp_ms", s.lp_ms, "ms");
  out->Layer("solver.lp_share", s.ilp_place_ms > 0.0 ? s.lp_ms / s.ilp_place_ms : 0.0, "ratio");
  out->Layer("solver.pivots", static_cast<double>(s.pivots), "count");
  out->Layer("solver.cut_pivots", static_cast<double>(s.cut_pivots), "count");
  out->Layer("solver.strong_branch_solves", static_cast<double>(s.strong_branch_solves),
             "count");
  out->Layer("solver.nodes", static_cast<double>(s.nodes), "count");
  out->Layer("solver.warm_start_hits", static_cast<double>(s.warm_start_hits), "count");
  out->Layer("solver.time_limit_hits", static_cast<double>(s.time_limit_hits), "count");
  out->Layer("solver.budget_overrun_ms", s.budget_overrun_ms, "ms");
}

// Registry-backed layer metrics (present only when the registry was on).
void ReportRegistryLayers(Outcome* out) {
  out->Layer("sched.pool_build_ms", HistSumMs("sched.pool_build_ms"), "ms");
  out->Layer("sched.ilp_build_model_ms", HistSumMs("sched.ilp_build_model_ms"), "ms");
  out->Layer("sched.container_place_ms", HistSumMs("sched.container_place_ms"), "ms");
  out->Layer("sched.candidates_scored",
             static_cast<double>(CounterValue("sched.candidates_scored")), "count");
  out->Layer("solver.solve_mip_ms", HistSumMs("solver.solve_mip_ms"), "ms");
  out->Layer("solver.node_lp_ms", HistSumMs("solver.node_lp_ms"), "ms");
  out->Layer("sim.event_dispatch_ms", HistSumMs("sim.event_dispatch_ms"), "ms");
  long long events = 0;
  for (const char* type :
       {"submit_lra", "submit_task_job", "lra_cycle", "task_tick", "task_complete", "node_down",
        "node_up", "remove_lra", "migration_cycle", "metrics_sample"}) {
    const long long n = CounterValue(std::string("sim.events.") + type);
    events += n;
    out->Layer(std::string("sim.events.") + type, static_cast<double>(n), "count");
  }
  out->Layer("sim.events", static_cast<double>(events), "count");
}

// Layer self times from every span in the trace ring (library + benchmark).
void ReportSelfTimes(Outcome* out) {
  const std::vector<obs::TraceEvent> spans = obs::TraceRecorder::Default().Snapshot();
  const auto by_category = SelfTimesByCategory(spans);
  const auto self_of = [&](const char* category) {
    const auto it = by_category.find(category);
    return it == by_category.end() ? 0.0 : it->second.self_ms;
  };
  out->Layer("layer.runtime.self_ms", self_of("service") + self_of("runtime"), "ms");
  out->Layer("layer.cluster.self_ms", self_of("cluster"), "ms");
  out->Layer("layer.sched.self_ms", self_of("sched"), "ms");
  out->Layer("layer.solver.self_ms", self_of("solver"), "ms");
  out->Layer("layer.core.self_ms", self_of("core"), "ms");
  out->Layer("layer.sim.self_ms", self_of("sim"), "ms");
  const auto by_name = SelfTimesByName(spans);
  const auto totals_of = [&](const char* name) {
    const auto it = by_name.find(name);
    return it == by_name.end() ? SpanTotals{} : it->second;
  };
  out->Layer("service.plan.busy_ms", totals_of("service.plan").busy_ms, "ms");
  out->Layer("service.plan.self_ms", totals_of("service.plan").self_ms, "ms");
  out->Layer("service.commit.busy_ms", totals_of("service.commit").busy_ms, "ms");
  out->Layer("service.commit.self_ms", totals_of("service.commit").self_ms, "ms");
  out->Layer("trace.spans", static_cast<double>(spans.size()), "count");
  out->Layer("trace.spans_dropped",
             static_cast<double>(obs::TraceRecorder::Default().dropped()), "count");
}

// EvaluateAll on the final state (core layer) + the Fig. 9 violation share.
void EvaluateFinalState(const ClusterState& state, const ConstraintManager& manager,
                        SpanLog* spans, Outcome* out) {
  const int64_t span_start = spans->enabled() ? spans->NowUs() : 0;
  const auto t0 = Clock::now();
  const ViolationReport report = ConstraintEvaluator::EvaluateAll(state, manager);
  const double ms = MsSince(t0);
  if (spans->enabled()) {
    spans->Add("bench.evaluate_all", "core", span_start, 0);
  }
  out->Layer("core.evaluate_all_ms", ms, "ms");
  out->Layer("core.subjects", report.total_subjects, "count");
  char note[64];
  std::snprintf(note, sizeof(note), "%d of %d subjects", report.violated_subjects,
                report.total_subjects);
  out->E2e("violation_pct", 100.0 * report.ViolationFraction(), "%", note);
  const verify::InvariantReport invariants = verify::InvariantChecker::CheckState(state, &manager);
  out->Check("invariant_checker", invariants.ok(), invariants.ToString());
}

// ---- Service workloads (bulk-greedy, ilp-5k) ----------------------------------------

struct ServiceWorkload {
  std::function<ClusterState()> build_cluster;
  // Pre-load on the built cluster; returns the LRA containers it added.
  std::function<size_t(ClusterState&)> preload;
  // Requests in submission order with their application constraints (tags
  // and operator constraints are in the manager the service starts from).
  std::vector<LraSpec> specs;
  runtime::ServiceConfig service;
  size_t in_flight = 64;  // closed-loop bound on unresolved submissions
  size_t submit_group = 1;  // LRAs submitted back to back
  int reps = 1;             // full runs (set-up, loop, audit) per pass
  // containers_per_s: FastestSegmentRate over the repetitions with segments
  // of this many containers, or committed / wall time if 0.
  double rate_segment = 0.0;
  std::function<std::unique_ptr<LraScheduler>()> planner;
  double time_limit_s = 0.0;
};

// One service run: set-up, the closed loop, and the end-of-run audit.
struct ServiceRep {
  double setup_s = 0.0;
  double wall_s = 0.0;
  size_t committed = 0;
  long long submitted = 0;
  std::vector<double> latencies_ms;  // every submitted LRA, missing = +inf
  size_t missing = 0;
  runtime::ServiceMetrics metrics;
  uint64_t epochs = 0;
  PlannerStats planner;
  double submit_blocked_ms = 0.0;
  double acquire_us = 0.0;
  long long acquires = 0;
  std::vector<double> queue_wait_ms;  // traced: Submit() return to first Place()
  // (ms since the loop started, containers placed so far) at each epoch
  // that placed something.
  std::vector<std::pair<double, double>> progress;
};

ServiceRep RunServiceRep(const ServiceWorkload& w, const ConstraintManager& base_manager,
                         SpanLog* spans, Outcome* out) {
  ServiceRep rep;
  // Set-up: cluster build, pre-load, service construction and start.
  const auto setup_start = Clock::now();
  ClusterState state = w.build_cluster();
  const size_t preloaded = w.preload(state);
  std::vector<TimedPlanner*> planners;
  auto service = std::make_unique<runtime::PlacementService>(w.service, std::move(state),
                                                             ConstraintManager(base_manager));
  const double construct_ms = MsSince(setup_start);

  // Closed loop: submit while fewer than `in_flight` are unresolved; watch
  // the published epochs for each LRA's containers.
  EpochWatch watch;
  std::map<uint32_t, size_t> expected_containers;
  std::map<uint32_t, int64_t> submit_us;  // traced: Submit() return, span clock
  size_t next = 0;
  size_t placed_seen = 0;
  size_t placed_containers = 0;
  rep.progress.emplace_back(0.0, 0.0);
  uint64_t last_epoch = service->epoch();
  long long rejected = 0;
  const auto start = Clock::now();
  const auto can_submit = [&] {
    const long long in_flight = static_cast<long long>(watch.submitted()) -
                                static_cast<long long>(watch.placed()) - rejected;
    return next < w.specs.size() &&
           in_flight + static_cast<long long>(w.submit_group) <=
               static_cast<long long>(w.in_flight);
  };
  // Submits the next group. Its constraints are registered first, so its
  // Submit() calls run back to back.
  const auto submit_group = [&] {
    const size_t end = std::min(w.specs.size(), next + w.submit_group);
    for (size_t i = next; i < end; ++i) {
      const LraSpec& spec = w.specs[i];
      if (!spec.app_constraints.empty()) {
        service->WithManager([&](ConstraintManager& m) {
          for (const std::string& text : spec.app_constraints) {
            MEDEA_CHECK(
                m.AddFromText(text, ConstraintOrigin::kApplication, spec.request.app).ok());
          }
        });
      }
    }
    for (; next < end; ++next) {
      const LraSpec& spec = w.specs[next];
      const uint32_t app = spec.request.app.value;
      expected_containers[app] = spec.request.containers.size();
      const int64_t span_start = spans->enabled() ? spans->NowUs() : 0;
      const auto t0 = Clock::now();
      service->Submit(spec.request);
      const auto t1 = Clock::now();
      rep.submit_blocked_ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
      if (spans->enabled()) {
        spans->Add("bench.submit", "runtime", span_start, app);
        submit_us[app] = spans->NowUs();
      }
      watch.OnSubmit(app, std::chrono::duration<double, std::milli>(t1 - start).count());
    }
  };
  // The first window goes in before the planners start. A planner waiting
  // for work could otherwise take a group's first LRA alone, woken by its
  // Submit(); the window keeps a whole group queued while both plan.
  while (can_submit()) {
    submit_group();
  }
  const auto start_begin = Clock::now();
  service->Start([&] {
    auto planner = std::make_unique<TimedPlanner>(w.planner(), w.time_limit_s);
    planners.push_back(planner.get());
    return planner;
  });
  rep.setup_s = (construct_ms + MsSince(start_begin)) / 1000.0;

  auto last_metrics_poll = start;
  while (true) {
    bool progressed = false;
    if (can_submit()) {
      submit_group();
      progressed = true;
    }

    const int64_t span_start = spans->enabled() ? spans->NowUs() : 0;
    const auto a0 = Clock::now();
    const std::shared_ptr<const ClusterSnapshot> snapshot = service->AcquireSnapshot();
    rep.acquire_us += std::chrono::duration<double, std::micro>(Clock::now() - a0).count();
    ++rep.acquires;
    if (spans->enabled()) {
      spans->Add("bench.acquire_snapshot", "cluster", span_start, 0);
    }
    if (snapshot->epoch != last_epoch) {
      last_epoch = snapshot->epoch;
      const double now_ms = MsSince(start);
      if (watch.OnEpoch(now_ms, [&](uint32_t app) {
            return !snapshot->state.ContainersOf(ApplicationId(app)).empty();
          }) > 0) {
        for (size_t i = placed_seen; i < watch.placed_apps().size(); ++i) {
          placed_containers += expected_containers[watch.placed_apps()[i]];
        }
        placed_seen = watch.placed_apps().size();
        rep.progress.emplace_back(now_ms, static_cast<double>(placed_containers));
      }
      progressed = true;
    }
    // Rejections are only visible as a count; poll it after every epoch and
    // at least every millisecond.
    if (progressed || Clock::now() - last_metrics_poll > std::chrono::milliseconds(1)) {
      rejected = service->metrics().lras_rejected;
      last_metrics_poll = Clock::now();
    }
    if (next == w.specs.size() && static_cast<long long>(watch.placed()) + rejected >=
                                      static_cast<long long>(watch.submitted())) {
      break;
    }
    if (MsSince(start) > 150'000.0) {
      break;  // unresolved LRAs stay missing and fail the resolution check
    }
    if (!progressed) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  rep.wall_s = MsSince(start) / 1000.0;
  const bool idle = service->WaitIdle(std::chrono::seconds(5));
  service->Stop();
  rep.metrics = service->metrics();
  rep.epochs = service->epoch();
  std::map<uint32_t, int64_t> first_place;
  for (const TimedPlanner* p : planners) {
    rep.planner.Merge(p->stats());
    for (const KeyedSpan& span : p->spans().spans()) {
      auto [it, inserted] = first_place.emplace(span.app, span.event.start_us);
      it->second = std::min(it->second, span.event.start_us);
    }
  }
  for (const auto& [app, t_us] : submit_us) {
    const auto it = first_place.find(app);
    if (it != first_place.end()) {
      rep.queue_wait_ms.push_back(static_cast<double>(std::max<int64_t>(0, it->second - t_us)) /
                                  1000.0);
    }
  }

  // ---- Correctness ----
  rep.submitted = static_cast<long long>(watch.submitted());
  rep.latencies_ms = watch.LatenciesWithMissing();
  rep.missing = watch.missing();
  const runtime::ServiceMetrics& m = rep.metrics;
  out->Check("all_submitted", rep.submitted == static_cast<long long>(w.specs.size()),
             std::to_string(rep.submitted) + " of " + std::to_string(w.specs.size()));
  const bool resolved = idle && m.lras_placed + m.lras_rejected == rep.submitted &&
                        static_cast<long long>(watch.placed()) == m.lras_placed &&
                        static_cast<long long>(watch.missing()) == m.lras_rejected;
  out->Check("every_lra_resolved", resolved,
             "watched placed " + std::to_string(watch.placed()) + ", missing " +
                 std::to_string(watch.missing()) + "; service placed " +
                 std::to_string(m.lras_placed) + ", rejected " + std::to_string(m.lras_rejected));
  if (!resolved) {
    out->failed += std::max<long long>(1, rep.submitted - m.lras_placed - m.lras_rejected);
  }
  const auto manager = service->manager_snapshot();
  service->WithLiveState([&](const ClusterState& live) {
    rep.committed = live.num_long_running_containers() - preloaded;
    size_t expected = 0;
    std::string mismatch;
    for (const uint32_t app : watch.placed_apps()) {
      expected += expected_containers[app];
      const size_t held = live.ContainersOf(ApplicationId(app)).size();
      if (held != expected_containers[app]) {
        mismatch = ", app " + std::to_string(app) + " holds " + std::to_string(held);
      }
    }
    for (const uint32_t app : watch.missing_apps()) {
      if (!live.ContainersOf(ApplicationId(app)).empty()) {
        mismatch = ", rejected app " + std::to_string(app) + " holds containers";
      }
    }
    out->Check("committed_containers_match", rep.committed == expected && mismatch.empty(),
               std::to_string(rep.committed) + " committed vs " + std::to_string(expected) +
                   " expected" + mismatch);
    EvaluateFinalState(live, *manager, spans, out);
  });
  return rep;
}

Outcome RunServicePass(const ServiceWorkload& w, const ConstraintManager& base_manager,
                       bool traced) {
  Outcome out;
  SetTracing(traced);
  SpanLog spans;
  std::vector<double> setup_s;
  while (setup_s.size() + static_cast<size_t>(w.reps) < static_cast<size_t>(kSetupRepeats)) {
    const auto t0 = Clock::now();
    ClusterState state = w.build_cluster();
    w.preload(state);
    runtime::PlacementService service(w.service, std::move(state),
                                      ConstraintManager(base_manager));
    service.Start([&] { return std::make_unique<TimedPlanner>(w.planner(), w.time_limit_s); });
    setup_s.push_back(MsSince(t0) / 1000.0);
  }
  std::vector<ServiceRep> reps;
  for (int r = 0; r < w.reps; ++r) {
    reps.push_back(RunServiceRep(w, base_manager, &spans, &out));
    ReleaseFreeMemory();
  }

  // Aggregate the repetitions.
  std::vector<double> latencies;
  std::vector<double> queue_waits;
  PlannerStats stats;
  runtime::ServiceMetrics m;
  size_t committed = 0;
  long long submitted = 0;
  size_t missing = 0;
  uint64_t epochs = 0;
  double submit_blocked_ms = 0.0;
  double acquire_us = 0.0;
  long long acquires = 0;
  for (const ServiceRep& rep : reps) {
    setup_s.push_back(rep.setup_s);
    latencies.insert(latencies.end(), rep.latencies_ms.begin(), rep.latencies_ms.end());
    queue_waits.insert(queue_waits.end(), rep.queue_wait_ms.begin(), rep.queue_wait_ms.end());
    stats.Merge(rep.planner);
    m.batches += rep.metrics.batches;
    m.lras_placed += rep.metrics.lras_placed;
    m.lras_rejected += rep.metrics.lras_rejected;
    m.resubmissions += rep.metrics.resubmissions;
    m.commit_conflicts += rep.metrics.commit_conflicts;
    m.stale_plans += rep.metrics.stale_plans;
    committed += rep.committed;
    submitted += rep.submitted;
    missing += rep.missing;
    epochs += rep.epochs;
    out.wall_s += rep.wall_s;
    submit_blocked_ms += rep.submit_blocked_ms;
    acquire_us += rep.acquire_us;
    acquires += rep.acquires;
  }
  out.attempted = submitted;

  // ---- End-to-end metrics ----
  out.E2e("setup_s", MedianOf(setup_s), "s");
  if (w.rate_segment > 0.0) {
    std::vector<std::vector<std::pair<double, double>>> runs;
    for (const ServiceRep& rep : reps) {
      runs.push_back(rep.progress);
    }
    char note[128];
    std::snprintf(note, sizeof(note),
                  "fastest of %zu repetitions per %ld containers; whole runs %.0f/s",
                  reps.size(), std::lround(w.rate_segment),
                  static_cast<double>(committed) / out.wall_s);
    out.E2e("containers_per_s", FastestSegmentRate(runs, w.rate_segment), "1/s", note);
  } else {
    out.E2e("containers_per_s", static_cast<double>(committed) / out.wall_s, "1/s",
            "committed / wall time");
  }
  out.E2e("cycle_p50_ms", NearestRank(stats.place_ms, 50.0), "ms");
  out.Tail("cycle_tail_ms", TailOf(stats.place_ms), "ms");
  char note[128];
  std::snprintf(note, sizeof(note), "%lld of %lld LRAs placed, %lld rejected", m.lras_placed,
                submitted, m.lras_rejected);
  out.E2e("lra_placed_pct",
          100.0 * static_cast<double>(m.lras_placed) /
              static_cast<double>(std::max<long long>(1, submitted)),
          "%", note);
  std::snprintf(note, sizeof(note), "%zu of %lld LRAs missing", missing, submitted);
  out.E2e("place_p50_ms", NearestRank(latencies, 50.0), "ms", note);
  out.Tail("place_tail_ms", TailOf(latencies), "ms");
  out.e2e["place_tail_ms"].note += std::string(", ") + note;

  // ---- Layers ----
  out.Layer("runtime.submit_blocked_ms", submit_blocked_ms, "ms");
  out.Layer("runtime.batches", static_cast<double>(m.batches), "count");
  out.Layer("runtime.lras_per_batch",
            static_cast<double>(stats.lras) / std::max<double>(1.0, m.batches), "count");
  out.Layer("runtime.resubmissions", static_cast<double>(m.resubmissions), "count");
  out.Layer("runtime.commit_conflicts", static_cast<double>(m.commit_conflicts), "count");
  out.Layer("runtime.stale_plans", static_cast<double>(m.stale_plans), "count");
  out.Layer("runtime.first_commit_ratio",
            stats.lras_planned > 0 ? 1.0 - static_cast<double>(m.commit_conflicts) /
                                               static_cast<double>(stats.lras_planned)
                                   : 0.0,
            "ratio");
  out.Layer("runtime.queue_wait_p50_ms", NearestRank(queue_waits, 50.0), "ms");
  out.Layer("cluster.epochs", static_cast<double>(epochs), "count");
  out.Layer("cluster.epochs_per_lra",
            static_cast<double>(epochs) / std::max<double>(1.0, submitted), "count");
  out.Layer("cluster.snapshot_acquire_us", acquire_us / std::max<double>(1.0, acquires), "us");
  ReportPlannerLayers(stats, &out);
  return out;
}

ClusterState BulkGreedyCluster() {
  return ClusterBuilder()
      .NumNodes(10'000)
      .NumRacks(40)  // 250-node racks, as in the service throughput bench
      .NumUpgradeDomains(20)
      .NumServiceUnits(100)
      .NodeCapacity(Resource(256 * 1024, 128))
      .Build();
}

constexpr size_t kIlpNodes = 5000;

// Fig. 11a's topology at 5000 nodes, in 40-node racks.
ClusterState Ilp5kCluster() {
  return ClusterBuilder()
      .NumNodes(kIlpNodes)
      .NumRacks(kIlpNodes / 40)
      .NumUpgradeDomains(10)
      .NumServiceUnits(25)
      .NodeCapacity(Resource(16 * 1024, 8))
      .Build();
}

ServiceWorkload MakeBulkGreedy(const Options& opt, ConstraintManager* manager) {
  ServiceWorkload w;
  w.build_cluster = BulkGreedyCluster;
  w.preload = [](ClusterState&) { return size_t{0}; };
  // 7813 LRAs x 128 = 1,000,064 containers, ~8 s at 125k containers/s on a
  // 4-core box. Each repetition refills a fresh service; the repetition
  // count, round(seconds / 5), scales with --seconds, so both sides of a
  // comparison do identical work.
  constexpr size_t lras = 7813;
  w.reps = std::max(1, static_cast<int>(std::lround(opt.seconds / 5.0)));
  w.rate_segment = 8 * 16 * 128;  // eight full batches, ~0.1 s
  Rng rng(opt.seed);
  std::vector<TagId> tags;
  for (int t = 0; t < 8; ++t) {
    tags.push_back(manager->tags().Intern("bulk_svc" + std::to_string(t)));
  }
  for (size_t a = 0; a < lras; ++a) {
    LraSpec spec;
    spec.request.app = ApplicationId(static_cast<uint32_t>(a + 1));
    const TagId tag = tags[rng.NextBounded(tags.size())];
    spec.request.containers.assign(128, ContainerRequest{kWorkerDemand, {tag}});
    w.specs.push_back(std::move(spec));
  }
  // ServiceConfig defaults: batches of 16, admission 64, 2 planners.
  w.in_flight = w.service.admission_capacity;
  w.planner = [] {
    return std::make_unique<GreedyScheduler>(GreedyOrdering::kSerial, SchedulerConfig{});
  };
  return w;
}

ServiceWorkload MakeIlp5k(const Options& opt, ConstraintManager* manager) {
  ServiceWorkload w;
  w.build_cluster = Ilp5kCluster;
  // Fig. 11a pre-load: constraint-free LRA containers at ~20% of resources.
  const uint64_t seed = opt.seed;
  w.preload = [seed](ClusterState& state) {
    Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
    size_t added = 0;
    for (size_t i = 0; i < kIlpNodes * 8 / 5; ++i) {
      const NodeId n(static_cast<uint32_t>(rng.NextBounded(kIlpNodes)));
      if (state.node(n).CanFit(kWorkerDemand)) {
        MEDEA_CHECK(state
                        .Allocate(ApplicationId(500000 + static_cast<uint32_t>(i % 100)), n,
                                  kWorkerDemand, {}, true)
                        .ok());
        ++added;
      }
    }
    return added;
  };
  // The §7.1 templates in fixed pairs, one pair per planner cycle (the
  // Fig. 11a cycle is a 2-LRA batch). A round holds six pairs: three whose
  // joint model overruns the 2 s ILP budget at this scale and is rejected
  // after three attempts, and three that solve well inside it. The pair
  // list, not the seed, fixes the mix, so the cycle-latency distribution
  // keeps its shape across seeds (time-limit cycles are 3/4 of all
  // cycles); the seed orders the pairs and places the pre-load. Each pair
  // is far from the budget on its side, so host speed does not flip it: on
  // a 4-vCPU VM with no time limit, the solving pairs finish in at most
  // ~0.4 s, and the overrunning ones need ~3 s to reach a first incumbent. Pairs near the
  // budget (TF+TF ~2.6 s, HBase+Memcached ~1.6 s, Storm+HBase ~0.6-1.2 s)
  // are left out.
  enum Template { kHBase, kTensorFlow, kStorm, kMemcached };
  using Pair = std::pair<Template, Template>;
  const std::vector<Pair> overrun = {
      {kHBase, kTensorFlow}, {kTensorFlow, kHBase}, {kHBase, kHBase}};
  const std::vector<Pair> solve = {
      {kTensorFlow, kStorm}, {kStorm, kMemcached}, {kTensorFlow, kMemcached}};
  // One round takes ~20 s on a 4-core box (9 overrun cycles of ~3 s on two
  // planners).
  const size_t rounds = std::max<size_t>(1, std::lround(opt.seconds / 20.0));
  Rng rng(opt.seed);
  const auto shuffled = [&rng](std::vector<Pair> pairs) {
    for (size_t i = pairs.size() - 1; i > 0; --i) {
      std::swap(pairs[i], pairs[rng.NextBounded(i + 1)]);
    }
    return pairs;
  };
  // Overrunning and solving pairs alternate, so a solving pair is planned
  // next to an overrunning one, which commits nothing. Two solving pairs
  // planned against the same snapshot tend to pick the same nodes; the
  // later commit then conflicts, and its LRAs are resubmitted one by one
  // and paired with whatever is queued next, which changes the batches.
  std::vector<Template> sequence;
  for (size_t r = 0; r < rounds; ++r) {
    const std::vector<Pair> o = shuffled(overrun);
    const std::vector<Pair> g = shuffled(solve);
    for (size_t i = 0; i < o.size(); ++i) {
      for (const Pair& pair : {o[i], g[i]}) {
        sequence.push_back(pair.first);
        sequence.push_back(pair.second);
      }
    }
  }
  std::set<std::string> shared;
  for (size_t a = 0; a < sequence.size(); ++a) {
    const ApplicationId app(static_cast<uint32_t>(a + 1));
    TagPool& tags = manager->tags();
    LraSpec spec;
    switch (sequence[a]) {
      case kHBase:
        spec = MakeHBaseInstance(app, tags, 10);
        break;
      case kTensorFlow:
        spec = MakeTensorFlowInstance(app, tags, 8, 2);
        break;
      case kStorm:
        spec = MakeStormInstance(app, tags, 5);
        break;
      case kMemcached:
        spec = MakeMemcachedInstance(app, tags);
        break;
    }
    // Cluster-wide constraints go in once, with operator origin.
    for (const std::string& text : spec.shared_constraints) {
      if (shared.insert(text).second) {
        MEDEA_CHECK(manager->AddFromText(text, ConstraintOrigin::kOperator).ok());
      }
    }
    spec.shared_constraints.clear();
    w.specs.push_back(std::move(spec));
  }
  // Fig. 11a's cycle: 2-LRA batches; 2 planners, each with one pair, and
  // one more pair queued, so a planner that finishes takes a whole pair.
  w.service.max_batch = 2;
  w.service.num_workers = 2;
  w.service.admission_capacity = 6;
  w.in_flight = 6;
  w.submit_group = 2;
  const SchedulerConfig config;  // production defaults
  w.time_limit_s = config.ilp_time_limit_seconds;
  w.planner = [config] { return std::make_unique<MedeaIlpScheduler>(config); };
  return w;
}

// ---- sim-trace ----------------------------------------------------------------------

struct SimRep {
  double setup_s = 0.0;
  double host_s = 0.0;
  double sim_s = 0.0;
  std::vector<double> slice_ms;
  size_t tasks_allocated = 0;
  std::vector<uint32_t> placed_apps;
  Distribution task_wait_ms;
  size_t lra_containers = 0;
  SimMetrics metrics;
  PlannerStats planner;
  int lras_submitted = 0;
};

constexpr SimTimeMs kMinuteMs = 60'000;
// RunUntil() step: ~0.1 host s, fine enough to see through sub-second
// co-tenant slowdowns (see the containers_per_s comment in RunSimPass).
constexpr SimTimeMs kSliceMs = 5'000;
// One unavailability-trace hour replays as one simulated minute.
constexpr SimTimeMs kTraceHourMs = kMinuteMs;
// Containers of one HBase LRA: 10 region servers, master, thrift, secondary.
constexpr size_t kHBaseContainers = 13;

// One HBase LRA per simulated minute.
int SimLras(SimTimeMs horizon) { return static_cast<int>(horizon / kMinuteMs); }

SimConfig SimTraceConfig() {
  SimConfig config;
  config.num_nodes = 150;
  config.num_racks = 10;
  config.num_upgrade_domains = 10;
  config.num_service_units = 10;
  return config;
}

// Builds one fully scheduled simulation (the timed set-up of sim-trace).
std::unique_ptr<Simulation> BuildSim(uint64_t seed, SimTimeMs horizon, TimedPlanner** planner) {
  // Medea-TP, the tag-popularity heuristic (§5.3): no wall-clock budget, so
  // a replay is a pure function of the seed. (An ILP cycle that hits its
  // time limit returns whatever incumbent it reached by then.)
  SchedulerConfig sched;  // production defaults
  sched.seed = seed;
  auto timed = std::make_unique<TimedPlanner>(
      std::make_unique<GreedyScheduler>(GreedyOrdering::kTagPopularity, sched), 0.0);
  *planner = timed.get();
  auto sim = std::make_unique<Simulation>(SimTraceConfig(), std::move(timed));

  GoogleTraceGenerator trace(GoogleTraceConfig{}, seed);
  for (const auto& arrival : trace.Generate(horizon)) {
    sim->SubmitTaskJobAt(arrival.time, {arrival.task});
  }
  // One constrained HBase LRA per simulated minute, arriving in the
  // minute's fourth scheduling interval. Failures (below) strike on minute
  // boundaries, so failover re-placements get cycles of their own and every
  // minute runs exactly one new-LRA cycle.
  Rng rng(seed * 31 + 7);
  for (int i = 0; i < SimLras(horizon); ++i) {
    const SimTimeMs at = static_cast<SimTimeMs>(i) * kMinuteMs + 30'000 +
                         static_cast<SimTimeMs>(rng.NextBounded(9000));
    LraSpec spec = MakeHBaseInstance(ApplicationId(static_cast<uint32_t>(i + 1)),
                                     sim->manager().tags(), 10);
    sim->SubmitLraAt(at, std::move(spec));
  }

  // Node failures/recoveries: per service unit, keep the trace's fraction
  // of its machines down, hour by hour (one trace hour per simulated
  // minute); everything is back up at the horizon.
  UnavailabilityConfig unavailability;
  unavailability.num_service_units = 10;
  unavailability.hours = static_cast<int>(horizon / kTraceHourMs);
  unavailability.event_rate = 0.05;  // a handful of correlated events per replay
  const UnavailabilityTrace outages = UnavailabilityTrace::Generate(unavailability, seed);
  const auto& units = sim->state().groups().SetsOf(kNodeGroupServiceUnit);
  for (size_t su = 0; su < units.size(); ++su) {
    const std::vector<NodeId>& nodes = units[su];
    size_t down = 0;
    for (int h = 0; h <= outages.hours(); ++h) {
      const SimTimeMs t = static_cast<SimTimeMs>(h) * kTraceHourMs;
      const size_t want =
          h == outages.hours()
              ? 0
              : static_cast<size_t>(std::lround(outages.FractionDown(h, static_cast<int>(su)) *
                                                static_cast<double>(nodes.size())));
      for (; down < want; ++down) {
        sim->NodeDownAt(t, nodes[down]);
      }
      for (; down > want; --down) {
        sim->NodeUpAt(t, nodes[down - 1]);
      }
    }
  }
  return sim;
}

SimRep RunSimRep(uint64_t seed, SimTimeMs horizon, SpanLog* spans,
                 std::unique_ptr<Simulation>* keep) {
  SimRep rep;
  TimedPlanner* planner = nullptr;
  const auto t0 = Clock::now();
  std::unique_ptr<Simulation> sim = BuildSim(seed, horizon, &planner);
  rep.lras_submitted = SimLras(horizon);
  rep.setup_s = MsSince(t0) / 1000.0;

  const auto start = Clock::now();
  for (SimTimeMs t = kSliceMs; t <= horizon; t += kSliceMs) {
    const int64_t span_start = spans->enabled() ? spans->NowUs() : 0;
    const auto s0 = Clock::now();
    sim->RunUntil(t);
    rep.slice_ms.push_back(MsSince(s0));
    if (spans->enabled()) {
      spans->Add("bench.run_until", "sim", span_start, 0);
    }
  }
  const int64_t span_start = spans->enabled() ? spans->NowUs() : 0;
  const auto drain = Clock::now();
  sim->RunUntilQuiescent();
  rep.slice_ms.push_back(MsSince(drain));
  if (spans->enabled()) {
    spans->Add("bench.run_until", "sim", span_start, 0);
  }
  rep.host_s = MsSince(start) / 1000.0;
  rep.sim_s = static_cast<double>(sim->now()) / 1000.0;
  rep.task_wait_ms = sim->task_scheduler().allocation_latency_ms();
  rep.tasks_allocated = rep.task_wait_ms.Count();
  rep.metrics = sim->metrics();
  rep.planner = planner->stats();
  for (int i = 1; i <= rep.lras_submitted; ++i) {
    if (sim->IsPlaced(ApplicationId(static_cast<uint32_t>(i)))) {
      rep.placed_apps.push_back(static_cast<uint32_t>(i));
    }
  }
  rep.lra_containers = sim->state().num_long_running_containers();
  *keep = std::move(sim);
  return rep;
}

Outcome RunSimPass(const Options& opt, bool traced) {
  Outcome out;
  SetTracing(traced);
  SpanLog spans;
  // Fig. 11c's replay: ten simulated minutes of the trace (~370k tasks,
  // ~6.5 s on a 4-core box), replayed --seconds / 7 times (at least twice,
  // to check determinism).
  const SimTimeMs horizon = 10 * kMinuteMs;
  const int num_reps = std::max(2, static_cast<int>(std::lround(opt.seconds / 7.0)));
  std::vector<double> setups;
  while (setups.size() + static_cast<size_t>(num_reps) < static_cast<size_t>(kSetupRepeats)) {
    TimedPlanner* unused = nullptr;
    const auto t0 = Clock::now();
    const std::unique_ptr<Simulation> sim = BuildSim(opt.seed, horizon, &unused);
    setups.push_back(MsSince(t0) / 1000.0);  // before the teardown
  }
  std::vector<SimRep> reps;
  std::unique_ptr<Simulation> last;
  for (int r = 0; r < num_reps; ++r) {
    last.reset();
    ReleaseFreeMemory();
    reps.push_back(RunSimRep(opt.seed, horizon, &spans, &last));
  }
  double host_s = 0.0;
  PlannerStats planner;
  SimMetrics m;
  for (const SimRep& r : reps) {
    setups.push_back(r.setup_s);
    host_s += r.host_s;
    planner.Merge(r.planner);
    m.cycles += r.metrics.cycles;
    m.lra_resubmissions += r.metrics.lra_resubmissions;
    m.commit_conflicts += r.metrics.commit_conflicts;
    out.attempted += r.lras_submitted + static_cast<long long>(r.tasks_allocated);
  }
  out.wall_s = host_s;

  // ---- Correctness ----
  const SimRep& a = reps.front();
  bool deterministic = true;
  for (const SimRep& b : reps) {
    deterministic = deterministic && a.tasks_allocated == b.tasks_allocated &&
                    a.placed_apps == b.placed_apps &&
                    a.task_wait_ms.Percentile(50) == b.task_wait_ms.Percentile(50) &&
                    TailOf(a.task_wait_ms.samples()).value ==
                        TailOf(b.task_wait_ms.samples()).value &&
                    a.lra_containers == b.lra_containers;
  }
  out.Check("replay_deterministic", deterministic,
            "task counts, placed-LRA sets or task waits differ across replays of one seed");
  // SimMetrics::lras_rejected also counts rejected failover re-placements,
  // so placed + rejected may exceed the submissions; every LRA counted as
  // placed must still be deployed at the end.
  const int unresolved =
      std::max(0, a.lras_submitted - a.metrics.lras_placed - a.metrics.lras_rejected);
  const bool resolved =
      unresolved == 0 && static_cast<size_t>(a.metrics.lras_placed) == a.placed_apps.size();
  out.Check("every_lra_resolved", resolved,
            std::to_string(a.metrics.lras_placed) + " placed (" +
                std::to_string(a.placed_apps.size()) + " deployed at the end) + " +
                std::to_string(a.metrics.lras_rejected) + " rejected of " +
                std::to_string(a.lras_submitted));
  if (!resolved) {
    out.failed = std::max(1, unresolved);
  }
  const size_t expected = a.placed_apps.size() * kHBaseContainers;
  out.Check("committed_containers_match", a.lra_containers == expected,
            std::to_string(a.lra_containers) + " committed vs " + std::to_string(expected));
  EvaluateFinalState(last->state(), last->manager(), &spans, &out);

  // ---- End-to-end metrics ----
  out.E2e("setup_s", MedianOf(setups), "s");
  // The replays do identical work; co-tenant noise only slows a slice
  // down, so each 5 s slice counts with its fastest replay.
  double best_host_s = 0.0;
  for (size_t i = 0; i < a.slice_ms.size(); ++i) {
    double best = a.slice_ms[i];
    for (const SimRep& r : reps) {
      best = std::min(best, r.slice_ms[i]);
    }
    best_host_s += best / 1000.0;
  }
  out.E2e("containers_per_s",
          static_cast<double>(a.tasks_allocated + a.lra_containers) / best_host_s, "1/s",
          "task + LRA containers, fastest replay per 5 s slice");
  // Each replay runs the same cycles: keep each cycle's fastest run.
  std::vector<double> cycle_ms = a.planner.place_ms;
  for (const SimRep& r : reps) {
    if (r.planner.place_ms.size() == cycle_ms.size()) {
      for (size_t i = 0; i < cycle_ms.size(); ++i) {
        cycle_ms[i] = std::min(cycle_ms[i], r.planner.place_ms[i]);
      }
    }
  }
  out.E2e("cycle_p50_ms", NearestRank(cycle_ms, 50.0), "ms", "fastest replay per cycle");
  out.Tail("cycle_tail_ms", TailOf(cycle_ms), "ms");
  char note[96];
  std::snprintf(note, sizeof(note), "%d of %d LRAs placed per replay", a.metrics.lras_placed,
                a.lras_submitted);
  out.E2e("lra_placed_pct", 100.0 * a.metrics.lras_placed / std::max(1, a.lras_submitted), "%",
          note);
  out.E2e("sim_speedup", a.sim_s / best_host_s, "x", "simulated s per host s");
  std::snprintf(note, sizeof(note), "%zu tasks, simulated ms", a.tasks_allocated);
  out.E2e("task_wait_p50_ms", a.task_wait_ms.Percentile(50), "ms", note);
  out.Tail("task_wait_tail_ms", TailOf(a.task_wait_ms.samples()), "ms");
  out.e2e["task_wait_tail_ms"].note += ", simulated ms";

  // ---- Layers ----
  out.Layer("runtime.batches", static_cast<double>(m.cycles), "count");
  out.Layer("runtime.lras_per_batch",
            static_cast<double>(planner.lras) / std::max<double>(1.0, planner.place_ms.size()),
            "count");
  out.Layer("runtime.resubmissions", static_cast<double>(m.lra_resubmissions), "count");
  out.Layer("runtime.commit_conflicts", static_cast<double>(m.commit_conflicts), "count");
  out.Layer("runtime.first_commit_ratio",
            planner.lras_planned > 0 ? 1.0 - static_cast<double>(m.commit_conflicts) /
                                                 static_cast<double>(planner.lras_planned)
                                     : 0.0,
            "ratio");
  // sim.slice_ms: host time per simulated minute (12 RunUntil steps).
  std::vector<double> minutes;
  for (const SimRep& r : reps) {
    const size_t per_minute = static_cast<size_t>(kMinuteMs / kSliceMs);
    for (size_t i = 0; i + per_minute <= r.slice_ms.size(); i += per_minute) {
      double ms = 0.0;
      for (size_t j = i; j < i + per_minute; ++j) {
        ms += r.slice_ms[j];
      }
      minutes.push_back(ms);
    }
  }
  out.Layer("sim.slice_ms.p50", NearestRank(minutes, 50.0), "ms");
  out.Layer("sim.slice_ms.tail", TailOf(minutes).value, "ms");
  size_t tasks = 0;
  for (const SimRep& r : reps) {
    tasks += r.tasks_allocated;
  }
  out.Layer("tasksched.tasks_allocated", static_cast<double>(tasks), "count");
  ReportPlannerLayers(planner, &out);
  return out;
}

// ---- Entry point ----------------------------------------------------------------------

Outcome RunWorkload(const Options& opt, bool traced) {
  if (opt.workload == "sim-trace") {
    return RunSimPass(opt, traced);
  }
  // The manager the service starts from: the workload's tags and operator
  // constraints, over the node groups of the workload's topology.
  const auto build = opt.workload == "bulk-greedy" ? MakeBulkGreedy : MakeIlp5k;
  ClusterState topology = (opt.workload == "bulk-greedy" ? BulkGreedyCluster : Ilp5kCluster)();
  ConstraintManager manager(topology.groups_ptr());
  const ServiceWorkload w = build(opt, &manager);
  return RunServicePass(w, manager, traced);
}

void PrintEnv(const Options& opt) {
  std::printf(
      "env {\"build_type\": \"%s\", \"compiler\": \"%s\", \"hardware_threads\": %u, "
      "\"git_sha\": \"%s\", \"src_digest\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %s, \"trace\": %d}\n",
      PLACEBENCH_BUILD_TYPE, PLACEBENCH_COMPILER, std::thread::hardware_concurrency(),
      opt.git_sha.c_str(), opt.src_digest.c_str(), opt.workload.c_str(),
      static_cast<unsigned long long>(opt.seed), JsonNumber(opt.seconds).c_str(),
      opt.trace ? 1 : 0);
}

void PrintOutcome(const Outcome& out) {
  for (const auto& [name, v] : out.e2e) {
    std::printf("e2e    %-22s %14.4f %-6s %s\n", name.c_str(), v.value, v.unit.c_str(),
                v.note.c_str());
  }
  for (const auto& [name, v] : out.layer) {
    std::printf("layer  %-30s %14.4f %s\n", name.c_str(), v.value, v.unit.c_str());
  }
  for (const auto& [name, check] : out.checks) {
    std::printf("check  %-36s %s %s\n", name.c_str(), check.ok ? "ok" : "FAILED",
                check.detail.c_str());
  }
}

int Run(const Options& opt) {
  PrintEnv(opt);
  std::fflush(stdout);
  Outcome out;
  if (opt.trace) {
    // Untraced baseline first, then the traced pass the layers come from.
    const Outcome baseline = RunWorkload(opt, false);
    out = RunWorkload(opt, true);
    out.Layer("trace.overhead_pct", 100.0 * (out.wall_s / baseline.wall_s - 1.0), "%");
    ReportRegistryLayers(&out);
    ReportSelfTimes(&out);
    SetTracing(false);
    for (const auto& [name, check] : baseline.checks) {
      out.Check("untraced." + name, check.ok, check.detail);
    }
  } else {
    out = RunWorkload(opt, false);
  }
  out.E2e("peak_rss_mb", PeakRssMb(), "MiB");
  PrintOutcome(out);

  const bool correct = out.correct();
  std::string metrics;
  const auto add = [&](const std::string& name, const Value& v) {
    metrics += (metrics.empty() ? "" : ", ") + std::string("\"") + name +
               "\": {\"value\": " + JsonNumber(v.value) + ", \"unit\": \"" + v.unit + "\"}";
  };
  if (opt.trace) {
    for (const auto& [name, unit] : PerLayer()) {
      const auto it = out.layer.find(name);
      add(name, it == out.layer.end() ? Value{0.0, unit, ""} : Value{it->second.value, unit, ""});
    }
  } else {
    for (const std::string& name : GatedEndToEnd()) {
      add(name, out.e2e.at(name));
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              correct ? "true" : "false", std::max<long long>(1, out.attempted), out.failed,
              metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace medea::placebench

int main(int argc, char** argv) {
  medea::placebench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--git-sha" && has_value) {
      opt.git_sha = argv[++i];
    } else if (arg == "--src-digest" && has_value) {
      opt.src_digest = argv[++i];
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (opt.workload != "bulk-greedy" && opt.workload != "ilp-5k" && opt.workload != "sim-trace") {
    std::fprintf(stderr,
                 "usage: placebench --workload bulk-greedy|ilp-5k|sim-trace --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  if (!(opt.seconds > 0.0)) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  return medea::placebench::Run(opt);
}
