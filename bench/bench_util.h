// Copyright (c) Medea reproduction authors.
// Shared helpers for the per-figure bench binaries: batch LRA deployment
// through a scheduler, background-load filling, scheduler construction by
// name, and aligned table printing.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/core/violation.h"
#include "src/obs/metrics.h"
#include "src/schedulers/placement.h"
#include "src/workload/lra_templates.h"

// The build a BENCH_*.json "env" record names; bench/CMakeLists.txt defines
// these for the benches that write one.
#ifndef MEDEA_BENCH_BUILD_TYPE
#define MEDEA_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef MEDEA_BENCH_COMPILER
#define MEDEA_BENCH_COMPILER "unknown"
#endif
#ifndef MEDEA_BENCH_GIT_SHA
#define MEDEA_BENCH_GIT_SHA "unknown"
#endif

namespace medea::bench {

// Deploys `specs` through `scheduler` in batches of `batch_size`,
// registering each spec's constraints and committing each plan directly
// against `state`. Placement/rejection counts come back in the result;
// latency goes through the shared obs registry — each cycle's wall time is
// recorded into the `bench.deploy_cycle_ms` histogram (plus the scheduler's
// own `sched.place_ms.<name>`), so benches read distributions with
// HistogramSnapshot() instead of keeping private stopwatches.
struct DeployResult {
  int placed = 0;
  int rejected = 0;
};

DeployResult DeployLras(ClusterState& state, ConstraintManager& manager,
                        LraScheduler& scheduler, const std::vector<LraSpec>& specs,
                        int batch_size);

// ---- Shared metrics registry -----------------------------------------------

// Turns the obs layer on (idempotent) and zeroes the process-wide registry,
// so the calling bench case reads only its own samples. Call at the start
// of each measured case.
void ResetBenchRegistry();

// Snapshot of a registry latency histogram by name (empty snapshot with
// zeroed percentiles if nothing was recorded under that name).
obs::LatencyHistogram::Snapshot HistogramSnapshot(const std::string& name);

// Fills the cluster with short-running "background" task containers until
// the target memory fraction is reached, spreading least-loaded first.
// Returns the number of containers created.
// The default task shape matches the node memory:core ratio (2 GB per
// core), so memory and cores fill evenly.
int FillWithTasks(ClusterState& state, double memory_fraction,
                  const Resource& task_demand = Resource(2048, 1));

// Same, but skewed: service units receive load proportional to their index
// (later SUs much busier), to create the load imbalance production clusters
// exhibit. `skew` of 0 is uniform; 1 is strongly skewed.
int FillWithTasksSkewed(ClusterState& state, double memory_fraction, double skew, Rng& rng,
                        const Resource& task_demand = Resource(2048, 1));

// Scheduler factory: "medea-ilp", "medea-nc", "medea-tp", "serial",
// "j-kube", "j-kube++", "yarn".
std::unique_ptr<LraScheduler> MakeScheduler(const std::string& name,
                                            const SchedulerConfig& config);

// ---- Table printing --------------------------------------------------------

// Prints a header banner for a figure/table.
void PrintHeader(const std::string& title, const std::string& paper_expectation);

// Prints one row of right-aligned cells (first cell left-aligned, width 24;
// the rest width 12).
void PrintRow(const std::vector<std::string>& cells);

// Formats a double with the given precision.
std::string Fmt(double value, int precision = 2);

// Formats a box plot as "p25/p50/p75 (p5..p99)".
std::string FmtBox(const Distribution& d);

// Same shape, from an obs histogram snapshot (bucket-interpolated
// percentiles).
std::string FmtBox(const obs::LatencyHistogram::Snapshot& s);

// ---- JSON result files -----------------------------------------------------

// Minimal JSON emitter for machine-readable bench results (BENCH_*.json):
// an array of flat objects, built record by record. No external dependency,
// no nesting — exactly what the result files need.
//
//   JsonRecords out;
//   out.Begin().Field("model", "8x16").Field("pivots", 123).End();
//   out.WriteFile("BENCH_solver_micro.json");
class JsonRecords {
 public:
  // Starts a new record (object). Must be balanced by End().
  JsonRecords& Begin();
  JsonRecords& End();

  JsonRecords& Field(const std::string& key, const std::string& value);
  JsonRecords& Field(const std::string& key, const char* value);
  JsonRecords& Field(const std::string& key, double value);
  JsonRecords& Field(const std::string& key, long long value);
  JsonRecords& Field(const std::string& key, int value);
  JsonRecords& Field(const std::string& key, bool value);

  // The full array as a pretty-printed JSON string.
  std::string str() const;

  // Writes str() to `path`; returns false (and prints to stderr) on failure.
  bool WriteFile(const std::string& path) const;

 private:
  std::vector<std::vector<std::pair<std::string, std::string>>> records_;
};

}  // namespace medea::bench

#endif  // BENCH_BENCH_UTIL_H_
