// Copyright (c) Medea reproduction authors.
// Helpers of the end-to-end placement benchmark (placebench.cc), kept apart
// so they can be unit-tested (bench_lib_test.cc):
//
//   * Percentiles and the tail statistic: `*_tail_*` metrics report the
//     highest percentile that still has at least ten samples beyond it, and
//     say which percentile that was and over how many samples.
//   * Span self time: a span's duration minus the parts of it covered by
//     the spans nested inside it on the same thread.
//   * EpochWatch: the bookkeeping behind place_p50_ms / place_tail_ms. Each
//     LRA's latency runs from Submit() returning to the first published
//     epoch whose snapshot holds its containers; an LRA that never shows up
//     (rejected, or unresolved at the end) counts as a missing sample, i.e.
//     as +infinity, so rejections push the percentiles up instead of
//     silently leaving the distribution.

#ifndef PLACEBENCH_BENCH_LIB_H_
#define PLACEBENCH_BENCH_LIB_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/trace.h"

namespace medea::placebench {

// Samples beyond the tail percentile (see TailOf).
inline constexpr size_t kTailBeyond = 10;

// Nearest-rank percentile (p in (0, 100]) of `samples`; +infinity entries
// are allowed and sort last. 0 for an empty input.
double NearestRank(std::vector<double> samples, double p);

struct TailStat {
  double value = 0.0;
  // The percentile `value` sits at: 100 * (n - beyond) / n.
  double percentile = 0.0;
  size_t samples = 0;
  // False when there are too few samples for a tail at or above the median
  // (n < 2 * beyond): `value` is then the maximum and `percentile` 100.
  bool defined = false;
};

// The highest percentile with at least `beyond` samples above it: the
// (n - beyond)-th smallest sample, exactly `beyond` samples past it.
TailStat TailOf(std::vector<double> samples, size_t beyond = kTailBeyond);

// Throughput of repetitions that do the same work, counting each stretch of
// work at its fastest repetition. `runs` are progress series, (time ms,
// cumulative count) in time order, starting at (0, 0). The work is cut into
// segments of `segment` counts; a repetition crosses a segment boundary at
// the time interpolated linearly between the two points around it, so a
// point that overshoots a boundary (or several) splits its interval in
// proportion instead of handing the overshoot to the next segment.
// Co-tenant slowdowns on a shared host only ever stretch a segment, so this
// is steadier than total / wall time. Returns counts per second over the
// segments every repetition completed, or 0 if there are none.
double FastestSegmentRate(const std::vector<std::vector<std::pair<double, double>>>& runs,
                          double segment);

// ---- Span self time ---------------------------------------------------------

struct SpanTotals {
  long long count = 0;
  double busy_ms = 0.0;  // sum of durations
  double self_ms = 0.0;  // sum of durations minus nested child intervals
};

// Per-span-name totals. Spans nest per thread (tid); a child's interval is
// clipped to its parent's before it is subtracted, and sibling children of
// one parent never overlap on a single thread, so the subtraction is the
// parent's covered time exactly.
std::map<std::string, SpanTotals> SelfTimesByName(const std::vector<obs::TraceEvent>& spans);

// Same, rolled up by span category (the benchmark maps categories to
// layers: service/runtime, cluster, sched, solver, core, sim).
std::map<std::string, SpanTotals> SelfTimesByCategory(const std::vector<obs::TraceEvent>& spans);

// ---- Epoch-watch latency bookkeeping ----------------------------------------

class EpochWatch {
 public:
  // Records that `app` was submitted, Submit() having returned at `t_ms`.
  void OnSubmit(uint32_t app, double t_ms);

  // A newly published epoch observed at `t_ms`: every waiting app for which
  // `in_snapshot(app)` holds is resolved as placed with latency
  // t_ms - submit time. Returns how many resolved.
  template <typename InSnapshot>
  size_t OnEpoch(double t_ms, InSnapshot&& in_snapshot) {
    size_t resolved = 0;
    for (size_t i = 0; i < waiting_.size();) {
      if (in_snapshot(waiting_[i].app)) {
        latencies_ms_.push_back(t_ms - waiting_[i].submit_ms);
        placed_.push_back(waiting_[i].app);
        waiting_[i] = waiting_.back();
        waiting_.pop_back();
        ++resolved;
      } else {
        ++i;
      }
    }
    return resolved;
  }

  size_t submitted() const { return submitted_; }
  size_t placed() const { return latencies_ms_.size(); }
  // Apps submitted but not (yet) seen in any snapshot: rejected or pending.
  size_t missing() const { return waiting_.size(); }
  const std::vector<uint32_t>& placed_apps() const { return placed_; }
  std::vector<uint32_t> missing_apps() const;

  // Latencies of every submitted app, missing ones as +infinity.
  std::vector<double> LatenciesWithMissing() const;
  double P50Ms() const { return NearestRank(LatenciesWithMissing(), 50.0); }
  TailStat TailMs() const { return TailOf(LatenciesWithMissing()); }

 private:
  struct Waiting {
    uint32_t app = 0;
    double submit_ms = 0.0;
  };
  size_t submitted_ = 0;
  std::vector<Waiting> waiting_;
  std::vector<double> latencies_ms_;
  std::vector<uint32_t> placed_;
};

// ---- Misc -------------------------------------------------------------------

// Returns freed heap memory to the OS (glibc malloc_trim), so the peak RSS
// of one repetition does not depend on what earlier ones left in the
// allocator's per-thread arenas. No-op elsewhere.
void ReleaseFreeMemory();

// Peak resident set size of this process in MiB (VmHWM), 0 if unknown.
double PeakRssMb();

// A double as JSON (non-finite values become null).
std::string JsonNumber(double value);

}  // namespace medea::placebench

#endif  // PLACEBENCH_BENCH_LIB_H_
