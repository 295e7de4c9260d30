#include "placebench/bench_lib.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <unordered_map>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace medea::placebench {

double NearestRank(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  const size_t rank = static_cast<size_t>(std::max(1.0, std::ceil(p / 100.0 * n)));
  return samples[std::min(rank, samples.size()) - 1];
}

TailStat TailOf(std::vector<double> samples, size_t beyond) {
  TailStat tail;
  tail.samples = samples.size();
  if (samples.empty()) {
    return tail;
  }
  std::sort(samples.begin(), samples.end());
  if (samples.size() < 2 * beyond) {
    tail.value = samples.back();
    tail.percentile = 100.0;
    return tail;
  }
  const size_t n = samples.size();
  tail.value = samples[n - beyond - 1];
  tail.percentile = 100.0 * static_cast<double>(n - beyond) / static_cast<double>(n);
  tail.defined = true;
  return tail;
}

double FastestSegmentRate(const std::vector<std::vector<std::pair<double, double>>>& runs,
                          double segment) {
  if (runs.empty() || segment <= 0.0) {
    return 0.0;
  }
  size_t segments = SIZE_MAX;
  for (const auto& points : runs) {
    const double total = points.empty() ? 0.0 : points.back().second;
    segments = std::min(segments, static_cast<size_t>(total / segment));
  }
  if (segments == 0) {
    return 0.0;
  }
  std::vector<double> best_ms(segments, std::numeric_limits<double>::infinity());
  for (const auto& points : runs) {
    double boundary_ms = points.front().first;  // crossing of the previous boundary
    size_t next = 1;                             // segment whose end we look for
    for (size_t i = 1; i < points.size() && next <= segments; ++i) {
      const auto [t0, c0] = points[i - 1];
      const auto [t1, c1] = points[i];
      while (next <= segments && c1 >= static_cast<double>(next) * segment) {
        const double target = static_cast<double>(next) * segment;
        const double crossing_ms = c0 >= target ? t0 : t0 + (t1 - t0) * (target - c0) / (c1 - c0);
        best_ms[next - 1] = std::min(best_ms[next - 1], crossing_ms - boundary_ms);
        boundary_ms = crossing_ms;
        ++next;
      }
    }
  }
  double total_ms = 0.0;
  for (const double ms : best_ms) {
    total_ms += ms;
  }
  return total_ms > 0.0 ? static_cast<double>(segments) * segment * 1000.0 / total_ms : 0.0;
}

namespace {

// Self time of every span, in input order.
std::vector<double> SelfTimesUs(const std::vector<obs::TraceEvent>& spans) {
  std::unordered_map<uint32_t, std::vector<size_t>> by_thread;
  for (size_t i = 0; i < spans.size(); ++i) {
    by_thread[spans[i].tid].push_back(i);
  }
  std::vector<double> covered(spans.size(), 0.0);
  for (auto& [tid, order] : by_thread) {
    // Parents before their children: by start, then longest first.
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      const int64_t end_a = spans[a].start_us + spans[a].duration_us;
      const int64_t end_b = spans[b].start_us + spans[b].duration_us;
      return spans[a].start_us != spans[b].start_us ? spans[a].start_us < spans[b].start_us
                                                    : end_a > end_b;
    });
    std::vector<size_t> open;
    for (const size_t i : order) {
      const int64_t start = spans[i].start_us;
      const int64_t end = start + spans[i].duration_us;
      while (!open.empty() &&
             spans[open.back()].start_us + spans[open.back()].duration_us <= start) {
        open.pop_back();
      }
      if (!open.empty()) {
        const size_t parent = open.back();
        const int64_t parent_end = spans[parent].start_us + spans[parent].duration_us;
        covered[parent] += static_cast<double>(std::min(end, parent_end) - start);
      }
      open.push_back(i);
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = static_cast<double>(spans[i].duration_us) - covered[i];
  }
  return self;
}

template <typename KeyFn>
std::map<std::string, SpanTotals> Rollup(const std::vector<obs::TraceEvent>& spans, KeyFn key) {
  const std::vector<double> self_us = SelfTimesUs(spans);
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[key(spans[i])];
    ++t.count;
    t.busy_ms += static_cast<double>(spans[i].duration_us) / 1000.0;
    t.self_ms += self_us[i] / 1000.0;
  }
  return totals;
}

}  // namespace

std::map<std::string, SpanTotals> SelfTimesByName(const std::vector<obs::TraceEvent>& spans) {
  return Rollup(spans, [](const obs::TraceEvent& e) { return std::string(e.name); });
}

std::map<std::string, SpanTotals> SelfTimesByCategory(const std::vector<obs::TraceEvent>& spans) {
  return Rollup(spans, [](const obs::TraceEvent& e) { return std::string(e.category); });
}

void EpochWatch::OnSubmit(uint32_t app, double t_ms) {
  ++submitted_;
  waiting_.push_back(Waiting{app, t_ms});
}

std::vector<uint32_t> EpochWatch::missing_apps() const {
  std::vector<uint32_t> apps;
  apps.reserve(waiting_.size());
  for (const Waiting& w : waiting_) {
    apps.push_back(w.app);
  }
  std::sort(apps.begin(), apps.end());
  return apps;
}

std::vector<double> EpochWatch::LatenciesWithMissing() const {
  std::vector<double> all = latencies_ms_;
  all.insert(all.end(), waiting_.size(), std::numeric_limits<double>::infinity());
  return all;
}

void ReleaseFreeMemory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace medea::placebench
