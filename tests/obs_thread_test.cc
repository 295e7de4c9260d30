// Copyright (c) Medea reproduction authors.
// Concurrency test for the observability layer, designed to run under
// ThreadSanitizer (the `tsan` preset filter matches "ThreadTest"). Several
// writer threads hammer counters, gauges, histograms and the trace ring
// while reader threads concurrently snapshot, export JSON lines and write
// Chrome traces — plus a toggler flipping the enabled flags mid-flight, the
// exact races the relaxed-load fast path must survive.
// medea-lint: allow-file(raw-sync): deliberate raw std::thread use — this TSan hammer
// must race the obs layer without the sync wrappers' own synchronization in the way.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace medea::obs {
namespace {

TEST(ObsThreadTest, ConcurrentWritersReadersAndTogglesAreClean) {
  EnableMetrics(true);
  MetricsRegistry::Default().Reset();
  TraceRecorder::Default().Enable(256);  // small ring: wraparound races too

  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 400;
  std::atomic<bool> stop{false};
  // Ops each writer actually performed. A writer's first kOpsPerWriter ops
  // can all land inside one of the toggler's metrics-disabled windows, so it
  // keeps going until its own counter has recorded at least once (or the
  // deadline passes, which the value > 0 check below then reports).
  std::vector<long long> ops_done(kWriters, 0);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  // Each writer bumps the shared counter and its own counter as one pair,
  // under a shared lock the toggler takes exclusively to flip the flag: both
  // halves of a pair see the same flag, so the shared counter must equal the
  // sum of the per-writer ones. Everything else races the toggles freely.
  std::shared_mutex pair_mu;

  std::vector<std::thread> workers;
  // Writers: every helper on a mix of shared and per-thread metric names.
  for (int w = 0; w < kWriters; ++w) {
    workers.emplace_back([w, deadline, &ops_done, &pair_mu] {
      SetCurrentThreadName("obs-writer-" + std::to_string(w));
      const std::string own = "obs_thread_test.writer_" + std::to_string(w);
      const Counter& own_counter = MetricsRegistry::Default().CounterNamed(own);
      long long i = 0;
      for (; i < kOpsPerWriter ||
             (own_counter.value() == 0 && std::chrono::steady_clock::now() < deadline);
           ++i) {
        {
          const std::shared_lock<std::shared_mutex> pair(pair_mu);
          Count("obs_thread_test.shared_counter");
          Count(own);
        }
        SetGauge("obs_thread_test.shared_gauge", static_cast<double>(i));
        Observe("obs_thread_test.shared_hist_ms", 0.001 * (1 + (w * kOpsPerWriter + i) % 997));
        { ScopedLatencyTimer timer("obs_thread_test.timer_ms"); }
        { ScopedSpan span("obs_thread_test.span", "test"); }
      }
      ops_done[static_cast<size_t>(w)] = i;
    });
  }
  // Readers: consistent snapshots and exports while writes are in flight.
  workers.emplace_back([&stop] {
    int iteration = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const auto snapshot = MetricsRegistry::Default()
                                .HistogramNamed("obs_thread_test.shared_hist_ms")
                                .TakeSnapshot();
      // Sanity under concurrency: the aggregates are internally consistent.
      if (snapshot.count > 0) {
        EXPECT_GE(snapshot.max_ms, snapshot.min_ms);
        EXPECT_GE(snapshot.p99, snapshot.p50);
      }
      (void)MetricsRegistry::Default().SnapshotJsonLines();
      (void)TraceRecorder::Default().Snapshot();
      (void)TraceRecorder::Default().dropped();
      if (++iteration % 8 == 0) {
        const std::string path =
            ::testing::TempDir() + "/obs_thread_test_trace.json";
        (void)TraceRecorder::Default().WriteChromeTrace(path);
        std::remove(path.c_str());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  // Toggler: instrumentation sites must tolerate the flags flipping at any
  // point (the disabled fast path racing against in-flight recordings).
  workers.emplace_back([&stop, &pair_mu] {
    const auto set_enabled = [&pair_mu](bool enabled) {
      const std::unique_lock<std::shared_mutex> flip(pair_mu);
      EnableMetrics(enabled);
    };
    while (!stop.load(std::memory_order_acquire)) {
      set_enabled(false);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      set_enabled(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (int w = 0; w < kWriters; ++w) {
    workers[static_cast<size_t>(w)].join();
  }
  stop.store(true, std::memory_order_release);
  for (size_t i = kWriters; i < workers.size(); ++i) {
    workers[i].join();
  }

  EnableMetrics(true);
  // Per-writer counters only race against the toggler, so each is at most
  // the ops that writer performed; the shared counter is the sum of whatever
  // landed.
  long long own_total = 0;
  long long ops_total = 0;
  for (int w = 0; w < kWriters; ++w) {
    const long long value = MetricsRegistry::Default()
                                .CounterNamed("obs_thread_test.writer_" + std::to_string(w))
                                .value();
    const long long ops = ops_done[static_cast<size_t>(w)];
    EXPECT_GT(value, 0) << "writer " << w << " after " << ops << " ops";
    EXPECT_LE(value, ops);
    own_total += value;
    ops_total += ops;
  }
  EXPECT_EQ(MetricsRegistry::Default().CounterNamed("obs_thread_test.shared_counter").value(),
            own_total);
  const auto hist =
      MetricsRegistry::Default().HistogramNamed("obs_thread_test.shared_hist_ms").TakeSnapshot();
  EXPECT_GT(hist.count, 0u);
  EXPECT_LE(hist.count, static_cast<size_t>(ops_total));

  // The trace ring wrapped (far more spans than capacity) without losing
  // structural integrity: full ring, monotone non-negative durations.
  const auto spans = TraceRecorder::Default().Snapshot();
  EXPECT_EQ(spans.size(), 256u);
  for (const TraceEvent& span : spans) {
    EXPECT_GE(span.duration_us, 0);
    EXPECT_GE(span.tid, 1u);
  }
  EXPECT_GT(TraceRecorder::Default().dropped(), 0u);

  EnableMetrics(false);
  TraceRecorder::Default().Disable();
}

TEST(ObsThreadTest, ConcurrentRegistrationReturnsOneInstancePerName) {
  EnableMetrics(true);
  constexpr int kThreads = 8;
  std::vector<Counter*> seen(kThreads, nullptr);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, &seen] {
      seen[static_cast<size_t>(t)] =
          &MetricsRegistry::Default().CounterNamed("obs_thread_test.registration_race");
      seen[static_cast<size_t>(t)]->Add(1);
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<size_t>(t)], seen[0]);  // one shared instance
  }
  EXPECT_EQ(seen[0]->value(), kThreads);
  EnableMetrics(false);
}

}  // namespace
}  // namespace medea::obs
