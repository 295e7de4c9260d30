// Copyright (c) Medea reproduction authors.
// Semantics of the annotated sync primitives (src/common/sync): mutual
// exclusion, condvar wakeups and timeouts, thread naming and join-on-
// destruction. The *static* guarantees (GUARDED_BY etc.) are exercised by
// the clang -Werror=thread-safety build and the negative compile test; this
// file checks the runtime behavior the annotations describe.
// medea-lint: allow-file(raw-sync): this file tests the sync wrappers themselves, so
// it needs raw std::thread as the independent reference implementation.

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/sync/mutex.h"
#include "src/common/sync/thread.h"

namespace medea::sync {
namespace {

TEST(MutexTest, ProvidesMutualExclusion) {
  Mutex mu;
  int counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIncrements = 2500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        MutexLock lock(&mu);
        ++counter;
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  MutexLock lock(&mu);
  EXPECT_EQ(counter, kThreads * kIncrements);
}

TEST(MutexTest, TryLockFailsWhenHeld) {
  Mutex mu;
  mu.Lock();
  std::thread other([&] {
    EXPECT_FALSE(mu.TryLock());
  });
  other.join();
  mu.Unlock();
  ASSERT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(CondVarTest, SignalWakesWaiter) {
  Mutex mu;
  CondVar cv;
  bool ready = false;
  std::thread waiter([&] {
    MutexLock lock(&mu);
    while (!ready) {
      cv.Wait(&mu);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  {
    MutexLock lock(&mu);
    ready = true;
    cv.Signal();
  }
  waiter.join();
}

TEST(CondVarTest, WaitForTimesOut) {
  Mutex mu;
  CondVar cv;
  MutexLock lock(&mu);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(cv.WaitFor(&mu, std::chrono::milliseconds(20)));
  EXPECT_GE(std::chrono::steady_clock::now() - start, std::chrono::milliseconds(15));
}

TEST(ThreadTest, RunsBodyAndJoins) {
  std::atomic<bool> ran{false};
  {
    Thread thread("sync-test", [&] { ran.store(true); });
    EXPECT_EQ(thread.name(), "sync-test");
  }  // join-on-destruction
  EXPECT_TRUE(ran.load());
}

TEST(ThreadTest, JoinIsIdempotentAndSafeOnEmptyThread) {
  Thread empty;
  empty.Join();  // never started: no-op
  Thread thread("sync-test-2", [] {});
  thread.Join();
  thread.Join();  // second join: no-op
  EXPECT_FALSE(thread.Joinable());
}

TEST(ThreadTest, MoveAssignJoinsPreviousThread) {
  std::atomic<int> done{0};
  Thread thread("first", [&] { done.fetch_add(1); });
  thread = Thread("second", [&] { done.fetch_add(1); });
  // "first" must have been joined by the move-assignment.
  EXPECT_GE(done.load(), 1);
  thread.Join();
  EXPECT_EQ(done.load(), 2);
}

}  // namespace
}  // namespace medea::sync
