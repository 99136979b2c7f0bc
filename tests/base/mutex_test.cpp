// base::Mutex / SharedMutex / CondVar functional tests, plus (when built
// with -DLEGION_LOCK_RANK_CHECKS=ON) death tests for the runtime
// acquisition-order checker.
#include "base/mutex.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "base/thread_annotations.hpp"

namespace legion::base {
namespace {

TEST(MutexTest, ExcludesConcurrentIncrements) {
  Mutex mu;
  int count GUARDED_BY(mu) = 0;
  constexpr int kThreads = 8;
  constexpr int kIters = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        MutexLock lock(mu);
        ++count;
      }
    });
  }
  for (auto& th : threads) th.join();
  MutexLock lock(mu);
  EXPECT_EQ(count, kThreads * kIters);
}

TEST(MutexTest, TryLockReflectsContention) {
  Mutex mu;
  mu.lock();
  std::atomic<bool> got{true};
  std::thread other([&] {
    if (mu.try_lock()) {
      mu.unlock();
    } else {
      got.store(false);
    }
  });
  other.join();
  EXPECT_FALSE(got.load());
  mu.unlock();
  EXPECT_TRUE(mu.try_lock());
  mu.unlock();
}

TEST(SharedMutexTest, WriterExcludesReaders) {
  SharedMutex mu;
  int value GUARDED_BY(mu) = 0;
  std::atomic<int> sum{0};
  {
    WriterMutexLock w(mu);
    value = 41;
    // Readers started now must not observe the intermediate state.
    std::thread reader([&] {
      ReaderMutexLock r(mu);
      sum.fetch_add(value);
    });
    value = 42;
    reader.detach();  // still blocked on the reader lock here
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Writer released; wait for the reader to land.
  while (sum.load() == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(sum.load(), 42);
}

TEST(SharedMutexTest, ReadersShareTheLock) {
  SharedMutex mu;
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  constexpr int kReaders = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      ReaderMutexLock lock(mu);
      const int now = concurrent.fetch_add(1) + 1;
      int seen = peak.load();
      while (seen < now && !peak.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      concurrent.fetch_sub(1);
    });
  }
  for (auto& th : threads) th.join();
  // All four readers overlap in practice; require at least two to keep the
  // assertion scheduling-robust.
  EXPECT_GE(peak.load(), 2);
}

TEST(CondVarTest, WaitWakesOnNotify) {
  Mutex mu;
  CondVar cv;
  bool ready GUARDED_BY(mu) = false;
  std::thread waker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    {
      MutexLock lock(mu);
      ready = true;
    }
    cv.notify_all();
  });
  {
    MutexLock lock(mu);
    while (!ready) cv.wait(mu);
    EXPECT_TRUE(ready);
  }
  waker.join();
}

TEST(CondVarTest, WaitUntilReportsTimeout) {
  Mutex mu;
  CondVar cv;
  MutexLock lock(mu);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  bool timed_out = false;
  // No notifier exists: the loop must exit via timeout, not hang.
  while (!timed_out) timed_out = cv.wait_until(mu, deadline);
  EXPECT_TRUE(timed_out);
}

TEST(CondVarTest, WaitForReportsTimeout) {
  Mutex mu;
  CondVar cv;
  MutexLock lock(mu);
  EXPECT_TRUE(cv.wait_for(mu, std::chrono::milliseconds(5)));
}

#ifdef LEGION_LOCK_RANK_CHECKS

using MutexRankDeathTest = ::testing::Test;

TEST(MutexRankDeathTest, OutOfOrderAcquireAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex low(lock_rank::kRng);
  Mutex high(lock_rank::kTraceRing);
  EXPECT_DEATH(
      {
        MutexLock outer(high);
        MutexLock inner(low);  // rank 36 under rank 94: order violation
      },
      "lock-rank violation");
}

TEST(MutexRankDeathTest, SameRankAcquireAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Mutex a(lock_rank::kFlights);
  Mutex b(lock_rank::kFlights);
  EXPECT_DEATH(
      {
        MutexLock outer(a);
        MutexLock inner(b);  // equal ranks may never nest
      },
      "lock-rank violation");
}

TEST(MutexRankDeathTest, InOrderAcquireIsFine) {
  Mutex low(lock_rank::kRng);
  Mutex high(lock_rank::kTraceRing);
  MutexLock outer(low);
  MutexLock inner(high);
  SUCCEED();
}

TEST(MutexRankDeathTest, UnrankedSkipsTheCheck) {
  Mutex ranked(lock_rank::kTraceRing);
  Mutex unranked;
  MutexLock outer(ranked);
  MutexLock inner(unranked);  // unranked = leaf-local, always allowed
  SUCCEED();
}

#endif  // LEGION_LOCK_RANK_CHECKS

}  // namespace
}  // namespace legion::base
