#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "sync/semaphore.hpp"
#include "sync/spinlock.hpp"

namespace robmon::sync {
namespace {

TEST(SemaphoreTest, InitialPermits) {
  Semaphore sem(2);
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_FALSE(sem.try_acquire());
}

TEST(SemaphoreTest, ReleaseWakesAcquirer) {
  Semaphore sem(0);
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    EXPECT_EQ(sem.acquire(), AcquireResult::kAcquired);
    acquired.store(true);
  });
  EXPECT_FALSE(acquired.load());
  sem.release();
  waiter.join();
  EXPECT_TRUE(acquired.load());
}

TEST(SemaphoreTest, TimedAcquireTimesOut) {
  Semaphore sem(0);
  EXPECT_EQ(sem.timed_acquire(1'000'000), AcquireResult::kTimeout);
}

TEST(SemaphoreTest, TimedAcquireSucceedsWithPermit) {
  Semaphore sem(1);
  EXPECT_EQ(sem.timed_acquire(1'000'000), AcquireResult::kAcquired);
}

TEST(SemaphoreTest, PoisonReleasesWaiters) {
  Semaphore sem(0);
  std::vector<std::thread> waiters;
  std::atomic<int> poisoned{0};
  for (int i = 0; i < 4; ++i) {
    waiters.emplace_back([&] {
      if (sem.acquire() == AcquireResult::kPoisoned) poisoned.fetch_add(1);
    });
  }
  sem.poison();
  for (auto& t : waiters) t.join();
  EXPECT_EQ(poisoned.load(), 4);
  // Future acquires also fail fast.
  EXPECT_EQ(sem.acquire(), AcquireResult::kPoisoned);
  EXPECT_TRUE(sem.poisoned());
}

TEST(SemaphoreTest, MultiPermitRelease) {
  Semaphore sem(0);
  sem.release(3);
  EXPECT_EQ(sem.available(), 3);
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_TRUE(sem.try_acquire());
  EXPECT_FALSE(sem.try_acquire());
}

TEST(BinarySemaphoreTest, HandoffProtocol) {
  BinarySemaphore sem;
  std::thread receiver([&] {
    EXPECT_EQ(sem.acquire(), AcquireResult::kAcquired);
  });
  sem.release();
  receiver.join();
}

TEST(SpinLockTest, MutualExclusionUnderContention) {
  SpinLock lock;
  std::int64_t counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIterations = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIterations; ++i) {
        std::lock_guard<SpinLock> guard(lock);
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter, kThreads * kIterations);
}

TEST(SpinLockTest, TryLock) {
  SpinLock lock;
  EXPECT_TRUE(lock.try_lock());
  EXPECT_FALSE(lock.try_lock());
  lock.unlock();
  EXPECT_TRUE(lock.try_lock());
  lock.unlock();
}

}  // namespace
}  // namespace robmon::sync
