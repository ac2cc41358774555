// Interposition-adapter overhead bench — the cost the LD_PRELOAD shim adds
// to an application's mutex traffic, measured at the SyntheticMonitor
// producer surface (owner state updated in place).  Rows:
//
//   pthread_baseline   an uncontended pthread_mutex lock/unlock pair with
//                      no adaptation — what the host paid before the shim
//   adapter_pair       the lock_acquired + unlocked pair of a thread's
//                      outermost hold, with the stamp check the wrappers
//                      make before each lock (the pure per-operation
//                      adapter cost of an uncontended lock: no clock read,
//                      no atomic read-modify-write)
//   adapter_nested     an outer and an inner pair, nested: the inner
//                      acquisition stamps the outer hold and reads the
//                      clock for its own start (four operations)
//   adapter_mt(T)      T threads each recording a blocked-then-cancelled
//                      episode on one monitor concurrently (contention on
//                      the monitor's queue lock)
//
// Human-readable table only — the shim's end-to-end acceptance runs live
// in CI (the vanilla dining clean/deadlock legs); this bench is for sizing
// the per-operation cost, not for gating.
#include <pthread.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <vector>

#include "interpose/synthetic_monitor.hpp"
#include "util/clock.hpp"
#include "util/flags.hpp"

namespace {

using robmon::interpose::SyntheticMonitor;
using robmon::interpose::ThreadHolds;

double ns_per_op(std::chrono::steady_clock::time_point start,
                 std::chrono::steady_clock::time_point stop,
                 std::int64_t operations) {
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start);
  return static_cast<double>(elapsed.count()) /
         static_cast<double>(operations);
}

double bench_pthread_baseline(std::int64_t iters) {
  pthread_mutex_t mutex = PTHREAD_MUTEX_INITIALIZER;
  const auto start = std::chrono::steady_clock::now();
  for (std::int64_t i = 0; i < iters; ++i) {
    pthread_mutex_lock(&mutex);
    pthread_mutex_unlock(&mutex);
  }
  const auto stop = std::chrono::steady_clock::now();
  pthread_mutex_destroy(&mutex);
  return ns_per_op(start, stop, 2 * iters);
}

double bench_adapter_pair(std::int64_t iters) {
  SyntheticMonitor monitor("bench", SyntheticMonitor::Kind::kMutex,
                           robmon::util::SteadyClock::instance(),
                           SyntheticMonitor::Config{});
  ThreadHolds holds;
  const auto start = std::chrono::steady_clock::now();
  for (std::int64_t i = 0; i < iters; ++i) {
    SyntheticMonitor::stamp_outer(1, holds);
    monitor.lock_acquired(1, holds);
    monitor.unlocked(1, holds);
  }
  const auto stop = std::chrono::steady_clock::now();
  return ns_per_op(start, stop, 2 * iters);
}

double bench_adapter_nested(std::int64_t iters) {
  SyntheticMonitor outer("outer", SyntheticMonitor::Kind::kMutex,
                         robmon::util::SteadyClock::instance(),
                         SyntheticMonitor::Config{});
  SyntheticMonitor inner("inner", SyntheticMonitor::Kind::kMutex,
                         robmon::util::SteadyClock::instance(),
                         SyntheticMonitor::Config{});
  ThreadHolds holds;
  const auto start = std::chrono::steady_clock::now();
  for (std::int64_t i = 0; i < iters; ++i) {
    SyntheticMonitor::stamp_outer(1, holds);
    outer.lock_acquired(1, holds);
    SyntheticMonitor::stamp_outer(1, holds);
    inner.lock_acquired(1, holds);
    inner.unlocked(1, holds);
    outer.unlocked(1, holds);
  }
  const auto stop = std::chrono::steady_clock::now();
  return ns_per_op(start, stop, 4 * iters);
}

double bench_adapter_mt(std::int64_t iters, int threads) {
  SyntheticMonitor monitor("bench", SyntheticMonitor::Kind::kMutex,
                           robmon::util::SteadyClock::instance(),
                           SyntheticMonitor::Config{});
  const std::int64_t per_thread = iters / threads;
  std::vector<std::thread> producers;
  const auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < threads; ++t) {
    producers.emplace_back([&, t] {
      const robmon::Tid tid = static_cast<robmon::Tid>(t + 1);
      for (std::int64_t i = 0; i < per_thread; ++i) {
        monitor.lock_blocked(tid);
        monitor.lock_cancelled(tid);
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  const auto stop = std::chrono::steady_clock::now();
  return ns_per_op(start, stop, 2 * per_thread * threads);
}

}  // namespace

int main(int argc, char** argv) {
  robmon::util::Flags flags;
  flags.define("iters", "200000", "operations pairs per row");
  flags.define("threads", "4", "producer threads for the contended row");
  if (!flags.parse(argc, argv)) return 2;
  const std::int64_t iters = flags.i64("iters");
  const int threads = static_cast<int>(flags.i64("threads"));

  const double baseline = bench_pthread_baseline(iters);
  const double pair = bench_adapter_pair(iters);
  const double nested = bench_adapter_nested(iters);
  const double contended = bench_adapter_mt(iters, threads);

  std::printf("%-24s %10s %12s\n", "row", "ns/op", "vs baseline");
  std::printf("%-24s %10.1f %12s\n", "pthread_baseline", baseline, "1.00x");
  std::printf("%-24s %10.1f %11.2fx\n", "adapter_pair", pair,
              pair / baseline);
  std::printf("%-24s %10.1f %11.2fx\n", "adapter_nested", nested,
              nested / baseline);
  std::printf("adapter_mt(%-2d)           %10.1f %11.2fx\n", threads,
              contended, contended / baseline);
  return 0;
}
