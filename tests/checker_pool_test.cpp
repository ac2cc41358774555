// CheckerPool engine tests: synchronous checks without workers, deadline
// ordering across monitors with different cadences, concurrent
// register/unregister while traffic flows, clean checks captured under
// live traffic, regression parity between a monitor's private one-thread
// pool and a shared pool on injected faults, and the evidence gate.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/checker_pool.hpp"
#include "runtime/hoare_monitor.hpp"
#include "util/clock.hpp"
#include "runtime/robust_monitor.hpp"
#include "workloads/allocator.hpp"
#include "workloads/bounded_buffer.hpp"
#include "workloads/loadgen.hpp"

namespace robmon::rt {
namespace {

using core::CollectingSink;
using core::FaultKind;
using core::MonitorSpec;
using core::RuleId;
using util::kMillisecond;

MonitorSpec relaxed_timers(MonitorSpec spec, util::TimeNs check_period) {
  spec.t_max = 5 * util::kSecond;
  spec.t_io = 5 * util::kSecond;
  spec.t_limit = 5 * util::kSecond;
  spec.check_period = check_period;
  return spec;
}

TEST(CheckerPoolTest, CheckNowNeedsNoWorkerThreads) {
  CheckerPool pool;
  CollectingSink sink;
  RobustMonitor::Options options;
  options.checker_pool = &pool;
  RobustMonitor monitor(
      relaxed_timers(MonitorSpec::manager("sync"), 20 * kMillisecond), sink,
      options);
  ASSERT_EQ(monitor.enter(1, "Op"), Status::kOk);
  monitor.exit(1);
  const auto stats = monitor.check_now();
  EXPECT_GT(stats.events, 0u);
  EXPECT_EQ(sink.count(), 0u);
  EXPECT_EQ(pool.thread_count(), 0u);  // never scheduled: no workers spawned
  EXPECT_EQ(pool.checks_executed(), 1u);
  // Ring-ingestion loss introspection: a drained, uncontended monitor log
  // lost nothing.
  EXPECT_EQ(pool.events_lost(), 0u);
}

// Regression: check_now() on an unregistered or just-removed MonitorId must
// return an empty CheckStats deterministically, never throw.  The schedule
// explorer (and any caller racing remove() against a checkpoint) probes ids
// that can vanish between its lookup and the call.
TEST(CheckerPoolTest, CheckNowOnRemovedOrUnknownIdReturnsEmpty) {
  CheckerPool pool;
  util::ManualClock clock(1000);
  HoareMonitor source(
      relaxed_timers(MonitorSpec::manager("stale"), 20 * kMillisecond), clock);
  const CheckerPool::MonitorId id = pool.add(source);
  ASSERT_EQ(source.enter(1, "Op"), Status::kOk);
  source.exit(1);
  EXPECT_GT(pool.check_now(id).events, 0u);  // live id: a real check
  pool.remove(id);
  const auto stale = pool.check_now(id);
  EXPECT_EQ(stale.events, 0u);
  EXPECT_EQ(stale.violations, 0u);
  const auto unknown =
      pool.check_now(static_cast<CheckerPool::MonitorId>(~0ull));
  EXPECT_EQ(unknown.events, 0u);
  EXPECT_EQ(unknown.violations, 0u);
}

TEST(CheckerPoolTest, DeadlineOrderingFollowsPerMonitorPeriods) {
  CheckerPool::Options pool_options;
  pool_options.threads = 1;  // one worker: ordering is fully observable
  CheckerPool pool(pool_options);
  CollectingSink fast_sink, slow_sink;
  RobustMonitor::Options options;
  options.checker_pool = &pool;
  RobustMonitor fast(
      relaxed_timers(MonitorSpec::manager("fast"), 5 * kMillisecond),
      fast_sink, options);
  RobustMonitor slow(
      relaxed_timers(MonitorSpec::manager("slow"), 25 * kMillisecond),
      slow_sink, options);
  EXPECT_EQ(pool.monitor_count(), 2u);
  // An outstanding hold keeps each monitor from being quiet, so every due
  // check runs the detector and checks_run() counts the pool's service of
  // each cadence (the evidence gate would answer a quiet monitor's checks
  // without running it).
  fast.note_hold(1);
  slow.note_hold(1);

  fast.start_checking();
  slow.start_checking();
  EXPECT_EQ(pool.scheduled_count(), 2u);
  EXPECT_EQ(pool.thread_count(), 1u);
  // Bounded poll, not a fixed settle sleep: once the 25ms cadence has been
  // served twice, the 5ms cadence has had ~10 slots and the strict ordering
  // below is decided.  (True virtual-time scheduling lives in the sim
  // backend — see tests/schedule_explorer.cpp.)
  for (int spin = 0; spin < 2000; ++spin) {
    if (slow.detector().checks_run() >= 2 &&
        fast.detector().checks_run() > slow.detector().checks_run()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  fast.stop_checking();
  slow.stop_checking();

  EXPECT_GE(fast.detector().checks_run(), 1u);
  EXPECT_GE(slow.detector().checks_run(), 1u);
  // 5ms cadence must be served strictly more often than 25ms cadence.
  EXPECT_GT(fast.detector().checks_run(), slow.detector().checks_run());
  EXPECT_EQ(fast_sink.count(), 0u);
  EXPECT_EQ(slow_sink.count(), 0u);
}

TEST(CheckerPoolTest, ConcurrentRegisterUnregisterWhileTrafficFlows) {
  CheckerPool pool;
  CollectingSink steady_sink;
  RobustMonitor::Options options;
  options.checker_pool = &pool;
  RobustMonitor steady(
      relaxed_timers(MonitorSpec::coordinator("steady", 4), 2 * kMillisecond),
      steady_sink, options);
  wl::BoundedBuffer buffer(steady, 4);
  steady.start_checking();

  std::atomic<bool> stop{false};
  std::vector<std::thread> traffic;
  for (int t = 0; t < 2; ++t) {
    traffic.emplace_back([&, t] {
      const trace::Pid pid = 10 + t;
      std::int64_t item = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if (buffer.send(pid, 1) != Status::kOk) return;
        if (buffer.receive(pid, &item) != Status::kOk) return;
      }
    });
  }

  // Churn: monitors join and leave the live pool while traffic flows.
  for (int round = 0; round < 40; ++round) {
    CollectingSink churn_sink;
    RobustMonitor churn(
        relaxed_timers(MonitorSpec::allocator("churn"), 1 * kMillisecond),
        churn_sink, options);
    wl::ResourceAllocator allocator(churn, 2);
    churn.start_checking();
    wl::ClientOptions client;
    client.iterations = 5;
    ASSERT_EQ(wl::run_allocator_client(allocator, 7,
                                       inject::NullInjection::instance(),
                                       client),
              Status::kOk);
    churn.check_now();
    churn.stop_checking();
    EXPECT_EQ(churn_sink.count(), 0u);
  }

  stop.store(true);
  for (auto& thread : traffic) thread.join();
  steady.stop_checking();
  steady.check_now();
  EXPECT_EQ(steady_sink.count(), 0u);
  EXPECT_GE(steady.detector().checks_run(), 1u);
  EXPECT_EQ(pool.monitor_count(), 1u);  // churn monitors all unregistered
}

TEST(CheckerPoolTest, CaptureUnderLiveTrafficStaysClean) {
  // capture() is the only suspension a check imposes: the segment and the
  // state come from one hold of the monitor's lock, and Algorithms 1-3 then
  // run while traffic continues.  A capture that let an operation fall
  // between the two would surface as an ST-1/ST-2/Running mismatch.  One
  // sender and two receivers at capacity 2 make both "full" and "empty"
  // waits park; a fourth thread cycles an allocator; a fifth checks both
  // monitors back-to-back for about half a second.
  CheckerPool pool;
  CollectingSink buffer_sink, allocator_sink;
  RobustMonitor::Options options;
  options.checker_pool = &pool;
  RobustMonitor coordinator(
      relaxed_timers(MonitorSpec::coordinator("buf", 2), 1 * kMillisecond),
      buffer_sink, options);
  RobustMonitor allocator_monitor(
      relaxed_timers(MonitorSpec::allocator("alloc"), 1 * kMillisecond),
      allocator_sink, options);
  wl::BoundedBuffer buffer(coordinator, 2);
  wl::ResourceAllocator allocator(allocator_monitor, 1);

  std::atomic<bool> stop{false};
  std::vector<std::thread> traffic;
  // The sender ends with one -1 per receiver; each receiver stops at its
  // first -1, so nobody is left parked.
  traffic.emplace_back([&] {
    for (std::int64_t k = 0; !stop.load(std::memory_order_relaxed); ++k) {
      if (buffer.send(1, k) != Status::kOk) return;
    }
    for (int r = 0; r < 2; ++r) {
      if (buffer.send(1, -1) != Status::kOk) return;
    }
  });
  for (trace::Pid pid : {2, 3}) {
    traffic.emplace_back([&buffer, pid] {
      std::int64_t item = 0;
      do {
        if (buffer.receive(pid, &item) != Status::kOk) return;
      } while (item != -1);
    });
  }
  traffic.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (allocator.acquire(4) != Status::kOk) return;
      if (allocator.release(4) != Status::kOk) return;
    }
  });

  // About half a second, and at least 1,000 checks however slowly a
  // sanitizer build runs them (capped well below the test timeout).
  const auto checks = [&] {
    return coordinator.detector().checks_run() +
           allocator_monitor.detector().checks_run();
  };
  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&] { return std::chrono::steady_clock::now() - start; };
  while ((elapsed() < std::chrono::milliseconds(500) || checks() < 1000) &&
         elapsed() < std::chrono::seconds(30)) {
    coordinator.check_now();
    allocator_monitor.check_now();
  }
  stop.store(true);
  for (auto& thread : traffic) thread.join();
  coordinator.check_now();
  allocator_monitor.check_now();

  EXPECT_EQ(buffer_sink.count(), 0u);
  EXPECT_EQ(allocator_sink.count(), 0u);
  EXPECT_GE(checks(), 1000u);
  EXPECT_GT(coordinator.monitor().log().total_appended(), 0u);
}

TEST(CheckerPoolTest, PrivatePoolDetectsInjectedFaultPeriodically) {
  CollectingSink sink;
  inject::ScriptedInjection injection(
      {FaultKind::kSendExceedsCapacity, trace::kNoPid, 1, false});
  RobustMonitor::Options options;
  options.injection = &injection;
  RobustMonitor monitor(
      relaxed_timers(MonitorSpec::coordinator("of", 2), 5 * kMillisecond),
      sink, options);
  wl::BoundedBuffer buffer(monitor, 2, injection);
  monitor.start_checking();
  ASSERT_EQ(buffer.send(1, 10), Status::kOk);
  ASSERT_EQ(buffer.send(1, 11), Status::kOk);
  ASSERT_EQ(buffer.send(1, 12), Status::kOk);  // injected overfill
  EXPECT_TRUE(injection.fired());
  for (int spin = 0; spin < 400; ++spin) {
    if (sink.any_with_rule(RuleId::kSt7aSendExceedsCapacity)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  monitor.stop_checking();
  EXPECT_TRUE(sink.any_with_rule(RuleId::kSt7aSendExceedsCapacity));
}

// The same injected fault through the shared-pool path.
TEST(CheckerPoolTest, SharedPoolDetectsInjectedFaultPeriodically) {
  CheckerPool pool;
  CollectingSink sink;
  inject::ScriptedInjection injection(
      {FaultKind::kSendExceedsCapacity, trace::kNoPid, 1, false});
  RobustMonitor::Options options;
  options.injection = &injection;
  options.checker_pool = &pool;
  RobustMonitor monitor(
      relaxed_timers(MonitorSpec::coordinator("of", 2), 5 * kMillisecond),
      sink, options);
  wl::BoundedBuffer buffer(monitor, 2, injection);
  monitor.start_checking();
  ASSERT_EQ(buffer.send(1, 10), Status::kOk);
  ASSERT_EQ(buffer.send(1, 11), Status::kOk);
  ASSERT_EQ(buffer.send(1, 12), Status::kOk);  // injected overfill
  EXPECT_TRUE(injection.fired());
  for (int spin = 0; spin < 400; ++spin) {
    if (sink.any_with_rule(RuleId::kSt7aSendExceedsCapacity)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  monitor.stop_checking();
  EXPECT_TRUE(sink.any_with_rule(RuleId::kSt7aSendExceedsCapacity));
}

TEST(CheckerPoolTest, FrozenManualClockDoesNotStallPeriodicChecking) {
  // The check cadence is wall-clock; Options::clock only timestamps the
  // detection rules.  A frozen ManualClock must not starve the scheduler.
  util::ManualClock clock(1000);
  CheckerPool pool;
  CollectingSink sink;
  RobustMonitor::Options options;
  options.checker_pool = &pool;
  options.clock = &clock;
  RobustMonitor monitor(
      relaxed_timers(MonitorSpec::manager("frozen"), 5 * kMillisecond), sink,
      options);
  // An outstanding hold keeps the monitor from being quiet, so every due
  // check runs the detector (see DeadlineOrderingFollowsPerMonitorPeriods).
  monitor.note_hold(1);
  monitor.start_checking();
  for (int spin = 0; spin < 400; ++spin) {
    if (monitor.detector().checks_run() >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  monitor.stop_checking();
  EXPECT_GE(monitor.detector().checks_run(), 2u);
  EXPECT_EQ(sink.count(), 0u);
}

// --- Evidence gate. ----------------------------------------------------------

/// Poll `done` every millisecond for up to ~4 s; returns its last value.
template <typename Predicate>
bool eventually(Predicate done) {
  for (int spin = 0; spin < 4000; ++spin) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

/// Due checks the evidence gate answered for the pool's only monitor.
std::uint64_t gated_checks(const CheckerPool& pool, RobustMonitor& monitor) {
  return pool.checks_executed() - monitor.detector().checks_run();
}

TEST(CheckerPoolTest, QuietMonitorIsAnsweredWithoutRunningTheDetector) {
  CheckerPool::Options pool_options;
  pool_options.threads = 1;
  CheckerPool pool(pool_options);
  CollectingSink sink;
  RobustMonitor::Options options;
  options.checker_pool = &pool;
  RobustMonitor monitor(
      relaxed_timers(MonitorSpec::manager("quiet"), 2 * kMillisecond), sink,
      options);
  monitor.start_checking();
  ASSERT_TRUE(eventually([&] { return monitor.detector().checks_run() >= 1; }));
  // Nothing changes: every later due check is answered by the gate, so
  // checks_executed() advances while the detector stays flat.
  ASSERT_TRUE(eventually([&] { return gated_checks(pool, monitor) >= 10; }));
  monitor.stop_checking();
  const std::uint64_t runs = monitor.detector().checks_run();
  EXPECT_EQ(runs, 1u);  // only the first check of the episode ran
  EXPECT_GE(pool.checks_executed(), runs + 10);

  // One primitive moves the state version: the next due check runs in full
  // and drains the two events.
  monitor.start_checking();
  ASSERT_EQ(monitor.enter(1, "Op"), Status::kOk);
  monitor.exit(1);
  ASSERT_TRUE(eventually(
      [&] { return monitor.detector().events_processed() >= 2; }));
  monitor.stop_checking();
  EXPECT_GT(monitor.detector().checks_run(), runs);
  EXPECT_EQ(sink.count(), 0u);
}

TEST(CheckerPoolTest, FabricatedReceiveOnQuietCoordinatorIsReported) {
  CheckerPool::Options pool_options;
  pool_options.threads = 1;
  CheckerPool pool(pool_options);
  CollectingSink sink;
  inject::ScriptedInjection injection(
      {FaultKind::kReceiveExceedsSend, trace::kNoPid, 1, false});
  RobustMonitor::Options options;
  options.injection = &injection;
  options.checker_pool = &pool;
  RobustMonitor monitor(
      relaxed_timers(MonitorSpec::coordinator("quiet-buf", 2),
                     2 * kMillisecond),
      sink, options);
  wl::BoundedBuffer buffer(monitor, 2, injection);
  monitor.start_checking();
  // The empty coordinator goes quiet: the gate answers its due checks.
  ASSERT_TRUE(eventually([&] { return gated_checks(pool, monitor) >= 3; }));
  std::int64_t item = 0;
  ASSERT_EQ(buffer.receive(1, &item), Status::kOk);  // II.c: fabricated
  EXPECT_TRUE(injection.fired());
  EXPECT_EQ(item, -1);
  EXPECT_TRUE(eventually(
      [&] { return sink.any_with_rule(RuleId::kSt7aReceiveExceedsSend); }));
  monitor.stop_checking();
}

TEST(CheckerPoolTest, StandingViolationIsReReportedAtEveryScheduledCheck) {
  CheckerPool::Options pool_options;
  pool_options.threads = 1;
  CheckerPool pool(pool_options);
  CollectingSink sink;
  inject::ScriptedInjection injection(
      {FaultKind::kReceiveExceedsSend, trace::kNoPid, 1, false});
  RobustMonitor::Options options;
  options.injection = &injection;
  options.checker_pool = &pool;
  RobustMonitor monitor(
      relaxed_timers(MonitorSpec::coordinator("standing", 2),
                     2 * kMillisecond),
      sink, options);
  wl::BoundedBuffer buffer(monitor, 2, injection);
  std::int64_t item = 0;
  ASSERT_EQ(buffer.receive(1, &item), Status::kOk);  // r > s from now on
  const auto reports = [&] {
    std::uint64_t n = 0;
    for (const auto& report : sink.reports()) {
      if (report.rule == RuleId::kSt7aReceiveExceedsSend) ++n;
    }
    return n;
  };
  monitor.start_checking();
  ASSERT_TRUE(eventually([&] { return reports() >= 1; }));
  monitor.stop_checking();
  const std::uint64_t reports_before = reports();
  const std::uint64_t runs_before = monitor.detector().checks_run();
  const std::uint64_t gated_before = gated_checks(pool, monitor);

  // The monitor's state never changes again, but a check that reported a
  // violation never leaves it quiet: every due check runs the detector and
  // re-reports the cumulative r > s.
  monitor.start_checking();
  ASSERT_TRUE(eventually([&] { return reports() >= reports_before + 5; }));
  monitor.stop_checking();
  EXPECT_EQ(gated_checks(pool, monitor), gated_before);
  EXPECT_EQ(reports() - reports_before,
            monitor.detector().checks_run() - runs_before);
}

TEST(MultiLoadTest, SharedPoolMissesNothing) {
  wl::MultiLoadOptions options;
  options.monitors = 6;
  options.threads_per_monitor = 2;
  options.ops_per_thread = 100;
  options.faulty_monitors = 2;
  options.check_period = 2 * kMillisecond;
  const wl::MultiLoadResult result = wl::run_multi_load(options);
  EXPECT_EQ(result.missed_detections, 0u);
  EXPECT_EQ(result.faulty_detected, 2u);
  EXPECT_EQ(result.false_positive_monitors, 0u);
  EXPECT_GT(result.checks_run, 0u);
  EXPECT_LE(result.checker_threads,
            std::max(1u, std::thread::hardware_concurrency()));
}

}  // namespace
}  // namespace robmon::rt
