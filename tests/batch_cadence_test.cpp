// Batched, adaptive-cadence checking engine tests: period clamping (no
// hot-spin on check_period == 0), dispatch amortization across a batch,
// backlog coalescing under a detector that outlasts its period, and the
// EWMA cadence controller (stretch on idle, snap back on traffic, never
// stretch an occupied monitor — the Tmax < T guarantee).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/checker_pool.hpp"
#include "runtime/robust_monitor.hpp"
#include "workloads/loadgen.hpp"

namespace robmon::rt {
namespace {

using core::CollectingSink;
using core::MonitorSpec;
using util::kMillisecond;

constexpr util::TimeNs kPeriodFloor = 100'000;  // CheckerPool's 100 µs clamp

MonitorSpec relaxed_timers(MonitorSpec spec, util::TimeNs check_period) {
  spec.t_max = 5 * util::kSecond;
  spec.t_io = 5 * util::kSecond;
  spec.t_limit = 5 * util::kSecond;
  spec.check_period = check_period;
  return spec;
}

/// A raw monitor/detector pair registered directly with a pool (no
/// RobustMonitor wrapper), so tests control MonitorOptions fully.
struct RawMonitor {
  RawMonitor(MonitorSpec spec, const util::Clock& clock)
      : monitor(spec, clock), detector(spec, monitor.symbols(), sink) {
    detector.initialize(monitor.snapshot());
  }
  CollectingSink sink;
  HoareMonitor monitor;
  core::Detector detector;
};

TEST(BatchCadenceTest, ZeroPeriodClampedToFloorAndDoesNotHotSpin) {
  CheckerPool pool(CheckerPool::Options{.threads = 1});
  util::ManualClock clock(0);
  RawMonitor raw(relaxed_timers(MonitorSpec::manager("zero"), 0), clock);
  const auto id = pool.add(raw.monitor, raw.detector);
  EXPECT_EQ(pool.period(id), kPeriodFloor);
  EXPECT_EQ(pool.effective_period(id), kPeriodFloor);

  pool.schedule(id);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  pool.unschedule(id);
  // 50 ms at the 100 µs floor is ≤ ~500 checks; a hot spin (zero period
  // honored literally) would be orders of magnitude more.
  EXPECT_GT(pool.checks_executed(), 0u);
  EXPECT_LT(pool.checks_executed(), 5000u);
}

TEST(BatchCadenceTest, NegativePeriodAndBadKnobsRejected) {
  CheckerPool pool;
  util::ManualClock clock(0);
  RawMonitor raw(relaxed_timers(MonitorSpec::manager("neg"), -1), clock);
  EXPECT_THROW(pool.add(raw.monitor, raw.detector), std::invalid_argument);

  RawMonitor ok(relaxed_timers(MonitorSpec::manager("ok"), kMillisecond),
                clock);
  CheckerPool::MonitorOptions bad_stretch;
  bad_stretch.max_stretch = 0.5;
  EXPECT_THROW(pool.add(ok.monitor, ok.detector, bad_stretch),
               std::invalid_argument);
}

TEST(BatchCadenceTest, AdaptiveCadenceStretchesIdleMonitorsGeometrically) {
  // check_now() drives the controller deterministically — no wall-clock
  // sleeps; the ManualClock stays frozen throughout.
  util::ManualClock clock(1000);
  CheckerPool::Options options;
  options.clock = &clock;
  CheckerPool pool(options);
  RawMonitor raw(relaxed_timers(MonitorSpec::manager("idle"), kMillisecond),
                 clock);
  CheckerPool::MonitorOptions mo;
  mo.max_stretch = 8.0;
  const auto id = pool.add(raw.monitor, raw.detector, mo);

  // First check drains the (empty) segment: idle → stretch doubles.
  std::vector<double> ladder;
  for (int i = 0; i < 6; ++i) {
    pool.check_now(id);
    ladder.push_back(pool.stretch(id));
    // The ceiling is always respected.
    EXPECT_LE(pool.effective_period(id), 8 * kMillisecond);
    EXPECT_GE(pool.effective_period(id), kMillisecond);
  }
  EXPECT_EQ(ladder.front(), 2.0);  // 1 → 2 on the first idle check
  EXPECT_EQ(ladder.back(), 8.0);   // capped at max_stretch
  for (std::size_t i = 1; i < ladder.size(); ++i) {
    EXPECT_GE(ladder[i], ladder[i - 1]);  // monotone while idle
  }
  EXPECT_EQ(pool.effective_period(id), 8 * kMillisecond);
  EXPECT_EQ(raw.sink.count(), 0u);
}

TEST(BatchCadenceTest, AdaptiveCadenceSnapsBackOnTraffic) {
  util::ManualClock clock(1000);
  CheckerPool::Options options;
  options.clock = &clock;
  CheckerPool pool(options);
  RawMonitor raw(relaxed_timers(MonitorSpec::manager("bursty"), kMillisecond),
                 clock);
  CheckerPool::MonitorOptions mo;
  mo.max_stretch = 8.0;
  const auto id = pool.add(raw.monitor, raw.detector, mo);

  for (int i = 0; i < 6; ++i) pool.check_now(id);
  ASSERT_EQ(pool.stretch(id), 8.0);  // fully stretched while idle

  // A burst: events arrive → the very next check snaps to base cadence.
  ASSERT_EQ(raw.monitor.enter(1, "Op"), Status::kOk);
  raw.monitor.exit(1);
  pool.check_now(id);
  EXPECT_EQ(pool.stretch(id), 1.0);
  EXPECT_EQ(pool.effective_period(id), kMillisecond);

  // Idle again: it re-stretches from the bottom of the ladder.
  pool.check_now(id);
  EXPECT_EQ(pool.stretch(id), 2.0);
  EXPECT_EQ(raw.sink.count(), 0u);
}

TEST(BatchCadenceTest, OccupiedMonitorIsNeverStretched) {
  // The Tmax < T detection-latency relation (Section 3.3): timer rules
  // (ST-5/6/8c) fire only against states with somebody running or queued,
  // so such states must keep the base cadence.  An occupied monitor never
  // stretches, no matter how many empty segments in a row it drains.
  util::ManualClock clock(1000);
  CheckerPool::Options options;
  options.clock = &clock;
  CheckerPool pool(options);
  RawMonitor raw(
      relaxed_timers(MonitorSpec::manager("occupied"), kMillisecond), clock);
  CheckerPool::MonitorOptions mo;
  mo.max_stretch = 8.0;
  const auto id = pool.add(raw.monitor, raw.detector, mo);

  ASSERT_EQ(raw.monitor.enter(1, "Op"), Status::kOk);  // stays inside
  for (int i = 0; i < 6; ++i) {
    pool.check_now(id);
    EXPECT_EQ(pool.stretch(id), 1.0) << "stretched an occupied monitor";
    EXPECT_EQ(pool.effective_period(id), kMillisecond);
  }
  raw.monitor.exit(1);
  pool.check_now(id);  // drains the exit event: still base cadence
  EXPECT_EQ(pool.stretch(id), 1.0);
  pool.check_now(id);  // idle AND empty now: stretching may begin
  EXPECT_EQ(pool.stretch(id), 2.0);
  EXPECT_EQ(raw.sink.count(), 0u);
}

TEST(BatchCadenceTest, StretchedPeriodClampedToSmallestTimerThreshold) {
  // Detection-latency bound: even fully stretched, the effective period
  // never exceeds min(Tmax, Tio, Tlimit), so an episode beginning mid-
  // stretched-interval meets its first (rule-evaluating) check within one
  // threshold of onset.
  util::ManualClock clock(1000);
  CheckerPool::Options options;
  options.clock = &clock;
  CheckerPool pool(options);
  core::MonitorSpec spec = MonitorSpec::manager("clamped");
  spec.check_period = kMillisecond;
  spec.t_max = 3 * kMillisecond;  // smallest threshold
  spec.t_io = 5 * kMillisecond;
  spec.t_limit = 5 * kMillisecond;
  RawMonitor raw(spec, clock);
  CheckerPool::MonitorOptions mo;
  mo.max_stretch = 16.0;  // would be 16 ms unclamped
  const auto id = pool.add(raw.monitor, raw.detector, mo);

  for (int i = 0; i < 8; ++i) pool.check_now(id);
  EXPECT_EQ(pool.stretch(id), 16.0);  // the ladder itself is uncapped
  EXPECT_EQ(pool.effective_period(id), 3 * kMillisecond);  // the period is
  EXPECT_EQ(raw.sink.count(), 0u);
}

TEST(BatchCadenceTest, BatchDispatchAmortizesWakeupsAcrossDueMonitors) {
  // M monitors on one cadence: the engine serves a deadline wave in a few
  // dispatches, where a per-item loop would pay one dispatch per check.
  constexpr std::size_t kMonitors = 16;
  CheckerPool pool(CheckerPool::Options{.threads = 1});
  util::ManualClock clock(0);
  std::vector<std::unique_ptr<RawMonitor>> raws;
  std::vector<CheckerPool::MonitorId> ids;
  for (std::size_t i = 0; i < kMonitors; ++i) {
    raws.push_back(std::make_unique<RawMonitor>(
        relaxed_timers(MonitorSpec::manager("m" + std::to_string(i)),
                       2 * kMillisecond),
        clock));
    ids.push_back(pool.add(raws.back()->monitor, raws.back()->detector));
  }
  for (const auto id : ids) pool.schedule(id);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  for (const auto id : ids) pool.unschedule(id);
  for (const auto& raw : raws) EXPECT_EQ(raw->sink.count(), 0u);
  const std::uint64_t checks = pool.checks_executed();
  ASSERT_GT(checks, kMonitors);
  // ≥2× fewer dispatches than checks (in practice ~kMonitors× — the whole
  // wave lands in one batch).
  EXPECT_LE(pool.dispatches() * 2, checks);
}

TEST(BatchCadenceTest, SlowChecksCoalesceTheirBacklog) {
  // A check that outlasts its period (on_checkpoint sleeps 8× the period)
  // must not build an unbounded backlog: the pool slips the grid and
  // counts the absorbed deadlines.
  CheckerPool pool(CheckerPool::Options{.threads = 1});
  util::ManualClock clock(0);
  RawMonitor raw(relaxed_timers(MonitorSpec::manager("slow"), 2 * kMillisecond),
                 clock);
  CheckerPool::MonitorOptions mo;
  mo.on_checkpoint = [](const trace::SchedulingState&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(16));
  };
  const auto id = pool.add(raw.monitor, raw.detector, mo);
  pool.schedule(id);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  pool.unschedule(id);
  const std::uint64_t checks = pool.checks_executed();
  EXPECT_GT(checks, 2u);
  // Cadence says ~100 checks in 200 ms; the 16 ms check bounds it near
  // ~12.  Generous ceiling: well under half the nominal cadence.
  EXPECT_LT(checks, 50u);
  EXPECT_GT(pool.checks_coalesced(), 0u);
  EXPECT_EQ(raw.sink.count(), 0u);
}

TEST(MultiLoadBatchingTest, BatchedAndAdaptiveEnginesMissNoInjectedFault) {
  // The engine-shape sweep: fixed and adaptive cadence must both detect
  // every injected fault with zero false positives — stretching changes
  // overhead, never coverage.
  for (const double max_stretch : {1.0, 4.0}) {
    wl::MultiLoadOptions options;
    options.monitors = 6;
    options.threads_per_monitor = 2;
    options.ops_per_thread = 2000;
    options.faulty_monitors = 2;
    options.check_period = 1 * kMillisecond;
    options.max_stretch = max_stretch;
    const wl::MultiLoadResult result = wl::run_multi_load(options);
    EXPECT_EQ(result.missed_detections, 0u) << "max_stretch=" << max_stretch;
    EXPECT_EQ(result.faulty_detected, 2u);
    EXPECT_EQ(result.false_positive_monitors, 0u);
    EXPECT_GT(result.checks_run, 0u);
  }
}

}  // namespace
}  // namespace robmon::rt
