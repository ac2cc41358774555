// Overhead-budget tests: the BudgetController ladder driven
// deterministically from a util::ManualClock (shed order, hysteresis,
// symmetric recovery, disabled-is-no-op), the CheckerPool integration
// (prediction shed before detection, wait-for checkpoints never shed,
// period widening), and a structural smoke of the wl::run_budget_spike
// scenario the bench and the nightly soak gate.  Spend *magnitudes* are load- and machine-dependent,
// so the scenario smoke asserts only the invariants that hold at any speed:
// ±1 chained transitions, zero missed deterministic detections, live
// wait-for passes during the spike.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <stdexcept>

#include "runtime/budget.hpp"
#include "runtime/checker_pool.hpp"
#include "runtime/robust_monitor.hpp"
#include "util/clock.hpp"
#include "workloads/loadgen.hpp"

namespace robmon::rt {
namespace {

using core::CollectingSink;
using core::MonitorSpec;
using util::kMillisecond;

MonitorSpec relaxed_timers(MonitorSpec spec, util::TimeNs check_period) {
  spec.t_max = 5 * util::kSecond;
  spec.t_io = 5 * util::kSecond;
  spec.t_limit = 5 * util::kSecond;
  spec.check_period = check_period;
  return spec;
}

/// Ten-millisecond decision windows, EWMA weight 1 (the newest window *is*
/// the EWMA), so one over/under-budget window moves the ladder exactly one
/// step — the deterministic harness for the controller tests.
BudgetOptions step_options() {
  BudgetOptions options;
  options.fraction = 0.01;
  options.ewma_alpha = 1.0;
  options.recover_margin = 0.5;
  options.decision_window = 10 * kMillisecond;
  options.stretch_boost = 4.0;
  options.widen_factor = 4.0;
  return options;
}

/// Advance the manual clock by `wall` and fold one batch that spent
/// `spend` ns checking — one full decision window per call under
/// step_options().
std::optional<trace::BudgetRecord> step(BudgetController& controller,
                                        util::ManualClock& clock,
                                        util::TimeNs spend,
                                        util::TimeNs wall = 10 * kMillisecond) {
  clock.advance(wall);
  return controller.record_batch(spend, clock.now_ns());
}

// --- Controller: disabled semantics. -----------------------------------------

TEST(BudgetControllerTest, DefaultConstructedIsDisabledNoOp) {
  BudgetController controller;
  util::ManualClock clock;
  EXPECT_FALSE(controller.enabled());
  for (int i = 0; i < 5; ++i) {
    // Wildly over any conceivable budget: still no measurement, no levels.
    EXPECT_EQ(step(controller, clock, 9 * kMillisecond), std::nullopt);
  }
  EXPECT_EQ(controller.level(), BudgetLevel::kNominal);
  EXPECT_EQ(controller.transitions(), 0u);
  EXPECT_TRUE(controller.log().empty());
  EXPECT_EQ(controller.spent_ns(), 0u);
  EXPECT_EQ(controller.stretch_boost(), 1.0);
  EXPECT_FALSE(controller.shed_prediction());
  EXPECT_EQ(controller.widen_factor(), 1.0);
}

TEST(BudgetControllerTest, ZeroFractionIsDisabledAndSkipsValidation) {
  BudgetOptions options = step_options();
  options.fraction = 0.0;
  options.ewma_alpha = 7.0;  // invalid — but a disabled controller
  options.recover_margin = 2.0;  // carries no constraints
  BudgetController controller{options};
  util::ManualClock clock;
  EXPECT_FALSE(controller.enabled());
  EXPECT_EQ(step(controller, clock, 9 * kMillisecond), std::nullopt);
  EXPECT_EQ(controller.level(), BudgetLevel::kNominal);
}

TEST(BudgetControllerTest, InvalidKnobsThrowWhenEnabled) {
  const auto with = [](auto mutate) {
    BudgetOptions options = step_options();
    mutate(options);
    return options;
  };
  EXPECT_THROW(BudgetController{with([](BudgetOptions& o) {
                 o.fraction = 1.5;
               })},
               std::invalid_argument);
  EXPECT_THROW(BudgetController{with([](BudgetOptions& o) {
                 o.ewma_alpha = 0.0;
               })},
               std::invalid_argument);
  EXPECT_THROW(BudgetController{with([](BudgetOptions& o) {
                 o.recover_margin = 1.0;
               })},
               std::invalid_argument);
  EXPECT_THROW(BudgetController{with([](BudgetOptions& o) {
                 o.decision_window = -1;
               })},
               std::invalid_argument);
  EXPECT_THROW(BudgetController{with([](BudgetOptions& o) {
                 o.stretch_boost = 0.5;
               })},
               std::invalid_argument);
  EXPECT_THROW(BudgetController{with([](BudgetOptions& o) {
                 o.widen_factor = 0.5;
               })},
               std::invalid_argument);
}

// --- Controller: the shed ladder. --------------------------------------------

TEST(BudgetControllerTest, LadderClimbsOneStepPerWindowInShedOrder) {
  BudgetController controller{step_options()};
  util::ManualClock clock;
  EXPECT_TRUE(controller.enabled());

  // First batch only seeds the window — no denominator yet.
  EXPECT_EQ(step(controller, clock, 0), std::nullopt);

  // 1 ms of checking per 10 ms window = 10% spend against a 1% budget.
  const auto first = step(controller, clock, 1 * kMillisecond);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->from, 0);
  EXPECT_EQ(first->to, 1);
  EXPECT_EQ(first->spend_ppm, 100000u);  // 10% as integer ppm
  EXPECT_EQ(first->budget_ppm, 10000u);  // 1% budget
  EXPECT_NE(first->detail.find("stretch"), std::string::npos);
  EXPECT_EQ(controller.level(), BudgetLevel::kStretch);
  // Stretch engaged; prediction and detection untouched — the shed order.
  EXPECT_EQ(controller.stretch_boost(), 4.0);
  EXPECT_FALSE(controller.shed_prediction());
  EXPECT_EQ(controller.widen_factor(), 1.0);

  const auto second = step(controller, clock, 1 * kMillisecond);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->from, 1);
  EXPECT_EQ(second->to, 2);
  EXPECT_NE(second->detail.find("prediction"), std::string::npos);
  EXPECT_EQ(controller.level(), BudgetLevel::kShedPrediction);
  EXPECT_TRUE(controller.shed_prediction());
  EXPECT_EQ(controller.widen_factor(), 1.0);  // detection still at base

  const auto third = step(controller, clock, 1 * kMillisecond);
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->from, 2);
  EXPECT_EQ(third->to, 3);
  EXPECT_NE(third->detail.find("widen"), std::string::npos);
  EXPECT_EQ(controller.level(), BudgetLevel::kWiden);
  EXPECT_EQ(controller.widen_factor(), 4.0);

  // The ladder tops out at kWiden: detection is widened toward the timer
  // bound, never dropped — there is no deeper level to shed it at.
  EXPECT_EQ(step(controller, clock, 1 * kMillisecond), std::nullopt);
  EXPECT_EQ(controller.level(), BudgetLevel::kWiden);
  EXPECT_EQ(controller.transitions(), 3u);
  // Every folded sample counts toward the cumulative spend.
  EXPECT_EQ(controller.spent_ns(),
            static_cast<std::uint64_t>(4 * kMillisecond));
}

TEST(BudgetControllerTest, HysteresisBandHoldsTheLevel) {
  BudgetController controller{step_options()};
  util::ManualClock clock;
  step(controller, clock, 0);  // seed
  step(controller, clock, 1 * kMillisecond);  // -> kStretch

  // 75 µs / 10 ms = 0.75%: under the 1% budget but above the 0.5% recovery
  // threshold — inside the hysteresis band, so the level must not move in
  // either direction.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(step(controller, clock, 75'000), std::nullopt);
  }
  EXPECT_EQ(controller.level(), BudgetLevel::kStretch);
  EXPECT_EQ(controller.transitions(), 1u);
}

TEST(BudgetControllerTest, RecoveryRetracesTheLadderSymmetrically) {
  BudgetController controller{step_options()};
  util::ManualClock clock;
  step(controller, clock, 0);  // seed
  step(controller, clock, 1 * kMillisecond);
  step(controller, clock, 1 * kMillisecond);
  step(controller, clock, 1 * kMillisecond);
  ASSERT_EQ(controller.level(), BudgetLevel::kWiden);

  // 10 µs / 10 ms = 0.1%, decisively under the 0.5% recovery threshold:
  // one step back down per window, in reverse shed order.
  const auto down3 = step(controller, clock, 10'000);
  ASSERT_TRUE(down3.has_value());
  EXPECT_EQ(down3->from, 3);
  EXPECT_EQ(down3->to, 2);
  EXPECT_NE(down3->detail.find("restored to base cadence"),
            std::string::npos);
  EXPECT_EQ(controller.widen_factor(), 1.0);
  EXPECT_TRUE(controller.shed_prediction());  // still shed at level 2

  const auto down2 = step(controller, clock, 10'000);
  ASSERT_TRUE(down2.has_value());
  EXPECT_EQ(down2->from, 2);
  EXPECT_EQ(down2->to, 1);
  EXPECT_NE(down2->detail.find("prediction resumed"), std::string::npos);
  EXPECT_FALSE(controller.shed_prediction());
  EXPECT_EQ(controller.stretch_boost(), 4.0);  // still boosted at level 1

  const auto down1 = step(controller, clock, 10'000);
  ASSERT_TRUE(down1.has_value());
  EXPECT_EQ(down1->from, 1);
  EXPECT_EQ(down1->to, 0);
  EXPECT_NE(down1->detail.find("nominal"), std::string::npos);
  EXPECT_EQ(controller.level(), BudgetLevel::kNominal);
  EXPECT_EQ(controller.stretch_boost(), 1.0);

  // Floor: a calm controller at nominal stays there.
  EXPECT_EQ(step(controller, clock, 10'000), std::nullopt);
  EXPECT_EQ(controller.level(), BudgetLevel::kNominal);

  // The log is the full round trip, every transition ±1 and chained —
  // exactly what wl::BudgetSpikeResult::shed_order_ok re-derives.
  const auto log = controller.log();
  ASSERT_EQ(log.size(), 6u);
  int level = 0;
  for (const trace::BudgetRecord& record : log) {
    EXPECT_EQ(record.from, level);
    EXPECT_EQ(std::abs(record.to - record.from), 1);
    level = record.to;
  }
  EXPECT_EQ(level, 0);
}

TEST(BudgetControllerTest, WindowsNotBatchesDriveTransitions) {
  BudgetController controller{step_options()};
  util::ManualClock clock;
  clock.advance(kMillisecond);
  controller.record_batch(0, clock.now_ns());  // seed

  // Three over-budget batches inside one 10 ms decision window: no
  // transition until the window closes — a single slow batch cannot
  // whipsaw the level.
  EXPECT_EQ(step(controller, clock, kMillisecond, 4 * kMillisecond),
            std::nullopt);
  EXPECT_EQ(step(controller, clock, kMillisecond, 4 * kMillisecond),
            std::nullopt);
  EXPECT_EQ(controller.level(), BudgetLevel::kNominal);
  const auto closed =
      step(controller, clock, kMillisecond, 4 * kMillisecond);
  ASSERT_TRUE(closed.has_value());  // 3 ms / 12 ms = 25% over a 1% budget
  EXPECT_EQ(closed->to, 1);
  EXPECT_EQ(controller.transitions(), 1u);
}

// --- Pool integration. -------------------------------------------------------

/// Pool options with an unreachably small budget and decision_window = 0:
/// every measured sample closes a window, so a handful of check_now()
/// calls deterministically walks the ladder to kWiden.
CheckerPool::Options pressure_pool_options(core::ReportSink* waitfor_sink,
                                           core::ReportSink* lockorder_sink) {
  CheckerPool::Options options;
  options.threads = 1;
  options.waitfor_checkpoint_period = util::kSecond;
  options.waitfor_sink = waitfor_sink;
  options.lockorder_checkpoint_period = util::kSecond;
  options.lockorder_sink = lockorder_sink;
  options.budget.fraction = 1e-6;
  options.budget.ewma_alpha = 1.0;
  options.budget.recover_margin = 0.5;
  options.budget.decision_window = 0;
  options.budget.stretch_boost = 4.0;
  options.budget.widen_factor = 4.0;
  return options;
}

TEST(CheckerPoolBudgetTest, ShedsPredictionButNeverWaitForDetection) {
  CollectingSink sink, waitfor_sink, lockorder_sink;
  CheckerPool pool(pressure_pool_options(&waitfor_sink, &lockorder_sink));
  RobustMonitor monitor(
      relaxed_timers(MonitorSpec::manager("budget"), 20 * kMillisecond),
      sink);
  const CheckerPool::MonitorId id =
      pool.add(monitor.monitor(), monitor.detector(), {});

  // Prediction runs while nominal.
  EXPECT_EQ(pool.budget_level(), BudgetLevel::kNominal);
  pool.run_lockorder_checkpoint();
  EXPECT_EQ(pool.lockorder_checkpoints(), 1u);
  EXPECT_EQ(pool.prediction_sheds(), 0u);

  // Drive measured checks until the ladder tops out (every sample is over
  // the 1e-6 budget; the first only seeds the window).
  for (int i = 0; i < 50 && pool.budget_level() != BudgetLevel::kWiden;
       ++i) {
    ASSERT_EQ(monitor.enter(1, "Op"), Status::kOk);
    monitor.exit(1);
    pool.check_now(id);
  }
  ASSERT_EQ(pool.budget_level(), BudgetLevel::kWiden);
  EXPECT_GE(pool.checks_executed(), 3u);

  // Lock-order prediction is shed: the pass is skipped (and counted as a
  // shed), not run.
  const std::uint64_t passes_before = pool.lockorder_checkpoints();
  EXPECT_EQ(pool.run_lockorder_checkpoint(), 0u);
  EXPECT_EQ(pool.lockorder_checkpoints(), passes_before);
  EXPECT_GE(pool.prediction_sheds(), 1u);

  // Confirmed-cycle detection is NEVER shed: wait-for passes still run at
  // the deepest degradation level.
  const std::uint64_t waitfor_before = pool.waitfor_checkpoints();
  pool.run_waitfor_checkpoint();
  EXPECT_EQ(pool.waitfor_checkpoints(), waitfor_before + 1);

  // And the transition log spells out the order it got here in.
  const auto log = pool.budget_log();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_NE(log[0].detail.find("stretch"), std::string::npos);
  EXPECT_NE(log[1].detail.find("prediction"), std::string::npos);
  EXPECT_NE(log[2].detail.find("widen"), std::string::npos);
  EXPECT_EQ(pool.budget_transitions(), 3u);
}

TEST(CheckerPoolBudgetTest, WidenMultipliesEffectivePeriodAtTopLevel) {
  CollectingSink sink, waitfor_sink, lockorder_sink;
  CheckerPool pool(pressure_pool_options(&waitfor_sink, &lockorder_sink));
  RobustMonitor monitor(
      relaxed_timers(MonitorSpec::manager("widen"), 20 * kMillisecond),
      sink);
  const CheckerPool::MonitorId id =
      pool.add(monitor.monitor(), monitor.detector(), {});
  EXPECT_EQ(pool.effective_period(id), pool.period(id));

  for (int i = 0; i < 50 && pool.budget_level() != BudgetLevel::kWiden;
       ++i) {
    pool.check_now(id);
  }
  ASSERT_EQ(pool.budget_level(), BudgetLevel::kWiden);

  // Idle under pressure: the stretch ceiling is max_stretch (1.0 here) ×
  // stretch_boost, so the boost alone carried the stretch to 4 — and the
  // effective period reflects it (timers are relaxed to 5 s, far above
  // 4 × 20 ms, so the smallest-timer clamp does not bite).
  pool.check_now(id);
  EXPECT_EQ(pool.stretch(id), 4.0);
  EXPECT_EQ(pool.effective_period(id), 4 * pool.period(id));

  // Activity snaps the stretch back to base — but kWiden multiplies the
  // effective period of EVERY monitor, active ones included: widening is
  // its own lever, not stretch.
  ASSERT_EQ(monitor.enter(1, "Op"), Status::kOk);
  monitor.exit(1);
  pool.check_now(id);
  EXPECT_EQ(pool.stretch(id), 1.0);
  EXPECT_EQ(pool.effective_period(id), 4 * pool.period(id));
}

TEST(CheckerPoolBudgetTest, DisabledBudgetKeepsEveryKnobNeutral) {
  CollectingSink sink;
  CheckerPool pool;  // Options::budget defaults to fraction 0 = disabled
  RobustMonitor monitor(
      relaxed_timers(MonitorSpec::manager("off"), 20 * kMillisecond), sink);
  const CheckerPool::MonitorId id =
      pool.add(monitor.monitor(), monitor.detector(), {});
  for (int i = 0; i < 10; ++i) pool.check_now(id);
  EXPECT_EQ(pool.budget_level(), BudgetLevel::kNominal);
  EXPECT_EQ(pool.budget_transitions(), 0u);
  EXPECT_TRUE(pool.budget_log().empty());
  EXPECT_EQ(pool.effective_period(id), pool.period(id));
  EXPECT_EQ(pool.checks_executed(), 10u);  // accounted, just not governed
}

// --- Spike scenario (the shape bench/check_overhead and the soak gate). ------

TEST(BudgetSpikeScenarioTest, StructuralInvariantsHoldAtAnySpeed) {
  wl::BudgetSpikeOptions options;
  // Shortened phases: this smoke gates the invariants that are
  // load-independent, not the calibrated spend magnitudes (those are the
  // bench's closed-loop contract, measured over the full-length phases).
  options.baseline_ns = 250 * kMillisecond;
  options.spike_ns = 500 * kMillisecond;
  options.post_ns = 400 * kMillisecond;
  const wl::BudgetSpikeResult result = wl::run_budget_spike(options);

  // Deterministic detections: the fabricated receive on each faulty
  // coordinator and the release-before-acquire client on each faulty
  // allocator must be caught at every degradation level, in the
  // calibration pass and in the governed pass.
  EXPECT_EQ(result.faults_expected, 4u);
  EXPECT_EQ(result.faulty_detected, 4u);
  EXPECT_EQ(result.missed_detections, 0u);
  EXPECT_EQ(result.false_positive_monitors, 0u);
  EXPECT_EQ(result.events_lost, 0u);

  // Every transition ±1 and chained from the previous level — prediction
  // is structurally shed before detection widens, and recovery retraces
  // the same ladder.
  EXPECT_TRUE(result.shed_order_ok);
  EXPECT_GE(result.max_level, result.final_level);
  EXPECT_LE(result.max_level, static_cast<int>(BudgetLevel::kWiden));
  EXPECT_EQ(result.transitions, result.budget_log.size());

  // Confirmed-cycle detection stayed live through the spike's measured
  // window.
  EXPECT_GT(result.waitfor_passes_during_spike, 0u);

  EXPECT_GT(result.operations, 0u);
  EXPECT_GT(result.seconds, 0.0);
  // The budget is the calibration pass's calm spend over the recovery
  // margin (0.8), so the recovery threshold sits at that spend.
  EXPECT_GT(result.budget_fraction, 0.0);
  EXPECT_NEAR(result.budget_fraction * 0.8,
              result.uncontrolled_baseline_spend, 1e-9);
}

}  // namespace
}  // namespace robmon::rt
