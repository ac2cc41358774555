// BudgetController — the pool-wide overhead governor behind
// CheckerPool::Options::budget.
//
// The paper's pitch (Section 3.3) is detection cheap enough to leave on in
// production, but per-monitor EWMA stretch bounds nothing *globally*: a 10×
// load spike multiplies every monitor's per-check cost (Algorithm 1 replays
// the drained segment, so checks scale with event volume) and total
// detection spend grows unbounded.  The detectEr line of work shows that
// load-aware shedding is a lever that matters; this controller drives it
// from one number: the fraction of wall-clock time the pool may spend
// checking.
//
// Measurement reuses the batch-drain structure: the dispatching worker
// already brackets each batch, so one clock pair per dispatch (not per
// check), per checkpoint pass and per synchronous check_now() feeds
// record_batch().  Spend is accumulated over a decision window
// and folded into an EWMA of the spend *ratio* (check time / wall time);
// windows — not raw batches — drive transitions, so a single slow batch
// cannot whipsaw the level.
//
// Degradation is a fixed, documented ladder, one step per decision window:
//
//   0 kNominal         full detection and prediction
//   1 kStretch         idle-cadence ceiling × stretch_boost
//   2 kShedPrediction  lock-order *prediction* shed: checkpoint passes and
//                      per-check order folds skipped (resumable)
//   3 kWiden           every effective check period × widen_factor, still
//                      clamped to the smallest timer threshold (Tmax) —
//                      detection is widened toward Tmax, never dropped
//
// Confirmed-cycle (wait-for) detection and active recovery are never shed:
// the ladder tops out at deferring work the timer rules bound, and the
// wait-for checkpoint + recovery actuation run at every level.  Recovery is
// symmetric — one step down per window once the EWMA falls below
// fraction × recover_margin (hysteresis, so the controller does not oscillate
// on the budget boundary) — and every transition is appended to the log as a
// codec v6 `bdgt` record, so replay can re-derive what was shed and when.
//
// The controller takes timestamps as arguments and owns no clock: tests
// drive it deterministically (util::ManualClock feeding synthetic now/spend
// pairs), and the pool feeds it the same wall clock its cadence runs on.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

#include "trace/codec.hpp"
#include "util/clock.hpp"

namespace robmon::rt {

/// The degradation ladder, in shed order.  Values are the codec v6 `bdgt`
/// level encoding — keep them dense and ordered.
enum class BudgetLevel : int {
  kNominal = 0,
  kStretch = 1,
  kShedPrediction = 2,
  kWiden = 3,
};

struct BudgetOptions {
  /// Detection budget as a fraction of wall-clock time (0.01 = "detection
  /// ≤ 1% of cycles").  ≤ 0 disables the controller entirely: no
  /// measurement, no transitions, every knob neutral.
  double fraction = 0.0;
  /// EWMA weight of the newest window's spend ratio.
  double ewma_alpha = 0.3;
  /// Step back down once the EWMA falls below fraction × recover_margin.
  /// Must be in (0, 1): the gap between the two thresholds is the
  /// hysteresis band that keeps the level from oscillating at the boundary.
  double recover_margin = 0.5;
  /// Spend accumulation window; transitions are evaluated at most once per
  /// window.  0 evaluates on every record_batch (deterministic tests).
  util::TimeNs decision_window = 50 * util::kMillisecond;
  /// Level ≥ kStretch: multiplier on every monitor's idle-stretch ceiling.
  double stretch_boost = 4.0;
  /// Level kWiden: multiplier on every monitor's effective check period
  /// (applied before the Tmax clamp — latency stays timer-bounded).
  double widen_factor = 4.0;
};

class BudgetController {
 public:
  BudgetController() = default;
  /// Validates the knobs (throws std::invalid_argument) when enabled.
  explicit BudgetController(BudgetOptions options);

  bool enabled() const { return options_.fraction > 0.0; }
  const BudgetOptions& options() const { return options_; }

  /// Fold one dispatch batch that spent `check_ns` checking and finished at
  /// wall time `now`.  Returns the transition record when the degradation
  /// level changed; the record is also appended to log().  No-op when
  /// disabled.
  std::optional<trace::BudgetRecord> record_batch(util::TimeNs check_ns,
                                                  util::TimeNs now);

  /// Current ladder position.  Lock-free: hot paths (cadence updates, the
  /// prediction shed gate) read this on every check.
  BudgetLevel level() const {
    return static_cast<BudgetLevel>(level_.load(std::memory_order_relaxed));
  }

  // --- The knobs the pool reads (all neutral when disabled/nominal). -----

  /// Idle-cadence ceiling multiplier: options.stretch_boost at level ≥
  /// kStretch, otherwise 1.
  double stretch_boost() const {
    return level() >= BudgetLevel::kStretch ? options_.stretch_boost : 1.0;
  }
  /// Whether lock-order prediction (checkpoint passes and per-check folds)
  /// is currently shed.
  bool shed_prediction() const {
    return level() >= BudgetLevel::kShedPrediction;
  }
  /// Effective-period multiplier: options.widen_factor at kWiden, else 1.
  double widen_factor() const {
    return level() >= BudgetLevel::kWiden ? options_.widen_factor : 1.0;
  }

  std::uint64_t transitions() const {
    return transitions_.load(std::memory_order_relaxed);
  }
  /// Total `check_ns` folded so far: the spend the controller governs, as
  /// a cumulative figure callers can difference over any interval.
  std::uint64_t spent_ns() const {
    return spent_ns_.load(std::memory_order_relaxed);
  }
  /// Copy of the transition log, in order — the codec v6 `bdgt` records a
  /// trace export attaches.
  std::vector<trace::BudgetRecord> log() const;

 private:
  BudgetOptions options_;
  std::atomic<int> level_{0};
  std::atomic<std::uint64_t> transitions_{0};
  std::atomic<std::uint64_t> spent_ns_{0};

  /// Window accumulator + EWMA + log.  One lock acquisition per dispatch
  /// batch — record_batch is the only writer path.
  mutable std::mutex mu_;
  util::TimeNs window_start_ = -1;  ///< -1 until the first batch lands.
  util::TimeNs window_spend_ = 0;
  double ewma_ = 0.0;
  bool ewma_seeded_ = false;
  std::vector<trace::BudgetRecord> log_;
};

}  // namespace robmon::rt
