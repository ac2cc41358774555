#include "runtime/budget.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace robmon::rt {

namespace {

/// What each transition sheds (upward) or restores (downward) — the
/// free-text tail of the codec v6 `bdgt` line.
std::string transition_detail(int from, int to) {
  if (to > from) {
    switch (static_cast<BudgetLevel>(to)) {
      case BudgetLevel::kStretch:
        return "stretch: idle-cadence ceiling boosted";
      case BudgetLevel::kShedPrediction:
        return "shed: lock-order prediction suspended";
      case BudgetLevel::kWiden:
        return "widen: detection periods widened toward the timer bound";
      case BudgetLevel::kNominal:
        break;
    }
    return "degrade";
  }
  switch (static_cast<BudgetLevel>(to)) {
    case BudgetLevel::kShedPrediction:
      return "recover: detection periods restored to base cadence";
    case BudgetLevel::kStretch:
      return "recover: lock-order prediction resumed";
    case BudgetLevel::kNominal:
      return "recover: nominal, full detection and prediction restored";
    case BudgetLevel::kWiden:
      break;
  }
  return "recover";
}

std::uint64_t to_ppm(double fraction) {
  if (fraction <= 0.0) return 0;
  return static_cast<std::uint64_t>(std::llround(fraction * 1e6));
}

}  // namespace

BudgetController::BudgetController(BudgetOptions options)
    : options_(options) {
  if (!enabled()) return;  // disabled controllers carry no constraints
  if (options_.fraction > 1.0) {
    throw std::invalid_argument(
        "BudgetController: fraction must be in (0, 1]");
  }
  if (options_.ewma_alpha <= 0.0 || options_.ewma_alpha > 1.0) {
    throw std::invalid_argument(
        "BudgetController: ewma_alpha must be in (0, 1]");
  }
  if (options_.recover_margin <= 0.0 || options_.recover_margin >= 1.0) {
    throw std::invalid_argument(
        "BudgetController: recover_margin must be in (0, 1)");
  }
  if (options_.decision_window < 0) {
    throw std::invalid_argument(
        "BudgetController: decision_window must be >= 0");
  }
  if (options_.stretch_boost < 1.0 || options_.widen_factor < 1.0) {
    throw std::invalid_argument(
        "BudgetController: stretch_boost and widen_factor must be >= 1");
  }
}

std::optional<trace::BudgetRecord> BudgetController::record_batch(
    util::TimeNs check_ns, util::TimeNs now) {
  if (!enabled()) return std::nullopt;
  if (check_ns > 0) {
    spent_ns_.fetch_add(static_cast<std::uint64_t>(check_ns),
                        std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (window_start_ < 0) {
    // First batch: it opens the window but has no wall-time denominator of
    // its own, so it only seeds the accumulator.
    window_start_ = now;
    window_spend_ = check_ns > 0 ? check_ns : 0;
    return std::nullopt;
  }
  if (check_ns > 0) window_spend_ += check_ns;
  const util::TimeNs elapsed = now - window_start_;
  if (elapsed < options_.decision_window) return std::nullopt;
  // Window closed: fold its spend ratio into the EWMA and re-open.  A
  // non-advancing wall clock (decision_window = 0 under a driven test)
  // still yields a finite ratio: the spend is charged against at least one
  // nanosecond.
  const double ratio = static_cast<double>(window_spend_) /
                       static_cast<double>(std::max<util::TimeNs>(1, elapsed));
  ewma_ = ewma_seeded_
              ? options_.ewma_alpha * ratio +
                    (1.0 - options_.ewma_alpha) * ewma_
              : ratio;
  ewma_seeded_ = true;
  window_start_ = now;
  window_spend_ = 0;

  const int current = level_.load(std::memory_order_relaxed);
  int next = current;
  if (ewma_ > options_.fraction &&
      current < static_cast<int>(BudgetLevel::kWiden)) {
    // One step per window: the ladder order (stretch, then shed prediction,
    // then widen) is how "prediction before detection" is enforced — the
    // controller cannot reach kWiden without having passed kShedPrediction.
    next = current + 1;
  } else if (ewma_ < options_.fraction * options_.recover_margin &&
             current > static_cast<int>(BudgetLevel::kNominal)) {
    next = current - 1;
  }
  if (next == current) return std::nullopt;

  level_.store(next, std::memory_order_relaxed);
  transitions_.fetch_add(1, std::memory_order_relaxed);
  trace::BudgetRecord record;
  record.from = current;
  record.to = next;
  record.spend_ppm = to_ppm(ewma_);
  record.budget_ppm = to_ppm(options_.fraction);
  record.at = now;
  record.detail = transition_detail(current, next);
  log_.push_back(record);
  return record;
}

std::vector<trace::BudgetRecord> BudgetController::log() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_;
}

}  // namespace robmon::rt
