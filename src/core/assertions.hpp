// User-supplied and predefined assertions — the extension the paper names
// as future work in Section 5: "Extensions can be made to allow predefined
// and user-supplied assertions to be specified as part of monitor
// declarations and used for checking the functional operations and external
// use of the monitors."
//
// An assertion is a named predicate over the scheduling state, evaluated by
// the detector at every checking point (after the ST-Rule algorithms).  A
// failing assertion produces a FaultReport with RuleId::kUserAssertion.
//
// Predefined assertion factories cover the common invariants of the three
// monitor types; arbitrary user predicates can capture application state
// (e.g. "balance never negative").
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "trace/snapshot.hpp"

namespace robmon::core {

/// Predicate over the scheduling state at a checking point.  Must be pure
/// and fast; it runs on the captured state.
using AssertionFn = std::function<bool(const trace::SchedulingState&)>;

struct MonitorAssertion {
  std::string name;
  AssertionFn predicate;
};

// --- Predefined assertions (Section 5's "predefined" family). ---------------

/// R# stays within [lo, hi] — the coordinator integrity envelope.
MonitorAssertion resources_within(std::int64_t lo, std::int64_t hi);

/// No more than `limit` processes blocked on the entry queue (a coarse
/// admission-backlog bound).
MonitorAssertion entry_queue_at_most(std::size_t limit);

/// No more than `limit` processes blocked across all condition queues.
MonitorAssertion blocked_at_most(std::size_t limit);

/// The monitor is idle (no runner, nothing queued) — useful as a
/// quiescence postcondition at teardown checking points.
MonitorAssertion monitor_idle();

}  // namespace robmon::core
