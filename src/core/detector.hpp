// Detector: orchestrates the periodic checking phase (Section 3.3).
//
// At each checking point the caller supplies the event segment recorded
// since the previous point and the current scheduling state; the detector
// runs Algorithm-1 (all monitor types), Algorithm-2 (communication
// coordinators) and Algorithm-3 (resource allocators), persists the state
// needed for the next point (s_p, cumulative r/s counters, Request-List)
// and forwards violations to the ReportSink.
//
// Backends call this from their checker thread / checker task; the offline
// replayer calls it once per recorded checkpoint.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/algorithms.hpp"
#include "core/assertions.hpp"
#include "core/fault.hpp"
#include "core/monitor_spec.hpp"
#include "trace/event.hpp"
#include "trace/snapshot.hpp"

namespace robmon::core {

class Detector {
 public:
  /// `symbols` and `sink` must outlive the detector.
  Detector(MonitorSpec spec, trace::SymbolTable& symbols, ReportSink& sink);

  /// Establish the scheduling state at detector start (s_p for the first
  /// check).  Typically the empty state captured before any process runs.
  void initialize(const trace::SchedulingState& initial);

  /// Re-baseline after an *out-of-band* transition — a recovery action
  /// (victim monitor poisoned, designated fault delivered) wakes parked
  /// threads without recording the resume events the ST-Rules expect, so
  /// the detector must restart from the post-action state as if freshly
  /// initialized: previous state replaced, cumulative resource counters
  /// cleared, and the Request-List rebuilt from the state's holders and
  /// in-flight acquirers.  The caller must drain (discard) the event
  /// segment spanning the action; rt::CheckerPool does both from one
  /// EventSink::capture().  Lifetime counters (checks_run, ...) persist.
  void rebaseline(const trace::SchedulingState& state);

  struct CheckStats {
    std::size_t events = 0;      ///< Segment length |L|.
    std::size_t violations = 0;  ///< Violations reported this check.
    bool idle = false;           ///< Empty segment and nothing to report —
                                 ///  the check found nothing to do (feeds
                                 ///  the pool's adaptive-cadence EWMA and
                                 ///  the batch-overhead bench).
  };

  /// One checking-routine invocation at time `now`.
  CheckStats check(const std::vector<trace::EventRecord>& segment,
                   const trace::SchedulingState& current, util::TimeNs now);

  /// Register a predefined or user-supplied assertion (Section 5
  /// extension); evaluated against the current scheduling state at every
  /// checking point, after Algorithms 1-3.
  void add_assertion(MonitorAssertion assertion);
  std::size_t assertion_count() const { return assertions_.size(); }

  const MonitorSpec& spec() const { return spec_; }
  const ResourceCounters& counters() const { return counters_; }
  /// No Request-List entry is open and no user assertion is registered:
  /// the only rule state a check over an empty segment and an unchanged,
  /// unoccupied state could still fire on (ST-8c's timer, an assertion)
  /// is absent.  Call where check() may not run concurrently.
  bool quiescent() const {
    return requests_.entries.empty() && assertions_.empty();
  }

  /// Totals over the detector's lifetime.  Atomic: tests and benches poll
  /// them while a pool worker runs check().
  std::uint64_t checks_run() const {
    return checks_run_.load(std::memory_order_relaxed);
  }
  std::uint64_t events_processed() const {
    return events_processed_.load(std::memory_order_relaxed);
  }
  std::uint64_t total_violations() const {
    return total_violations_.load(std::memory_order_relaxed);
  }
  /// Checks that drained nothing and reported nothing — the idle fraction a
  /// batched/adaptive engine should be amortizing away.
  std::uint64_t idle_checks() const {
    return idle_checks_.load(std::memory_order_relaxed);
  }

 private:
  MonitorSpec spec_;
  trace::SymbolTable* symbols_;
  ReportSink* sink_;
  /// The spec's names, interned once at construction; each check copies
  /// it and sets `now`.
  CheckContext context_;
  trace::SchedulingState prev_;
  bool initialized_ = false;
  ResourceCounters counters_;
  RequestList requests_;
  std::vector<MonitorAssertion> assertions_;
  std::atomic<std::uint64_t> checks_run_{0};
  std::atomic<std::uint64_t> events_processed_{0};
  std::atomic<std::uint64_t> total_violations_{0};
  std::atomic<std::uint64_t> idle_checks_{0};
};

}  // namespace robmon::core
