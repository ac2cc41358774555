// EventSink — the stable event-ingestion seam between event producers and
// the detection engine.
//
// rt::CheckerPool consumes a narrow surface from whatever it checks: a
// spec (name + timer thresholds + cadence), an interned symbol table, an
// atomic capture of the event segment recorded since the last checking
// point together with the scheduling state it ends in, a live snapshot, a
// loss count, and — when recovery is attached — three actuation hooks.
// That surface used to be HoareMonitor's concrete API, which tied every
// ingestion path to the native monitor implementation.  EventSink extracts it as an abstract
// interface so external instrumentation (the LD_PRELOAD interposition
// backend's synthetic monitors, or any embedder's adapter) can feed the
// same pool without touching EventLog/Detector internals.
//
// This is the supported embedding API (see docs/interposition.md and
// src/robmon.hpp): implement EventSink, register it with
// CheckerPool::add(EventSink&, MonitorOptions) — the detector-less
// registration used by adapters that cannot replay the paper's per-monitor
// ST-Rules — or add(EventSink&, Detector&) when the source records a
// faithful Hoare-monitor event stream.  HoareMonitor itself implements
// EventSink, so native monitors and synthetic ones are pool-identical.
//
// Contract:
//   * spec()/symbols() must be stable for the registration lifetime (the
//     pool holds references across checks).
//   * capture(out) is atomic with respect to every recorded operation: the
//     drained segment and the returned state belong to one instant, so no
//     operation is in the segment but missing from the state, or the other
//     way round.  This is the paper's "suspend every process while
//     checking" (Section 4), narrowed to the moment of the copy: the
//     detection algorithms then run on the private copies while the
//     monitor keeps serving.
//   * snapshot() is a live read for the wait-for validation passes, which
//     re-snapshot and require episode tickets to be stable for an
//     uninterrupted wait/hold (see core/waitfor.hpp).
//   * Episode tickets: entry_queue / cond_queues / holders / running_ticket
//     entries carry per-monitor monotonic tickets, bumped once per blocking
//     episode / ownership / hold — clock-independent episode identity.
//   * The recovery hooks default to no-ops (recovery actions on sinks that
//     cannot evict waiters degrade to reports; see docs/interposition.md).
#pragma once

#include <cstdint>
#include <vector>

#include "core/monitor_spec.hpp"
#include "trace/event.hpp"
#include "trace/snapshot.hpp"

namespace robmon::rt {

class EventSink {
 public:
  virtual ~EventSink() = default;

  /// Monitor identity and timing parameters.  Detector-less registrations
  /// take their check cadence and timer clamp from here.
  virtual const core::MonitorSpec& spec() const = 0;

  /// Intern table resolving the proc/cond ids in events and snapshots.
  virtual const trace::SymbolTable& symbols() const = 0;

  /// Replace `out` with every event recorded since the previous checking
  /// point, in the order the detection algorithms may replay them, and
  /// return the scheduling state <EQ, CQ[], R#, holders, Running> those
  /// events end in — both under one hold of the lock that serializes the
  /// source's operations (see the contract above).  The caller passes the
  /// same vector on every check, so an implementation that swaps buffers
  /// (EventLog::drain) recycles its storage instead of copying events.
  virtual trace::SchedulingState capture(
      std::vector<trace::EventRecord>& out) = 0;

  /// Events dropped by the ingestion path's overflow contract — exact
  /// accounting, never a silent gap (EventLog::events_lost()).
  virtual std::uint64_t events_lost() const = 0;

  /// Current scheduling state, read live (the wait-for passes' episode
  /// validation).  Incorporates every operation of a completed capture().
  virtual trace::SchedulingState snapshot() const = 0;

  // --- Recovery actuation (optional; defaults are inert). -------------------

  /// Sticky recovery-poison state; while true the pool suspends detection
  /// on this sink (out-of-band transitions must not read as violations),
  /// and the first check that reads it false re-baselines the detector.
  virtual bool recovery_poisoned() const { return false; }
  /// Evict every parked waiter and reject would-block calls until the hold
  /// or ownership carrying `hold_ticket` (the confirmed cycle's hold on
  /// this monitor) ends; the sink ends the poison itself.
  virtual void recovery_poison(std::uint64_t hold_ticket) {
    (void)hold_ticket;
  }
  /// Wake only `tid` with a recovery fault; false when it is not parked.
  virtual bool deliver_recovery_fault(Tid tid) {
    (void)tid;
    return false;
  }
};

}  // namespace robmon::rt
