// Real-thread Hoare monitor with combined Signal-Exit, built from the
// sync substrate (spinlock + per-waiter binary semaphores), with explicit
// entry / condition queues, data-gathering instrumentation (Fig. 1),
// fault-injection hooks, and an atomic capture() standing in for the
// paper's "suspend all processes while checking": the drain and the
// snapshot share one hold of the monitor's lock.
//
// Blocking protocol: a process that must block allocates a Waiter on its own
// stack, enqueues it under the internal lock, releases the lock, then parks
// on the Waiter's semaphore.  The process that wakes it transfers monitor
// ownership *before* releasing the semaphore (Hoare hand-off), so there is
// never a moment when the monitor is free but claimed.  poison() releases
// every parked waiter with kPoisoned so that fault-injection tests can
// unwind cleanly.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/monitor_spec.hpp"
#include "inject/injection.hpp"
#include "runtime/event_sink.hpp"
#include "sync/semaphore.hpp"
#include "sync/spinlock.hpp"
#include "trace/event.hpp"
#include "trace/event_log.hpp"
#include "trace/snapshot.hpp"
#include "util/clock.hpp"

namespace robmon::rt {

/// Result of a potentially blocking primitive.
enum class Status {
  kOk,             ///< Completed normally.
  kPoisoned,       ///< Monitor poisoned while blocked (teardown).
  kRecoveryFault,  ///< Woken (or rejected) by a recovery action: the
                   ///  monitor is recovery-poisoned, or a designated fault
                   ///  was delivered to this thread to break a deadlock.
                   ///  The caller holds nothing here and should release
                   ///  resources held elsewhere and retry or unwind.
};

/// What the augmented construct adds on top of the bare monitor; kOff gives
/// the paper's "monitor operations without the extension" baseline.
enum class Instrumentation {
  kFull,  ///< Gathering (detection-ready).
  kOff,   ///< Bare monitor; no events.
};

/// Signalling discipline.  The paper's model is Hoare with combined
/// Signal-Exit (ownership hands off to the resumed waiter).  The Mesa
/// variant (signal-and-continue: the signalled waiter merely re-contends
/// via the entry queue) exists as an *ablation*: the FD/ST rules encode the
/// Hoare hand-off, so a perfectly correct Mesa execution is flagged —
/// demonstrating that the detection model is semantics-specific
/// (bench/ablation_semantics).
enum class Semantics {
  kHoareSignalExit,
  kMesaSignalContinue,
};

class HoareMonitor : public EventSink {
 public:
  HoareMonitor(core::MonitorSpec spec, const util::Clock& clock,
               inject::InjectionController& injection =
                   inject::NullInjection::instance(),
               Instrumentation instrumentation = Instrumentation::kFull,
               Semantics semantics = Semantics::kHoareSignalExit,
               bool retain_history = false);

  HoareMonitor(const HoareMonitor&) = delete;
  HoareMonitor& operator=(const HoareMonitor&) = delete;

  // --- Primitives.  `pid` identifies the calling user process. -------------

  Status enter(trace::Pid pid, const std::string& procedure);
  Status wait(trace::Pid pid, const std::string& cond);
  void signal_exit(trace::Pid pid, const std::string& cond);
  /// Signal-exit that also adjusts the monitor-tracked resource count R#
  /// *atomically with the event recording* (e.g. a completing Send passes
  /// -1: one fewer free slot).  Requires track_resources().
  void signal_exit(trace::Pid pid, const std::string& cond,
                   std::int64_t resource_delta);
  void exit(trace::Pid pid);

  /// Pre-interned fast paths (benchmark hot loop).
  Status enter(trace::Pid pid, trace::SymbolId procedure);
  Status wait(trace::Pid pid, trace::SymbolId cond);
  void signal_exit(trace::Pid pid, trace::SymbolId cond);
  void signal_exit(trace::Pid pid, trace::SymbolId cond,
                   std::int64_t resource_delta);

  /// Enable internal R# accounting (coordinator monitors).  The paper's
  /// scheduling state owns R#; updating it inside the primitive keeps the
  /// recorded events and the snapshots consistent, which an external gauge
  /// sampled at snapshot time cannot guarantee under real threads.
  void track_resources(std::int64_t initial);
  std::int64_t resources() const;

  /// Hold registry: the workload wrapper records that `pid` was granted /
  /// returned one resource unit.  Holds appear in snapshot().holders and
  /// feed the pool-level wait-for graph's monitor→thread edges.  note_hold
  /// must be called while `pid` is still inside the monitor (before the
  /// exit that completes the grant) so a checkpoint can never observe the
  /// thread blocked elsewhere without the hold edge being visible.
  void note_hold(trace::Pid pid);
  void note_release(trace::Pid pid);

  // --- Observation / control. ----------------------------------------------

  trace::SchedulingState snapshot() const override;
  /// The log's relaxed counters (pending, total_appended, events_lost) for
  /// any thread; everything else on the log is reached through the
  /// methods below, which take mu_ (EventLog's owner-serialized contract).
  const trace::EventLog& log() const { return log_; }
  /// Retained events (constructed with retain_history), archived plus
  /// pending, in sequence order.
  std::vector<trace::EventRecord> history() const;
  trace::SymbolTable& symbols() { return symbols_; }
  const trace::SymbolTable& symbols() const override { return symbols_; }
  const core::MonitorSpec& spec() const override { return spec_; }
  /// EventSink ingestion surface: an O(1) buffer swap, in the append order
  /// Algorithm-1's segment replay depends on, plus snapshot_locked(), both
  /// under one hold of mu_ — every primitive runs under mu_, so no
  /// operation falls between the segment and the state.
  trace::SchedulingState capture(std::vector<trace::EventRecord>& out) override;
  std::uint64_t events_lost() const override { return log_.events_lost(); }
  Instrumentation instrumentation() const { return instrumentation_; }
  Semantics semantics() const { return semantics_; }

  /// R# source for coordinator monitors (e.g. free buffer slots).
  void set_resource_gauge(std::function<std::int64_t()> gauge);

  /// Record the scheduling state after *every* event (the paper's T=1
  /// real-time mode), for FD-Rule validation.  Captures the current state
  /// as the initial element when enabled, so state_trace().size() is the
  /// number of events recorded since, plus one.
  void enable_state_trace();
  std::vector<trace::SchedulingState> state_trace() const;

  /// Release every parked waiter with kPoisoned (teardown after injected
  /// faults left threads blocked).
  void poison();
  bool poisoned() const;

  // --- Recovery plumbing (rt::CheckerPool's recovery hook). -----------------
  //
  // Unlike teardown poison, recovery poison is *survivable*: the monitor
  // keeps operating and restores itself.  The detector does not see these
  // transitions as events; the pool suspends the monitor's Detector while
  // the poison lasts and re-baselines it (Detector::rebaseline) once it
  // has ended, keeping the ST-Rules' zero-false-positive contract intact.

  /// Recovery-poison: every parked waiter wakes with kRecoveryFault, and —
  /// while a hold or ownership carrying `hold_ticket` (the confirmed
  /// cycle's holder_ticket) exists — every enter()/wait() that WOULD BLOCK
  /// returns kRecoveryFault instead of parking.  When that hold ends the
  /// cycle is gone and normal service resumes; a ticket no hold carries
  /// (0) only evicts.  Non-blocking traffic always flows: an enter of a
  /// free monitor (e.g. a Release returning a unit) proceeds, so the
  /// poisoned monitor drains back toward service.
  void recovery_poison(std::uint64_t hold_ticket) override;

  /// End the recovery poison now, for direct callers that cast one
  /// without a hold to end it.
  void unpoison();
  bool recovery_poisoned() const override;

  /// Deliver a designated RecoveryFault to one parked thread: `pid` is
  /// removed from whichever queue it waits on and wakes with
  /// kRecoveryFault; every other waiter is untouched and the monitor is
  /// not poisoned.  Returns false when `pid` is not parked here.
  bool deliver_recovery_fault(trace::Pid pid) override;

 private:
  struct Waiter {
    trace::Pid pid;
    trace::SymbolId proc;
    util::TimeNs since;
    /// Episode ticket assigned at each park (see next_ticket_).
    std::uint64_t ticket = 0;
    /// Set (under mu_, before the release) when a recovery action wakes
    /// this waiter: the parked thread reports kRecoveryFault instead of
    /// kOk.  Read by its own thread only after the semaphore hand-off.
    bool recovery = false;
    sync::BinarySemaphore sem;
  };

  /// Entry-queue slot.  Value type so that an injected notify-too-many bug
  /// can leave a *zombie* slot behind (waiter resumed, entry leaked) with
  /// no dangling pointer once the resumed thread's stack frame unwinds.
  struct EqEntry {
    trace::Pid pid;
    trace::SymbolId proc;
    util::TimeNs since;
    std::uint64_t ticket = 0;
    Waiter* waiter = nullptr;  ///< Null once resumed (zombie).
    bool zombie = false;
  };

  /// One pid's outstanding resource holds (note_hold registry).
  struct Hold {
    std::int64_t units = 0;
    util::TimeNs since = 0;       ///< Start of the oldest outstanding hold.
    std::uint64_t ticket = 0;     ///< Episode ticket of that oldest hold.
  };

  /// T=1 capture, declared right after a primitive's lock_guard(mu_): as
  /// the section closes (still under mu_) it pushes snapshot_locked() iff
  /// tracing is on and the section recorded an event.
  class StateTraceScope;

  util::TimeNs now() const { return clock_->now_ns(); }
  trace::SchedulingState snapshot_locked() const;  // callers hold mu_
  trace::SymbolId proc_of(trace::Pid pid) const;  // callers hold mu_
  /// Whether the recovery poison still holds (see poison_ticket_).  mu_ held.
  bool recovery_poisoned_locked() const;
  void record(const trace::EventRecord& event);
  /// Pop the first admittable entry waiter; nullptr when none.  mu_ held.
  Waiter* pop_admittable();
  /// Injected notify-too-many: resume the first admittable entry waiter
  /// but leave its (zombie) slot on the queue.  mu_ held.
  Waiter* resume_ghost_from_entry_queue();
  /// Admit the entry-queue head as owner (+ optional ghost).  mu_ held;
  /// the returned waiters' semaphores must be released after unlocking.
  void admit_from_entry_queue(bool extra, Waiter** admitted, Waiter** ghost);
  void signal_exit_impl(trace::Pid pid, trace::SymbolId cond,
                        std::int64_t resource_delta);

  core::MonitorSpec spec_;
  const util::Clock* clock_;
  inject::InjectionController* injection_;
  Instrumentation instrumentation_;
  Semantics semantics_;

  trace::SymbolTable symbols_;
  /// Owner-serialized by mu_: every append, drain and history read happens
  /// under it (see EventLog's contract).
  trace::EventLog log_;

  mutable sync::SpinLock mu_;
  std::optional<trace::Pid> owner_;
  trace::SymbolId owner_proc_ = trace::kNoSymbol;
  util::TimeNs owner_since_ = 0;
  std::uint64_t owner_ticket_ = 0;  ///< Episode ticket of this ownership.
  std::deque<EqEntry> entry_queue_;
  std::map<trace::SymbolId, std::deque<Waiter*>> cond_queues_;
  std::map<trace::Pid, trace::SymbolId> inside_proc_;
  std::vector<Waiter*> lost_waiters_;  ///< Parked forever by injection.
  std::map<trace::Pid, Hold> holds_;
  /// Monotonic episode counter: bumped once per blocking episode (a park on
  /// EQ or a CQ), per ownership hand-off, and per first resource hold.  It
  /// makes episode identity clock-independent — snapshots taken under a
  /// frozen ManualClock still distinguish a re-formed wait from a
  /// continuous one (wait-for cycle validation).
  std::uint64_t next_ticket_ = 0;
  std::function<std::int64_t()> resource_gauge_;
  bool track_resources_ = false;
  std::int64_t resources_ = -1;
  bool state_trace_enabled_ = false;
  std::vector<trace::SchedulingState> state_trace_;
  bool poisoned_ = false;
  /// Ticket of the hold or ownership the recovery poison was cast against;
  /// 0 = not poisoned.  Cleared lazily, under mu_, by the first read that
  /// finds no hold or ownership carrying it: tickets are never reused, so
  /// a poison that has ended cannot revive.
  mutable std::uint64_t poison_ticket_ = 0;
};

}  // namespace robmon::rt
