// Simulated Hoare monitor with combined Signal-Exit, explicit entry /
// condition queues, data-gathering instrumentation and fault-injection
// hooks — the deterministic twin of runtime::HoareMonitor.
//
// Semantics (Section 2 of the paper): at most one process is inside; Wait
// releases the monitor and blocks the caller on CQ[cond], admitting the
// entry-queue head; Signal-Exit leaves the monitor, handing ownership to the
// head of CQ[cond] when one exists (flag=1), otherwise to the entry-queue
// head (flag=0).  The data-gathering routine records each primitive as a
// scheduling event (Section 3.3.1 reduced form) before the implementation
// acts, so injected faults corrupt behaviour, never the history.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "core/detector.hpp"
#include "core/monitor_spec.hpp"
#include "inject/injection.hpp"
#include "sim/scheduler.hpp"
#include "sim/task.hpp"
#include "trace/event.hpp"
#include "trace/event_log.hpp"
#include "trace/snapshot.hpp"

namespace robmon::sim {

class SimMonitor {
 public:
  SimMonitor(core::MonitorSpec spec, Scheduler& scheduler,
             inject::InjectionController& injection =
                 inject::NullInjection::instance());

  SimMonitor(const SimMonitor&) = delete;
  SimMonitor& operator=(const SimMonitor&) = delete;

  // --- Monitor primitives (call via co_await from a Process/Op). -----------

  /// Enter the monitor to execute `procedure`.  Suspends while the monitor
  /// is occupied.
  Op<> enter(std::string procedure);

  /// Block on condition `cond`, releasing the monitor (Hoare Wait).
  Op<> wait(std::string cond);

  /// Combined signal-and-exit on `cond` (Section 2: the signaller leaves
  /// the monitor; ownership passes to the resumed waiter if any).
  void signal_exit(const std::string& cond);

  /// Plain exit: leave and admit the entry-queue head, if any.
  void exit();

  // --- Observation. ---------------------------------------------------------

  /// Scheduling state <EQ, CQ[], R#, Running> at the current virtual time.
  trace::SchedulingState snapshot() const;

  trace::EventLog& log() { return log_; }
  trace::SymbolTable& symbols() { return symbols_; }
  const core::MonitorSpec& spec() const { return spec_; }
  Scheduler& scheduler() { return *scheduler_; }

  /// R# source for coordinator monitors (e.g. free buffer slots); without a
  /// gauge the snapshot reports -1 (not applicable).
  void set_resource_gauge(std::function<std::int64_t()> gauge);

  /// Record the scheduling state after *every* event (the paper's T=1
  /// real-time mode), for FD-Rule validation.  Captures the current state
  /// as the initial element when enabled.
  void enable_state_trace();
  const std::vector<trace::SchedulingState>& state_trace() const {
    return state_trace_;
  }

  std::optional<trace::Pid> owner() const { return owner_; }
  std::size_t entry_queue_size() const { return entry_queue_.size(); }

 private:
  struct Waiter {
    trace::Pid pid;
    trace::SymbolId proc;
    util::TimeNs since;
    /// Entry whose process was resumed by an injected double-admission
    /// (notify-too-many bug): the process runs inside while its queue slot
    /// leaks here, which is what ST-Rule 4 catches.
    bool zombie = false;
  };

  util::TimeNs now() const { return scheduler_->now(); }
  trace::SymbolId proc_of(trace::Pid pid) const;
  void record(const trace::EventRecord& event);
  void trace_state();
  void take_ownership(const Waiter& waiter);
  /// Pop the first admittable entry waiter (honouring starvation /
  /// no-response victims); false when none.
  bool pop_admittable(Waiter& out);
  /// Admit the entry-queue head as owner; optionally resume a second waiter
  /// without ownership (injected mutual-exclusion violation).
  void admit_from_entry_queue(bool extra);
  void admit_ghost_from_entry_queue();
  void signal_exit_impl(trace::Pid pid, trace::SymbolId cond);

  core::MonitorSpec spec_;
  Scheduler* scheduler_;
  inject::InjectionController* injection_;

  trace::SymbolTable symbols_;
  /// Owner-serialized for free: the simulator is cooperatively scheduled.
  trace::EventLog log_;

  std::optional<trace::Pid> owner_;
  trace::SymbolId owner_proc_ = trace::kNoSymbol;
  util::TimeNs owner_since_ = 0;
  std::deque<Waiter> entry_queue_;
  std::map<trace::SymbolId, std::deque<Waiter>> cond_queues_;
  /// Procedure being executed by every process currently inside (the owner
  /// plus any injected "ghost" runners).
  std::map<trace::Pid, trace::SymbolId> inside_proc_;

  std::function<std::int64_t()> resource_gauge_;
  bool state_trace_enabled_ = false;
  std::vector<trace::SchedulingState> state_trace_;
};

/// Periodic checking task (Fig. 1's fault-detection routine) for the
/// simulator: every spec.check_period of virtual time it drains the event
/// log, snapshots the monitor and runs the detector.  Stops after
/// `max_checks` or when it is the only live process left.
struct CheckerOptions {
  std::uint64_t max_checks = UINT64_MAX;
  /// Keep checking at least this many times even after all user processes
  /// have finished (timer-based rules need the horizon to elapse).
  std::uint64_t min_checks = 0;
};

Process periodic_checker(Scheduler& scheduler, SimMonitor& monitor,
                         core::Detector& detector, CheckerOptions options = {});

}  // namespace robmon::sim
