// RobustMonitor — the augmented monitor construct (Section 4): the public
// API of the library.  Bundles
//   * the monitor itself (HoareMonitor: Enter / Wait / Signal-Exit),
//   * the data-gathering routines (event log + state snapshots),
//   * the fault-detection routine (Detector, checked by a CheckerPool —
//     a shared one, or a private one-thread pool the monitor owns),
//   * the real-time calling-order phase (compiled path expression,
//     advanced at every Enter of a constrained procedure),
// and reports every detected concurrency-control fault to the caller's
// ReportSink.
//
// Typical use:
//   core::CollectingSink sink;
//   rt::RobustMonitor monitor(core::MonitorSpec::coordinator("buf", 8), sink);
//   monitor.start_checking();
//   ... threads call monitor.enter(pid, "Send") / wait / signal_exit ...
//   monitor.stop_checking();
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "core/fault.hpp"
#include "core/monitor_spec.hpp"
#include "pathexpr/matcher.hpp"
#include "runtime/checker_pool.hpp"
#include "runtime/hoare_monitor.hpp"
#include "trace/codec.hpp"

namespace robmon::rt {

class RobustMonitor {
 public:
  struct Options {
    /// Backend clock: real steady_clock normally, the SimScheduler's
    /// virtual clock under ROBMON_SYNC_BACKEND_SIM.
    const util::Clock* clock = sync::backend_clock();
    inject::InjectionController* injection =
        &inject::NullInjection::instance();
    Instrumentation instrumentation = Instrumentation::kFull;
    /// Signalling discipline; Mesa exists for bench/ablation_semantics.
    Semantics semantics = Semantics::kHoareSignalExit;
    /// Adaptive check cadence: while this monitor is idle its effective
    /// check period stretches up to check_period × cadence_max_stretch
    /// (see CheckerPool::MonitorOptions::max_stretch).  1.0 = fixed.
    double cadence_max_stretch = 1.0;
    /// Retain the full event history and checkpoint states so that
    /// export_trace() can produce a replayable trace.
    bool retain_trace = false;
    /// Shared detection engine (deadline-scheduled across K worker
    /// threads); the pool must outlive the monitor.  When null, the
    /// monitor owns a private one-thread CheckerPool on `clock` instead.
    /// Either way every knob above applies identically.
    CheckerPool* checker_pool = nullptr;
  };

  RobustMonitor(core::MonitorSpec spec, core::ReportSink& sink);
  RobustMonitor(core::MonitorSpec spec, core::ReportSink& sink,
                Options options);
  ~RobustMonitor();

  RobustMonitor(const RobustMonitor&) = delete;
  RobustMonitor& operator=(const RobustMonitor&) = delete;

  // --- Monitor primitives. --------------------------------------------------

  Status enter(trace::Pid pid, const std::string& procedure);
  Status wait(trace::Pid pid, const std::string& cond);
  void signal_exit(trace::Pid pid, const std::string& cond) {
    monitor_.signal_exit(pid, cond);
  }
  /// Signal-exit adjusting the monitor-tracked R# atomically with the event
  /// (see HoareMonitor::track_resources).
  void signal_exit(trace::Pid pid, const std::string& cond,
                   std::int64_t resource_delta) {
    monitor_.signal_exit(pid, cond, resource_delta);
  }
  void exit(trace::Pid pid) { monitor_.exit(pid); }

  /// Enable monitor-owned R# accounting (coordinator monitors).
  void track_resources(std::int64_t initial) {
    monitor_.track_resources(initial);
  }

  /// Hold registry passthrough: record that `pid` was granted / returned a
  /// resource unit (wait-for graph monitor→thread edges).
  void note_hold(trace::Pid pid) { monitor_.note_hold(pid); }
  void note_release(trace::Pid pid) { monitor_.note_release(pid); }

  // --- Detection control. ---------------------------------------------------

  /// Start periodic checking (spec.check_period cadence).
  void start_checking();
  void stop_checking();
  /// One synchronous checking-routine invocation.
  core::Detector::CheckStats check_now();

  // --- Observation / management. --------------------------------------------

  const core::MonitorSpec& spec() const { return monitor_.spec(); }
  trace::SchedulingState snapshot() const { return monitor_.snapshot(); }
  void set_resource_gauge(std::function<std::int64_t()> gauge) {
    monitor_.set_resource_gauge(std::move(gauge));
  }
  /// Release all blocked processes with kPoisoned (teardown).
  void poison() { monitor_.poison(); }

  /// Recovery passthroughs (survivable poison + restore; usually driven by
  /// the pool's recovery hook, exposed for direct policies and tests).
  void recovery_poison(std::uint64_t hold_ticket) {
    monitor_.recovery_poison(hold_ticket);
  }
  void unpoison() { monitor_.unpoison(); }
  bool recovery_poisoned() const { return monitor_.recovery_poisoned(); }
  bool deliver_recovery_fault(trace::Pid pid) {
    return monitor_.deliver_recovery_fault(pid);
  }

  HoareMonitor& monitor() { return monitor_; }
  core::Detector& detector() { return detector_; }
  trace::SymbolTable& symbols() { return monitor_.symbols(); }

  /// Replayable trace of everything recorded so far (requires
  /// Options::retain_trace).
  trace::TraceFile export_trace() const;

 private:
  void advance_order_matcher(trace::Pid pid, const std::string& procedure);
  /// Restart `pid`'s calling-order matcher after a recovery fault aborted
  /// its in-flight procedure (the caller retries the protocol from
  /// scratch, so the declared order restarts with it).
  void reset_order_matcher(trace::Pid pid);

  core::ReportSink* sink_;
  Options options_;
  HoareMonitor monitor_;
  core::Detector detector_;
  /// The private one-thread pool (only without Options::checker_pool).
  std::unique_ptr<CheckerPool> own_pool_;
  /// The engine this monitor is registered with: the shared pool or
  /// own_pool_.
  CheckerPool* pool_ = nullptr;
  CheckerPool::MonitorId pool_id_ = 0;

  /// Real-time phase state (allocator monitors / any declared order).
  std::optional<pathexpr::CallOrderSpec> order_spec_;
  std::mutex matchers_mu_;
  std::map<trace::Pid, pathexpr::Matcher> matchers_;

  mutable std::mutex checkpoints_mu_;
  std::vector<trace::SchedulingState> checkpoints_;
};

}  // namespace robmon::rt
