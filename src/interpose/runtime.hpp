// Interposition runtime — the process-wide state behind librobmon_preload.
//
// One Runtime per process: a lock-free address→SyntheticMonitor registry
// (each observed pthread_mutex_t / pthread_cond_t lazily becomes one
// synthetic monitor), one rt::CheckerPool every monitor registers with
// (detector-less: the cross-monitor wait-for and lock-order analyses are
// what fire through the shim), a stderr ReportSink that prints detections
// live (a deadlocked host never exits, so CI greps stderr under timeout),
// and the fork/exit plumbing: an atexit flush (summary line + optional
// trace export) and a pthread_atfork child handler that retires the
// parent's runtime (its worker threads do not exist in the child) and lets
// the next intercepted operation build a fresh one.
//
// Configuration comes from ROBMON_* environment variables, parsed through
// util::EnvFlags with the shared bad-config error path: the shim prints
// the collected report and runs with defaults — it must never abort the
// host program.  See docs/interposition.md for the variable reference.
//
// No-self-deadlock argument (the shim's core obligation):
//   * application hot path: one lock-free ring push per adapted op —
//     never a robmon lock (SyntheticMonitor's contract);
//   * every robmon-internal pthread operation (registry construction,
//     pool scheduling, checker work) runs under the re-entrancy guard or
//     on an internal-marked thread, so it passes straight through to libc
//     and can never re-enter the adapter;
//   * robmon locks (apply_mu_, the pool's mutexes) are never held while
//     acquiring an application lock, so no lock-order edge from robmon
//     into the application exists.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/fault.hpp"
#include "core/recovery.hpp"
#include "interpose/synthetic_monitor.hpp"
#include "runtime/checker_pool.hpp"
#include "util/clock.hpp"
#include "util/ids.hpp"

namespace robmon::interpose {

/// Shim configuration, one field per ROBMON_* variable (all optional).
struct RuntimeConfig {
  /// ROBMON_SHARDS: checker-pool worker threads.
  std::size_t shards = 1;
  /// ROBMON_BUDGET: detection budget as a fraction of wall-clock time;
  /// 0 disables the budget controller.
  double budget_fraction = 0.0;
  /// ROBMON_LOCKORDER: lock-order (potential-deadlock) prediction.
  bool lockorder = true;
  /// ROBMON_RECOVERY: opt-in recovery actions (default off: synthetic
  /// monitors cannot evict waiters, so actions degrade to reports).
  bool recovery = false;
  /// ROBMON_TRACE: per-monitor trace-file prefix; empty = no export (and
  /// no synthetic event recording, see SyntheticMonitor::Config).
  std::string trace_path;
  /// ROBMON_CHECK_PERIOD_MS: per-monitor check cadence.
  util::TimeNs check_period = 100 * util::kMillisecond;
  /// ROBMON_WAITFOR_MS: wait-for (deadlock) checkpoint cadence.
  util::TimeNs waitfor_period = 250 * util::kMillisecond;
  /// ROBMON_LOCKORDER_MS: lock-order prediction checkpoint cadence.
  util::TimeNs lockorder_period = 500 * util::kMillisecond;
  /// ROBMON_RING: per-monitor pending-op ring capacity.
  std::size_t ring_capacity = 1024;
  /// ROBMON_MAX_MONITORS: registry capacity; objects observed beyond it
  /// pass through unadapted (counted, reported in the exit summary).
  std::size_t max_monitors = 4096;
  /// ROBMON_LOG: verbose lifecycle logging to stderr.
  bool verbose = false;

  /// Non-empty when any variable failed validation: the single formatted
  /// bad-config report (util::EnvFlags::error_text()).  The parsed config
  /// keeps the defaults for every bad field.
  std::string config_error;

  static RuntimeConfig from_env();
};

/// Per-thread re-entrancy state for the interposition wrappers.  A wrapper
/// adapts an operation only at depth 0 on a non-internal thread; while it
/// runs (guard alive, depth > 0) every nested pthread call — from the
/// registry, the pool, or malloc — passes straight through to libc.
/// Threads the runtime itself creates (pool workers) are marked internal
/// for their whole lifetime by the pthread_create trampoline.
class ReentryGuard {
 public:
  ReentryGuard();
  ~ReentryGuard();
  ReentryGuard(const ReentryGuard&) = delete;
  ReentryGuard& operator=(const ReentryGuard&) = delete;

  /// True iff an adapted wrapper body may run on this thread right now.
  static bool should_adapt();
  static int depth();
  static bool internal();
  /// Mark the calling thread as robmon-internal (sticky).
  static void mark_internal();
};

/// The calling thread's kernel task id as a robmon::Tid (cached per
/// thread).
Tid self_tid();

/// ReportSink that prints every detection to stderr as it happens and
/// counts per rule — the shim's only output channel into an unmodified
/// host program.
class StderrSink final : public core::ReportSink {
 public:
  void report(const core::FaultReport& fault) override;

  std::uint64_t total() const {
    return total_.load(std::memory_order_relaxed);
  }
  std::uint64_t deadlocks() const {
    return deadlocks_.load(std::memory_order_relaxed);
  }
  std::uint64_t order_warnings() const {
    return order_warnings_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> total_{0};
  std::atomic<std::uint64_t> deadlocks_{0};
  std::atomic<std::uint64_t> order_warnings_{0};
};

class Runtime {
 public:
  explicit Runtime(RuntimeConfig config);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Process-wide instance, built on first use (never destroyed: worker
  /// threads and monitors stay reachable through the global, which keeps
  /// exit-time teardown races and leak-checker reports out).  Callers
  /// must hold a ReentryGuard (or be robmon-internal code paths like
  /// tests) so construction's own pthread traffic passes through.
  static Runtime& instance();
  /// The instance if one was ever built, else nullptr (atexit flush).
  static Runtime* instance_if_built();

  /// pthread_atfork child handler: retire the parent's runtime — its
  /// worker threads do not exist in the child — onto a reachable
  /// graveyard (never freed: application threads may hold pointers into
  /// it) and let the next intercepted operation build a fresh one.
  static void reset_after_fork();

  /// The synthetic monitor shadowing `addr`, creating (and scheduling) it
  /// on first sight.  nullptr when the registry is full — the caller
  /// passes the operation through unadapted.
  SyntheticMonitor* monitor_for(const void* addr, SyntheticMonitor::Kind kind);
  /// Lookup without creating (destroy hooks).
  SyntheticMonitor* find_monitor(const void* addr);

  const RuntimeConfig& config() const { return config_; }
  rt::CheckerPool& pool() { return *pool_; }
  const StderrSink& sink() const { return sink_; }
  std::size_t monitor_count() const {
    return registered_.load(std::memory_order_relaxed);
  }
  std::uint64_t passthroughs() const {
    return passthroughs_.load(std::memory_order_relaxed);
  }

  /// atexit worker: one summary line, plus per-monitor trace export when
  /// ROBMON_TRACE is set.
  void flush(std::FILE* out);

 private:
  struct Slot {
    std::atomic<std::uintptr_t> key{0};
    std::atomic<SyntheticMonitor*> monitor{nullptr};
  };

  SyntheticMonitor* create_monitor(SyntheticMonitor::Kind kind);

  RuntimeConfig config_;
  StderrSink sink_;
  core::RecoveryPolicy recovery_policy_;
  std::unique_ptr<rt::CheckerPool> pool_;

  /// Open-addressed CAS-claimed table (capacity 2× max_monitors, power of
  /// two): one atomic key claim per new object, lock-free lookups.
  std::size_t table_mask_ = 0;
  std::unique_ptr<Slot[]> table_;
  std::atomic<std::size_t> registered_{0};
  std::atomic<std::uint64_t> passthroughs_{0};

  /// Monitors in creation order (flush/export); guarded by monitors_mu_.
  std::mutex monitors_mu_;
  std::vector<SyntheticMonitor*> monitors_;

  /// Retired-by-fork runtimes, intrusively chained (no allocation in the
  /// atfork child handler) and reachable forever.
  Runtime* graveyard_next_ = nullptr;
};

}  // namespace robmon::interpose
