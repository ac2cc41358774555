// SyntheticMonitor — an rt::EventSink built from *observed* pthread
// operations instead of executed monitor primitives.
//
// The LD_PRELOAD interposition backend (src/interpose/preload.cpp) cannot
// run the paper's augmented monitor: the host program brings its own
// pthread_mutex_t / pthread_cond_t objects and blocks inside libc.  What
// the shim can observe is the *edges* of each operation — "this thread is
// about to block on that mutex", "this thread now owns it", "this thread
// parked on that condition".  SyntheticMonitor adapts those observations
// into the same ingestion surface the native HoareMonitor feeds
// (rt::EventSink): a reduced-model event segment (recorded only when trace
// retention is on — see Config::retain_history) and a <EQ, CQ[], holders,
// Running> snapshot with per-episode tickets, captured together — so the
// CheckerPool's cross-monitor analyses (wait-for cycle confirmation,
// lock-order prediction) run unchanged over an unmodified binary.
//
// Each observed pthread object becomes one synthetic monitor:
//   kMutex      — EQ models threads blocked in pthread_mutex_lock; the
//                 owner appears BOTH as Running (the mutex-hold edge the
//                 wait-for graph pairs entry waiters with) and as a
//                 holders[] entry (what the lock-order relation joins on).
//   kCondition  — one CQ models threads parked in pthread_cond_wait.
//                 Condition monitors never report holders or Running, so
//                 they contribute waits (diagnostics) but can never close
//                 a wait-for edge — a cond wait is an OR-wait on a future
//                 signal, which a cycle cannot soundly encode.
//
// Host-serialized state.  Every writer of a mutex monitor's owner state
// (owner tid, recursion depth, hold start, ticket) holds the host's own
// mutex: lock_acquired runs after the real lock returns and unlocked runs
// before the real unlock.  So the owner fields need no robmon lock.  They
// are atomics behind a single-writer seqlock version word (release stores
// and acquire loads, plain moves on x86), and snapshot() and capture()
// read them with a retry loop.  An unlock by a non-owner reads
// the owner tid and does nothing; a reset() racing a holder means the host
// destroyed a locked mutex, which POSIX leaves undefined.
//
// The entry queue, the condition queue and the EventLog live under one
// leaf lock, queue_mu_.  Only blocking, parking and cond ops take it, and
// lock_acquired only when a waiter is queued (it then erases its own entry
// and publishes ownership inside the lock).  When recording
// (Config::retain_history) every op takes it, so the log sees one order.
// An uncontended lock/unlock pair therefore takes no robmon lock, and
// robmon never holds queue_mu_ while it acquires an application lock —
// the shim cannot deadlock against itself.
//
// Clock reads: only lock_blocked, cond_parked and lock_acquired read the
// clock (queue entry times and the hold start that lock-order's
// hold×hold join orders nested holds by), plus, when recording, every op
// that records an event.
//
// Every transition is *guarded* (an unlock by a non-owner, or the removal
// of an absent queue entry, is a no-op), so partial observation — an
// unobserved pthread_mutex_timedlock, say — can only under-report, never
// fabricate or corrupt state.  Episode tickets come from one per-monitor
// counter, so the pool's two-pass live validation can tell a continuous
// wait or hold from a re-formed one.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/monitor_spec.hpp"
#include "runtime/event_sink.hpp"
#include "trace/event.hpp"
#include "trace/event_log.hpp"
#include "trace/snapshot.hpp"
#include "util/clock.hpp"
#include "util/ids.hpp"

namespace robmon::interpose {

class SyntheticMonitor final : public rt::EventSink {
 public:
  /// Which pthread object this monitor shadows.
  enum class Kind {
    kMutex,      ///< pthread_mutex_t: EQ + owner (Running + holders).
    kCondition,  ///< pthread_cond_t: one condition queue.
  };

  struct Config {
    /// Check cadence the pool reads from spec().
    util::TimeNs check_period = 100 * util::kMillisecond;
    /// Record and archive events for trace export (ROBMON_TRACE).  Off,
    /// the monitor records no events at all: it is registered detector-less,
    /// so the pool would drain them only to count them.  Snapshots,
    /// tickets and the pool-level contributions do not depend on them.
    bool retain_history = false;
  };

  SyntheticMonitor(std::string name, Kind kind, const util::Clock& clock,
                   const Config& config);

  SyntheticMonitor(const SyntheticMonitor&) = delete;
  SyntheticMonitor& operator=(const SyntheticMonitor&) = delete;

  // --- Producer surface (application threads). ------------------------------

  /// The thread failed a trylock and is about to block in the real lock.
  void lock_blocked(Tid tid);
  /// The real lock (or trylock) returned success; the caller holds it.
  void lock_acquired(Tid tid);
  /// The blocking lock returned an error (e.g. EDEADLK): undo the block.
  void lock_cancelled(Tid tid);
  /// The thread is about to release the mutex (it still holds it).
  void unlocked(Tid tid);
  /// The thread released the mutex inside pthread_cond_wait and parks.
  void cond_parked(Tid tid);
  /// pthread_cond_wait returned (signal, broadcast or timeout).
  void cond_unparked(Tid tid);
  /// The thread signalled (or broadcast) this condition.
  void cond_signalled(Tid tid, bool broadcast);
  /// pthread_{mutex,cond}_destroy: clear all state so an address reused by
  /// a fresh object does not inherit a stale owner or queue.
  void reset();

  /// The lock wrapper's trylock probe returned ENOTRECOVERABLE.  glibc's
  /// trylock leaves a not-recoverable robust mutex's lock word held by the
  /// caller (its blocking lock does not), so from then on every real lock
  /// of it blocks forever.  The wrappers answer ENOTRECOVERABLE for it
  /// themselves, as libc would have without the probe: every lock, and the
  /// next trylock, which leaves the mutex in the state libc's own trylock
  /// leaves and so ends the mark.  reset() ends it too.
  void mark_probe_not_recoverable() {
    probe_not_recoverable_.store(true, std::memory_order_relaxed);
  }
  bool probe_not_recoverable() const {
    return probe_not_recoverable_.load(std::memory_order_relaxed);
  }
  /// Ends the mark; returns whether it was set.  Reads before it writes,
  /// so a trylock of a healthy mutex stores nothing.
  bool end_probe_not_recoverable() {
    return probe_not_recoverable() &&
           probe_not_recoverable_.exchange(false, std::memory_order_relaxed);
  }

  // --- rt::EventSink (checker side). ----------------------------------------

  const core::MonitorSpec& spec() const override { return spec_; }
  const trace::SymbolTable& symbols() const override { return symbols_; }
  /// Drain and snapshot under one queue_mu_ hold; the owner fields come
  /// through the seqlock, as in snapshot().
  trace::SchedulingState capture(std::vector<trace::EventRecord>& out) override;
  std::uint64_t events_lost() const override { return log_.events_lost(); }
  /// The owner seqlock's version plus a queue version that every
  /// producer section under queue_mu_ moves.  Not an event count: with
  /// recording off (the default) nothing is recorded at all, and the
  /// uncontended lock/unlock fast paths change the owner without queue_mu_.
  std::optional<std::uint64_t> state_version() const override {
    return owner_version_.load(std::memory_order_relaxed) +
           queue_version_.load(std::memory_order_relaxed);
  }
  trace::SchedulingState snapshot() const override;

  // --- Introspection / export. ----------------------------------------------

  Kind kind() const { return kind_; }
  /// The log's relaxed counters; history() is the export surface.
  const trace::EventLog& log() const { return log_; }
  /// Recorded events, archived plus pending (empty unless
  /// retain_history).  Taken under queue_mu_.
  std::vector<trace::EventRecord> history() const;

 private:
  /// The owner fields, as one consistent read.
  struct Owner {
    Tid tid = kNoTid;
    std::int64_t depth = 0;
    util::TimeNs since = 0;
    std::uint64_t ticket = 0;
  };

  /// Publish `owner` under the seqlock.  Caller holds the host mutex (the
  /// single writer) or is reset().
  void write_owner(const Owner& owner);
  /// Consistent read of the owner fields (seqlock retry loop).
  Owner read_owner() const;
  /// Owner-state half of lock_acquired / unlocked (host mutex held).
  void acquire_owner(Tid tid, util::TimeNs now);
  /// Returns true when the release freed the mutex (depth reached 0).
  bool release_owner(Tid tid);
  /// Append to the log when recording.  queue_mu_ held.
  void record(const trace::EventRecord& event);
  /// Move queue_version_.  queue_mu_ held (the single writer).
  void touch_queues() {
    queue_version_.store(queue_version_.load(std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
  }
  /// snapshot() / capture() body.  queue_mu_ held.
  trace::SchedulingState snapshot_locked() const;
  /// Remove `tid`'s entry from `queue`, if any.  queue_mu_ held.
  static void erase_entry(std::vector<trace::QueueEntry>& queue, Tid tid);
  std::uint64_t new_ticket() {
    return next_ticket_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  const Kind kind_;
  core::MonitorSpec spec_;
  const util::Clock* clock_;
  trace::SymbolTable symbols_;
  trace::SymbolId proc_lock_ = trace::kNoSymbol;
  trace::SymbolId proc_wait_ = trace::kNoSymbol;
  trace::SymbolId proc_signal_ = trace::kNoSymbol;
  trace::SymbolId cond_sym_ = trace::kNoSymbol;
  const bool recording_;

  /// Owner state: written only by the thread holding the host mutex,
  /// read by snapshot() under the seqlock (version odd while a write is in
  /// progress).
  std::atomic<std::uint64_t> owner_version_{0};
  std::atomic<Tid> owner_{kNoTid};
  std::atomic<std::int64_t> owner_depth_{0};
  std::atomic<util::TimeNs> owner_since_{0};
  std::atomic<std::uint64_t> owner_ticket_{0};
  /// Monotonic episode counter (see HoareMonitor::next_ticket_): one per
  /// blocking episode and per ownership.
  std::atomic<std::uint64_t> next_ticket_{0};

  /// Leaf lock over the queues and the log; never held while acquiring an
  /// application lock.
  mutable std::mutex queue_mu_;
  std::vector<trace::QueueEntry> entry_queue_;  // guarded by queue_mu_
  std::vector<trace::QueueEntry> cond_queue_;   // guarded by queue_mu_
  /// entry_queue_.size(), written under queue_mu_: lets lock_acquired skip
  /// the lock when nobody (itself included) is queued.
  std::atomic<std::size_t> entry_waiters_{0};
  /// Moved by every producer section under queue_mu_ (a queue change or a
  /// recorded event); half of state_version().
  std::atomic<std::uint64_t> queue_version_{0};
  /// See mark_probe_not_recoverable().
  std::atomic<bool> probe_not_recoverable_{false};
  /// Owner-serialized by queue_mu_ (see EventLog's contract).
  trace::EventLog log_;
};

}  // namespace robmon::interpose
