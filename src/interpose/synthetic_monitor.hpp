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
// mutex: lock_acquired runs after the real lock returns, a stamp (below)
// runs while its thread holds the mutex, and unlocked runs before the real
// unlock.  So the owner fields need no robmon lock.  They
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
// An uncontended lock/unlock pair therefore takes no robmon lock (and, as
// the thread's outermost hold, reads no clock and makes no atomic
// read-modify-write), and
// robmon never holds queue_mu_ while it acquires an application lock —
// the shim cannot deadlock against itself.
//
// Clock reads and lazily stamped hold starts.  The hold start (the
// certified-interval start lock-order's hold x hold join orders nested
// holds by) is the only clock read on the lock path, and most holds never
// need it: a hold taken while its thread holds no other observed mutex is
// stored *unstamped* (kUnstamped), with no clock read.  Each thread keeps a
// ThreadHolds record (the shim's is in initial-exec TLS, see
// interpose/runtime.hpp): its count of observed holds and its unstamped
// hold.  Before the thread's next lock, trylock or cond wait, stamp_outer()
// reads the clock once (t0) and stamps that hold with t0 under the owner
// seqlock — safe, because the stamping thread is the holder, so the
// single-writer rule holds.  A hold taken while others are held reads the
// clock after acquiring, as every hold once did.  Invariants:
//   (a) a reported start is never earlier than the true acquisition: t0
//       is read after the outer acquisition and before the inner one;
//   (b) one thread's nested holds get strictly increasing starts (a start
//       is at least one past the thread's previous one, so a clock that
//       has not moved cannot make two holds unordered);
//   (c) an unstamped hold exists only while its thread holds and waits on
//       nothing else observed: every nested lock, trylock or cond-wait
//       reacquisition stamps it first.
// A snapshot reports an unstamped hold with start kUnstamped, after any
// capture: its certified interval is empty, and the join's overlap test
// rejects it against every access.  By (c) it could not have joined
// anything at its true start either: any access of the same thread that
// overlaps it began after the stamp.  So no edge that a start read at
// acquisition could yield is lost, and none is made up.  Wait-for matches
// holds by ticket, never by start.  Stamping is guarded (a no-op unless the
// stamping thread owns the mutex, unstamped), so a reset() by
// pthread_mutex_destroy is never overwritten.  Beyond that, lock_blocked
// and cond_parked read the clock (queue entry times), and, when recording,
// every op that records an event.
//
// Every transition is *guarded* (an unlock by a non-owner, or the removal
// of an absent queue entry, is a no-op), so partial observation — an
// unobserved pthread_mutex_timedlock, say — can only under-report, never
// fabricate or corrupt state.  Episode tickets tell a continuous wait or
// hold from a re-formed one for the pool's two-pass live validation, with
// no atomic read-modify-write: an ownership's ticket is the (even) owner
// seqlock version its acquisition publishes, and queue entries take odd
// tickets from a counter under queue_mu_.  Both are unique per episode of
// the monitor and never equal each other.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
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

class SyntheticMonitor;

/// One application thread's observed mutex holds: the record behind the
/// lazily stamped hold start (see "Clock reads" above).  The shim keeps one
/// per thread in initial-exec TLS; a test or bench thread keeps its own.
struct ThreadHolds {
  /// Observed holds, recursion levels included.
  std::int64_t count = 0;
  /// The hold taken while count was 0, until an acquisition stamps it.
  SyntheticMonitor* unstamped = nullptr;
  /// The latest start this thread gave a hold; the next is later (rule b).
  util::TimeNs last_start = 0;

  /// A start read at `now`, strictly later than every earlier one.
  util::TimeNs next_start(util::TimeNs now) {
    last_start = now > last_start ? now : last_start + 1;
    return last_start;
  }
};

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

  /// The start of a hold no acquisition has stamped yet: later than any
  /// capture, so its certified interval is empty.
  static constexpr util::TimeNs kUnstamped =
      std::numeric_limits<util::TimeNs>::max();

  // --- Producer surface (application threads). ------------------------------

  /// Before the real lock, trylock or cond wait of a thread keeping
  /// `holds`: stamp its unstamped hold, if it has one (rule c).
  static void stamp_outer(Tid tid, ThreadHolds& holds) {
    if (holds.unstamped != nullptr) holds.unstamped->stamp_hold(tid, holds);
  }

  /// The thread failed a trylock and is about to block in the real lock.
  void lock_blocked(Tid tid);
  /// The real lock (or trylock) returned success; the caller holds it.
  /// A hold taken while the thread holds nothing else observed is left
  /// unstamped; any other reads its start from the clock.
  void lock_acquired(Tid tid, ThreadHolds& holds);
  /// The same without a record: the start is read from the clock at every
  /// acquisition (the eager reference the stamping tests compare with).
  void lock_acquired(Tid tid);
  /// The blocking lock returned an error (e.g. EDEADLK): undo the block.
  void lock_cancelled(Tid tid);
  /// The thread is about to release the mutex (it still holds it).  Returns
  /// whether it held it; with `holds`, that hold leaves the record.
  bool unlocked(Tid tid);
  void unlocked(Tid tid, ThreadHolds& holds);
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
  /// lock_acquired body; `start` may be kUnstamped.
  void acquired(Tid tid, util::TimeNs start);
  /// stamp_outer's body: `holds.unstamped` is this monitor.
  void stamp_hold(Tid tid, ThreadHolds& holds);
  /// Owner-state half of lock_acquired / unlocked (host mutex held).
  void acquire_owner(Tid tid, util::TimeNs start);
  enum class Release { kNotOwner, kNested, kFreed };
  Release release_owner(Tid tid);
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
  /// An odd queue-entry ticket.  queue_mu_ held.
  std::uint64_t new_queue_ticket() {
    const std::uint64_t ticket = next_queue_ticket_;
    next_queue_ticket_ += 2;
    return ticket;
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

  /// Leaf lock over the queues and the log; never held while acquiring an
  /// application lock.
  mutable std::mutex queue_mu_;
  std::vector<trace::QueueEntry> entry_queue_;  // guarded by queue_mu_
  std::vector<trace::QueueEntry> cond_queue_;   // guarded by queue_mu_
  std::uint64_t next_queue_ticket_ = 1;         // guarded by queue_mu_
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
