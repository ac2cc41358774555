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
// retention is on — see Config::retain_history), a <EQ, CQ[], holders,
// Running> snapshot with per-episode tickets, and a checker gate — so the
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
// Hot-path contract: every producer call is one lock-free MpscRing push —
// the application thread never takes a robmon lock while adapting an
// operation, so the shim cannot deadlock against itself.  The buffered ops
// are folded into the monitor state under apply_mu_ by whoever needs the
// state next (the pool's drain/snapshot, or a producer that found the ring
// full — backpressure applies the backlog inline instead of dropping).
//
// Ordering: ops of one monitor are applied in ring claim order, which
// matches the real-time order of the pushes.  The one exception is a
// producer preempted between claim and publish: the apply pass stops at
// its slot, and a backpressure-applying producer may fold a later op
// first.  Every transition below is therefore *guarded* (an unlock by a
// non-owner, or an acquire-remove of an absent EQ entry, is a no-op), so
// a transient misorder can only under-report — never fabricate state, and
// never corrupt it.  The pool's two-pass live validation then makes
// wait-for reports exact regardless.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/monitor_spec.hpp"
#include "runtime/event_sink.hpp"
#include "sync/gate.hpp"
#include "sync/mpsc_ring.hpp"
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
    /// Pending-op ring capacity (slots; rounded up to a power of two).
    std::size_t ring_capacity = 1024;
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

  // --- Producer surface (application threads; one ring push each). ----------

  /// The thread failed a trylock and is about to block in the real lock.
  void lock_blocked(Tid tid);
  /// The real lock (or trylock) returned success.
  void lock_acquired(Tid tid);
  /// The blocking lock returned an error (e.g. EDEADLK): undo the block.
  void lock_cancelled(Tid tid);
  /// The thread is about to release the mutex.
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

  // --- rt::EventSink (checker side). ----------------------------------------

  const core::MonitorSpec& spec() const override { return spec_; }
  const trace::SymbolTable& symbols() const override { return symbols_; }
  sync::CheckerGate& gate() override { return gate_; }
  void drain_segment(std::vector<trace::EventRecord>& out) override;
  std::uint64_t events_lost() const override { return log_.events_lost(); }
  trace::SchedulingState snapshot() const override;

  // --- Introspection / export. ----------------------------------------------

  Kind kind() const { return kind_; }
  /// The log's relaxed counters; history() is the export surface.
  const trace::EventLog& log() const { return log_; }
  /// Recorded events, archived plus pending, after folding every pending
  /// op (empty unless retain_history).  Taken under apply_mu_.
  std::vector<trace::EventRecord> history() const;
  /// Full-ring events applied inline by a producer (never dropped).
  std::uint64_t backpressure_syncs() const {
    return backpressure_syncs_.load(std::memory_order_relaxed);
  }

 private:
  enum class OpKind : std::uint8_t {
    kLockBlocked,
    kLockAcquired,
    kLockCancelled,
    kUnlocked,
    kCondParked,
    kCondUnparked,
    kCondSignalled,
    kReset,
  };

  struct Op {
    OpKind kind = OpKind::kLockBlocked;
    Tid tid = kNoTid;
    util::TimeNs time = 0;
    bool flag = false;  ///< kCondSignalled: broadcast.
  };

  void push(OpKind kind, Tid tid, bool flag = false);
  /// Fold every published ring op into the (mutable) state.  apply_mu_
  /// held.  const because snapshot() — logically an observation — must
  /// fold pending ops first.
  void apply_pending_locked() const;
  void apply_locked(const Op& op) const;
  /// Append to the log when recording (retention) is on.  apply_mu_ held.
  void record(const trace::EventRecord& event) const;
  void erase_entry_wait(Tid tid) const;

  const Kind kind_;
  core::MonitorSpec spec_;
  const util::Clock* clock_;
  trace::SymbolTable symbols_;
  trace::SymbolId proc_lock_ = trace::kNoSymbol;
  trace::SymbolId proc_wait_ = trace::kNoSymbol;
  trace::SymbolId proc_signal_ = trace::kNoSymbol;
  trace::SymbolId cond_sym_ = trace::kNoSymbol;

  sync::CheckerGate gate_;
  /// Owner-serialized by apply_mu_ (see EventLog's contract), like the
  /// native monitor's log under its mu_.
  mutable trace::EventLog log_;

  /// Everything below apply_mu_ is logically part of observation:
  /// snapshot() is const for the pool but must fold pending ops first,
  /// hence the mutable consumer state (same pattern as HoareMonitor's
  /// mutable mu_).
  mutable std::mutex apply_mu_;
  mutable sync::MpscRing<Op> ring_;
  mutable std::vector<trace::QueueEntry> entry_queue_;
  mutable std::vector<trace::QueueEntry> cond_queue_;
  mutable Tid owner_ = kNoTid;
  mutable std::int64_t owner_depth_ = 0;  ///< Recursive-mutex depth.
  mutable util::TimeNs owner_since_ = 0;
  mutable std::uint64_t owner_ticket_ = 0;
  /// Monotonic episode counter (see HoareMonitor::next_ticket_): one per
  /// blocking episode and per ownership, so the pool's live validation can
  /// tell a continuous wait from a re-formed one without trusting clocks.
  mutable std::uint64_t next_ticket_ = 0;

  std::atomic<std::uint64_t> backpressure_syncs_{0};
};

}  // namespace robmon::interpose
