#include "interpose/synthetic_monitor.hpp"

#include <algorithm>
#include <thread>
#include <utility>

namespace robmon::interpose {

namespace {

/// Seqlock read attempts before snapshot() gives up on a consistent owner
/// read and reports none (an under-report).  A writer's critical section
/// is a handful of stores, so only a writer preempted mid-write — or a
/// host racing pthread_mutex_destroy against a holder — gets this far.
constexpr int kOwnerReadAttempts = 1024;

}  // namespace

SyntheticMonitor::SyntheticMonitor(std::string name, Kind kind,
                                   const util::Clock& clock,
                                   const Config& config)
    : kind_(kind),
      spec_(core::MonitorSpec::manager(std::move(name))),
      clock_(&clock),
      recording_(config.retain_history),
      log_(trace::EventLog::Options{.retain_history = config.retain_history}) {
  spec_.check_period = config.check_period;
  proc_lock_ = symbols_.intern("lock");
  proc_wait_ = symbols_.intern("wait");
  proc_signal_ = symbols_.intern("signal");
  cond_sym_ = symbols_.intern("cond");
}

// --- Owner state (single writer: the host mutex's holder). -------------------

void SyntheticMonitor::write_owner(const Owner& owner) {
  // The release stores keep every field store after the odd version and
  // before the even one, so a reader that sees any new field value also
  // sees the version move (Boehm, "Can seqlocks get along with programming
  // language memory models?", without standalone fences).
  const std::uint64_t version =
      owner_version_.load(std::memory_order_relaxed);
  owner_version_.store(version + 1, std::memory_order_relaxed);
  owner_.store(owner.tid, std::memory_order_release);
  owner_depth_.store(owner.depth, std::memory_order_release);
  owner_since_.store(owner.since, std::memory_order_release);
  owner_ticket_.store(owner.ticket, std::memory_order_release);
  owner_version_.store(version + 2, std::memory_order_release);
}

SyntheticMonitor::Owner SyntheticMonitor::read_owner() const {
  for (int attempt = 0; attempt < kOwnerReadAttempts; ++attempt) {
    const std::uint64_t before =
        owner_version_.load(std::memory_order_acquire);
    if ((before & 1) == 0) {
      const Owner owner{owner_.load(std::memory_order_acquire),
                        owner_depth_.load(std::memory_order_acquire),
                        owner_since_.load(std::memory_order_acquire),
                        owner_ticket_.load(std::memory_order_acquire)};
      if (owner_version_.load(std::memory_order_relaxed) == before) {
        return owner;
      }
    }
    std::this_thread::yield();
  }
  return {};
}

void SyntheticMonitor::acquire_owner(Tid tid, util::TimeNs start) {
  // Relaxed reads of fields only this thread (the holder) writes, or that
  // the previous holder wrote before releasing the host mutex.
  if (owner_.load(std::memory_order_relaxed) == tid) {
    // Recursive re-acquisition: the hold keeps its start and ticket.
    write_owner({tid, owner_depth_.load(std::memory_order_relaxed) + 1,
                 owner_since_.load(std::memory_order_relaxed),
                 owner_ticket_.load(std::memory_order_relaxed)});
  } else {
    // The ownership ticket is the version this write publishes: even,
    // and never published twice.
    write_owner({tid, 1, start,
                 owner_version_.load(std::memory_order_relaxed) + 2});
  }
}

SyntheticMonitor::Release SyntheticMonitor::release_owner(Tid tid) {
  // Guarded: an unlock from a thread the adapter never saw acquire
  // (pthread_mutex_timedlock is unobserved) is a read-only no-op.
  if (owner_.load(std::memory_order_relaxed) != tid) {
    return Release::kNotOwner;
  }
  const std::int64_t depth = owner_depth_.load(std::memory_order_relaxed);
  if (depth > 1) {
    write_owner({tid, depth - 1, owner_since_.load(std::memory_order_relaxed),
                 owner_ticket_.load(std::memory_order_relaxed)});
    return Release::kNested;
  }
  write_owner({});
  return Release::kFreed;
}

void SyntheticMonitor::stamp_hold(Tid tid, ThreadHolds& holds) {
  holds.unstamped = nullptr;
  const util::TimeNs start = holds.next_start(clock_->now_ns());
  // Guarded: a no-op unless this thread holds the mutex here unstamped.
  // After a reset() (the host destroyed the mutex while holding it)
  // another thread may own it.
  if (owner_.load(std::memory_order_relaxed) != tid ||
      owner_since_.load(std::memory_order_relaxed) != kUnstamped) {
    return;
  }
  write_owner({tid, owner_depth_.load(std::memory_order_relaxed), start,
               owner_ticket_.load(std::memory_order_relaxed)});
}

// --- Queues and log (queue_mu_). ---------------------------------------------

void SyntheticMonitor::erase_entry(std::vector<trace::QueueEntry>& queue,
                                   Tid tid) {
  const auto it = std::find_if(
      queue.begin(), queue.end(),
      [tid](const trace::QueueEntry& entry) { return entry.pid == tid; });
  if (it != queue.end()) queue.erase(it);
}

void SyntheticMonitor::record(const trace::EventRecord& event) {
  if (recording_) log_.append(event);
}

// --- Producer surface. -------------------------------------------------------

void SyntheticMonitor::lock_blocked(Tid tid) {
  std::lock_guard<std::mutex> lock(queue_mu_);
  touch_queues();
  const util::TimeNs now = clock_->now_ns();
  entry_queue_.push_back({tid, proc_lock_, now, new_queue_ticket()});
  entry_waiters_.store(entry_queue_.size(), std::memory_order_relaxed);
  record(trace::EventRecord::enter(tid, proc_lock_, false, now));
}

void SyntheticMonitor::lock_acquired(Tid tid, ThreadHolds& holds) {
  if (holds.count++ == 0) {
    holds.unstamped = this;
    acquired(tid, kUnstamped);
  } else {
    acquired(tid, holds.next_start(clock_->now_ns()));
  }
}

void SyntheticMonitor::lock_acquired(Tid tid) {
  acquired(tid, clock_->now_ns());
}

void SyntheticMonitor::acquired(Tid tid, util::TimeNs start) {
  // Only this thread's own lock_blocked can have queued it, and that store
  // precedes this load in program order: a zero means no entry to erase.
  if (!recording_ && entry_waiters_.load(std::memory_order_relaxed) == 0) {
    acquire_owner(tid, start);
    return;
  }
  std::lock_guard<std::mutex> lock(queue_mu_);
  touch_queues();
  const std::size_t queued = entry_queue_.size();
  erase_entry(entry_queue_, tid);
  entry_waiters_.store(entry_queue_.size(), std::memory_order_relaxed);
  acquire_owner(tid, start);
  // Reduced recording model: a blocked request was recorded at block time
  // and its resume is implied; only a fast-path acquire records a fresh
  // (immediately admitted) Enter.
  if (recording_ && entry_queue_.size() == queued) {
    record(trace::EventRecord::enter(tid, proc_lock_, true, clock_->now_ns()));
  }
}

void SyntheticMonitor::lock_cancelled(Tid tid) {
  std::lock_guard<std::mutex> lock(queue_mu_);
  touch_queues();
  erase_entry(entry_queue_, tid);
  entry_waiters_.store(entry_queue_.size(), std::memory_order_relaxed);
}

bool SyntheticMonitor::unlocked(Tid tid) {
  if (!recording_) return release_owner(tid) != Release::kNotOwner;
  std::lock_guard<std::mutex> lock(queue_mu_);
  touch_queues();
  const Release release = release_owner(tid);
  if (release == Release::kFreed) {
    record(trace::EventRecord::signal_exit(tid, proc_lock_, trace::kNoSymbol,
                                           !entry_queue_.empty(),
                                           clock_->now_ns()));
  }
  return release != Release::kNotOwner;
}

void SyntheticMonitor::unlocked(Tid tid, ThreadHolds& holds) {
  if (!unlocked(tid)) return;
  --holds.count;
  // An unstamped hold has depth 1 (a recursive relock stamps it first), so
  // this release ended it.
  if (holds.unstamped == this) holds.unstamped = nullptr;
}

void SyntheticMonitor::cond_parked(Tid tid) {
  std::lock_guard<std::mutex> lock(queue_mu_);
  touch_queues();
  const util::TimeNs now = clock_->now_ns();
  cond_queue_.push_back({tid, proc_wait_, now, new_queue_ticket()});
  record(trace::EventRecord::wait(tid, proc_wait_, cond_sym_, now));
}

void SyntheticMonitor::cond_unparked(Tid tid) {
  std::lock_guard<std::mutex> lock(queue_mu_);
  touch_queues();
  erase_entry(cond_queue_, tid);
}

void SyntheticMonitor::cond_signalled(Tid tid, bool /*broadcast*/) {
  // A signal changes no queue: it is only an event, recorded alike for
  // signal and broadcast in the reduced model.
  if (!recording_) return;
  std::lock_guard<std::mutex> lock(queue_mu_);
  touch_queues();
  record(trace::EventRecord::signal_exit(tid, proc_signal_, cond_sym_,
                                         !cond_queue_.empty(),
                                         clock_->now_ns()));
}

void SyntheticMonitor::reset() {
  std::lock_guard<std::mutex> lock(queue_mu_);
  touch_queues();
  entry_queue_.clear();
  cond_queue_.clear();
  entry_waiters_.store(0, std::memory_order_relaxed);
  probe_not_recoverable_.store(false, std::memory_order_relaxed);
  write_owner({});
}

// --- Checker side. -----------------------------------------------------------

trace::SchedulingState SyntheticMonitor::capture(
    std::vector<trace::EventRecord>& out) {
  std::lock_guard<std::mutex> lock(queue_mu_);
  log_.drain(out);
  return snapshot_locked();
}

std::vector<trace::EventRecord> SyntheticMonitor::history() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return log_.history();
}

trace::SchedulingState SyntheticMonitor::snapshot() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return snapshot_locked();
}

trace::SchedulingState SyntheticMonitor::snapshot_locked() const {
  trace::SchedulingState state;
  state.captured_at = clock_->now_ns();
  if (kind_ == Kind::kMutex) {
    state.entry_queue = entry_queue_;
    const Owner owner = read_owner();
    if (owner.tid != kNoTid) {
      // The owner appears twice, deliberately: Running is the mutex-hold
      // edge entry-queue waits pair with (wait-for graph), holders[] is
      // what the lock-order relation's certified-interval join reads.
      state.running = owner.tid;
      state.running_proc = proc_lock_;
      state.running_since = owner.since;
      state.running_ticket = owner.ticket;
      state.holders.push_back({owner.tid, owner.depth, owner.since,
                               owner.ticket});
    }
  } else {
    state.cond_queues.push_back({cond_sym_, cond_queue_});
  }
  return state;
}

}  // namespace robmon::interpose
