#include "runtime/hoare_monitor.hpp"

#include <algorithm>
#include <mutex>
#include <utility>

namespace robmon::rt {

using core::FaultKind;
using trace::EventRecord;

class HoareMonitor::StateTraceScope {
 public:
  explicit StateTraceScope(HoareMonitor& monitor)
      : monitor_(monitor), appended_(monitor.log_.total_appended()) {}
  ~StateTraceScope() {
    if (monitor_.state_trace_enabled_ &&
        monitor_.log_.total_appended() != appended_) {
      monitor_.state_trace_.push_back(monitor_.snapshot_locked());
    }
  }
  StateTraceScope(const StateTraceScope&) = delete;
  StateTraceScope& operator=(const StateTraceScope&) = delete;

 private:
  HoareMonitor& monitor_;
  std::uint64_t appended_;
};

HoareMonitor::HoareMonitor(core::MonitorSpec spec, const util::Clock& clock,
                           inject::InjectionController& injection,
                           Instrumentation instrumentation,
                           Semantics semantics, bool retain_history)
    : spec_(std::move(spec)),
      clock_(&clock),
      injection_(&injection),
      instrumentation_(instrumentation),
      semantics_(semantics),
      log_(trace::EventLog::Options{.retain_history = retain_history}) {
  // Coordinator monitors own R# from the start (all Rmax resources free),
  // so the detector's initial state is consistent before any procedure of
  // the shared module has been constructed.
  if (spec_.type == core::MonitorType::kCommunicationCoordinator) {
    track_resources_ = true;
    resources_ = spec_.rmax;
  }
}

trace::SymbolId HoareMonitor::proc_of(trace::Pid pid) const {
  const auto it = inside_proc_.find(pid);
  return it == inside_proc_.end() ? trace::kNoSymbol : it->second;
}

void HoareMonitor::record(const trace::EventRecord& event) {
  if (instrumentation_ == Instrumentation::kFull) log_.append(event);
}

void HoareMonitor::set_resource_gauge(std::function<std::int64_t()> gauge) {
  std::lock_guard<sync::SpinLock> lock(mu_);
  resource_gauge_ = std::move(gauge);
}

void HoareMonitor::enable_state_trace() {
  std::lock_guard<sync::SpinLock> lock(mu_);
  state_trace_enabled_ = true;
  state_trace_.clear();
  state_trace_.push_back(snapshot_locked());
}

std::vector<trace::SchedulingState> HoareMonitor::state_trace() const {
  std::lock_guard<sync::SpinLock> lock(mu_);
  return state_trace_;
}

Status HoareMonitor::enter(trace::Pid pid, const std::string& procedure) {
  return enter(pid, symbols_.intern(procedure));
}
Status HoareMonitor::wait(trace::Pid pid, const std::string& cond) {
  return wait(pid, symbols_.intern(cond));
}
void HoareMonitor::signal_exit(trace::Pid pid, const std::string& cond) {
  signal_exit_impl(pid, symbols_.intern(cond), 0);
}
void HoareMonitor::signal_exit(trace::Pid pid, const std::string& cond,
                               std::int64_t resource_delta) {
  signal_exit_impl(pid, symbols_.intern(cond), resource_delta);
}
void HoareMonitor::signal_exit(trace::Pid pid, trace::SymbolId cond) {
  signal_exit_impl(pid, cond, 0);
}
void HoareMonitor::signal_exit(trace::Pid pid, trace::SymbolId cond,
                               std::int64_t resource_delta) {
  signal_exit_impl(pid, cond, resource_delta);
}
void HoareMonitor::exit(trace::Pid pid) {
  signal_exit_impl(pid, trace::kNoSymbol, 0);
}

void HoareMonitor::track_resources(std::int64_t initial) {
  std::lock_guard<sync::SpinLock> lock(mu_);
  track_resources_ = true;
  resources_ = initial;
}

std::int64_t HoareMonitor::resources() const {
  std::lock_guard<sync::SpinLock> lock(mu_);
  return resources_;
}

void HoareMonitor::note_hold(trace::Pid pid) {
  std::lock_guard<sync::SpinLock> lock(mu_);
  auto [it, inserted] = holds_.try_emplace(pid);
  if (inserted) {
    it->second.since = now();
    it->second.ticket = ++next_ticket_;
  }
  ++it->second.units;
}

void HoareMonitor::note_release(trace::Pid pid) {
  std::lock_guard<sync::SpinLock> lock(mu_);
  auto it = holds_.find(pid);
  if (it == holds_.end()) return;  // release-before-acquire client bug
  if (--it->second.units <= 0) holds_.erase(it);
}

Status HoareMonitor::enter(trace::Pid pid, trace::SymbolId proc_id) {
  Waiter self{pid, proc_id, 0, 0, false, {}};
  bool must_park = false;
  {
    std::lock_guard<sync::SpinLock> lock(mu_);
    StateTraceScope trace_scope(*this);
    if (poisoned_) return Status::kPoisoned;

    // Fault I.a.4: run inside without Enter being observed.
    if (injection_->fire(FaultKind::kEnterNotObserved, pid)) {
      inside_proc_[pid] = proc_id;
      return Status::kOk;
    }

    const bool busy = owner_.has_value();

    // Fault I.a.1: entry granted although the monitor is occupied.
    if (busy &&
        injection_->fire(FaultKind::kEnterMutualExclusionViolation, pid)) {
      record(EventRecord::enter(pid, proc_id, true, now()));
      inside_proc_[pid] = proc_id;
      return Status::kOk;
    }

    if (!busy) {
      // Fault I.a.3: blocked although the monitor is free.
      if (injection_->fire(FaultKind::kEnterNoResponse, pid)) {
        record(EventRecord::enter(pid, proc_id, false, now()));
        self.since = now();
        self.ticket = ++next_ticket_;
        entry_queue_.push_back(
            {pid, proc_id, self.since, self.ticket, &self, false});
        must_park = true;
      } else {
        owner_ = pid;
        owner_proc_ = proc_id;
        owner_since_ = now();
        owner_ticket_ = ++next_ticket_;
        inside_proc_[pid] = proc_id;
        record(EventRecord::enter(pid, proc_id, true, now()));
        return Status::kOk;
      }
    } else {
      // Recovery poison rejects exactly the calls that would park: the
      // monitor is busy, so this enter would block.  Non-blocking traffic
      // (a free monitor — e.g. a Release returning a unit) flows, which is
      // what lets a poisoned monitor drain back to service.  No event is
      // recorded: the rejection is out-of-band, like the eviction.
      if (recovery_poisoned_locked()) return Status::kRecoveryFault;
      record(EventRecord::enter(pid, proc_id, false, now()));
      // Fault I.a.2: the request is recorded but then lost.
      if (injection_->fire(FaultKind::kEnterRequestLost, pid)) {
        lost_waiters_.push_back(&self);
        must_park = true;
      } else {
        self.since = now();
        self.ticket = ++next_ticket_;
        entry_queue_.push_back(
            {pid, proc_id, self.since, self.ticket, &self, false});
        must_park = true;
      }
    }
  }
  if (must_park) {
    const auto result = self.sem.acquire();
    if (result == sync::AcquireResult::kPoisoned) return Status::kPoisoned;
    if (self.recovery) return Status::kRecoveryFault;
  }
  return Status::kOk;
}

Status HoareMonitor::wait(trace::Pid pid, trace::SymbolId cond) {
  Waiter self{pid, trace::kNoSymbol, 0, 0, false, {}};
  bool must_park = false;
  {
    std::lock_guard<sync::SpinLock> lock(mu_);
    StateTraceScope trace_scope(*this);
    if (poisoned_) return Status::kPoisoned;
    if (recovery_poisoned_locked()) {
      // The caller owns the monitor; a rejected wait must not leave it
      // claimed (the entry queue is empty while recovery-poisoned, so
      // there is nobody to hand off to).
      if (owner_ && *owner_ == pid) {
        owner_.reset();
        inside_proc_.erase(pid);
      }
      return Status::kRecoveryFault;
    }

    const trace::SymbolId proc_id = proc_of(pid);
    self.proc = proc_id;
    record(EventRecord::wait(pid, proc_id, cond, now()));

    // Fault I.b.1: not blocked; continues inside without releasing.
    if (injection_->fire(FaultKind::kWaitNoBlock, pid)) {
      return Status::kOk;
    }

    // Fault I.b.2: neither queued nor running.
    const bool lost = injection_->fire(FaultKind::kWaitProcessLost, pid);
    if (lost) {
      lost_waiters_.push_back(&self);
    } else {
      self.since = now();
      self.ticket = ++next_ticket_;
      cond_queues_[cond].push_back(&self);
    }
    must_park = true;

    if (owner_ && *owner_ == pid) {
      // Fault I.b.6: blocked but the monitor is not released.
      if (injection_->fire(FaultKind::kWaitMonitorNotReleased, pid)) {
        // owner_ deliberately left pointing at the blocked process.
      } else {
        owner_.reset();
        inside_proc_.erase(pid);
        // Fault I.b.3: entry waiters not resumed on wait (arming requires
        // an actual entry waiter).
        if (entry_queue_.empty() ||
            !injection_->fire(FaultKind::kWaitEntryNotResumed, pid)) {
          // Fault I.b.5: more than one entry waiter resumed.
          const bool extra =
              entry_queue_.size() >= 2 &&
              injection_->fire(FaultKind::kWaitMutualExclusionViolation, pid);
          Waiter* admitted = nullptr;
          Waiter* ghost = nullptr;
          admit_from_entry_queue(extra, &admitted, &ghost);
          if (admitted != nullptr) admitted->sem.release();
          if (ghost != nullptr) ghost->sem.release();
        }
      }
    }
  }
  if (must_park) {
    const auto result = self.sem.acquire();
    if (result == sync::AcquireResult::kPoisoned) return Status::kPoisoned;
    if (self.recovery) return Status::kRecoveryFault;
  }
  return Status::kOk;
}

HoareMonitor::Waiter* HoareMonitor::pop_admittable() {
  for (auto it = entry_queue_.begin(); it != entry_queue_.end(); ++it) {
    if (it->zombie) continue;  // slot leaked by a double-admission
    if (injection_->fire(FaultKind::kWaitEntryStarved, it->pid)) continue;
    if (injection_->active(FaultKind::kEnterNoResponse, it->pid)) continue;
    Waiter* waiter = it->waiter;
    entry_queue_.erase(it);
    return waiter;
  }
  return nullptr;
}

HoareMonitor::Waiter* HoareMonitor::resume_ghost_from_entry_queue() {
  // Notify-too-many bug: resume the waiter but leak its queue slot.
  for (auto& entry : entry_queue_) {
    if (entry.zombie) continue;
    if (injection_->active(FaultKind::kWaitEntryStarved, entry.pid)) continue;
    if (injection_->active(FaultKind::kEnterNoResponse, entry.pid)) continue;
    Waiter* waiter = entry.waiter;
    entry.zombie = true;
    entry.waiter = nullptr;
    inside_proc_[entry.pid] = entry.proc;
    return waiter;
  }
  return nullptr;
}

void HoareMonitor::admit_from_entry_queue(bool extra,
                                          HoareMonitor::Waiter** admitted,
                                          HoareMonitor::Waiter** ghost) {
  *admitted = nullptr;
  *ghost = nullptr;
  Waiter* waiter = pop_admittable();
  if (waiter == nullptr) return;
  owner_ = waiter->pid;
  owner_proc_ = waiter->proc;
  owner_since_ = now();
  owner_ticket_ = ++next_ticket_;
  inside_proc_[waiter->pid] = waiter->proc;
  *admitted = waiter;
  if (extra) *ghost = resume_ghost_from_entry_queue();
}

void HoareMonitor::signal_exit_impl(trace::Pid pid, trace::SymbolId cond,
                                    std::int64_t resource_delta) {
  Waiter* wake_first = nullptr;
  Waiter* wake_second = nullptr;
  {
    std::lock_guard<sync::SpinLock> lock(mu_);
    StateTraceScope trace_scope(*this);
    if (poisoned_) return;

    // Fault I.c.4: terminates inside the monitor; the exit never happens.
    if (injection_->fire(FaultKind::kTerminationInsideMonitor, pid)) {
      return;
    }

    if (track_resources_) resources_ += resource_delta;

    const trace::SymbolId proc_id = proc_of(pid);
    const bool is_owner = owner_ && *owner_ == pid;

    auto* cond_queue = [&]() -> std::deque<Waiter*>* {
      if (cond == trace::kNoSymbol) return nullptr;
      auto it = cond_queues_.find(cond);
      return it == cond_queues_.end() ? nullptr : &it->second;
    }();
    const bool someone_waiting =
        (cond_queue != nullptr && !cond_queue->empty()) ||
        !entry_queue_.empty();

    // Fault I.c.2: exits but the monitor is not released.
    const bool keep_lock =
        is_owner &&
        injection_->fire(FaultKind::kSignalExitMonitorNotReleased, pid);
    // Fault I.c.1: nobody is resumed on exit (arming requires a waiter).
    const bool suppress_resume =
        is_owner && !keep_lock && someone_waiting &&
        injection_->fire(FaultKind::kSignalExitNoResume, pid);

    const bool resume_cond_waiter = is_owner && !keep_lock &&
                                    !suppress_resume && cond_queue != nullptr &&
                                    !cond_queue->empty();

    record(EventRecord::signal_exit(pid, proc_id, cond, resume_cond_waiter,
                                    now()));
    inside_proc_.erase(pid);

    if (is_owner && !keep_lock) {
      if (resume_cond_waiter && semantics_ == Semantics::kMesaSignalContinue) {
        // Mesa signal-and-continue: the signalled waiter re-contends via
        // the entry queue; the monitor itself is released to the EQ head.
        Waiter* waiter = cond_queue->front();
        cond_queue->pop_front();
        entry_queue_.push_back({waiter->pid, waiter->proc, now(),
                                ++next_ticket_, waiter, false});
        owner_.reset();
        admit_from_entry_queue(false, &wake_first, &wake_second);
      } else if (resume_cond_waiter) {
        Waiter* waiter = cond_queue->front();
        cond_queue->pop_front();
        owner_ = waiter->pid;
        owner_proc_ = waiter->proc;
        owner_since_ = now();
        owner_ticket_ = ++next_ticket_;
        inside_proc_[waiter->pid] = waiter->proc;
        wake_first = waiter;
        // Fault I.c.3: additionally resume an entry waiter without
        // removing its queue slot (notify-too-many).
        if (!entry_queue_.empty() &&
            injection_->fire(FaultKind::kSignalExitMutualExclusionViolation,
                             pid)) {
          wake_second = resume_ghost_from_entry_queue();
        }
      } else {
        owner_.reset();
        if (!suppress_resume) {
          const bool extra =
              entry_queue_.size() >= 2 &&
              injection_->fire(
                  FaultKind::kSignalExitMutualExclusionViolation, pid);
          admit_from_entry_queue(extra, &wake_first, &wake_second);
        }
      }
    }
  }
  if (wake_first != nullptr) wake_first->sem.release();
  if (wake_second != nullptr) wake_second->sem.release();
}

trace::SchedulingState HoareMonitor::capture(
    std::vector<trace::EventRecord>& out) {
  std::lock_guard<sync::SpinLock> lock(mu_);
  log_.drain(out);
  return snapshot_locked();
}

std::vector<trace::EventRecord> HoareMonitor::history() const {
  std::lock_guard<sync::SpinLock> lock(mu_);
  return log_.history();
}

trace::SchedulingState HoareMonitor::snapshot() const {
  std::lock_guard<sync::SpinLock> lock(mu_);
  return snapshot_locked();
}

trace::SchedulingState HoareMonitor::snapshot_locked() const {
  trace::SchedulingState state;
  state.captured_at = now();
  for (const EqEntry& entry : entry_queue_) {
    state.entry_queue.push_back(
        {entry.pid, entry.proc, entry.since, entry.ticket});
  }
  for (const auto& [cond, queue] : cond_queues_) {
    trace::CondQueueState cq;
    cq.cond = cond;
    for (const Waiter* waiter : queue) {
      cq.entries.push_back(
          {waiter->pid, waiter->proc, waiter->since, waiter->ticket});
    }
    state.cond_queues.push_back(std::move(cq));
  }
  if (track_resources_) {
    state.resources = resources_;
  } else {
    state.resources = resource_gauge_ ? resource_gauge_() : -1;
  }
  for (const auto& [pid, hold] : holds_) {  // std::map: already pid-sorted
    state.holders.push_back({pid, hold.units, hold.since, hold.ticket});
  }
  if (owner_) {
    state.running = *owner_;
    state.running_proc = owner_proc_;
    state.running_since = owner_since_;
    state.running_ticket = owner_ticket_;
  }
  return state;
}

void HoareMonitor::poison() {
  std::vector<Waiter*> parked;
  {
    std::lock_guard<sync::SpinLock> lock(mu_);
    poisoned_ = true;
    for (EqEntry& entry : entry_queue_) {
      if (entry.waiter != nullptr) parked.push_back(entry.waiter);
    }
    entry_queue_.clear();
    for (auto& [cond, queue] : cond_queues_) {
      for (Waiter* waiter : queue) parked.push_back(waiter);
      queue.clear();
    }
    for (Waiter* waiter : lost_waiters_) parked.push_back(waiter);
    lost_waiters_.clear();
  }
  for (Waiter* waiter : parked) waiter->sem.poison();
}

bool HoareMonitor::poisoned() const {
  std::lock_guard<sync::SpinLock> lock(mu_);
  return poisoned_;
}

void HoareMonitor::recovery_poison(std::uint64_t hold_ticket) {
  std::vector<Waiter*> parked;
  {
    std::lock_guard<sync::SpinLock> lock(mu_);
    poison_ticket_ = hold_ticket;
    for (EqEntry& entry : entry_queue_) {
      if (entry.waiter != nullptr) parked.push_back(entry.waiter);
    }
    entry_queue_.clear();
    for (auto& [cond, queue] : cond_queues_) {
      for (Waiter* waiter : queue) parked.push_back(waiter);
      queue.clear();
    }
    for (Waiter* waiter : lost_waiters_) parked.push_back(waiter);
    lost_waiters_.clear();
    // The flag must be set before the release: the woken thread reads it
    // with no lock, and the semaphore hand-off orders the write.
    for (Waiter* waiter : parked) waiter->recovery = true;
  }
  for (Waiter* waiter : parked) waiter->sem.release();
}

void HoareMonitor::unpoison() {
  std::lock_guard<sync::SpinLock> lock(mu_);
  poison_ticket_ = 0;
}

bool HoareMonitor::recovery_poisoned() const {
  std::lock_guard<sync::SpinLock> lock(mu_);
  return recovery_poisoned_locked();
}

bool HoareMonitor::recovery_poisoned_locked() const {
  if (poison_ticket_ == 0) return false;
  const bool held =
      (owner_ && owner_ticket_ == poison_ticket_) ||
      std::any_of(holds_.begin(), holds_.end(), [this](const auto& hold) {
        return hold.second.ticket == poison_ticket_;
      });
  if (!held) poison_ticket_ = 0;
  return held;
}

bool HoareMonitor::deliver_recovery_fault(trace::Pid pid) {
  Waiter* victim = nullptr;
  {
    std::lock_guard<sync::SpinLock> lock(mu_);
    for (auto it = entry_queue_.begin(); it != entry_queue_.end(); ++it) {
      if (it->pid == pid && it->waiter != nullptr) {
        victim = it->waiter;
        entry_queue_.erase(it);
        break;
      }
    }
    if (victim == nullptr) {
      for (auto& [cond, queue] : cond_queues_) {
        for (auto it = queue.begin(); it != queue.end(); ++it) {
          if ((*it)->pid == pid) {
            victim = *it;
            queue.erase(it);
            break;
          }
        }
        if (victim != nullptr) break;
      }
    }
    if (victim == nullptr) {
      for (auto it = lost_waiters_.begin(); it != lost_waiters_.end(); ++it) {
        if ((*it)->pid == pid) {
          victim = *it;
          lost_waiters_.erase(it);
          break;
        }
      }
    }
    if (victim == nullptr) return false;
    victim->recovery = true;
  }
  victim->sem.release();
  return true;
}

}  // namespace robmon::rt
