#include "sim/sim_monitor.hpp"

#include <utility>

namespace robmon::sim {

using core::FaultKind;
using trace::EventRecord;

SimMonitor::SimMonitor(core::MonitorSpec spec, Scheduler& scheduler,
                       inject::InjectionController& injection)
    : spec_(std::move(spec)),
      scheduler_(&scheduler),
      injection_(&injection) {}

trace::SymbolId SimMonitor::proc_of(trace::Pid pid) const {
  const auto it = inside_proc_.find(pid);
  return it == inside_proc_.end() ? trace::kNoSymbol : it->second;
}

void SimMonitor::record(const trace::EventRecord& event) {
  log_.append(event);
}

void SimMonitor::trace_state() {
  if (state_trace_enabled_) state_trace_.push_back(snapshot());
}

void SimMonitor::set_resource_gauge(std::function<std::int64_t()> gauge) {
  resource_gauge_ = std::move(gauge);
}

void SimMonitor::enable_state_trace() {
  state_trace_enabled_ = true;
  state_trace_.clear();
  state_trace_.push_back(snapshot());
}

trace::SchedulingState SimMonitor::snapshot() const {
  trace::SchedulingState state;
  state.captured_at = now();
  for (const Waiter& waiter : entry_queue_) {
    state.entry_queue.push_back({waiter.pid, waiter.proc, waiter.since});
  }
  for (const auto& [cond, queue] : cond_queues_) {
    trace::CondQueueState cq;
    cq.cond = cond;
    for (const Waiter& waiter : queue) {
      cq.entries.push_back({waiter.pid, waiter.proc, waiter.since});
    }
    state.cond_queues.push_back(std::move(cq));
  }
  state.resources = resource_gauge_ ? resource_gauge_() : -1;
  if (owner_) {
    state.running = *owner_;
    state.running_proc = owner_proc_;
    state.running_since = owner_since_;
  }
  return state;
}

void SimMonitor::take_ownership(const Waiter& waiter) {
  owner_ = waiter.pid;
  owner_proc_ = waiter.proc;
  owner_since_ = now();
  inside_proc_[waiter.pid] = waiter.proc;
}

bool SimMonitor::pop_admittable(Waiter& out) {
  for (auto it = entry_queue_.begin(); it != entry_queue_.end(); ++it) {
    if (it->zombie) continue;  // already resumed by a double-admission
    // Starvation victims are skipped forever once struck; enter-no-response
    // victims were parked without being eligible for admission.
    if (injection_->fire(FaultKind::kWaitEntryStarved, it->pid)) continue;
    if (injection_->active(FaultKind::kEnterNoResponse, it->pid)) continue;
    out = *it;
    entry_queue_.erase(it);
    return true;
  }
  return false;
}

void SimMonitor::admit_from_entry_queue(bool extra) {
  Waiter waiter;
  if (!pop_admittable(waiter)) return;
  take_ownership(waiter);
  scheduler_->unpark(waiter.pid);
  if (extra) admit_ghost_from_entry_queue();
}

void SimMonitor::admit_ghost_from_entry_queue() {
  // Notify-too-many bug: the second waiter is resumed *without* ownership
  // and without its queue slot being removed.  It runs inside concurrently
  // with the real owner while its entry leaks on EQ.
  for (auto& entry : entry_queue_) {
    if (entry.zombie) continue;
    if (injection_->active(FaultKind::kWaitEntryStarved, entry.pid)) continue;
    if (injection_->active(FaultKind::kEnterNoResponse, entry.pid)) continue;
    entry.zombie = true;
    inside_proc_[entry.pid] = entry.proc;
    scheduler_->unpark(entry.pid);
    return;
  }
}

Op<> SimMonitor::enter(std::string procedure) {
  const trace::Pid pid = scheduler_->current_pid();
  const trace::SymbolId proc_id = symbols_.intern(procedure);

  // Fault I.a.4: run inside without Enter being observed.
  if (injection_->fire(FaultKind::kEnterNotObserved, pid)) {
    inside_proc_[pid] = proc_id;
    co_return;
  }

  const bool busy = owner_.has_value();

  // Fault I.a.1: entry granted although the monitor is occupied.
  if (busy && injection_->fire(FaultKind::kEnterMutualExclusionViolation,
                               pid)) {
    record(EventRecord::enter(pid, proc_id, true, now()));
    inside_proc_[pid] = proc_id;
    trace_state();
    co_return;
  }

  if (!busy) {
    // Fault I.a.3: blocked although the monitor is free (and, sticky,
    // never admitted afterwards).
    if (injection_->fire(FaultKind::kEnterNoResponse, pid)) {
      record(EventRecord::enter(pid, proc_id, false, now()));
      entry_queue_.push_back({pid, proc_id, now()});
      trace_state();
      co_await scheduler_->park();
      co_return;
    }
    Waiter self{pid, proc_id, now()};
    take_ownership(self);
    record(EventRecord::enter(pid, proc_id, true, now()));
    trace_state();
    co_return;
  }

  // Monitor occupied: queue on EQ.
  record(EventRecord::enter(pid, proc_id, false, now()));
  // Fault I.a.2: the request is recorded but then lost — never queued.
  if (injection_->fire(FaultKind::kEnterRequestLost, pid)) {
    trace_state();
    co_await scheduler_->park();  // never admitted
    co_return;
  }
  entry_queue_.push_back({pid, proc_id, now()});
  trace_state();
  co_await scheduler_->park();
  // Resumed with ownership already transferred by the waker; per the
  // reduced recording model (Section 3.3.1) nothing is re-recorded.
  co_return;
}

Op<> SimMonitor::wait(std::string cond) {
  const trace::Pid pid = scheduler_->current_pid();
  const trace::SymbolId cond_id = symbols_.intern(cond);
  const trace::SymbolId proc_id = proc_of(pid);

  record(EventRecord::wait(pid, proc_id, cond_id, now()));

  // Fault I.b.1: not blocked; continues to run inside without queueing or
  // releasing the monitor.
  if (injection_->fire(FaultKind::kWaitNoBlock, pid)) {
    trace_state();
    co_return;
  }

  // Fault I.b.2: neither queued nor running.
  const bool lost = injection_->fire(FaultKind::kWaitProcessLost, pid);
  if (!lost) {
    cond_queues_[cond_id].push_back({pid, proc_id, now()});
  }

  if (owner_ && *owner_ == pid) {
    // Fault I.b.6: blocked but the monitor is not released.
    if (injection_->fire(FaultKind::kWaitMonitorNotReleased, pid)) {
      // owner_ deliberately kept pointing at the now-blocked process.
    } else {
      owner_.reset();
      inside_proc_.erase(pid);
      // Fault I.b.3: entry waiters not resumed on wait.  (Arming requires
      // an actual entry waiter, else the injection would be a no-op.)
      if (entry_queue_.empty() ||
          !injection_->fire(FaultKind::kWaitEntryNotResumed, pid)) {
        // Fault I.b.5: more than one entry waiter resumed.
        const bool extra =
            entry_queue_.size() >= 2 &&
            injection_->fire(FaultKind::kWaitMutualExclusionViolation, pid);
        admit_from_entry_queue(extra);
      }
    }
  }
  trace_state();
  co_await scheduler_->park();
  co_return;
}

void SimMonitor::signal_exit(const std::string& cond) {
  signal_exit_impl(scheduler_->current_pid(), symbols_.intern(cond));
}

void SimMonitor::exit() {
  signal_exit_impl(scheduler_->current_pid(), trace::kNoSymbol);
}

void SimMonitor::signal_exit_impl(trace::Pid pid, trace::SymbolId cond) {
  // Fault I.c.4: the process terminates inside the monitor — the exit never
  // happens, no event is recorded, ownership is retained forever.
  if (injection_->fire(FaultKind::kTerminationInsideMonitor, pid)) {
    return;
  }

  const trace::SymbolId proc_id = proc_of(pid);
  const bool is_owner = owner_ && *owner_ == pid;

  auto* cond_queue = [&]() -> std::deque<Waiter>* {
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
  // Fault I.c.1: nobody (condition or entry waiter) is resumed.  Arming
  // requires someone to actually be waiting.
  const bool suppress_resume =
      is_owner && !keep_lock && someone_waiting &&
      injection_->fire(FaultKind::kSignalExitNoResume, pid);

  const bool resume_cond_waiter = is_owner && !keep_lock && !suppress_resume &&
                                  cond_queue != nullptr &&
                                  !cond_queue->empty();

  record(EventRecord::signal_exit(pid, proc_id, cond, resume_cond_waiter,
                                  now()));
  inside_proc_.erase(pid);

  if (!is_owner) {
    // Ghost runner (injected mutual-exclusion violation) exiting: it never
    // owned the monitor, so there is nothing to hand over.
    trace_state();
    return;
  }

  if (keep_lock) {
    // owner_ still points at pid, which has left: a stale lock.
    trace_state();
    return;
  }

  if (resume_cond_waiter) {
    Waiter waiter = cond_queue->front();
    cond_queue->pop_front();
    take_ownership(waiter);
    scheduler_->unpark(waiter.pid);
    // Fault I.c.3: additionally resume an entry waiter -> two inside.
    if (!entry_queue_.empty() &&
        injection_->fire(FaultKind::kSignalExitMutualExclusionViolation,
                         pid)) {
      admit_ghost_from_entry_queue();
    }
  } else {
    owner_.reset();
    if (!suppress_resume) {
      const bool extra =
          entry_queue_.size() >= 2 &&
          injection_->fire(FaultKind::kSignalExitMutualExclusionViolation,
                           pid);
      admit_from_entry_queue(extra);
    }
  }
  trace_state();
}

Process periodic_checker(Scheduler& scheduler, SimMonitor& monitor,
                         core::Detector& detector, CheckerOptions options) {
  std::vector<trace::EventRecord> segment;
  for (std::uint64_t check = 0; check < options.max_checks; ++check) {
    co_await scheduler.delay(detector.spec().check_period);
    monitor.log().drain(segment);
    detector.check(segment, monitor.snapshot(), scheduler.now());
    // Only the checker left: stop once the timer horizon has been covered.
    if (scheduler.live_count() <= 1 && check + 1 >= options.min_checks) {
      co_return;
    }
  }
}

}  // namespace robmon::sim
