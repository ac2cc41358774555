#include "core/fd_rules.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>

#include "core/lockorder.hpp"
#include "core/waitfor.hpp"

namespace robmon::core {

namespace {

using trace::EventKind;
using trace::EventRecord;
using trace::kNoPid;
using trace::kNoSymbol;
using trace::Pid;
using trace::QueueEntry;
using trace::SchedulingState;
using trace::SymbolId;

bool in_queue(const std::vector<QueueEntry>& queue, Pid pid) {
  for (const auto& entry : queue) {
    if (entry.pid == pid) return true;
  }
  return false;
}

/// True if pid is "inside" the monitor in state s: running or waiting on a
/// condition queue (Hoare's notion; a condition waiter has not left).
bool inside(const SchedulingState& s, Pid pid) {
  if (s.running == pid) return true;
  for (const auto& queue : s.cond_queues) {
    if (in_queue(queue.entries, pid)) return true;
  }
  return false;
}

class FdValidator {
 public:
  FdValidator(const MonitorSpec& spec, trace::SymbolTable& symbols,
              const std::vector<EventRecord>& events,
              const std::vector<SchedulingState>& states,
              util::TimeNs final_time)
      : spec_(spec),
        events_(events),
        states_(states),
        final_time_(final_time) {
    send_proc_ = symbols.intern(spec.send_procedure);
    receive_proc_ = symbols.intern(spec.receive_procedure);
    full_cond_ = symbols.intern(spec.full_condition);
    empty_cond_ = symbols.intern(spec.empty_condition);
    acquire_proc_ = symbols.intern(spec.acquire_procedure);
    release_proc_ = symbols.intern(spec.release_procedure);
  }

  std::vector<FaultReport> run() {
    rule1();
    rule2();
    rule3();
    rule4();
    rule5();
    if (spec_.type == MonitorType::kCommunicationCoordinator) rule6();
    if (spec_.type == MonitorType::kResourceAllocator) rule7();
    return std::move(reports_);
  }

 private:
  void report(RuleId rule, const EventRecord* ev, Pid pid,
              const std::string& message) {
    FaultReport fault;
    fault.rule = rule;
    if (ev != nullptr) {
      fault.pid = ev->pid;
      fault.proc = ev->proc;
      fault.cond = ev->cond;
      fault.event_seq = ev->seq;
    }
    if (pid != kNoPid) fault.pid = pid;
    fault.detected_at = final_time_;
    fault.message = message;
    reports_.push_back(fault);
  }

  const SchedulingState& before(std::size_t i) const { return states_[i]; }
  const SchedulingState& after(std::size_t i) const { return states_[i + 1]; }

  // --- FD-Rule 1: mutually exclusive access. ------------------------------
  void rule1() {
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const EventRecord& ev = events_[i];
      // 1.a) Immediate entry requires a vacant monitor.
      if (ev.kind == EventKind::kEnter && ev.flag &&
          before(i).has_running()) {
        report(RuleId::kFd1aMutualExclusion, &ev, kNoPid,
               "Enter(flag=1) while the monitor was occupied by p" +
                   std::to_string(before(i).running));
      }
      // 1.b) Wait / plain Signal-Exit serves the entry-queue head.
      if (ev.kind == EventKind::kWait ||
          (ev.kind == EventKind::kSignalExit && !ev.flag)) {
        const auto& eq_before = before(i).entry_queue;
        const auto& eq_after = after(i).entry_queue;
        if (!eq_before.empty()) {
          const bool shrank = eq_after.size() == eq_before.size() - 1;
          const bool head_admitted =
              after(i).running == eq_before.front().pid;
          if (!shrank || !head_admitted) {
            report(RuleId::kFd1bEntryQueueService, &ev, kNoPid,
                   "entry queue not served head-first on release");
          }
        }
      }
      // 1.c) Signal-Exit(flag=1) serves the condition-queue head.
      if (ev.kind == EventKind::kSignalExit && ev.flag) {
        const auto& cq_before = before(i).cond_entries(ev.cond);
        const auto& cq_after = after(i).cond_entries(ev.cond);
        if (cq_before.empty()) {
          report(RuleId::kFd1cCondQueueService, &ev, kNoPid,
                 "Signal-Exit(flag=1) with an empty condition queue");
        } else {
          const bool shrank = cq_after.size() == cq_before.size() - 1;
          const bool head_resumed =
              after(i).running == cq_before.front().pid;
          if (!shrank || !head_resumed) {
            report(RuleId::kFd1cCondQueueService, &ev, kNoPid,
                   "condition queue not served head-first on signal");
          }
        }
      }
      // 1.d) Every process operating inside the monitor must have entered:
      // the issuer of Wait/Signal-Exit must be the running process.
      if (ev.kind == EventKind::kWait || ev.kind == EventKind::kSignalExit) {
        if (before(i).running != ev.pid) {
          report(RuleId::kFd1dOperateWithoutEnter, &ev, kNoPid,
                 "operation issued by a process that is not inside the "
                 "monitor");
        }
      }
    }
  }

  // --- FD-Rule 2: nontermination inside a monitor. -------------------------
  // Track, per process, the start of its continuous residence inside the
  // monitor (running or condition-waiting); any residence longer than Tmax
  // is a violation.
  void rule2() {
    std::map<Pid, util::TimeNs> inside_since;
    auto step_time = [&](std::size_t i) {
      return i < events_.size() ? events_[i].time : final_time_;
    };
    // Seed with the initial state.
    seed_inside(states_.front(), 0, inside_since);
    for (std::size_t i = 0; i <= events_.size(); ++i) {
      const SchedulingState& s = states_[i];
      const util::TimeNs t = i == 0 ? 0 : events_[i - 1].time;
      // Processes newly inside.
      if (s.has_running() && !inside_since.count(s.running)) {
        inside_since[s.running] = t;
      }
      for (const auto& queue : s.cond_queues) {
        for (const auto& entry : queue.entries) {
          if (!inside_since.count(entry.pid)) inside_since[entry.pid] = t;
        }
      }
      // Processes that left.
      const util::TimeNs now = step_time(i);
      for (auto it = inside_since.begin(); it != inside_since.end();) {
        if (!inside(s, it->first)) {
          it = inside_since.erase(it);
        } else {
          if (now - it->second > spec_.t_max) {
            report(RuleId::kFd2NonTermination, nullptr, it->first,
                   "process resident inside the monitor beyond Tmax");
            it->second = now;  // suppress duplicate reports for this stay
          }
          ++it;
        }
      }
    }
  }

  static void seed_inside(const SchedulingState& s, util::TimeNs t,
                          std::map<Pid, util::TimeNs>& inside_since) {
    if (s.has_running()) inside_since[s.running] = t;
    for (const auto& queue : s.cond_queues) {
      for (const auto& entry : queue.entries) inside_since[entry.pid] = t;
    }
  }

  // --- FD-Rule 3: fair response. -------------------------------------------
  void rule3() {
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const EventRecord& ev = events_[i];
      if (ev.kind == EventKind::kEnter && !ev.flag &&
          !before(i).has_running()) {
        report(RuleId::kFd3UnfairResponse, &ev, kNoPid,
               "entry request delayed while the monitor was free");
      }
    }
  }

  // --- FD-Rule 4: free of starvation and losing processes. -----------------
  void rule4() {
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const EventRecord& ev = events_[i];
      if (ev.kind == EventKind::kEnter && !ev.flag) {
        const auto& eq_before = before(i).entry_queue;
        const auto& eq_after = after(i).entry_queue;
        const bool queued = eq_after.size() == eq_before.size() + 1 &&
                            in_queue(eq_after, ev.pid);
        if (!queued) {
          report(RuleId::kFd4StarvationOrLoss, &ev, kNoPid,
                 "blocked entry request was not appended to the entry queue "
                 "(lost process)");
        }
      }
      if (ev.kind == EventKind::kWait) {
        const auto& cq_before = before(i).cond_entries(ev.cond);
        const auto& cq_after = after(i).cond_entries(ev.cond);
        const bool queued = cq_after.size() == cq_before.size() + 1 &&
                            in_queue(cq_after, ev.pid);
        if (!queued) {
          report(RuleId::kFd4StarvationOrLoss, &ev, kNoPid,
                 "waiting process was not appended to the condition queue "
                 "(lost process)");
        }
      }
    }
    // Starvation: still on the entry queue Tio after enqueueing.
    for (const auto& entry : states_.back().entry_queue) {
      if (final_time_ - entry.enqueued_at >= spec_.t_io) {
        report(RuleId::kFd4StarvationOrLoss, nullptr, entry.pid,
               "entry request outstanding beyond Tio (starvation)");
      }
    }
  }

  // --- FD-Rule 5: correct synchronization. ---------------------------------
  // Any process removed from a queue must have been removed by the right
  // kind of event, head-first.
  void rule5() {
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const EventRecord& ev = events_[i];
      // Condition queues: removal only by Signal-Exit(cond, flag=1).
      for (const auto& queue : before(i).cond_queues) {
        for (const auto& entry : queue.entries) {
          if (!in_queue(after(i).cond_entries(queue.cond), entry.pid)) {
            const bool proper = ev.kind == EventKind::kSignalExit &&
                                ev.flag && ev.cond == queue.cond &&
                                queue.entries.front().pid == entry.pid;
            if (!proper) {
              report(RuleId::kFd5aWrongWaitResume, &ev, entry.pid,
                     "process left a condition queue without a proper "
                     "Signal-Exit");
            }
          }
        }
      }
      // Entry queue: removal only by Wait or non-signalling Signal-Exit.
      for (const auto& entry : before(i).entry_queue) {
        if (!in_queue(after(i).entry_queue, entry.pid)) {
          const bool proper =
              (ev.kind == EventKind::kWait ||
               (ev.kind == EventKind::kSignalExit && !ev.flag)) &&
              before(i).entry_queue.front().pid == entry.pid;
          if (!proper) {
            report(RuleId::kFd5bWrongEntryResume, &ev, entry.pid,
                   "process left the entry queue without a proper release");
          }
        }
      }
    }
  }

  // --- FD-Rule 6: consistency of resource states (coordinator). ------------
  void rule6() {
    std::int64_t sends = 0;
    std::int64_t receives = 0;
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const EventRecord& ev = events_[i];
      if (ev.kind == EventKind::kSignalExit) {
        if (ev.proc == send_proc_) ++sends;
        if (ev.proc == receive_proc_) ++receives;
        // 6.a) 0 <= r <= s <= r + Rmax at every prefix.
        if (receives > sends) {
          report(RuleId::kFd6aResourceCountInvariant, &ev, kNoPid,
                 "successful receives exceed successful sends");
        }
        if (sends > receives + spec_.rmax) {
          report(RuleId::kFd6aResourceCountInvariant, &ev, kNoPid,
                 "successful sends exceed receives + Rmax");
        }
      }
      if (ev.kind == EventKind::kWait) {
        // 6.b) Send delayed only on a full buffer (R# == 0).
        if (ev.proc == send_proc_ && ev.cond == full_cond_ &&
            before(i).resources != 0) {
          report(RuleId::kFd6bSendDelayInvariant, &ev, kNoPid,
                 "Send delayed while the buffer was not full");
        }
        // 6.c) Receive delayed only on an empty buffer (R# == Rmax).
        if (ev.proc == receive_proc_ && ev.cond == empty_cond_ &&
            before(i).resources != spec_.rmax) {
          report(RuleId::kFd6cReceiveDelayInvariant, &ev, kNoPid,
                 "Receive delayed while the buffer was not empty");
        }
      }
    }
  }

  // --- FD-Rule 7: correct ordering of procedure calls (allocator). ---------
  void rule7() {
    std::map<Pid, std::int64_t> held;        // outstanding acquisitions
    std::map<Pid, util::TimeNs> acquired_at;
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const EventRecord& ev = events_[i];
      if (ev.kind != EventKind::kEnter) continue;
      if (ev.proc == acquire_proc_) {
        if (held[ev.pid] > 0) {
          report(RuleId::kFd7aAcquireNeverReleased, &ev, kNoPid,
                 "re-acquire without an intervening Release (self-deadlock)");
        }
        ++held[ev.pid];
        acquired_at[ev.pid] = ev.time;
      } else if (ev.proc == release_proc_) {
        if (held[ev.pid] <= 0) {
          report(RuleId::kFd7bReleaseWithoutAcquire, &ev, kNoPid,
                 "Release without a prior Acquire");
        } else {
          --held[ev.pid];
        }
      }
    }
    for (const auto& [pid, count] : held) {
      if (count > 0 && final_time_ - acquired_at[pid] > spec_.t_limit) {
        report(RuleId::kFd7aAcquireNeverReleased, nullptr, pid,
               "resource still held beyond Tlimit at end of history");
      }
    }
  }

  const MonitorSpec& spec_;
  const std::vector<EventRecord>& events_;
  const std::vector<SchedulingState>& states_;
  util::TimeNs final_time_;
  SymbolId send_proc_;
  SymbolId receive_proc_;
  SymbolId full_cond_;
  SymbolId empty_cond_;
  SymbolId acquire_proc_;
  SymbolId release_proc_;
  std::vector<FaultReport> reports_;
};

}  // namespace

std::vector<FaultReport> validate_fd_rules(
    const MonitorSpec& spec, trace::SymbolTable& symbols,
    const std::vector<trace::EventRecord>& events,
    const std::vector<trace::SchedulingState>& states,
    util::TimeNs final_time) {
  if (states.size() != events.size() + 1) {
    throw std::invalid_argument(
        "validate_fd_rules: need exactly one state per event plus the "
        "initial state");
  }
  return FdValidator(spec, symbols, events, states, final_time).run();
}

std::vector<FaultReport> validate_wait_for(
    const std::vector<WaitForInput>& monitors, util::TimeNs final_time) {
  WaitForGraph graph;
  for (std::size_t i = 0; i < monitors.size(); ++i) {
    const WaitForInput& input = monitors[i];
    if (input.state == nullptr || input.symbols == nullptr) {
      throw std::invalid_argument(
          "validate_wait_for: null state or symbol table");
    }
    graph.update(make_wait_contribution(static_cast<WaitMonitorId>(i + 1),
                                        input.name, *input.state,
                                        *input.symbols));
  }
  std::vector<FaultReport> reports;
  for (const DeadlockCycle& cycle : graph.find_cycles()) {
    reports.push_back(make_cycle_report(cycle, final_time));
  }
  return reports;
}

std::vector<FaultReport> validate_lock_order(
    const std::vector<LockOrderInput>& monitors, util::TimeNs final_time) {
  // Interleave every monitor's checkpoints by capture time so the relation
  // accumulates exactly as the live pool's per-check folds would have.
  struct Fold {
    util::TimeNs at;
    OrderMonitorId monitor;
    const LockOrderInput* input;
    const trace::SchedulingState* state;
  };
  std::vector<Fold> folds;
  for (std::size_t i = 0; i < monitors.size(); ++i) {
    for (const trace::SchedulingState* state : monitors[i].states) {
      if (state == nullptr) {
        throw std::invalid_argument("validate_lock_order: null state");
      }
      folds.push_back({state->captured_at,
                       static_cast<OrderMonitorId>(i + 1), &monitors[i],
                       state});
    }
  }
  std::stable_sort(folds.begin(), folds.end(),
                   [](const Fold& a, const Fold& b) { return a.at < b.at; });
  LockOrderGraph graph;
  for (const Fold& fold : folds) {
    graph.observe(fold.monitor, fold.input->name, *fold.state);
  }
  std::vector<FaultReport> reports;
  for (const OrderCycle& cycle : graph.find_cycles()) {
    reports.push_back(make_order_report(cycle, final_time));
  }
  return reports;
}

}  // namespace robmon::core
