// Algorithm-1: General Concurrency-Control Checking (Section 3.3.2).
//
// Step 1 replays the event segment L over the checking lists initialized
// from s_p, evaluating ST-Rules 3 and 4 at every event.  Step 2 compares the
// final lists against the current state s_t (ST-Rules 1, 2 and the Running
// comparison) and applies the Timer rules (ST-5 with Tmax, ST-6 with Tio) to
// the processes found in s_t.
#include <sstream>

#include "core/algorithms.hpp"

namespace robmon::core {

namespace {

void report(const CheckContext& ctx, RuleId rule,
            std::optional<FaultKind> suspected, const trace::EventRecord* ev,
            const std::string& message) {
  FaultReport fault;
  fault.rule = rule;
  fault.suspected = suspected;
  if (ev != nullptr) {
    fault.pid = ev->pid;
    fault.proc = ev->proc;
    fault.cond = ev->cond;
    fault.event_seq = ev->seq;
  }
  fault.detected_at = ctx.now;
  fault.message = message;
  ctx.sink->report(fault);
}

void report_pid(const CheckContext& ctx, RuleId rule,
                std::optional<FaultKind> suspected, trace::Pid pid,
                trace::SymbolId proc, const std::string& message) {
  FaultReport fault;
  fault.rule = rule;
  fault.suspected = suspected;
  fault.pid = pid;
  fault.proc = proc;
  fault.detected_at = ctx.now;
  fault.message = message;
  ctx.sink->report(fault);
}

std::string render_queue(const std::deque<ListEntry>& rebuilt,
                         const std::vector<trace::QueueEntry>& actual,
                         const trace::SymbolTable& symbols) {
  std::ostringstream out;
  out << "rebuilt=[";
  for (std::size_t i = 0; i < rebuilt.size(); ++i) {
    if (i) out << ",";
    out << "p" << rebuilt[i].pid << "(" << symbols.name(rebuilt[i].proc)
        << ")";
  }
  out << "] actual=[";
  for (std::size_t i = 0; i < actual.size(); ++i) {
    if (i) out << ",";
    out << "p" << actual[i].pid << "(" << symbols.name(actual[i].proc) << ")";
  }
  out << "]";
  return out.str();
}

}  // namespace

CheckContext CheckContext::make(const MonitorSpec& spec,
                                trace::SymbolTable& symbols, util::TimeNs now,
                                ReportSink& sink) {
  CheckContext ctx;
  ctx.spec = &spec;
  ctx.symbols = &symbols;
  ctx.now = now;
  ctx.sink = &sink;
  if (spec.type == MonitorType::kCommunicationCoordinator) {
    ctx.send_proc = symbols.intern(spec.send_procedure);
    ctx.receive_proc = symbols.intern(spec.receive_procedure);
    ctx.full_cond = symbols.intern(spec.full_condition);
    ctx.empty_cond = symbols.intern(spec.empty_condition);
  }
  if (spec.type == MonitorType::kResourceAllocator) {
    ctx.acquire_proc = symbols.intern(spec.acquire_procedure);
    ctx.release_proc = symbols.intern(spec.release_procedure);
  }
  return ctx;
}

std::size_t run_algorithm1(const CheckContext& ctx,
                           const trace::SchedulingState& prev,
                           const trace::SchedulingState& current,
                           const std::vector<trace::EventRecord>& events) {
  std::size_t violations = 0;

  CheckingLists lists = CheckingLists::from_state(prev);
  // Entries on Enter-0-List and every Wait-Cond-List, kept in step with the
  // pushes and pops below, so the ST-4 scan runs only while somebody is
  // recorded as blocked; an uncontended segment never pays for it.
  std::size_t blocked = lists.enter_zero.size();
  for (const auto& [cond, queue] : lists.wait_cond) blocked += queue.size();

  // --- Step 1: replay L over the checking lists. ---------------------------
  for (const auto& ev : events) {
    // ST-Rule 4: an event cannot come from a process currently parked on
    // the entry queue or a condition queue.
    if (blocked != 0 && lists.pid_blocked(ev.pid)) {
      ++violations;
      report(ctx, RuleId::kSt4EventFromBlockedProcess, std::nullopt, &ev,
             "event issued by a process recorded as blocked");
    }

    switch (ev.kind) {
      case trace::EventKind::kEnter: {
        if (ev.flag) {
          // Immediate entry.  ST-3c: the monitor must have been vacant.
          if (!lists.running.empty()) {
            ++violations;
            report(ctx, RuleId::kSt3cEnterWhileOccupied,
                   FaultKind::kEnterMutualExclusionViolation, &ev,
                   "entry granted while another process was inside");
          }
          lists.running.push_back({ev.pid, ev.proc, ev.time});
          if (lists.running.size() > 1) {
            ++violations;
            report(ctx, RuleId::kSt3aMultipleRunning,
                   FaultKind::kEnterMutualExclusionViolation, &ev,
                   "more than one process on Running-List");
          }
        } else {
          // Queued on EQ.  ST-3d: blocking is only legitimate if the
          // monitor is occupied.
          if (lists.running.size() != 1) {
            ++violations;
            report(ctx, RuleId::kSt3dBlockedWhileFree,
                   FaultKind::kEnterNoResponse, &ev,
                   "entry blocked while the monitor was free");
          }
          lists.enter_zero.push_back({ev.pid, ev.proc, ev.time});
          ++blocked;
        }
        break;
      }
      case trace::EventKind::kWait: {
        // ST-3b: the caller must be the sole runner.
        if (!(lists.running.size() == 1 && lists.running[0].pid == ev.pid)) {
          ++violations;
          report(ctx, RuleId::kSt3bRunnerNotSole, std::nullopt, &ev,
                 "Wait issued by a process that is not the sole runner");
        }
        lists.remove_running(ev.pid);
        lists.wait_cond[ev.cond].push_back({ev.pid, ev.proc, ev.time});
        ++blocked;
        // The monitor is released: the head of Enter-0-List (if any) is
        // admitted (FD-Rule 1.b).
        if (!lists.enter_zero.empty()) {
          ListEntry admitted = lists.enter_zero.front();
          lists.enter_zero.pop_front();
          --blocked;
          admitted.since = ev.time;
          lists.running.push_back(admitted);
        }
        if (lists.running.size() > 1) {
          ++violations;
          report(ctx, RuleId::kSt3aMultipleRunning, std::nullopt, &ev,
                 "more than one process on Running-List after Wait");
        }
        break;
      }
      case trace::EventKind::kSignalExit: {
        if (!(lists.running.size() == 1 && lists.running[0].pid == ev.pid)) {
          ++violations;
          report(ctx, RuleId::kSt3bRunnerNotSole, std::nullopt, &ev,
                 "Signal-Exit issued by a process that is not the sole "
                 "runner");
        }
        lists.remove_running(ev.pid);
        if (ev.flag) {
          // Hand-off to a condition waiter (FD-Rule 1.c).
          auto queue_it = lists.wait_cond.find(ev.cond);
          if (queue_it == lists.wait_cond.end() || queue_it->second.empty()) {
            ++violations;
            report(ctx, RuleId::kSt2CondQueueMismatch, std::nullopt, &ev,
                   "Signal-Exit claims to resume a condition waiter but the "
                   "rebuilt condition queue is empty");
          } else {
            ListEntry resumed = queue_it->second.front();
            queue_it->second.pop_front();
            --blocked;
            resumed.since = ev.time;
            lists.running.push_back(resumed);
          }
        } else {
          // Plain exit: the head of Enter-0-List (if any) is admitted
          // (FD-Rule 1.b).
          if (!lists.enter_zero.empty()) {
            ListEntry admitted = lists.enter_zero.front();
            lists.enter_zero.pop_front();
            --blocked;
            admitted.since = ev.time;
            lists.running.push_back(admitted);
          }
        }
        if (lists.running.size() > 1) {
          ++violations;
          report(ctx, RuleId::kSt3aMultipleRunning,
                 FaultKind::kSignalExitMutualExclusionViolation, &ev,
                 "more than one process on Running-List after Signal-Exit");
        }
        break;
      }
    }
  }

  // --- Step 2: compare final lists against s_t. ----------------------------
  if (!lists_match(lists.enter_zero, current.entry_queue)) {
    ++violations;
    report(ctx, RuleId::kSt1EntryQueueMismatch, std::nullopt, nullptr,
           "Enter-0-List does not match the entry queue: " +
               render_queue(lists.enter_zero, current.entry_queue,
                            *ctx.symbols));
  }

  // Union of rebuilt and actual condition ids.
  {
    std::vector<trace::SymbolId> conds;
    for (const auto& [cond, queue] : lists.wait_cond) conds.push_back(cond);
    for (const auto& queue : current.cond_queues) {
      bool known = false;
      for (trace::SymbolId c : conds) known = known || c == queue.cond;
      if (!known) conds.push_back(queue.cond);
    }
    for (trace::SymbolId cond : conds) {
      static const std::deque<ListEntry> kEmptyRebuilt;
      const auto it = lists.wait_cond.find(cond);
      const auto& rebuilt = it == lists.wait_cond.end() ? kEmptyRebuilt
                                                        : it->second;
      const auto& actual = current.cond_entries(cond);
      if (!lists_match(rebuilt, actual)) {
        ++violations;
        FaultReport fault;
        fault.rule = RuleId::kSt2CondQueueMismatch;
        fault.cond = cond;
        fault.detected_at = ctx.now;
        fault.message =
            "Wait-Cond-List does not match CQ[" + ctx.symbols->name(cond) +
            "]: " + render_queue(rebuilt, actual, *ctx.symbols);
        ctx.sink->report(fault);
      }
    }
  }

  {
    const bool rebuilt_running = lists.running.size() == 1;
    const bool match =
        (lists.running.empty() && !current.has_running()) ||
        (rebuilt_running && current.has_running() &&
         lists.running[0].pid == current.running);
    if (!match) {
      ++violations;
      std::ostringstream msg;
      msg << "Running-List ";
      if (lists.running.empty()) {
        msg << "(empty)";
      } else {
        msg << "{p" << lists.running[0].pid << "}";
      }
      msg << " does not match snapshot running ";
      if (current.has_running()) {
        msg << "p" << current.running;
      } else {
        msg << "(none)";
      }
      report_pid(ctx, RuleId::kStRunningMismatch, std::nullopt,
                 current.running, current.running_proc, msg.str());
    }
  }

  // --- Timer rules over the current state. ---------------------------------
  // ST-5: processes inside the monitor (running or on a condition queue)
  // must not exceed Tmax.
  if (current.has_running() &&
      ctx.now - current.running_since >= ctx.spec->t_max) {
    ++violations;
    report_pid(ctx, RuleId::kSt5ResidenceExceedsTmax,
               FaultKind::kTerminationInsideMonitor, current.running,
               current.running_proc,
               "running process exceeded Tmax inside the monitor");
  }
  for (const auto& queue : current.cond_queues) {
    for (const auto& entry : queue.entries) {
      if (ctx.now - entry.enqueued_at >= ctx.spec->t_max) {
        ++violations;
        FaultReport fault;
        fault.rule = RuleId::kSt5ResidenceExceedsTmax;
        fault.suspected = FaultKind::kSignalExitNoResume;
        fault.pid = entry.pid;
        fault.proc = entry.proc;
        fault.cond = queue.cond;
        fault.detected_at = ctx.now;
        fault.message = "condition wait exceeded Tmax";
        ctx.sink->report(fault);
      }
    }
  }
  // ST-6: entry-queue residence bounded by Tio.
  for (const auto& entry : current.entry_queue) {
    if (ctx.now - entry.enqueued_at >= ctx.spec->t_io) {
      ++violations;
      report_pid(ctx, RuleId::kSt6EntryWaitExceedsTio,
                 FaultKind::kWaitEntryStarved, entry.pid, entry.proc,
                 "entry wait exceeded Tio (starvation or deadlock)");
    }
  }

  return violations;
}

}  // namespace robmon::core
