#include "core/detector.hpp"

#include <algorithm>
#include <cassert>

namespace robmon::core {

Detector::Detector(MonitorSpec spec, trace::SymbolTable& symbols,
                   ReportSink& sink)
    : spec_(std::move(spec)),
      symbols_(&symbols),
      sink_(&sink),
      context_(CheckContext::make(spec_, symbols, 0, sink)) {}

void Detector::add_assertion(MonitorAssertion assertion) {
  assertions_.push_back(std::move(assertion));
}

void Detector::initialize(const trace::SchedulingState& initial) {
  prev_ = initial;
  initialized_ = true;
}

void Detector::rebaseline(const trace::SchedulingState& state) {
  // Reconstruct (not just clear) the persistent rule state from the
  // post-action snapshot: a holder that survived the recovery action will
  // later Release, and ST-8b must find its acquisition on the Request-List;
  // likewise ST-7 must account for the units already out.  Only the
  // *pending* acquisitions of evicted waiters are dropped — they return
  // kRecoveryFault and re-issue a fresh Acquire on retry.  An acquirer
  // still queued, or running inside Acquire before its hold is registered,
  // entered inside the discarded segment and will Release later, so it
  // keeps its entry too.
  requests_ = RequestList{};
  const trace::SymbolId acquire =
      symbols_->find(spec_.acquire_procedure);
  for (const auto& hold : state.holders) {
    for (std::int64_t unit = 0; unit < hold.units; ++unit) {
      requests_.entries.push_back({hold.pid, acquire, hold.held_since});
    }
  }
  const auto in_flight = [&](trace::Pid pid, trace::SymbolId proc,
                             util::TimeNs since) {
    if (acquire != trace::kNoSymbol && proc == acquire) {
      requests_.entries.push_back({pid, acquire, since});
    }
  };
  for (const auto& entry : state.entry_queue) {
    in_flight(entry.pid, entry.proc, entry.enqueued_at);
  }
  for (const auto& queue : state.cond_queues) {
    for (const auto& entry : queue.entries) {
      in_flight(entry.pid, entry.proc, entry.enqueued_at);
    }
  }
  const bool running_holds =
      std::any_of(state.holders.begin(), state.holders.end(),
                  [&](const auto& hold) { return hold.pid == state.running; });
  if (state.has_running() && !running_holds) {
    in_flight(state.running, state.running_proc, state.running_since);
  }
  counters_ = ResourceCounters{};
  if (spec_.type == MonitorType::kCommunicationCoordinator &&
      state.resources >= 0 && spec_.rmax > state.resources) {
    // Occupied slots read as sends that have not been received yet.
    counters_.sends = spec_.rmax - state.resources;
  }
  initialize(state);
}

Detector::CheckStats Detector::check(
    const std::vector<trace::EventRecord>& segment,
    const trace::SchedulingState& current, util::TimeNs now) {
  assert(initialized_ && "Detector::initialize must be called first");

  // The names were interned at construction; a check copies the stored ids
  // and stays off the symbol table's lock.
  CheckContext ctx = context_;
  ctx.now = now;

  CheckStats stats;
  stats.events = segment.size();

  stats.violations += run_algorithm1(ctx, prev_, current, segment, lists_);
  if (spec_.type == MonitorType::kCommunicationCoordinator) {
    stats.violations += run_algorithm2(ctx, prev_, current, segment, counters_);
  }
  if (spec_.type == MonitorType::kResourceAllocator) {
    stats.violations += run_algorithm3(ctx, segment, requests_);
  }

  for (const MonitorAssertion& assertion : assertions_) {
    if (!assertion.predicate(current)) {
      ++stats.violations;
      FaultReport report;
      report.rule = RuleId::kUserAssertion;
      report.detected_at = now;
      report.message = "assertion '" + assertion.name + "' failed";
      sink_->report(report);
    }
  }

  prev_ = current;
  stats.idle = stats.events == 0 && stats.violations == 0;
  checks_run_.fetch_add(1, std::memory_order_relaxed);
  events_processed_.fetch_add(stats.events, std::memory_order_relaxed);
  total_violations_.fetch_add(stats.violations, std::memory_order_relaxed);
  if (stats.idle) idle_checks_.fetch_add(1, std::memory_order_relaxed);
  return stats;
}

}  // namespace robmon::core
