// The three fault-detection algorithms of Section 3.3.2.
//
//   Algorithm-1  General concurrency-control checking (ST-Rules 1-6):
//                replays the event segment over the checking lists, then
//                compares the final lists against the current scheduling
//                state and evaluates the Timer rules.
//   Algorithm-2  Consistency-of-resource-states checking (ST-Rule 7),
//                communication-coordinator monitors only.
//   Algorithm-3  Calling-orders checking (ST-Rule 8),
//                resource-access-right-allocator monitors only.
//
// All three take the state s_p recorded at the previous checking time, the
// state s_t at the current checking time and the event segment L generated
// in between; violations are delivered to the ReportSink.  Each also takes
// state owned by the Detector: Algorithm 1 the checking lists it resets
// from s_p (kept for their capacity), Algorithms 2 and 3 the persistent
// rule state (cumulative send/receive counters, the Request-List).
#pragma once

#include <vector>

#include "core/checking_lists.hpp"
#include "core/fault.hpp"
#include "core/monitor_spec.hpp"
#include "trace/event.hpp"
#include "trace/snapshot.hpp"

namespace robmon::core {

/// Resolved symbols and environment shared by the algorithms for one
/// checking-routine invocation.
struct CheckContext {
  const MonitorSpec* spec = nullptr;
  const trace::SymbolTable* symbols = nullptr;
  /// Interned ids of the distinguished names (kNoSymbol when absent).
  trace::SymbolId send_proc = trace::kNoSymbol;
  trace::SymbolId receive_proc = trace::kNoSymbol;
  trace::SymbolId full_cond = trace::kNoSymbol;
  trace::SymbolId empty_cond = trace::kNoSymbol;
  trace::SymbolId acquire_proc = trace::kNoSymbol;
  trace::SymbolId release_proc = trace::kNoSymbol;
  util::TimeNs now = 0;          ///< Current checking time t.
  ReportSink* sink = nullptr;

  /// Build a context, interning the spec's distinguished names.
  static CheckContext make(const MonitorSpec& spec,
                           trace::SymbolTable& symbols, util::TimeNs now,
                           ReportSink& sink);
};

/// Algorithm-1.  Resets `lists` from `prev` and replays `events` over it;
/// the caller keeps `lists` across checks so their storage is reused.
/// Returns the number of violations reported.
std::size_t run_algorithm1(const CheckContext& ctx,
                           const trace::SchedulingState& prev,
                           const trace::SchedulingState& current,
                           const std::vector<trace::EventRecord>& events,
                           CheckingLists& lists);

/// Cumulative successful-call counters (r and s of ST-Rule 7), persistent
/// across checking points.
struct ResourceCounters {
  std::int64_t sends = 0;     ///< s: successful Send completions.
  std::int64_t receives = 0;  ///< r: successful Receive completions.
};

/// Algorithm-2.  Returns the number of violations reported.
std::size_t run_algorithm2(const CheckContext& ctx,
                           const trace::SchedulingState& prev,
                           const trace::SchedulingState& current,
                           const std::vector<trace::EventRecord>& events,
                           ResourceCounters& cumulative);

/// Request-List: outstanding acquisitions, persistent across checking
/// points ("initialized once to empty", Section 3.3.1).
struct RequestList {
  std::vector<ListEntry> entries;

  bool contains(trace::Pid pid) const;
  /// Remove first occurrence; returns whether one was removed.
  bool remove_first(trace::Pid pid);
};

/// Algorithm-3.  Returns the number of violations reported.
std::size_t run_algorithm3(const CheckContext& ctx,
                           const std::vector<trace::EventRecord>& events,
                           RequestList& requests);

}  // namespace robmon::core
