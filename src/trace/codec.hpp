// Line-oriented text serialization of recorded history: symbol table,
// scheduling events, and checkpoint scheduling states.  Enables offline
// replay of the detection algorithms over saved traces (examples/trace_replay)
// and golden-file tests.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "trace/event.hpp"
#include "trace/snapshot.hpp"

namespace robmon::trace {

/// One persisted lock-order witness (robmon-trace v3 `lord` line): `pid`
/// held monitor `from` (episode `from_ticket`) while holding or — when
/// `to_wait` — blocked acquiring monitor `to` (episode `to_ticket`).
/// Monitors are named, not id'd: ids are a pool-lifetime artifact, names
/// survive replay.  The relation is pool-scoped; by convention it is
/// attached to whichever TraceFile the recording session exports.
struct LockOrderRecord {
  std::string from;
  std::string to;
  Pid pid = kNoPid;
  std::uint64_t from_ticket = 0;
  std::uint64_t to_ticket = 0;
  bool to_wait = false;

  bool operator==(const LockOrderRecord&) const = default;
};

/// One persisted recovery action (robmon-trace v4 `rcov` line): what the
/// recovery policy did and why.  `action` is one of
///   'P'  victim monitor poisoned (waiters wake with RecoveryFault),
///   'F'  designated RecoveryFault delivered to the victim thread,
///   'O'  dominant acquisition order imposed (minority call sites fenced),
///   'C'  recovery complete — the victim monitor's poison ended with its
///        hold and detection resumed there.
/// `victim` / `monitor` / `ticket` identify the chosen victim (kNoPid /
/// empty / 0 when the action has none, e.g. an order imposition names only
/// the fenced edge in `detail`).  `detail` is the policy's rationale — the
/// cycle that triggered the action plus the comparator verdict — and is the
/// free-text remainder of the line.
struct RecoveryRecord {
  char action = '?';
  Pid victim = kNoPid;
  std::string monitor;
  std::uint64_t ticket = 0;
  util::TimeNs at = 0;
  std::string detail;

  bool operator==(const RecoveryRecord&) const = default;
};

/// One persisted overhead-budget transition (robmon-trace v6 `bdgt` line):
/// the pool's BudgetController moved from degradation level `from` to `to`
/// because its spend EWMA crossed the configured budget (or the recovery
/// threshold under it).  Levels are the documented shed ladder:
///   0  nominal — full detection and prediction,
///   1  idle cadence stretched harder,
///   2  lock-order *prediction* shed (confirmed-cycle detection untouched),
///   3  detection periods widened toward Tmax (never dropped).
/// `spend_ppm` / `budget_ppm` are the spend EWMA and the budget as integer
/// parts-per-million of wall time — integers so a round-trip is exact.
/// `detail` is the free-text remainder of the line: what was shed or
/// restored.  The log is pool-scoped, like the lock-order relation and the
/// recovery log; replay re-derives what was shed and when from these lines.
struct BudgetRecord {
  int from = 0;
  int to = 0;
  std::uint64_t spend_ppm = 0;
  std::uint64_t budget_ppm = 0;
  util::TimeNs at = 0;
  std::string detail;

  bool operator==(const BudgetRecord&) const = default;
};

/// In-memory representation of a serialized trace.
struct TraceFile {
  std::string monitor_name;
  std::string monitor_type;  ///< "coordinator" | "allocator" | "manager".
  std::int64_t rmax = -1;
  /// Events the recorder's EventLog dropped under its overflow contract
  /// (v5 `loss` line; 0 — and the line omitted — for lossless recordings
  /// and for pre-v5 documents).  Non-zero warns offline consumers that
  /// the event stream has accounted gaps: each dropped event left its seq
  /// unused.
  std::uint64_t events_lost = 0;
  std::vector<std::string> symbols;  ///< index = SymbolId.
  std::vector<EventRecord> events;
  std::vector<SchedulingState> checkpoints;
  /// Acquisition-order relation (v3; empty for v1/v2 documents).
  std::vector<LockOrderRecord> lock_order;
  /// Recovery actions (v4; empty for earlier documents).  Pool-scoped, like
  /// the lock-order relation.
  std::vector<RecoveryRecord> recovery;
  /// Overhead-budget transitions (v6; empty for earlier documents).
  /// Pool-scoped, like the recovery log.
  std::vector<BudgetRecord> budget;
};

/// Serialize to the robmon-trace v6 text format (v5 plus `bdgt`
/// budget-transition lines; v5 is v4 plus the `loss`
/// ingestion-loss-accounting line; v4 is v3 plus `rcov` recovery-action
/// lines; v3 is v2 plus `lord` lock-order-witness lines; v2 itself is v1
/// plus per-entry episode tickets on state/eq/cq/hold lines).
/// docs/trace-format.md documents every line shape.
void write_trace(std::ostream& out, const TraceFile& trace);
std::string write_trace_string(const TraceFile& trace);

/// Parse a robmon-trace v1–v6 document (v1 entries get ticket 0; v1/v2
/// documents have an empty lock-order relation, pre-v4 documents an empty
/// recovery log, pre-v5 documents a zero loss count, pre-v6 documents an
/// empty budget log).  Throws std::runtime_error with a line-numbered
/// message on malformed input.
TraceFile read_trace(std::istream& in);
TraceFile read_trace_string(const std::string& text);

/// Build a TraceFile from live recording state.  `events_lost` is the
/// recording EventLog's drop count (EventLog::events_lost()).
TraceFile make_trace_file(const std::string& monitor_name,
                          const std::string& monitor_type, std::int64_t rmax,
                          const SymbolTable& symbols,
                          const std::vector<EventRecord>& events,
                          const std::vector<SchedulingState>& checkpoints,
                          std::uint64_t events_lost = 0);

}  // namespace robmon::trace
