// Scheduling events — the paper's EVENTset (Section 3.1 / 3.3.1).
//
// The reduced recording model of Section 3.3.1 is used: a blocked process is
// recorded once at request time and its record is never mutated on resume;
// the resume is implied by the Wait/Signal-Exit event that popped it off a
// queue.  EVENTset = { Enter(Pid, Pname, flag), Wait(Pid, Pname, Cond),
// Signal-Exit(Pid, Pname, Cond, flag) }.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sync/spinlock.hpp"
#include "util/clock.hpp"
#include "util/ids.hpp"

namespace robmon::trace {

/// Process identifier — the trace layer's (paper-vocabulary) name for the
/// repo-wide thread identity robmon::Tid (util/ids.hpp).
using Pid = Tid;
constexpr Pid kNoPid = kNoTid;

/// Interned procedure / condition name.
using SymbolId = std::int32_t;
constexpr SymbolId kNoSymbol = -1;

/// Per-monitor intern table for procedure and condition names.
/// Thread-safe; ids are dense and start at 0.
class SymbolTable {
 public:
  SymbolId intern(std::string_view name);

  /// Lookup without interning; kNoSymbol if absent.
  SymbolId find(std::string_view name) const;

  /// Name for an id previously returned by intern().
  std::string name(SymbolId id) const;

  std::size_t size() const;

 private:
  mutable sync::SpinLock mu_;
  std::vector<std::string> names_;
};

enum class EventKind : std::uint8_t {
  kEnter = 0,
  kWait = 1,
  kSignalExit = 2,
};

std::string_view to_string(EventKind kind);

/// One scheduling event.  Field use per kind:
///  kEnter:      proc = requested procedure; flag = true if the process
///               entered immediately, false if it queued on EQ.
///  kWait:       proc = procedure executing; cond = condition waited on.
///  kSignalExit: proc = procedure executing; cond = condition signalled
///               (kNoSymbol for a plain Exit); flag = true iff a process
///               waiting on CQ[cond] was resumed by this signal.
///
/// The one-byte fields sit together at the end, so a record packs into 32
/// bytes: pending segments are the bulk of a busy monitor's memory.
struct EventRecord {
  std::uint64_t seq = 0;  ///< Per-monitor sequence number (assigned by log).
  util::TimeNs time = 0;  ///< Gathering-routine timestamp.
  Pid pid = kNoPid;
  SymbolId proc = kNoSymbol;
  SymbolId cond = kNoSymbol;
  EventKind kind = EventKind::kEnter;
  bool flag = false;

  static EventRecord enter(Pid pid, SymbolId proc, bool entered,
                           util::TimeNs t) {
    return EventRecord{0, t, pid, proc, kNoSymbol, EventKind::kEnter, entered};
  }
  static EventRecord wait(Pid pid, SymbolId proc, SymbolId cond,
                          util::TimeNs t) {
    return EventRecord{0, t, pid, proc, cond, EventKind::kWait, false};
  }
  static EventRecord signal_exit(Pid pid, SymbolId proc, SymbolId cond,
                                 bool resumed, util::TimeNs t) {
    return EventRecord{0, t, pid, proc, cond, EventKind::kSignalExit, resumed};
  }

  bool operator==(const EventRecord&) const = default;
};

/// Human-readable single-line rendering, e.g. "Enter(p3, Send, 1)".
std::string describe(const EventRecord& event, const SymbolTable& symbols);

}  // namespace robmon::trace
