// Append-only scheduling-event log — the event half of the paper's history
// information database (Fig. 1).  The data-gathering routines append in real
// time; the periodic checker drains the segment recorded since the previous
// checking point ("most of the information can be removed after being used",
// Section 3.3).  Optional full retention supports offline FD-Rule validation
// and trace export.
//
// Owner-serialized contract: the log takes no lock of its own.  Its owner
// already serializes every operation that records a scheduling event —
// HoareMonitor appends under its internal lock and SyntheticMonitor under
// its queue lock — so append(), drain() and history() must all run under
// that same lock.  Only the three counters (pending(), total_appended(),
// events_lost()) may be read from any thread: they are relaxed atomics
// written by the owner, so a concurrent reader sees a recent value, not a
// torn one.
//
// Ordering: seqs come from a plain counter, one per append() call, so they
// are dense and strictly increasing across drains, and a drained segment
// is already in append order (no sort).  Algorithm-1's segment replay
// depends on exactly that order.
//
// Drain by swap: drain(out) hands the pending buffer to the caller and
// keeps the caller's (cleared) buffer for the next segment — O(1), no
// per-event copy.  A caller that passes the same vector every time
// recycles two buffers between itself and the log, so a steady workload
// allocates nothing once both have reached their working size.
//
// Overflow contract: at most `capacity` events are pending at once.  An
// append past that bound is dropped and counted in events_lost() — exact
// accounting, never a silent gap.  A dropped event still consumes its
// seq, so a gap in a drained stream marks exactly the dropped events;
// total_appended() + events_lost() equals the number of append() calls.
// Episode tickets make such gaps tolerable to wait-for validation (see
// core/waitfor.hpp), and the trace codec carries the loss count (v5
// `loss` line) so offline consumers can see ingestion was lossy.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "trace/event.hpp"

namespace robmon::trace {

class EventLog {
 public:
  /// Default pending-event bound.  The buffer grows lazily, so the bound
  /// costs nothing until a stalled drain lets events pile up.
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 20;

  struct Options {
    bool retain_history = false;
    std::size_t capacity = kDefaultCapacity;
  };

  EventLog();
  explicit EventLog(Options options);

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Append one event; assigns and returns its sequence number.  A dropped
  /// event (capacity reached) still returns its seq and is counted in
  /// events_lost(), never recorded.  Owner-serialized.
  std::uint64_t append(const EventRecord& event);

  /// Replace `out` with every event appended since the last drain, in
  /// append (= seq) order, by swapping buffers.  When retention is on the
  /// segment is also archived.  Owner-serialized.
  void drain(std::vector<EventRecord>& out);

  /// Number of accepted events currently buffered (not yet drained).
  std::size_t pending() const;

  /// Total events ever accepted (excludes dropped events).
  std::uint64_t total_appended() const;

  /// Total events dropped because `capacity` events were already pending.
  std::uint64_t events_lost() const;

  /// When retention is on (Options::retain_history), every drained segment
  /// is also archived, and history() additionally includes still-pending
  /// events.
  bool retention() const { return retain_history_; }

  /// Full archive plus pending events in sequence order (requires
  /// retention; empty otherwise).  Owner-serialized.
  std::vector<EventRecord> history() const;

 private:
  const std::size_t capacity_;
  const bool retain_history_;
  std::uint64_t next_seq_ = 0;
  std::vector<EventRecord> buffer_;
  std::vector<EventRecord> archive_;

  std::atomic<std::uint64_t> appended_{0};
  std::atomic<std::uint64_t> drained_{0};
  std::atomic<std::uint64_t> lost_{0};
};

}  // namespace robmon::trace
