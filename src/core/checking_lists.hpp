// The checking lists of Section 3.3.1: Enter-0-List, Wait-Cond-Lists,
// Running-List, Resource-No and Request-List.  These are pseudo-historical
// structures reset at each checking point from the previous scheduling
// state s_p, advanced over the event segment L, then compared against the
// current scheduling state s_t by Algorithms 1-3.
//
// The lists are flat and reused.  Each FIFO list is a vector plus a head
// index: a pop advances the head, and once the popped prefix is at least
// half the vector the live tail moves back to slot 0 (an emptied list just
// rewinds).  So a list's vector stays within twice its peak length however
// long the segment, and a long run of hand-offs reuses the same few slots.
// The Wait-Cond-Lists are a small vector of per-condition slots, sorted by
// condition id.  The Detector owns one CheckingLists and resets it at every
// check; a reset clears the lists but keeps their capacity and the
// condition slots, so a check allocates nothing once the lists have grown
// to the monitor's working size.
//
// Note an erratum in the paper's prose: Section 3.3.1 says *every*
// Signal-Exit pops the head of Enter-0-List, but the formal FD-Rules 1.b/1.c
// (Section 3.2) show that a Signal-Exit with flag=1 hands the monitor to the
// condition waiter and serves CQ[cond], not EQ.  We follow the formal rules:
//   Wait, Signal-Exit(flag=0)  -> pop Enter-0-List head (if any)
//   Signal-Exit(flag=1)        -> pop Wait-Cond-List[cond] head
// Otherwise a correct hand-off would put two processes on Running-List and
// every correct trace would violate ST-3a.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/event.hpp"
#include "trace/snapshot.hpp"
#include "util/clock.hpp"

namespace robmon::core {

/// One element of a checking list: Pid(Pr) plus the timestamp used by the
/// Timer(Pid) rules.
struct ListEntry {
  trace::Pid pid = trace::kNoPid;
  trace::SymbolId proc = trace::kNoSymbol;
  util::TimeNs since = 0;

  bool operator==(const ListEntry&) const = default;
};

/// A FIFO checking list: a flat vector plus a head index.  clear() keeps
/// the capacity; pop_front() drops the popped prefix once it is at least
/// half the vector, so the vector never exceeds twice the peak length.
class ListQueue {
 public:
  using const_iterator = std::vector<ListEntry>::const_iterator;

  bool empty() const { return head_ == items_.size(); }
  std::size_t size() const { return items_.size() - head_; }
  const ListEntry& operator[](std::size_t i) const {
    return items_[head_ + i];
  }
  const_iterator begin() const {
    return items_.begin() + static_cast<std::ptrdiff_t>(head_);
  }
  const_iterator end() const { return items_.end(); }

  void push_back(const ListEntry& entry) { items_.push_back(entry); }
  /// Remove and return the head; the list must not be empty.
  ListEntry pop_front() {
    const ListEntry entry = items_[head_++];
    if (2 * head_ >= items_.size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    return entry;
  }
  void clear() {
    items_.clear();
    head_ = 0;
  }
  /// Entries the list can hold without allocating.
  std::size_t capacity() const { return items_.capacity(); }

 private:
  std::vector<ListEntry> items_;
  std::size_t head_ = 0;
};

/// The Wait-Cond-List of one condition.  A slot outlives the check that
/// created it; `live` marks the slots of the current check: conditions
/// queued in s_p or waited on in L (Algorithm 1's end-of-segment ST-2
/// comparison covers exactly those plus the conditions queued in s_t).
struct WaitCondList {
  trace::SymbolId cond = trace::kNoSymbol;
  bool live = false;
  ListQueue entries;
};

/// Plain data: the lists themselves.  Rule evaluation lives in the
/// algorithms (algorithms.hpp); this type only offers mechanical queries.
struct CheckingLists {
  ListQueue enter_zero;                ///< Enter-0-List.
  std::vector<WaitCondList> wait_cond;  ///< Wait-Cond-Lists, by cond id.
  std::vector<ListEntry> running;      ///< Running-List.
  std::int64_t resource_no = -1;       ///< Resource-No.

  /// Re-initialize from the scheduling state at the previous checking time
  /// s_p, keeping every list's capacity.
  void reset(const trace::SchedulingState& prev);

  /// Wait-Cond-List of `cond`, made live (and created on first use).
  ListQueue& wait_list(trace::SymbolId cond);

  /// The slot of `cond`, live or not; nullptr when no check has used it.
  WaitCondList* find_wait_slot(trace::SymbolId cond);

  /// True if pid sits on Enter-0-List or any Wait-Cond-List (ST-Rule 4).
  bool pid_blocked(trace::Pid pid) const;

  /// True if pid is on the Running-List.
  bool pid_running(trace::Pid pid) const;

  /// Remove the first Running-List element with this pid; returns success.
  bool remove_running(trace::Pid pid);
};

/// Compare a rebuilt list against a snapshot queue: same pids, same procs,
/// same order.  Timestamps are not compared (rebuilt entries carry event
/// times, snapshot entries carry enqueue times).
bool lists_match(const ListQueue& rebuilt,
                 const std::vector<trace::QueueEntry>& actual);

}  // namespace robmon::core
