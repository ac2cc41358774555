// Pool-level wait-for graph — the first cross-monitor analysis layer.
//
// The paper's Algorithms 1-3 are strictly per-monitor: a circular wait that
// spans monitors (dining philosophers, nested monitor calls) is invisible to
// each monitor alone and previously surfaced only indirectly, through the
// Tlimit/Tmax timeout rules.  The CheckerPool sees every registered
// monitor's snapshot, so it can assemble a global bipartite wait-for graph
// at a pool-level checkpoint:
//
//   thread ──waits──▶ monitor    p sits on the monitor's EQ (awaiting the
//                                mutex) or on CQ[c] (awaiting a resource)
//   monitor ──held──▶ thread     p runs inside the monitor (mutex holder)
//                                or holds resource units (hold registry,
//                                HoareMonitor::note_hold)
//
// A cycle through these edges is a global deadlock; it is reported as the
// GlobalDeadlock fault with the full thread/monitor cycle as diagnostic.
//
// Resource waits use the single-unit (AND) model: a condition waiter gets
// an edge only when the monitor has exactly one distinct resource holder,
// because only then does "blocked behind that holder" hold deterministically.
// With several distinct holders the wait is an OR — any holder's release
// unblocks it — which a cycle cannot soundly encode; such monitors emit no
// resource edges (conservative: detection may be missed, never fabricated).
//
// Each monitor's edge set is replaced wholesale at every full check of the
// monitor; a check the evidence gate answers leaves it in place, since the
// state it came from has not changed.  Candidates are never filtered by
// age, since a monitor checked slower than the checkpoint cadence would
// then be invisible.  Exactness comes from validation
// instead: candidate cycles are confirmed against live re-snapshots, so
// there are zero false positives when a cycle resolves before the
// checkpoint — see CheckerPool::run_waitfor_checkpoint.
//
// The graph itself is a plain value type and is NOT thread-safe; the
// CheckerPool serializes access through its own mutex.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/fault.hpp"
#include "trace/event.hpp"
#include "trace/snapshot.hpp"

namespace robmon::core {

/// Identifies a monitor in the pool-level graph (CheckerPool::MonitorId).
using WaitMonitorId = std::uint64_t;

/// One monitor's edge set, derived from a single SchedulingState snapshot
/// (so all edges of one contribution are mutually consistent).
struct WaitContribution {
  WaitMonitorId monitor = 0;
  std::string name;           ///< spec().name, for diagnostics.

  struct Wait {
    Tid pid = kNoTid;
    /// Condition queue the thread is parked on; empty = entry queue.
    std::string cond;
    util::TimeNs since = 0;      ///< Enqueue time (diagnostics, fallback).
    std::uint64_t ticket = 0;    ///< Episode ticket: identifies the episode
                                 ///  clock-independently (0 = unknown).
  };
  struct Hold {
    Tid pid = kNoTid;
    /// true: mutex holder (Running); false: resource-unit holder.
    bool mutex = false;
    util::TimeNs since = 0;
    std::uint64_t ticket = 0;    ///< Episode ticket of the hold.
  };
  std::vector<Wait> waits;
  std::vector<Hold> holds;
};

/// Build a contribution from a snapshot.  EQ entries become mutex waits,
/// CQ entries become resource waits; Running becomes the mutex hold,
/// holders become resource holds.  `symbols` resolves condition names.
WaitContribution make_wait_contribution(WaitMonitorId monitor,
                                        std::string name,
                                        const trace::SchedulingState& state,
                                        const trace::SymbolTable& symbols);

/// One closed circular wait.  links[i].holder == links[(i+1) % n].pid: the
/// thread each link waits behind is the blocked thread of the next link.
struct DeadlockCycle {
  struct Link {
    Tid pid = kNoTid;                 ///< Blocked thread.
    WaitMonitorId monitor = 0;        ///< Monitor it waits on.
    std::string monitor_name;
    std::string cond;                 ///< Empty = entry queue (mutex wait).
    util::TimeNs blocked_since = 0;
    Tid holder = kNoTid;
    util::TimeNs held_since = 0;
    /// Episode tickets of the wait and the hold; 0 = unknown (pre-ticket
    /// trace), in which case validation falls back to the timestamps.
    std::uint64_t blocked_ticket = 0;
    std::uint64_t holder_ticket = 0;
  };
  std::vector<Link> links;

  /// Canonical signature (rotation-invariant), for dedup across checkpoints.
  /// It includes the episode tickets: a cycle that persists keeps its key,
  /// and one that dissolves and re-forms on the same threads gets a new one.
  std::string key() const;
};

/// "p0 waits on fork-1[available] held by p1 -> p1 waits on ... -> p0".
std::string describe(const DeadlockCycle& cycle);

/// The GlobalDeadlock fault for a confirmed cycle — one report shape shared
/// by the online (CheckerPool checkpoint) and offline (validate_wait_for)
/// paths.
FaultReport make_cycle_report(const DeadlockCycle& cycle,
                              util::TimeNs detected_at);

/// Does `link` still hold in a fresh snapshot of its monitor?  True iff the
/// blocked thread is still parked on the same queue in the same blocking
/// episode and the holder still holds from the same episode.  Episodes are
/// matched by their monotonic ticket when the link carries one (clock-
/// independent: correct even under a frozen ManualClock); links from
/// pre-ticket traces fall back to enqueue/hold timestamps.  The wait-for
/// edges of one link live entirely inside one monitor, so this check is
/// atomic per link.
bool link_holds_in(const DeadlockCycle::Link& link,
                   const trace::SchedulingState& state,
                   const trace::SymbolTable& symbols);

class WaitForGraph {
 public:
  /// Replace `contribution.monitor`'s edge set.
  void update(WaitContribution contribution);

  /// Drop a monitor's edges (unregistered from the pool).
  void erase(WaitMonitorId monitor);

  std::size_t monitor_count() const { return contributions_.size(); }
  const WaitContribution* contribution(WaitMonitorId monitor) const;

  /// Enumerate circular waits over the current contributions.  Cycles are
  /// found per strongly-connected component of the thread-level graph (one
  /// representative cycle per non-trivial SCC, plus self-loops), each in
  /// canonical rotation (smallest pid first).  Candidates may rest on stale
  /// contributions; callers confirm with link_holds_in against live
  /// snapshots before reporting.
  std::vector<DeadlockCycle> find_cycles() const;

 private:
  std::unordered_map<WaitMonitorId, WaitContribution> contributions_;
};

}  // namespace robmon::core
