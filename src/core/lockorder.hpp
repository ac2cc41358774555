// Lock-order prediction (Goodlock-style) — the first detector that warns
// about faults that have not happened yet.
//
// The wait-for checkpoint (core/waitfor.hpp) reports a deadlock only once a
// circular wait actually closes.  But the pool sees every (thread, monitor)
// acquisition even when no cycle forms: a snapshot of monitor A showing p
// holding a unit since t1, and a snapshot of monitor B showing the same p
// holding (or blocked acquiring) since t2, certify that p touched both — and
// when the two presence intervals provably overlap, that p acquired one
// *while still holding* the other.  Accumulating those (monitor -> monitor)
// acquisition-order facts across checkpoints yields the lock-order graph; a
// cycle in it means two schedules exist that deadlock each other, even if
// this run's timing (or an external gate) kept the real cycle from ever
// materializing.  Cycles are reported as kPotentialDeadlock — distinct from
// kGlobalDeadlock, which stays reserved for confirmed circular waits.
//
// Soundness of the join.  Contributions are snapshots taken at different
// times, so naive joining could fabricate orders (p held A in an old
// snapshot, released it, and only then took B).  Every access therefore
// carries its *certified interval*: a snapshot captured at tc showing a hold
// with held_since ts proves continuous possession over [ts, tc] (the hold
// registry keeps held_since as the start of the oldest outstanding hold, and
// a parked thread cannot leave its queue unobserved).  An order edge A -> B
// is recorded only when the two intervals overlap — then there is an instant
// at which p held A and held/requested B simultaneously:
//   * hold(A) x wait(B): p is parked acquiring B while holding A; the edge
//     direction is forced by the kinds (a parked thread cannot acquire).
//   * hold(A) x hold(B): direction follows the earlier acquisition start;
//     identical starts (frozen ManualClock) are skipped as unordered.
// Mutex occupancy (Running) and waits by a pid that already holds the same
// monitor are excluded: entering a monitor to *release* a unit is not an
// acquisition, and including it would flag deadlock-free release orders.
// All joined timestamps must come from one clock (every workload in this
// repo drives its monitors off a single clock).
//
// False-positive control (Goodlock): a cycle is only a plausible deadlock
// when its edges can be attributed to pairwise-distinct threads — one thread
// that takes A->B in one episode and B->A in another cannot deadlock with
// itself.  find_cycles() requires such an assignment over the recorded
// witnesses and suppresses single-thread cycles.
//
// The graph is a plain value type and NOT thread-safe; rt::CheckerPool
// serializes access through its own mutex.  The edge set is bounded:
// at most one edge per ordered monitor pair, each keeping up to
// kMaxWitnessesPerEdge distinct witnesses (plus a total count).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/fault.hpp"
#include "trace/codec.hpp"
#include "trace/snapshot.hpp"

namespace robmon::core {

/// Identifies a monitor in the pool-level order graph (CheckerPool id).
using OrderMonitorId = std::uint64_t;

/// One thread's evidence for an order edge: it held `from` (episode
/// `from_ticket`) while holding or requesting `to` (episode `to_ticket`).
struct OrderWitness {
  trace::Pid pid = trace::kNoPid;
  std::uint64_t from_ticket = 0;  ///< Episode ticket of the hold on `from`.
  std::uint64_t to_ticket = 0;    ///< Episode ticket on `to` (0 = unknown).
  /// true: the `to` side was a blocked acquisition (parked on a queue);
  /// false: both sides were granted holds, ordered by acquisition start.
  bool to_wait = false;
};

/// Accumulated (from -> to) acquisition-order relation for one monitor pair.
struct OrderEdge {
  OrderMonitorId from = 0;
  OrderMonitorId to = 0;
  std::string from_name;
  std::string to_name;
  /// Distinct witnesses, capped at LockOrderGraph::kMaxWitnessesPerEdge.
  std::vector<OrderWitness> witnesses;
  std::uint64_t witness_total = 0;  ///< Including witnesses beyond the cap.
};

/// One cycle in the order graph.  steps[i].witness held steps[i].monitor
/// while requesting steps[(i+1) % n].monitor; witnesses are pairwise
/// distinct threads (the Goodlock plausibility requirement).
struct OrderCycle {
  struct Step {
    OrderMonitorId monitor = 0;
    std::string name;
    OrderWitness witness;
  };
  std::vector<Step> steps;

  /// Canonical signature (rotation-invariant), for dedup across checkpoints.
  std::string key() const;
  /// Monitor ids on the cycle (reported-key pruning on unregister).
  std::vector<OrderMonitorId> monitors() const;
};

/// "potential deadlock (lock-order cycle, 2 monitors): lane-0 -> lane-1
///  [p0 held lane-0 (t#3) then requested lane-1 (t#5)] -> lane-0 [...]".
std::string describe(const OrderCycle& cycle);

/// The kPotentialDeadlock fault for an order cycle — one report shape shared
/// by the online (CheckerPool checkpoint) and offline (validate_lock_order /
/// trace replay) paths.
FaultReport make_order_report(const OrderCycle& cycle,
                              util::TimeNs detected_at);

class LockOrderGraph {
 public:
  /// Distinct witnesses retained per edge (witness_total keeps counting).
  static constexpr std::size_t kMaxWitnessesPerEdge = 8;

  /// Fold one monitor snapshot into the graph: replace `monitor`'s current
  /// access set (granted holds from state.holders; blocked acquisitions
  /// from EQ/CQ entries whose pid holds nothing of this monitor) and join
  /// it against every other monitor's current accesses, recording an order
  /// edge per certified overlap.
  void observe(OrderMonitorId monitor, const std::string& name,
               const trace::SchedulingState& state);

  /// Drop a monitor's accesses and every edge touching it (unregistered
  /// from the pool).  Recorded edges between other monitors survive.
  void erase(OrderMonitorId monitor);

  /// Enumerate order cycles over the accumulated relation: one
  /// representative cycle per non-trivial SCC of the monitor graph, plus
  /// every two-monitor cycle inside it, each in canonical rotation and each
  /// carrying a pairwise-distinct witness assignment.  Cycles with no such
  /// assignment (single-thread orderings) are suppressed.
  std::vector<OrderCycle> find_cycles() const;

  std::size_t monitor_count() const { return accesses_.size(); }
  std::size_t edge_count() const { return edge_total_; }
  /// Witnesses recorded across all edges (including beyond the cap).
  std::uint64_t witness_total() const;

  /// Flattened copy of the relation (introspection / trace persistence).
  std::vector<OrderEdge> edges() const;

  /// Replace the relation with a previously persisted one (offline replay).
  /// Accumulated accesses are cleared; find_cycles() works on edges alone.
  void restore(std::vector<OrderEdge> edges);

 private:
  /// One certified presence interval of `pid` at a monitor.
  struct Access {
    trace::Pid pid = trace::kNoPid;
    std::uint64_t ticket = 0;
    bool wait = false;           ///< Parked acquiring (vs granted hold).
    util::TimeNs since = 0;      ///< Acquisition / enqueue start.
    util::TimeNs last_seen = 0;  ///< Snapshot capture time.
  };
  struct Observation {
    std::string name;
    std::vector<Access> accesses;
  };

  void add_witness(OrderMonitorId from, OrderMonitorId to,
                   const std::string& from_name, const std::string& to_name,
                   const OrderWitness& witness);

  std::unordered_map<OrderMonitorId, Observation> accesses_;
  /// Keyed by (from << 32 | ...)-free pair map; kept sorted for
  /// deterministic cycle extraction.
  std::unordered_map<OrderMonitorId,
                     std::unordered_map<OrderMonitorId, OrderEdge>>
      edges_;
  std::size_t edge_total_ = 0;
};

/// Convert the relation to / from its trace-codec form (robmon-trace v3
/// `lord` lines; one record per retained witness).  Restoring assigns
/// synthetic monitor ids by first appearance of each name.
std::vector<trace::LockOrderRecord> to_order_records(
    const std::vector<OrderEdge>& edges);
std::vector<OrderEdge> order_edges_from_records(
    const std::vector<trace::LockOrderRecord>& records);

}  // namespace robmon::core
