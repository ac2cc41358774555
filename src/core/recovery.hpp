// Recovery policy — turns cycle verdicts into corrective actions.
//
// The detection layers stop at reporting: a confirmed GlobalDeadlock names
// every thread and monitor on the circular wait, and a PotentialDeadlock
// warning names every edge of an acquisition-order cycle before any thread
// is stuck.  Both are exactly the input a recovery engine needs, and this
// module supplies its decision half:
//
//   * Confirmed cycle  -> choose a VICTIM among the blocked participants
//     (pluggable comparator; the default prefers the youngest blocking
//     episode, then the thread holding the fewest cycle monitors, then the
//     lowest user priority) and a REMEDY: poison the monitor the victim
//     waits on (every waiter wakes with rt::Status::kRecoveryFault instead
//     of blocking forever; sticky until the hold the victim waits behind
//     ends) or deliver a designated RecoveryFault to the victim thread
//     alone.
//   * Predicted cycle  -> act pre-emptively: the witness counts of the
//     accumulated order relation name the DOMINANT acquisition order, and
//     the decision fences the minority edge — the edge with the fewest
//     witnesses — so that call sites crossing it serialize through a
//     sync::Gate (or re-order onto the imposed order) and the cycle never
//     closes.
//
// This module is pure decision logic over core types; the actuation (who
// pokes which HoareMonitor, who engages which Gate) lives in
// rt::CheckerPool, which invokes the policy from both of its pool-level
// checkpoints.  Every decision converts to a FaultReport (rule RC, suspected
// kRecoveryIntervention) for the sink and to a trace::RecoveryRecord
// (codec v4 `rcov` line) so offline replay can re-derive what the policy
// did and why.  See docs/recovery-policies.md for the policy cookbook.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/fault.hpp"
#include "core/lockorder.hpp"
#include "core/waitfor.hpp"
#include "trace/codec.hpp"

namespace robmon::core {

/// Remedy applied to the victim of a confirmed cycle.
enum class RecoveryRemedy {
  kPoisonVictim,  ///< Poison the monitor the victim waits on (wake-all,
                  ///  sticky until the hold it waits behind ends).
  kDeliverFault,  ///< Wake only the victim thread with a RecoveryFault.
};

std::string_view to_string(RecoveryRemedy remedy);

/// One confirmed-cycle participant, as scored by the victim comparator.
struct VictimCandidate {
  Tid pid = kNoTid;
  WaitMonitorId monitor = 0;  ///< Monitor the thread is blocked on.
  std::string monitor_name;
  std::string cond;  ///< Condition queue; empty = entry queue.
  util::TimeNs blocked_since = 0;
  std::uint64_t blocked_ticket = 0;  ///< Episode ticket of the wait.
  std::size_t held_monitors = 0;     ///< Distinct cycle monitors it holds.
  int priority = 0;                  ///< User priority (higher = protect).
};

/// Returns true when `a` is a *better* victim than `b`.
using VictimComparator =
    std::function<bool(const VictimCandidate&, const VictimCandidate&)>;

/// The default scoring: youngest blocking episode first (largest ticket,
/// then largest blocked_since — tickets are per-monitor counters, so the
/// comparison is a heuristic across monitors and exact within one), then
/// fewest held cycle monitors (least work lost), then lowest user priority,
/// then smallest pid (full determinism).
VictimComparator default_victim_comparator();

/// A confirmed-cycle decision: which thread/monitor pays, and how.
struct RecoveryDecision {
  RecoveryRemedy remedy = RecoveryRemedy::kPoisonVictim;
  VictimCandidate victim;
  std::string rationale;  ///< Comparator verdict + the triggering cycle.
};

/// A predicted-cycle decision: the minority edge to fence and the dominant
/// linear order that the remaining edges already agree on.
struct OrderDecision {
  /// Fenced (minority) edge: the cycle step with the fewest witnesses.
  std::string minority_from;
  std::string minority_to;
  /// Witnesses of the minority edge — the threads whose call sites must be
  /// fenced (serialized or re-ordered).
  std::vector<Tid> fenced;
  /// The imposed acquisition order: the cycle's monitors linearized so that
  /// every majority edge points forward (acquire left-to-right).
  std::vector<std::string> imposed_order;
  std::string rationale;
};

class RecoveryPolicy {
 public:
  struct Options {
    /// Remedy for confirmed cycles.
    RecoveryRemedy confirmed_remedy = RecoveryRemedy::kPoisonVictim;
    /// Act on PotentialDeadlock warnings (order imposition); false = only
    /// break confirmed cycles.
    bool preempt_predicted = true;
    /// Victim scoring; default_victim_comparator() when empty.
    VictimComparator comparator;
    /// User priority of a thread (higher = protect); 0 for all when empty.
    std::function<int(Tid)> priority;
  };

  RecoveryPolicy() : RecoveryPolicy(Options{}) {}
  explicit RecoveryPolicy(Options options);

  RecoveryRemedy confirmed_remedy() const { return options_.confirmed_remedy; }
  bool preempt_predicted() const { return options_.preempt_predicted; }

  /// The scored participants of a confirmed cycle (one per blocked thread,
  /// deduplicated; held_monitors counts the cycle links the pid holds).
  std::vector<VictimCandidate> candidates(const DeadlockCycle& cycle) const;

  /// Choose the victim and remedy for a confirmed cycle.
  RecoveryDecision decide(const DeadlockCycle& cycle) const;

  /// Choose the minority edge and imposed order for a predicted cycle;
  /// `edges` supplies the witness totals (the pool's accumulated relation).
  OrderDecision decide(const OrderCycle& cycle,
                       const std::vector<OrderEdge>& edges) const;

 private:
  Options options_;
};

/// The ext.RC report for an applied action — one shape for both checkpoint
/// paths, mirroring make_cycle_report / make_order_report.
FaultReport make_recovery_report(const RecoveryDecision& decision,
                                 util::TimeNs detected_at);
FaultReport make_recovery_report(const OrderDecision& decision,
                                 util::TimeNs detected_at);

/// The codec v4 `rcov` line for an applied action ('P' or 'F' per remedy;
/// 'O' for an order imposition).  Unpoison completions are recorded by the
/// pool directly with action 'C'.
trace::RecoveryRecord make_recovery_record(const RecoveryDecision& decision,
                                           util::TimeNs at);
trace::RecoveryRecord make_recovery_record(const OrderDecision& decision,
                                           util::TimeNs at);

}  // namespace robmon::core
