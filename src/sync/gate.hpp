// Recovery fence: the actuator of the impose-order remedy (see Gate below).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sync/backend.hpp"
#include "trace/event.hpp"

namespace robmon::sync {

/// Recovery fence (the actuator of the impose-order remedy): call sites
/// that acquire several monitors wrap the whole acquisition region in a
/// Gate::Scope and consult apply_order() for the sequence to acquire in.
/// Until a recovery policy engages the gate, both are no-ops beyond one
/// uncontended mutex hop — the fence costs nothing while no deadlock is
/// predicted.
///
/// When a PotentialDeadlock warning arrives, the policy calls impose() with
/// the dominant acquisition order and the pids witnessed using the minority
/// (cycle-closing) direction.  From then on:
///
///   * apply_order() re-sorts a crossing's monitor sequence onto the
///     imposed order (unranked monitors keep their relative position,
///     after the ranked ones), so cooperative call sites simply stop using
///     the minority order;
///   * Scope makes a *fenced* pid's crossing exclusive against every other
///     crossing (shared/exclusive protocol, writer priority) — sound for
///     call sites that cannot re-order: a cycle needs two concurrent
///     crossings in conflicting orders, and while a fenced crossing runs,
///     no other crossing runs at all.
///
/// Engagement is sticky until clear().  The counters let workloads and
/// tests assert the zero-actions contract on consistent-order controls.
class Gate {
 public:
  /// Which protocol a crossing entered under (Scope bookkeeping: the
  /// verdict is made at enter time and must be paired at exit even if the
  /// gate is engaged or cleared mid-crossing).
  enum class Side { kShared, kExclusive };

  Gate() = default;
  Gate(const Gate&) = delete;
  Gate& operator=(const Gate&) = delete;

  /// Engage the fence: crossings by `fenced` pids turn exclusive, and
  /// apply_order() starts sorting onto `order` (monitor names, dominant
  /// direction first).  Re-imposing MERGES: already-ranked monitors keep
  /// their rank (new ones append behind) and the fenced sets union, so
  /// independent cycles impose independently.
  void impose(std::vector<std::string> order, std::vector<trace::Pid> fenced);

  /// Disengage; crossings become no-ops again.
  void clear();

  bool engaged() const;
  bool is_fenced(trace::Pid pid) const;
  std::vector<std::string> imposed_order() const;

  /// Stable-sort `monitors` onto the imposed order; names outside the
  /// order keep their relative position, after every ranked name.  No-op
  /// while disengaged.
  void apply_order(std::vector<std::string>& monitors) const;

  /// Times impose() engaged the fence.
  std::uint64_t impositions() const;
  /// Crossings that ran under the exclusive protocol.
  std::uint64_t fenced_crossings() const;

  /// Begin/end one crossing.  Prefer Scope.
  Side enter(trace::Pid pid);
  void exit(Side side);

  class Scope {
   public:
    Scope(Gate& gate, trace::Pid pid) : gate_(gate), side_(gate.enter(pid)) {}
    ~Scope() { gate_.exit(side_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Gate& gate_;
    Side side_;
  };

 private:
  mutable BackendMutex mu_;
  BackendCondVar cv_;
  bool engaged_ = false;
  std::unordered_set<trace::Pid> fenced_;
  std::vector<std::string> order_;
  std::unordered_map<std::string, std::size_t> rank_;
  std::int64_t shared_ = 0;
  std::int64_t exclusive_waiting_ = 0;
  bool exclusive_held_ = false;
  std::uint64_t impositions_ = 0;
  std::uint64_t fenced_crossings_ = 0;
};

}  // namespace robmon::sync
