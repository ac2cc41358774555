// Fault injection framework (Section 4 evaluation: "Faults of different
// kinds as classified in Section 3.2 are injected randomly for evaluating
// the coverage of the fault detection algorithms").
//
// The monitor implementation (runtime/hoare_monitor) and the buggy workload
// variants (workloads/bounded_buffer, workloads/allocator) consult an
// InjectionController at each decision point that a taxonomy fault can
// subvert.  The instrumentation
// (data-gathering routines) stays correct — faults corrupt *behaviour*, and
// the recorded events/states reflect what actually happened, which is what
// the detector checks.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>

#include "core/fault.hpp"
#include "trace/event.hpp"
#include "util/rng.hpp"

namespace robmon::inject {

/// Queried by instrumented code: "should fault `kind` strike at this
/// opportunity, affecting process `pid`?"  Implementations must be
/// thread-safe (the real-thread monitor calls from many threads).
class InjectionController {
 public:
  virtual ~InjectionController() = default;

  /// Arming opportunity: "should fault `kind` strike here?"  Counting
  /// implementations advance their opportunity counter on every call with a
  /// matching kind, so call it only at the decision point the fault class
  /// subverts.
  virtual bool fire(core::FaultKind kind, trace::Pid pid) = 0;

  /// Sticky-victim query: is `pid` the already-struck victim of `kind`?
  /// Never arms.  Used where one fault class influences another decision
  /// point (e.g. an enter-no-response victim must also be skipped during
  /// entry-queue admission).
  virtual bool active(core::FaultKind kind, trace::Pid pid) const {
    (void)kind;
    (void)pid;
    return false;
  }
};

/// Never injects; the default for production use.
class NullInjection final : public InjectionController {
 public:
  bool fire(core::FaultKind, trace::Pid) override { return false; }
  static NullInjection& instance();
};

/// Deterministic one-shot (or sticky) injection of a single fault class.
///
///   kind    — the taxonomy class to inject.
///   target  — restrict to one pid (kNoPid = any process).
///   nth     — fire at the nth matching opportunity (1-based).
///   sticky  — once armed, keep firing for the same pid at every later
///             opportunity (needed for persistent faults such as
///             starvation, where the victim must be skipped repeatedly).
class ScriptedInjection final : public InjectionController {
 public:
  struct Plan {
    core::FaultKind kind;
    trace::Pid target = trace::kNoPid;
    std::int64_t nth = 1;
    bool sticky = false;
  };

  explicit ScriptedInjection(Plan plan) : plan_(plan) {}

  bool fire(core::FaultKind kind, trace::Pid pid) override;
  bool active(core::FaultKind kind, trace::Pid pid) const override;

  /// True once the fault has been injected at least once.
  bool fired() const;
  /// Pid that the (first) injection struck, if any.
  std::optional<trace::Pid> victim() const;

 private:
  Plan plan_;
  mutable std::mutex mu_;
  std::int64_t opportunities_ = 0;
  bool fired_ = false;
  trace::Pid victim_ = trace::kNoPid;
};

/// Randomized injection: each opportunity of the configured class fires
/// with probability p (seeded, reproducible).  Used by the coverage bench's
/// "injected randomly" mode.
class RandomInjection final : public InjectionController {
 public:
  RandomInjection(core::FaultKind kind, double probability,
                  std::uint64_t seed);

  bool fire(core::FaultKind kind, trace::Pid pid) override;
  bool active(core::FaultKind kind, trace::Pid pid) const override;

  std::int64_t times_fired() const;
  std::optional<trace::Pid> victim() const;

 private:
  core::FaultKind kind_;
  double probability_;
  mutable std::mutex mu_;
  util::Rng rng_;
  std::int64_t fired_count_ = 0;
  trace::Pid first_victim_ = trace::kNoPid;
  bool sticky_engaged_ = false;
};

/// True when the fault class requires *sticky* semantics to manifest (the
/// implementation must keep misbehaving towards the same victim).
bool is_sticky_fault(core::FaultKind kind);

/// True when detection of this class requires a timeout horizon to elapse
/// (Tmax / Tio / Tlimit) rather than a single list comparison.
bool needs_timer(core::FaultKind kind);

}  // namespace robmon::inject
