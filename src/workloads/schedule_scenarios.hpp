// Seeded schedule-exploration scenarios: pool-level detection + recovery
// runs executed entirely under sync::SimScheduler (the deterministic fiber
// backend).  Each scenario builds a CheckerPool with periodic checkpoints,
// RobustMonitors and client fibers, lets the pool's own workers detect and
// recover under virtual time with zero real threads, and returns a
// ScenarioResult whose every field — scorecard counters, the concatenated
// v6 trace, the fault-report log, the schedule digest — is a pure function
// of (scenario, seed).  tests/schedule_explorer.cpp sweeps seeds over these
// and pins a regression corpus of known-interesting interleavings.
//
// Only runnable when the tree is compiled with ROBMON_SYNC_BACKEND_SIM
// (the robmon_sim library): under the real backend the runtime would park
// OS threads, not fibers, and run_schedule_scenario throws std::logic_error.
#pragma once

#include <cstdint>
#include <string>

namespace robmon::wl {

enum class ScheduleScenario {
  /// The acceptance scenario: a confirmed wait-for cycle broken by victim
  /// poison AND a predicted order cycle pre-empted by a gate imposition, in
  /// one pool run (periodic checks + both checkpoints on worker fibers).
  /// The deadlocking pair's opposite-order holds draw a second, true order
  /// warning and imposition of their own.
  kRecoveryFull,
  /// Confirmed cycle broken by targeted fault delivery (no poison).
  kDeliverToVictim,
  /// recovery_poison() (cast against the holder's ticket) fired while
  /// waiters are parked mid-wait on a condition; every parked waiter must
  /// evict with kRecoveryFault and complete normally after unpoison.
  kPoisonDuringWait,
  /// The explicit unpoison() racing new blockers arriving at the monitor:
  /// arrivals see either kRecoveryFault or normal service, never a hang or
  /// a crash.
  kUnpoisonRacesNewBlocker,
  /// Destroying (pool remove()) the victim monitor right after its poison
  /// ended, racing the periodic check that records the completion, plus
  /// check_now() on a removed MonitorId raced against the churn (must
  /// return empty, never throw).
  kRemovePoisonedMonitor,
  /// A lock-order imposition landing on the gate while crossings are in
  /// flight: the fenced crossing must run exclusively, everyone completes.
  kGateImpositionRacesCrossing,
};

/// Stable scenario name ("recovery-full", ...) — used in corpus rows and
/// replay commands.
const char* to_string(ScheduleScenario scenario);

/// Inverse of to_string; throws std::invalid_argument on unknown names.
ScheduleScenario scenario_from_name(const std::string& name);

/// Every listed scenario, in corpus order.
inline constexpr ScheduleScenario kAllScheduleScenarios[] = {
    ScheduleScenario::kRecoveryFull,
    ScheduleScenario::kDeliverToVictim,
    ScheduleScenario::kPoisonDuringWait,
    ScheduleScenario::kUnpoisonRacesNewBlocker,
    ScheduleScenario::kRemovePoisonedMonitor,
    ScheduleScenario::kGateImpositionRacesCrossing,
};

struct ScenarioResult {
  std::string name;
  std::uint64_t seed = 0;

  /// True iff the scheduler ran every fiber to completion and every
  /// scenario invariant held.  When false, `failure` names the first
  /// violation and the caller should print seed + replay command.
  bool completed = false;
  std::string failure;

  /// FNV-1a digest of the interleaving actually taken (see
  /// SimScheduler::schedule_digest); equal digests = identical schedules.
  std::uint64_t schedule_digest = 0;
  std::uint64_t steps = 0;
  std::int64_t virtual_end_ns = 0;

  // --- Detection / recovery scorecard. ---------------------------------
  std::uint64_t deadlocks_reported = 0;
  std::uint64_t potential_deadlocks = 0;
  std::uint64_t recovery_actions = 0;
  std::uint64_t victims_poisoned = 0;
  std::uint64_t faults_delivered = 0;
  std::uint64_t monitors_unpoisoned = 0;
  std::uint64_t orders_imposed = 0;
  std::uint64_t fenced_crossings = 0;
  /// Client-side kRecoveryFault observations.
  int recovery_faults = 0;
  std::uint64_t reports_total = 0;

  /// Concatenated codec-v6 traces of every retain_trace monitor, in a
  /// fixed order — byte-identical across runs of the same (scenario, seed).
  std::string trace;
  /// One line per fault report: "<rule> <message>".
  std::string report_log;

  /// One-line counter summary ("wf=1 lo=0 act=2 ..."), the value pinned
  /// per corpus row next to the digest.
  std::string scorecard() const;
};

/// Run `scenario` to completion under a fresh SimScheduler seeded with
/// `seed`.  Deterministic: same inputs, byte-identical ScenarioResult.
ScenarioResult run_schedule_scenario(ScheduleScenario scenario,
                                     std::uint64_t seed);

}  // namespace robmon::wl
