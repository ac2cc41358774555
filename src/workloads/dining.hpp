// Dining philosophers over resource-access-right-allocator monitors: each
// fork is a one-unit allocator RobustMonitor.  With the symmetric grab order
// (everyone takes the left fork first) the system can deadlock.
//
// Two detection paths exist for that deadlock:
//   * per-monitor (the paper's model): ST-8c (fork held beyond Tlimit),
//     ST-5/ST-6 — each fork reaches the verdict from its own history, but
//     only as a timeout, and without naming the cycle;
//   * pool-level (this repo's extension): the shared CheckerPool assembles
//     a cross-monitor wait-for graph and reports a structural GlobalDeadlock
//     fault naming the exact thread/monitor cycle, validated against live
//     snapshots (no false positives when a wait resolves on its own).
//
// run_dining drives one ring.  run_dining_load drives M rings against one
// shared pool, with deterministic hold-and-wait cycles injected into the
// first `deadlock_rings` rings (acquire left, rendezvous, acquire right),
// and accounts detection per ring: a correct engine reports a cycle for
// every injected ring and never names a clean ring.
//
// Recovery modes (DiningLoadOptions::recovery) turn the same workload into
// the liveness contract for the recovery engine: a ring that
// deterministically deadlocks must run to completion.
//   * kPoisonVictim / kDeliverFault — the injected rendezvous cycle closes
//     for real; the pool's recovery hook breaks it (victim monitor poisoned
//     or designated fault delivered), evicted philosophers hand back their
//     left fork and retry the full crossing until it succeeds (so the
//     poison ending with its hold and restoring service is exercised too).
//   * kImposeOrder — pre-emption: the injected rings first run a serialized
//     "parade" (each philosopher briefly holds left+right) that records the
//     circular acquisition-order relation without any real deadlock; the
//     prediction checkpoint warns, the policy imposes the dominant order on
//     a sync::Gate, and only then does the ring attempt the rendezvous
//     crossing — gate-aware (order applied, crossing fenced), so the cycle
//     that would otherwise close deterministically never can.
// In every mode the acceptance contract is: all threads complete, exactly
// one recovery action per injected ring, zero actions on clean rings.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/fault.hpp"
#include "trace/codec.hpp"
#include "util/clock.hpp"

namespace robmon::wl {

/// Recovery remedy exercised by run_dining_load (kOff = detection only).
enum class DiningRecovery {
  kOff,
  kPoisonVictim,
  kDeliverFault,
  kImposeOrder,
};

struct DiningOptions {
  int philosophers = 5;
  int rounds = 50;
  util::TimeNs eat_ns = 200'000;    // 0.2 ms
  util::TimeNs think_ns = 100'000;  // 0.1 ms
  /// Pause between grabbing the first and second fork; a nonzero gap makes
  /// the circular wait near-certain under the symmetric order.
  util::TimeNs grab_gap_ns = 0;
  /// true = symmetric order (deadlock-prone); false = last philosopher
  /// grabs right-hand fork first (deadlock-free control).
  bool symmetric_order = true;
  util::TimeNs t_limit = 100 * util::kMillisecond;
  util::TimeNs t_max = 100 * util::kMillisecond;
  util::TimeNs t_io = 200 * util::kMillisecond;
  util::TimeNs check_period = 50 * util::kMillisecond;
  /// Pool-level wait-for checkpoint cadence; 0 falls back to timeout-only
  /// detection (the pre-pool behaviour).
  util::TimeNs checkpoint_period = 20 * util::kMillisecond;
  /// Give up (poison the forks) after this much wall-clock time.
  util::TimeNs run_timeout = 2 * util::kSecond;
};

struct DiningResult {
  bool completed = false;  ///< All philosophers finished all rounds.
  bool deadlock_reported = false;  ///< Any Tlimit/Tmax/Tio report.
  /// A structural GlobalDeadlock cycle was confirmed at a pool checkpoint.
  bool global_deadlock_reported = false;
  /// Messages of the confirmed cycles ("p0 waits on fork-1[...] ...").
  std::vector<std::string> cycles;
  std::size_t fault_reports = 0;
  std::vector<core::FaultReport> reports;
};

DiningResult run_dining(const DiningOptions& options);

// --- Multi-ring scenario (pool-level detection under load). ------------------

struct DiningLoadOptions {
  std::size_t rings = 3;      ///< M independent philosopher rings.
  int philosophers = 4;       ///< Per ring (and forks per ring).
  int rounds = 20;            ///< Eat/think rounds in clean rings.
  /// The first `deadlock_rings` rings get a deterministic injected
  /// hold-and-wait cycle: every philosopher acquires its left fork, the
  /// ring rendezvouses, then everyone goes for the right fork.
  std::size_t deadlock_rings = 1;
  util::TimeNs eat_ns = 100'000;
  util::TimeNs think_ns = 50'000;
  /// Generous per-monitor timers so the only deadlock verdicts come from
  /// the structural pool checkpoint, not ST-5/6/8c timeouts.
  util::TimeNs t_limit = 30 * util::kSecond;
  util::TimeNs t_max = 30 * util::kSecond;
  util::TimeNs t_io = 30 * util::kSecond;
  util::TimeNs check_period = 5 * util::kMillisecond;
  util::TimeNs checkpoint_period = 10 * util::kMillisecond;
  std::size_t pool_threads = 0;  ///< K for the shared pool; 0 = auto.
  util::TimeNs run_timeout = 5 * util::kSecond;
  /// Recovery mode (see file comment); kOff reproduces detection-only.
  DiningRecovery recovery = DiningRecovery::kOff;
};

struct DiningLoadResult {
  std::size_t deadlocks_expected = 0;  ///< == deadlock_rings.
  /// Injected rings for which a GlobalDeadlock cycle was reported.
  std::size_t deadlocked_rings_detected = 0;
  /// Missed = expected - detected (a correct engine misses none).
  std::size_t missed_detections = 0;
  /// Clean rings named by any reported cycle (must be 0).
  std::size_t false_positive_rings = 0;
  bool clean_rings_completed = false;
  std::vector<std::string> cycles;
  std::uint64_t checkpoints_run = 0;
  std::size_t fault_reports = 0;
  std::vector<core::FaultReport> reports;

  // --- Recovery accounting (all zero when recovery == kOff). ----------------
  /// Liveness: every injected-ring philosopher completed a full crossing.
  bool recovered_rings_completed = false;
  std::uint64_t recovery_actions = 0;  ///< Poisons + deliveries + impositions.
  std::uint64_t victims_poisoned = 0;
  std::uint64_t faults_delivered = 0;
  std::uint64_t orders_imposed = 0;
  std::uint64_t monitors_unpoisoned = 0;
  /// Wall-clock ns from the first confirmed/predicted report to the first
  /// recovery action (the bench's recovery-latency column); 0 = no action.
  std::uint64_t recovery_latency_ns = 0;
  /// The pool's codec v4 `rcov` records, in order.
  std::vector<trace::RecoveryRecord> recovery_log;
};

DiningLoadResult run_dining_load(const DiningLoadOptions& options);

}  // namespace robmon::wl
