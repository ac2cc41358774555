// Deterministic coverage scenarios — the harness behind the paper's
// robustness evaluation ("Faults of different kinds ... are injected
// randomly ... The results show that all injected faults are detected").
//
// run_coverage_trial(kind, seed) runs the workload the catalog prescribes
// for the fault class (bounded-buffer producer/consumer on a coordinator
// monitor, or acquire/release clients on an allocator monitor) on the real
// rt::RobustMonitor and its checking engine, under one sync::SimScheduler
// seeded with `seed`.  It injects one fault of that class via
// ScriptedInjection and reports whether the detector flagged it with one of
// the rules the catalog expects.
//
// Every trial needs the SimBackend build (link robmon_sim); in the real
// build each entry point throws std::logic_error.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/fault.hpp"
#include "inject/catalog.hpp"
#include "util/clock.hpp"

namespace robmon::wl {

struct CoverageOutcome {
  core::FaultKind kind;
  bool injected = false;   ///< The scripted fault actually struck.
  bool detected = false;   ///< A catalog-expected rule was reported.
  /// Checking period ordinal of the first matching report (1-based);
  /// 0 when undetected.
  std::uint64_t detection_check = 0;
  /// Which injection opportunity (1-based nth) produced the detection.
  /// Some faults can be serendipitously *masked* at a given opportunity —
  /// e.g. two entry waiters resumed together who both immediately wait on a
  /// condition replay as a legal execution; the paper acknowledges this
  /// incompleteness of post-checking (Section 3.3: "even if every step of
  /// the derivation is correct, this does not imply a fault-free
  /// situation").  The harness mirrors the paper's repeated random
  /// injection by advancing to the next opportunity.
  std::int64_t injection_attempt = 0;
  std::size_t total_reports = 0;
  std::vector<core::FaultReport> reports;
};

struct CoverageConfig {
  int producers = 3;
  int consumers = 3;
  int operations = 12;            ///< Per process.
  std::size_t buffer_capacity = 2;
  std::int64_t allocator_units = 2;
  /// BoundedBuffer dwell after Enter, so that entries contend.
  util::TimeNs in_monitor_ns = 200'000;        // 200 us critical section
  util::TimeNs producer_think_ns = 50'000;     // producers burst
  util::TimeNs consumer_think_ns = 400'000;    // consumers lag -> full phases
  /// Producers start late so every consumer first observes an empty buffer
  /// and waits on "empty" — guaranteeing both wait flavours occur under
  /// every schedule seed.
  util::TimeNs producer_initial_delay_ns = 2 * util::kMillisecond;
  util::TimeNs t_max = 10 * util::kMillisecond;
  util::TimeNs t_io = 20 * util::kMillisecond;
  util::TimeNs t_limit = 20 * util::kMillisecond;
  util::TimeNs check_period = 15 * util::kMillisecond;  // T > Tmax (paper)
  std::uint64_t max_checks = 40;
  std::uint64_t max_steps = 4'000'000;  ///< SimScheduler resume-step budget.
};

/// Inject one fault of `kind` into the prescribed workload under schedule
/// seed `seed`; return what the detector saw.
CoverageOutcome run_coverage_trial(core::FaultKind kind, std::uint64_t seed);
CoverageOutcome run_coverage_trial(core::FaultKind kind, std::uint64_t seed,
                                   const CoverageConfig& config);

/// Fault-free control run: same workloads, no injection; returns the number
/// of (spurious) reports — the soundness check expects zero.
std::size_t run_fault_free_trial(core::MonitorType type, std::uint64_t seed);
std::size_t run_fault_free_trial(core::MonitorType type, std::uint64_t seed,
                                 const CoverageConfig& config);

/// One trial recorded in the paper's T=1 mode (state after every event),
/// validated both by the interval-checking algorithms (ST) and by the
/// declarative FD-Rules of Section 3.2.  Used to test the paper's
/// FD-equivalent-to-ST claim.
struct FdTrialResult {
  bool injected = false;
  std::size_t event_count = 0;
  std::vector<trace::EventRecord> history;  ///< event_count events.
  std::vector<core::FaultReport> st_reports;
  std::vector<core::FaultReport> fd_reports;
};

/// kind == nullopt -> fault-free control.
FdTrialResult run_fd_trial(std::optional<core::FaultKind> kind,
                           std::uint64_t seed);
FdTrialResult run_fd_trial(std::optional<core::FaultKind> kind,
                           std::uint64_t seed, const CoverageConfig& config);

}  // namespace robmon::wl
