// Closed-loop load drivers for the three monitor types, used by the Table-1
// overhead benchmark and by the soak/property tests.  Each driver builds a
// RobustMonitor with the requested instrumentation/checking configuration,
// runs a fixed number of operations across worker threads, and reports
// throughput plus the detector's counters.
#pragma once

#include <cstdint>
#include <string>

#include "core/fault.hpp"
#include "core/monitor_spec.hpp"
#include "runtime/robust_monitor.hpp"

namespace robmon::wl {

struct LoadOptions {
  core::MonitorType type = core::MonitorType::kCommunicationCoordinator;
  int workers = 4;           ///< Total worker threads (split 50/50 where
                             ///  the workload has two roles).
  std::int64_t ops_per_worker = 2000;
  std::size_t capacity = 8;  ///< Buffer slots / allocator units.
  util::TimeNs work_ns = 0;  ///< Simulated work outside the monitor.

  /// Monitor construction knobs.
  rt::Instrumentation instrumentation = rt::Instrumentation::kFull;
  bool periodic_checking = true;      ///< Start periodic checking.
  util::TimeNs check_period = 100 * util::kMillisecond;
  util::TimeNs t_max = 5 * util::kSecond;   ///< Generous: no false timeouts
  util::TimeNs t_io = 5 * util::kSecond;    ///  under heavy load.
  util::TimeNs t_limit = 5 * util::kSecond;
};

struct LoadResult {
  std::uint64_t operations = 0;   ///< Completed monitor procedure calls.
  double seconds = 0.0;           ///< Wall-clock for the measured region.
  double ops_per_second = 0.0;
  std::uint64_t checks_run = 0;
  std::uint64_t events_recorded = 0;
  std::size_t faults_reported = 0;  ///< Should be 0 on fault-free runs.
};

/// Run the closed-loop workload described by `options`.
LoadResult run_load(const LoadOptions& options);

// --- Multi-monitor scenario (CheckerPool scaling). ---------------------------

/// M monitors on one shared CheckerPool with K workers.
struct MultiLoadOptions {
  std::size_t monitors = 8;       ///< M; alternating coordinator/allocator.
  int threads_per_monitor = 2;    ///< T client threads driving each monitor.
  std::int64_t ops_per_thread = 200;
  std::size_t capacity = 8;       ///< Buffer slots / allocator units.
  /// The first `faulty_monitors` monitors get one deterministic injected
  /// fault: a fabricated receive on coordinators (II.c), a release-before-
  /// acquire client on allocators (III.a).  Detection is counted per
  /// monitor; a correct engine misses none.
  std::size_t faulty_monitors = 0;

  std::size_t pool_threads = 0;   ///< K; 0 = auto (≤ hw).
  util::TimeNs check_period = 5 * util::kMillisecond;

  /// Adaptive cadence ceiling per monitor (1.0 = fixed cadence).
  double max_stretch = 1.0;
  /// Lock-order prediction checkpoint cadence (0 = prediction off).  Every
  /// client here touches exactly one monitor, so a correct predictor
  /// records no cross-monitor edges and zero kPotentialDeadlock warnings —
  /// the bench "predict" shape measures the pure per-check fold overhead
  /// and gates on that zero.
  util::TimeNs lockorder_checkpoint_period = 0;
};

struct MultiLoadResult {
  std::uint64_t operations = 0;       ///< Completed monitor procedure calls.
  double seconds = 0.0;
  double ops_per_second = 0.0;
  std::uint64_t checks_run = 0;       ///< Periodic + final, all monitors.
  double checks_per_second = 0.0;
  std::uint64_t events_recorded = 0;
  /// Events dropped under the EventLog overflow contract, summed over all
  /// monitors (CheckerPool::events_lost).  Must be 0 when the drain
  /// cadence keeps up — the bench gates on it.
  std::uint64_t events_lost = 0;
  std::size_t checker_threads = 0;    ///< Detection threads provisioned.
  double avg_quiesce_us = 0.0;        ///< Capture window per check.
  double avg_check_us = 0.0;          ///< Full checking routine per check.
  std::uint64_t dispatches = 0;       ///< Engine dispatches (batches).
  double avg_batch = 0.0;             ///< Checks per dispatch.
  double dispatches_per_1k_checks = 0.0;  ///< Wake-up cost per 1k checks.
  std::uint64_t checks_coalesced = 0; ///< Missed deadlines absorbed.
  std::uint64_t idle_checks = 0;      ///< Checks that drained nothing.
  std::size_t faults_expected = 0;    ///< == faulty_monitors.
  std::size_t faulty_detected = 0;    ///< Faulty monitors with ≥1 report.
  std::size_t missed_detections = 0;  ///< Faulty monitors with no report.
  std::size_t false_positive_monitors = 0;  ///< Clean monitors with reports.
  std::uint64_t lockorder_checkpoints = 0;  ///< Prediction passes run.
  std::size_t lockorder_edges = 0;          ///< Order edges recorded.
  /// kPotentialDeadlock warnings — a false positive here (must be 0: no
  /// client spans monitors).
  std::size_t potential_deadlocks = 0;
};

/// Drive M monitors concurrently and account detection per monitor.
MultiLoadResult run_multi_load(const MultiLoadOptions& options);

// --- Overhead-budget spike scenario (bench/check_overhead `budget`). --------

/// Closed-loop three-phase scenario for the pool's overhead budget: a calm
/// baseline, a 10× load spike (per-thread op delay divided by
/// spike_multiplier), and a calm post-spike phase.  The budget controller
/// must degrade under the spike (in shed order: stretch, then prediction,
/// then widen — never detection), keep measured detection spend near the
/// budget, and recover to nominal when load subsides.  Detection liveness
/// is asserted with deterministic injected faults: a fabricated receive on
/// faulty coordinators before the run (caught by Algorithm 2 at a periodic
/// check) and a release-before-acquire client on faulty allocators at spike
/// onset (caught by the real-time calling-order phase even while periods
/// are widened) — a correct engine misses none at any degradation level.
struct BudgetSpikeOptions {
  std::size_t monitors = 8;       ///< Alternating coordinator/allocator.
  int threads_per_monitor = 2;
  std::size_t capacity = 8;
  util::TimeNs check_period = 2 * util::kMillisecond;
  double max_stretch = 8.0;       ///< Idle-cadence ceiling (baseline phases).
  util::TimeNs baseline_ns = 700 * util::kMillisecond;
  util::TimeNs spike_ns = 1500 * util::kMillisecond;
  util::TimeNs post_ns = 1200 * util::kMillisecond;
  /// Per-thread pause between operation pairs at baseline load; the spike
  /// divides it by spike_multiplier.
  util::TimeNs base_op_delay = 60 * util::kMillisecond;
  int spike_multiplier = 10;
  /// Per-thread pause in the post-spike phase.  Deliberately gentler than
  /// the baseline (0 = 4 × base_op_delay): the phase exists to prove the
  /// controller retraces the ladder when load *subsides*, so the subsided
  /// load sits well clear of the recovery threshold rather than at the
  /// baseline's edge of it.
  util::TimeNs post_op_delay = 0;
  /// Leading fraction of the spike and post phases treated as controller
  /// settling time; spend is measured over the remainder, i.e. the
  /// controller's steady state, not its reaction transient.
  double settle_fraction = 0.5;
  std::size_t faulty_monitors = 2;
  util::TimeNs waitfor_checkpoint_period = 20 * util::kMillisecond;
  util::TimeNs lockorder_checkpoint_period = 20 * util::kMillisecond;
};

struct BudgetSpikeResult {
  /// Budget derived by the calibration: its calm spend over the
  /// controller's recovery margin.
  double budget_fraction = 0.0;
  /// Calibration pass (a controller that measures but cannot degrade):
  /// calm and spike spend.  The uncontrolled spike must sit above 1.5× the
  /// budget, or the spike-phase spend limit holds without the controller.
  double uncontrolled_baseline_spend = 0.0;
  double uncontrolled_spike_spend = 0.0;
  /// Detection spend per phase, in the controller's own measure (checking
  /// thread-CPU time / elapsed wall time); spike and post are measured
  /// after their settling window.
  double baseline_spend = 0.0;
  double spike_spend = 0.0;
  double post_spend = 0.0;
  int max_level = 0;              ///< Deepest ladder level reached.
  int final_level = 0;            ///< Level when the run ended.
  std::uint64_t transitions = 0;
  std::uint64_t prediction_sheds = 0;   ///< Shed prediction passes.
  /// Every logged transition is a ±1 ladder step and chains from the
  /// previous level — the structural proof that prediction was shed before
  /// detection was widened and that recovery retraced the same ladder.
  bool shed_order_ok = true;
  bool recovered = false;         ///< final_level back at nominal.
  /// Wait-for checkpoint passes during the spike's measured window —
  /// confirmed-cycle detection must keep running at every level (> 0).
  std::uint64_t waitfor_passes_during_spike = 0;
  /// Detection scorecard and lost events, summed over the calibration and
  /// governed passes (both run the same injected faults).
  std::size_t faults_expected = 0;
  std::size_t faulty_detected = 0;
  std::size_t missed_detections = 0;
  std::size_t false_positive_monitors = 0;
  std::uint64_t operations = 0;
  std::uint64_t events_lost = 0;
  double seconds = 0.0;
  std::vector<trace::BudgetRecord> budget_log;
};

/// Run the spike scenario: an uncontrolled calibration pass, which sets
/// the budget, then the governed pass the result describes.
BudgetSpikeResult run_budget_spike(const BudgetSpikeOptions& options);

}  // namespace robmon::wl
