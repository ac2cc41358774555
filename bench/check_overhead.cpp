// Checking-engine overhead bench — the machine-readable perf baseline for
// the batched, adaptive-cadence CheckerPool and the owner-serialized
// EventLog.  Four sections:
//
//   appender  EventLog::append throughput under the owner-serialized
//             contract: T appender threads take one mutex around each
//             append (the monitor lock every production log is appended
//             under), and every 256th append the appending thread drains
//             into its own recycled buffer.  A second row with no drain
//             and an undersized capacity exercises the loss contract.
//             Both rows gate appended + lost == calls and drained ==
//             appended.  A row with threads > hardware_concurrency is
//             flagged `contended`: CI then skips its throughput
//             comparison (but still gates losses and detections).
//   pool      wl::run_multi_load at M ∈ --monitors for three engine
//             shapes — batched (default), batched+adaptive (--max-stretch),
//             batched+prediction — with injected faults; reports per-check
//             time, dispatches (worker wake-ups) per 1k checks, batch
//             sizes, coalesced deadlines, and the detection scorecard.
//             docs/bench-history.md keeps the last numbers of the retired
//             baselines (spinlocked and MPSC-ring appenders, per-item
//             dispatch).
//   recovery  wl::run_dining_load with a deterministically deadlocking
//             ring under each recovery remedy (poison / fault / order);
//             reports the detection-to-action latency and enforces the
//             liveness contract (completion, exactly one action, zero
//             false positives).
//   budget    wl::run_budget_spike: a closed-loop three-phase scenario
//             (calm baseline, 10× load spike, subsided post phase) against
//             a pool with a global detection budget, derived from an
//             uncontrolled calibration pass's calm spend.  Gates: the
//             uncontrolled spike's spend exceeds 1.5× the budget (else
//             the next gate holds without the controller), measured
//             spike-phase detection spend ≤ 1.5× the budget, the ladder
//             reached at least kShedPrediction (prediction was shed,
//             detection never), every logged transition chains ±1 (shed
//             order structural), wait-for detection kept running through
//             the spike, post-spike recovery to kNominal, and the usual
//             zero missed detections / false positives / lost events.
//
// Emits --out (default BENCH_check_overhead.json); exits non-zero if any
// injected fault is missed or any clean monitor reports one, so CI can use
// the run itself as a detection smoke and the JSON as a regression
// baseline.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "trace/event_log.hpp"
#include "util/flags.hpp"
#include "workloads/dining.hpp"
#include "workloads/loadgen.hpp"

using namespace robmon;

namespace {

bool parse_size_list(const std::string& csv, std::vector<std::size_t>* out) {
  std::stringstream stream(csv);
  std::string token;
  while (std::getline(stream, token, ',')) {
    if (token.empty()) continue;
    std::size_t consumed = 0;
    unsigned long value = 0;
    try {
      value = std::stoul(token, &consumed);
    } catch (const std::exception&) {
      return false;
    }
    if (consumed != token.size() || value == 0) return false;
    out->push_back(value);
  }
  return !out->empty();
}

struct AppenderRow {
  std::size_t threads = 0;
  std::size_t capacity = 0;
  std::uint64_t events = 0;  ///< append() calls issued.
  double events_per_sec = 0.0;
  std::uint64_t events_lost = 0;
  bool contended = false;    ///< threads > hardware_concurrency.
  bool expect_loss = false;  ///< Undrained, undersized overflow row.
  bool accounting_ok = true; ///< accepted + lost == issued, drain == accepted.
};

/// One serialized-appender row.  `drain_every` > 0 drains in-line every
/// that many appends per thread (throughput row, zero losses expected);
/// 0 never drains before the end, so a capacity below the row's calls
/// must drop exactly the excess.
AppenderRow bench_appenders(std::size_t threads,
                            std::uint64_t events_per_thread,
                            std::size_t capacity, std::uint64_t drain_every,
                            unsigned hardware) {
  trace::EventLog log(trace::EventLog::Options{.capacity = capacity});
  std::mutex owner_mu;  // The owner's lock (HoareMonitor::mu_'s role).
  std::atomic<std::uint64_t> drained{0};

  std::vector<std::thread> workers;
  const auto started = std::chrono::steady_clock::now();
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      const trace::EventRecord event = trace::EventRecord::enter(
          static_cast<trace::Pid>(t), 0, true, 0);
      std::vector<trace::EventRecord> segment;
      for (std::uint64_t i = 1; i <= events_per_thread; ++i) {
        std::lock_guard<std::mutex> lock(owner_mu);
        log.append(event);
        if (drain_every != 0 && i % drain_every == 0) {
          log.drain(segment);
          drained.fetch_add(segment.size(), std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  const auto finished = std::chrono::steady_clock::now();

  AppenderRow row;
  row.threads = threads;
  row.capacity = capacity;
  row.events = static_cast<std::uint64_t>(threads) * events_per_thread;
  const double seconds =
      std::chrono::duration<double>(finished - started).count();
  row.events_per_sec =
      seconds > 0 ? static_cast<double>(row.events) / seconds : 0.0;
  row.events_lost = log.events_lost();
  row.contended = hardware != 0 && threads > hardware;
  row.expect_loss = drain_every == 0;
  // The loss contract is exact: every issued append was either accepted
  // (and drains exactly once) or counted lost — no silent drops, no dupes.
  std::vector<trace::EventRecord> rest;
  log.drain(rest);
  const std::uint64_t total_drained = drained.load() + rest.size();
  const bool exact = log.total_appended() + row.events_lost == row.events;
  const bool drained_once = total_drained == log.total_appended();
  const bool bound_held = !row.expect_loss || log.total_appended() == capacity;
  row.accounting_ok = exact && drained_once && log.pending() == 0 && bound_held;
  return row;
}

struct PoolRow {
  std::size_t monitors = 0;
  std::string mode;
  wl::MultiLoadResult result;
  double per_check_ns = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.define("monitors", "1,8,64,256", "comma-separated sweep of M");
  flags.define("threads-per-monitor", "2", "client threads per monitor");
  flags.define("ops-per-thread", "60", "monitor calls per client thread");
  flags.define("faulty-fraction", "0.125",
               "fraction of monitors given one injected fault (min 1)");
  flags.define("pool-threads", "0",
               "K for the shared pool; 0 = hardware concurrency");
  flags.define("check-period-ms", "2", "checking cadence per monitor");
  flags.define("max-stretch", "4",
               "adaptive-cadence ceiling for the adaptive engine shape");
  flags.define("predict-period-ms", "4",
               "lock-order prediction checkpoint cadence (predict shape)");
  flags.define("appender-threads", "2", "serialized appender threads");
  flags.define("appender-events", "200000", "events per appender thread");
  flags.define("budget-phases-ms", "700,1500,1200",
               "baseline,spike,post phase durations for the budget "
               "scenario");
  flags.define("out", "BENCH_check_overhead.json",
               "machine-readable results file");
  if (!flags.parse(argc, argv)) return 1;

  std::vector<std::size_t> monitor_sweep;
  if (!parse_size_list(flags.str("monitors"), &monitor_sweep)) {
    std::fprintf(stderr,
                 "--monitors must be comma-separated positive integers\n");
    return 1;
  }
  const std::int64_t appender_threads = flags.i64("appender-threads");
  if (appender_threads <= 0) {
    std::fprintf(stderr, "--appender-threads must be a positive integer\n");
    return 1;
  }

  const unsigned hardware = std::thread::hardware_concurrency();
  std::printf("check_overhead: hardware concurrency = %u\n", hardware);

  // --- Appender throughput: owner-serialized ingestion. ---------------------
  const auto appender_events =
      static_cast<std::uint64_t>(flags.i64("appender-events"));
  const auto threads = static_cast<std::size_t>(appender_threads);
  std::vector<AppenderRow> appender_rows;
  bool appender_failed = false;
  std::printf("\n%10s %9s %14s %14s %12s %10s\n", "appenders", "capacity",
              "events", "events/s", "events-lost", "flags");
  const auto run_appender_row = [&](std::size_t capacity,
                                    std::uint64_t drain_every) {
    AppenderRow row = bench_appenders(threads, appender_events, capacity,
                                      drain_every, hardware);
    std::printf("%10zu %9zu %14llu %14.0f %12llu %10s%s\n", row.threads,
                row.capacity, static_cast<unsigned long long>(row.events),
                row.events_per_sec,
                static_cast<unsigned long long>(row.events_lost),
                row.expect_loss ? "overflow" : (row.contended ? "contended"
                                                              : "-"),
                row.accounting_ok ? "" : "  ^ FAILED: loss accounting");
    if (!row.accounting_ok ||
        (!row.expect_loss && row.events_lost > 0)) {
      appender_failed = true;
    }
    appender_rows.push_back(std::move(row));
  };
  run_appender_row(trace::EventLog::kDefaultCapacity, /*drain_every=*/256);
  // The loss-contract row: no drain until the end and a capacity far below
  // the row's calls, so all but `capacity` appends must drop *with
  // accounting*.
  run_appender_row(/*capacity=*/1 << 12, /*drain_every=*/0);

  // --- Pool sweep: batched vs batched+adaptive vs batched with the
  // lock-order prediction checkpoint on (the "predict" column isolates the
  // per-check fold overhead of the order relation; detection scorecard
  // must stay perfect and zero kPotentialDeadlock may fire).
  struct Shape {
    const char* name;
    double max_stretch;
    bool lockorder;
  };
  const double stretch = flags.f64("max-stretch");
  const Shape shapes[] = {
      {"batched", 1.0, false},
      {"adaptive", stretch, false},
      {"predict", 1.0, true},
  };

  std::vector<PoolRow> pool_rows;
  bool detection_failed = false;
  std::printf(
      "\n%8s %10s %10s %12s %12s %9s %12s %10s %8s\n", "monitors", "mode",
      "checks", "per-chk-us", "disp/1kchk", "avg-batch", "coalesced",
      "faults", "missed");
  for (const std::size_t monitors : monitor_sweep) {
    for (const Shape& shape : shapes) {
      wl::MultiLoadOptions options;
      options.monitors = monitors;
      options.threads_per_monitor =
          static_cast<int>(flags.i64("threads-per-monitor"));
      options.ops_per_thread = flags.i64("ops-per-thread");
      options.faulty_monitors = std::max<std::size_t>(
          1, static_cast<std::size_t>(static_cast<double>(monitors) *
                                      flags.f64("faulty-fraction")));
      options.pool_threads =
          static_cast<std::size_t>(flags.i64("pool-threads"));
      options.check_period = flags.i64("check-period-ms") * util::kMillisecond;
      options.max_stretch = shape.max_stretch;
      if (shape.lockorder) {
        options.lockorder_checkpoint_period =
            flags.i64("predict-period-ms") * util::kMillisecond;
      }

      PoolRow row;
      row.monitors = monitors;
      row.mode = shape.name;
      row.result = wl::run_multi_load(options);
      row.per_check_ns = row.result.avg_check_us * 1000.0;
      pool_rows.push_back(row);

      std::printf("%8zu %10s %10llu %12.2f %12.1f %9.1f %12llu %7zu/%zu %8zu\n",
                  monitors, shape.name,
                  static_cast<unsigned long long>(row.result.checks_run),
                  row.result.avg_check_us,
                  row.result.dispatches_per_1k_checks, row.result.avg_batch,
                  static_cast<unsigned long long>(row.result.checks_coalesced),
                  row.result.faulty_detected, row.result.faults_expected,
                  row.result.missed_detections);
      if (row.result.missed_detections > 0 ||
          row.result.false_positive_monitors > 0 ||
          row.result.potential_deadlocks > 0) {
        std::printf(
            "  ^ FAILED: %zu missed, %zu false-positive monitors, "
            "%zu spurious potential-deadlock warnings\n",
            row.result.missed_detections,
            row.result.false_positive_monitors,
            row.result.potential_deadlocks);
        detection_failed = true;
      }
    }
  }

  // --- Recovery latency: deadlock-closed (or prediction-ready) to first
  // recovery action, per remedy, on a deterministically deadlocking ring.
  struct RecoveryRow {
    const char* mode;
    wl::DiningLoadResult result;
    bool ok = false;
  };
  const std::pair<const char*, wl::DiningRecovery> remedies[] = {
      {"poison", wl::DiningRecovery::kPoisonVictim},
      {"fault", wl::DiningRecovery::kDeliverFault},
      {"order", wl::DiningRecovery::kImposeOrder},
  };
  std::vector<RecoveryRow> recovery_rows;
  bool recovery_failed = false;
  std::printf("\n%8s %12s %9s %10s %10s\n", "recovery", "latency-ms",
              "actions", "completed", "unpoison");
  for (const auto& [name, remedy] : remedies) {
    wl::DiningLoadOptions options;
    options.rings = 1;
    options.philosophers = 4;
    options.deadlock_rings = 1;
    options.recovery = remedy;
    options.run_timeout = 20 * util::kSecond;
    RecoveryRow row{name, wl::run_dining_load(options), false};
    row.ok = row.result.recovered_rings_completed &&
             row.result.recovery_actions == 1 &&
             row.result.false_positive_rings == 0 &&
             row.result.missed_detections == 0;
    std::printf("%8s %12.2f %9llu %10s %10llu%s\n", row.mode,
                static_cast<double>(row.result.recovery_latency_ns) / 1e6,
                static_cast<unsigned long long>(row.result.recovery_actions),
                row.result.recovered_rings_completed ? "yes" : "NO",
                static_cast<unsigned long long>(
                    row.result.monitors_unpoisoned),
                row.ok ? "" : "  ^ FAILED");
    if (!row.ok) recovery_failed = true;
    recovery_rows.push_back(std::move(row));
  }

  // --- Budget spike: global detection budget under a 10× load spike. ---------
  std::vector<std::size_t> budget_phases;
  if (!parse_size_list(flags.str("budget-phases-ms"), &budget_phases) ||
      budget_phases.size() != 3) {
    std::fprintf(stderr,
                 "--budget-phases-ms must be baseline,spike,post (ms)\n");
    return 1;
  }
  wl::BudgetSpikeOptions budget_options;
  budget_options.baseline_ns =
      static_cast<util::TimeNs>(budget_phases[0]) * util::kMillisecond;
  budget_options.spike_ns =
      static_cast<util::TimeNs>(budget_phases[1]) * util::kMillisecond;
  budget_options.post_ns =
      static_cast<util::TimeNs>(budget_phases[2]) * util::kMillisecond;
  const wl::BudgetSpikeResult budget = wl::run_budget_spike(budget_options);

  // The spike-phase contract: an uncontrolled spike that overruns 1.5× the
  // budget, measured detection spend within 1.5× of it while degraded,
  // prediction shed before any detection widening (±1 ladder steps only),
  // confirmed-cycle detection alive throughout, and a symmetric descent to
  // nominal once load subsides.
  const double spike_limit = 1.5 * budget.budget_fraction;
  std::size_t budget_failures = 0;
  const auto budget_gate = [&](bool ok, const char* what) {
    if (!ok) {
      std::printf("  ^ budget FAILED: %s\n", what);
      ++budget_failures;
    }
  };
  std::printf("\nuncontrolled (calibration): baseline %.3f%%, spike %.3f%%\n",
              budget.uncontrolled_baseline_spend * 100.0,
              budget.uncontrolled_spike_spend * 100.0);
  std::printf("%8s %10s %10s %10s %6s %6s %7s %7s\n", "budget", "baseline",
              "spike", "post", "max", "final", "trans", "sheds");
  std::printf("%7.3f%% %9.3f%% %9.3f%% %9.3f%% %6d %6d %7llu %7llu\n",
              budget.budget_fraction * 100.0, budget.baseline_spend * 100.0,
              budget.spike_spend * 100.0, budget.post_spend * 100.0,
              budget.max_level, budget.final_level,
              static_cast<unsigned long long>(budget.transitions),
              static_cast<unsigned long long>(budget.prediction_sheds));
  budget_gate(budget.uncontrolled_spike_spend > spike_limit,
              "uncontrolled spike spend does not exceed 1.5x the budget, "
              "so the spend limit holds without the controller");
  budget_gate(budget.spike_spend <= spike_limit,
              "spike-phase spend exceeds 1.5x the configured budget");
  budget_gate(budget.max_level >=
                  static_cast<int>(rt::BudgetLevel::kShedPrediction),
              "spike never drove the ladder to the prediction shed");
  budget_gate(budget.shed_order_ok,
              "transition log violates the fixed shed/recovery order");
  budget_gate(budget.recovered,
              "controller did not return to nominal after the spike");
  budget_gate(budget.waitfor_passes_during_spike > 0,
              "wait-for detection stalled during the spike");
  budget_gate(budget.missed_detections == 0,
              "injected fault missed under budget degradation");
  budget_gate(budget.false_positive_monitors == 0,
              "clean monitor reported a fault");
  budget_gate(budget.events_lost == 0, "events lost during the spike");

  // --- Machine-readable artifact. --------------------------------------------
  std::size_t missed_total = 0, false_positive_total = 0;
  std::size_t potential_total = 0;
  std::uint64_t pool_events_lost = 0;
  // The regression-gate summary only considers warm rows (enough checks to
  // amortize cold caches); a one-check M=1 row is a cold-start sample that
  // would inflate the baseline and de-fang the CI gate.
  constexpr std::uint64_t kWarmChecks = 16;
  double max_per_check_ns = 0.0, max_cold_per_check_ns = 0.0;
  for (const PoolRow& row : pool_rows) {
    missed_total += row.result.missed_detections;
    false_positive_total += row.result.false_positive_monitors;
    potential_total += row.result.potential_deadlocks;
    pool_events_lost += row.result.events_lost;
    if (row.result.checks_run >= kWarmChecks) {
      max_per_check_ns = std::max(max_per_check_ns, row.per_check_ns);
    } else {
      max_cold_per_check_ns =
          std::max(max_cold_per_check_ns, row.per_check_ns);
    }
  }
  if (max_per_check_ns == 0.0) max_per_check_ns = max_cold_per_check_ns;

  const std::string out_path = flags.str("out");
  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "check_overhead: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"schema\": \"robmon-check-overhead-v3\",\n");
  std::fprintf(out, "  \"hardware_concurrency\": %u,\n", hardware);
  std::fprintf(out, "  \"appender\": [\n");
  for (std::size_t i = 0; i < appender_rows.size(); ++i) {
    const AppenderRow& row = appender_rows[i];
    std::fprintf(out,
                 "    {\"impl\": \"serialized\", \"threads\": %zu, "
                 "\"capacity\": %zu, "
                 "\"events\": %llu, \"events_per_sec\": %.0f, "
                 "\"events_lost\": %llu, \"contended\": %s, "
                 "\"expect_loss\": %s}%s\n",
                 row.threads, row.capacity,
                 static_cast<unsigned long long>(row.events),
                 row.events_per_sec,
                 static_cast<unsigned long long>(row.events_lost),
                 row.contended ? "true" : "false",
                 row.expect_loss ? "true" : "false",
                 i + 1 < appender_rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"pool\": [\n");
  for (std::size_t i = 0; i < pool_rows.size(); ++i) {
    const PoolRow& row = pool_rows[i];
    const wl::MultiLoadResult& r = row.result;
    std::fprintf(
        out,
        "    {\"monitors\": %zu, \"mode\": \"%s\", \"checks\": %llu, "
        "\"per_check_ns\": %.0f, \"quiesce_us\": %.2f, "
        "\"dispatches\": %llu, \"dispatches_per_1k_checks\": %.1f, "
        "\"avg_batch\": %.2f, \"checks_coalesced\": %llu, "
        "\"idle_checks\": %llu, \"events_lost\": %llu, "
        "\"ops_per_sec\": %.0f, "
        "\"faults_expected\": %zu, \"faults_detected\": %zu, "
        "\"missed_detections\": %zu, \"false_positive_monitors\": %zu, "
        "\"lockorder_checkpoints\": %llu, "
        "\"potential_deadlocks\": %zu}%s\n",
        row.monitors, row.mode.c_str(),
        static_cast<unsigned long long>(r.checks_run), row.per_check_ns,
        r.avg_quiesce_us, static_cast<unsigned long long>(r.dispatches),
        r.dispatches_per_1k_checks, r.avg_batch,
        static_cast<unsigned long long>(r.checks_coalesced),
        static_cast<unsigned long long>(r.idle_checks),
        static_cast<unsigned long long>(r.events_lost), r.ops_per_second,
        r.faults_expected, r.faulty_detected, r.missed_detections,
        r.false_positive_monitors,
        static_cast<unsigned long long>(r.lockorder_checkpoints),
        r.potential_deadlocks, i + 1 < pool_rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"recovery\": [\n");
  for (std::size_t i = 0; i < recovery_rows.size(); ++i) {
    const RecoveryRow& row = recovery_rows[i];
    std::fprintf(out,
                 "    {\"mode\": \"%s\", \"latency_ms\": %.2f, "
                 "\"actions\": %llu, \"completed\": %s}%s\n",
                 row.mode,
                 static_cast<double>(row.result.recovery_latency_ns) / 1e6,
                 static_cast<unsigned long long>(row.result.recovery_actions),
                 row.result.recovered_rings_completed ? "true" : "false",
                 i + 1 < recovery_rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"budget\": {\n");
  std::fprintf(out, "    \"fraction\": %.6f,\n", budget.budget_fraction);
  std::fprintf(out, "    \"uncontrolled_baseline_spend\": %.6f,\n",
               budget.uncontrolled_baseline_spend);
  std::fprintf(out, "    \"uncontrolled_spike_spend\": %.6f,\n",
               budget.uncontrolled_spike_spend);
  std::fprintf(out, "    \"baseline_spend\": %.6f,\n", budget.baseline_spend);
  std::fprintf(out, "    \"spike_spend\": %.6f,\n", budget.spike_spend);
  std::fprintf(out, "    \"post_spend\": %.6f,\n", budget.post_spend);
  std::fprintf(out, "    \"spike_limit\": %.6f,\n", spike_limit);
  std::fprintf(out, "    \"max_level\": %d,\n", budget.max_level);
  std::fprintf(out, "    \"final_level\": %d,\n", budget.final_level);
  std::fprintf(out, "    \"transitions\": %llu,\n",
               static_cast<unsigned long long>(budget.transitions));
  std::fprintf(out, "    \"prediction_sheds\": %llu,\n",
               static_cast<unsigned long long>(budget.prediction_sheds));
  std::fprintf(out, "    \"shed_order_ok\": %s,\n",
               budget.shed_order_ok ? "true" : "false");
  std::fprintf(out, "    \"recovered\": %s,\n",
               budget.recovered ? "true" : "false");
  std::fprintf(out, "    \"waitfor_passes_during_spike\": %llu,\n",
               static_cast<unsigned long long>(
                   budget.waitfor_passes_during_spike));
  std::fprintf(out, "    \"missed_detections\": %zu,\n",
               budget.missed_detections);
  std::fprintf(out, "    \"false_positive_monitors\": %zu,\n",
               budget.false_positive_monitors);
  std::fprintf(out, "    \"events_lost\": %llu\n",
               static_cast<unsigned long long>(budget.events_lost));
  std::fprintf(out, "  },\n");
  std::fprintf(out, "  \"summary\": {\n");
  std::fprintf(out, "    \"missed_detections\": %zu,\n", missed_total);
  std::fprintf(out, "    \"false_positive_monitors\": %zu,\n",
               false_positive_total);
  std::fprintf(out, "    \"potential_deadlocks\": %zu,\n", potential_total);
  std::fprintf(out, "    \"pool_events_lost\": %llu,\n",
               static_cast<unsigned long long>(pool_events_lost));
  std::fprintf(out, "    \"appender_failures\": %zu,\n",
               static_cast<std::size_t>(appender_failed ? 1 : 0));
  std::fprintf(out, "    \"recovery_failures\": %zu,\n",
               static_cast<std::size_t>(recovery_failed ? 1 : 0));
  std::fprintf(out, "    \"budget_failures\": %zu,\n", budget_failures);
  std::fprintf(out, "    \"max_per_check_ns\": %.0f\n", max_per_check_ns);
  std::fprintf(out, "  }\n");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("\ncheck_overhead: wrote %s\n", out_path.c_str());

  if (appender_failed) {
    std::printf("check_overhead: appender loss-contract FAILURES above\n");
    return 1;
  }
  if (detection_failed) {
    std::printf("check_overhead: detection FAILURES above\n");
    return 1;
  }
  if (pool_events_lost > 0) {
    std::printf("check_overhead: FAILED: %llu events lost across pool rows "
                "(drain cadence must keep up; expected 0)\n",
                static_cast<unsigned long long>(pool_events_lost));
    return 1;
  }
  if (recovery_failed) {
    std::printf("check_overhead: recovery contract FAILURES above\n");
    return 1;
  }
  if (budget_failures > 0) {
    std::printf("check_overhead: %zu budget contract FAILURES above\n",
                budget_failures);
    return 1;
  }
  std::printf("check_overhead: zero missed detections, zero events lost\n");
  return 0;
}
