// Dining philosophers: run-time deadlock detection in action.
//
// Each fork is a one-unit resource-allocator monitor registered with one
// shared CheckerPool.  The symmetric grab order deadlocks; the pool-level
// wait-for checkpoint assembles the cross-monitor graph and reports a
// structural GlobalDeadlock fault naming the exact thread/monitor cycle —
// something the paper's per-monitor Algorithms 1-3 cannot see (they only
// flag the same run indirectly, through the ST-5/6/8c timeout rules).
// The asymmetric variant is the deadlock-free control and must stay silent.
//
// With --recovery the detection becomes an intervention: a deterministic
// hold-and-wait ring is injected and the pool's RecoveryPolicy must get it
// to COMPLETE — poison (victim monitor poisoned, waiters evicted with
// RecoveryFault, until the hold the victim waited behind ends), fault
// (designated RecoveryFault to the victim alone), or order (predicted cycle
// pre-empted by imposing the dominant acquisition order, so it never
// closes).  The exit contract: liveness, exactly one recovery action, zero
// reports against the clean control ring.
//
//   ./dining_philosophers                    # symmetric: cycle detected
//   ./dining_philosophers --symmetric=false  # asymmetric control: clean
//   ./dining_philosophers --recovery=poison  # break the deadlock, complete
#include <cstdio>
#include <string>

#include "robmon.hpp"

using namespace robmon;

namespace {

int run_recovery(const std::string& mode, int philosophers,
                 util::TimeNs timeout) {
  wl::DiningLoadOptions options;
  options.rings = 2;  // ring 0 deadlocks; ring 1 is the clean control
  options.philosophers = philosophers;
  options.deadlock_rings = 1;
  options.rounds = 5;
  options.run_timeout = timeout;
  if (mode == "poison") {
    options.recovery = wl::DiningRecovery::kPoisonVictim;
  } else if (mode == "fault") {
    options.recovery = wl::DiningRecovery::kDeliverFault;
  } else if (mode == "order") {
    options.recovery = wl::DiningRecovery::kImposeOrder;
  } else {
    std::fprintf(stderr, "unknown --recovery mode '%s' "
                         "(off | poison | fault | order)\n",
                 mode.c_str());
    return 2;
  }

  std::printf("%d philosophers, injected deadlock ring + clean control, "
              "recovery=%s...\n",
              philosophers, mode.c_str());
  const wl::DiningLoadResult result = wl::run_dining_load(options);

  std::printf("deadlocked ring completed: %s\n",
              result.recovered_rings_completed ? "yes" : "NO");
  std::printf("clean ring completed:      %s\n",
              result.clean_rings_completed ? "yes" : "NO");
  std::printf("recovery actions:          %llu (poisoned %llu, faults %llu, "
              "orders %llu, unpoisoned %llu)\n",
              static_cast<unsigned long long>(result.recovery_actions),
              static_cast<unsigned long long>(result.victims_poisoned),
              static_cast<unsigned long long>(result.faults_delivered),
              static_cast<unsigned long long>(result.orders_imposed),
              static_cast<unsigned long long>(result.monitors_unpoisoned));
  if (result.recovery_latency_ns > 0) {
    std::printf("recovery latency:          %.2f ms\n",
                static_cast<double>(result.recovery_latency_ns) / 1e6);
  }
  for (const auto& record : result.recovery_log) {
    std::printf("  rcov %c %s\n", record.action, record.detail.c_str());
  }

  const bool ok = result.recovered_rings_completed &&
                  result.clean_rings_completed &&
                  result.recovery_actions == 1 &&
                  result.false_positive_rings == 0 &&
                  result.missed_detections == 0;
  std::printf("%s\n", ok ? "OK: deadlock broken, everything completed"
                         : "FAIL: recovery contract violated");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.define("philosophers", "5", "number of philosophers/forks");
  flags.define("rounds", "200", "eat/think rounds per philosopher");
  flags.define("symmetric", "true",
               "true = everyone grabs left first (deadlock-prone)");
  flags.define("recovery", "off",
               "off | poison | fault | order — act on the detection instead "
               "of only reporting it (runs the multi-ring workload)");
  flags.define("timeout-ms", "2000", "wall-clock budget before giving up");
  flags.define("timer-ms", "80",
               "Tlimit/Tmax base in ms; raise under sanitizers so slowdown "
               "cannot trip timeout rules in the clean control");
  if (!flags.parse(argc, argv)) return 2;

  if (flags.str("recovery") != "off") {
    return run_recovery(flags.str("recovery"),
                        static_cast<int>(flags.i64("philosophers")),
                        // recovery needs headroom beyond the default 2 s
                        10 * flags.i64("timeout-ms") * util::kMillisecond);
  }

  wl::DiningOptions options;
  options.philosophers = static_cast<int>(flags.i64("philosophers"));
  options.rounds = static_cast<int>(flags.i64("rounds"));
  options.symmetric_order = flags.boolean("symmetric");
  options.grab_gap_ns = options.symmetric_order ? 2 * util::kMillisecond : 0;
  const util::TimeNs timer = flags.i64("timer-ms") * util::kMillisecond;
  options.t_limit = timer;
  options.t_max = timer;
  options.t_io = 2 * timer;
  options.check_period = 20 * util::kMillisecond;
  options.checkpoint_period = 10 * util::kMillisecond;
  options.run_timeout = flags.i64("timeout-ms") * util::kMillisecond;

  std::printf("%d philosophers, %s grab order...\n", options.philosophers,
              options.symmetric_order ? "symmetric" : "asymmetric");
  const wl::DiningResult result = wl::run_dining(options);

  std::printf("completed:          %s\n", result.completed ? "yes" : "no");
  std::printf("global deadlock:    %s\n",
              result.global_deadlock_reported ? "yes (structural)" : "no");
  for (const auto& cycle : result.cycles) {
    std::printf("  %s\n", cycle.c_str());
  }
  std::printf("timeout verdicts:   %s\n",
              result.deadlock_reported ? "yes" : "no");
  std::printf("fault reports:      %zu\n", result.fault_reports);
  std::size_t shown = 0;
  for (const auto& report : result.reports) {
    if (report.rule == core::RuleId::kWfCycleDetected) continue;
    if (++shown > 8) {
      std::printf("  ... (more)\n");
      break;
    }
    std::printf("  [%s] pid=p%d: %s\n",
                std::string(core::to_string(report.rule)).c_str(), report.pid,
                report.message.c_str());
  }

  // Exit status doubles as the CI smoke contract: the symmetric run must
  // detect the cycle structurally; the asymmetric control must complete
  // with zero reports of any kind (no false positives).
  const bool expected = options.symmetric_order
                            ? result.global_deadlock_reported
                            : result.completed && result.fault_reports == 0;
  return expected ? 0 : 1;
}
