// Detection soak — the nightly CI gauntlet.  Loops three scenario families
// until the wall-clock budget runs out, each with a hard scorecard:
//
//   multi     wl::run_multi_load with injected per-monitor faults and the
//             lock-order prediction checkpoint on: a missed detection, a
//             clean monitor with a report, or any kPotentialDeadlock
//             (no client spans monitors) fails.
//   dining    wl::run_dining_load, injected hold-and-wait rings: a missed
//             structural GlobalDeadlock or a cycle naming a clean ring
//             fails.
//   gate      wl::run_gate_crossing both ways: the rotated order must be
//             warned about (kPotentialDeadlock >= 1, kGlobalDeadlock == 0),
//             the consistent control must stay silent.
//   recovery  (--recovery=true, the nightly matrix's recovery mode)
//             wl::run_dining_load with a deterministically deadlocking ring
//             under each remedy — poison-victim, deliver-fault,
//             impose-order — plus the consistent-order gate-crossing
//             control with recovery attached: every deadlocked ring must
//             COMPLETE with exactly one recovery action, the control must
//             draw zero actions, and clean rings must never be touched.
//   budget    (--budget=true, the nightly matrix's budget mode)
//             wl::run_budget_spike: a calm baseline, a 10× load spike, and
//             a subsided post-phase under the pool's overhead budget.  Any
//             shed-order violation (prediction must be shed before
//             detection periods widen; confirmed-cycle detection is never
//             shed — wait-for passes must continue through the spike),
//             post-spike non-recovery, missed injected-fault detection at
//             any degradation level, or report against a clean monitor
//             fails.  Spend magnitudes are NOT gated here — TSan skews
//             them — only the controller's ordering and liveness contract.
//
// Exits non-zero on any scorecard failure, so the nightly job needs no
// output parsing; under TSan, a data race aborts the binary (halt_on_error)
// and fails the job the same way.  Writes a machine-readable summary to
// --out for the artifact upload.
#include <chrono>
#include <cstdio>
#include <string>

#include "util/flags.hpp"
#include "workloads/dining.hpp"
#include "workloads/gate_crossing.hpp"
#include "workloads/loadgen.hpp"

using namespace robmon;

namespace {

struct Scorecard {
  std::uint64_t iterations = 0;
  std::uint64_t missed = 0;           // expected detections that never came
  std::uint64_t false_positives = 0;  // reports against clean subjects
  std::uint64_t operations = 0;

  bool clean() const { return missed == 0 && false_positives == 0; }
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.define("seconds", "60", "wall-clock soak budget");
  flags.define("monitors", "12", "monitors per multi-load iteration");
  flags.define("ops-per-thread", "120", "multi-load calls per client");
  flags.define("rings", "2", "dining rings per iteration");
  flags.define("recovery", "false",
               "also soak the recovery engine (poison / fault / order "
               "remedies + zero-action control)");
  flags.define("budget", "false",
               "also soak the overhead-budget controller (spike scenario: "
               "shed order, post-spike recovery, detection liveness)");
  flags.define("out", "soak_report.json", "machine-readable summary");
  if (!flags.parse(argc, argv)) return 1;

  const double budget = static_cast<double>(flags.i64("seconds"));
  const bool soak_recovery = flags.boolean("recovery");
  const bool soak_budget = flags.boolean("budget");
  const auto started = std::chrono::steady_clock::now();
  Scorecard multi, dining, gate, recovery, spike;

  // Every family runs at least once, budget notwithstanding: a "soak" that
  // can pass while skipping a scenario gates nothing.
  while (multi.iterations == 0 || seconds_since(started) < budget) {
    // --- multi-monitor load with injected faults + prediction on. ----------
    {
      wl::MultiLoadOptions options;
      options.monitors = static_cast<std::size_t>(flags.i64("monitors"));
      options.ops_per_thread = flags.i64("ops-per-thread");
      options.faulty_monitors = std::max<std::size_t>(1, options.monitors / 8);
      options.lockorder_checkpoint_period = 5 * util::kMillisecond;
      const wl::MultiLoadResult result = wl::run_multi_load(options);
      ++multi.iterations;
      multi.missed += result.missed_detections;
      multi.false_positives +=
          result.false_positive_monitors + result.potential_deadlocks;
      multi.operations += result.operations;
    }
    if (seconds_since(started) >= budget && dining.iterations > 0) break;

    // --- dining rings with injected hold-and-wait cycles. ------------------
    {
      wl::DiningLoadOptions options;
      options.rings = static_cast<std::size_t>(flags.i64("rings"));
      options.philosophers = 4;
      options.deadlock_rings = 1;
      options.rounds = 10;
      const wl::DiningLoadResult result = wl::run_dining_load(options);
      ++dining.iterations;
      dining.missed += result.missed_detections;
      dining.false_positives += result.false_positive_rings;
      if (!result.clean_rings_completed) ++dining.missed;
    }
    if (seconds_since(started) >= budget && gate.iterations > 0) break;

    // --- gate crossing: rotated must warn, consistent must not. ------------
    {
      wl::GateCrossingOptions options;
      const wl::GateCrossingResult rotated = wl::run_gate_crossing(options);
      options.consistent_order = true;
      const wl::GateCrossingResult control = wl::run_gate_crossing(options);
      ++gate.iterations;
      if (!rotated.completed || rotated.potential_deadlocks == 0) {
        ++gate.missed;
      }
      // Both runs are fault-free by construction: any report beyond the
      // expected prediction warnings (a global-deadlock verdict, a
      // per-monitor ST verdict on a clean lane, or any warning at all in
      // the consistent control) is a false positive.
      const auto unexpected = [](const wl::GateCrossingResult& r,
                                 bool warnings_expected) {
        std::size_t n = r.fault_reports - r.potential_deadlocks;
        if (!warnings_expected) n += r.potential_deadlocks;
        return n;
      };
      gate.false_positives += unexpected(rotated, true) +
                              unexpected(control, false) +
                              (control.completed ? 0 : 1);
    }

    // --- recovery: every remedy must break (or pre-empt) the deadlock. -----
    if (soak_recovery) {
      for (const wl::DiningRecovery remedy :
           {wl::DiningRecovery::kPoisonVictim,
            wl::DiningRecovery::kDeliverFault,
            wl::DiningRecovery::kImposeOrder}) {
        wl::DiningLoadOptions options;
        options.rings = static_cast<std::size_t>(flags.i64("rings"));
        options.philosophers = 4;
        options.deadlock_rings = 1;
        options.rounds = 10;
        options.recovery = remedy;
        options.run_timeout = 20 * util::kSecond;
        const wl::DiningLoadResult result = wl::run_dining_load(options);
        ++recovery.iterations;
        if (!result.recovered_rings_completed) ++recovery.missed;
        if (!result.clean_rings_completed) ++recovery.missed;
        recovery.missed += result.missed_detections;
        // More than one action per cycle is an over-reaction; any report
        // against a clean ring is a false positive — and so is ANY report
        // outside {WF verdict, LO warning, RC action}: a recovery
        // intervention must never surface as a per-monitor ST or
        // call-order violation.
        if (result.recovery_actions > 1) ++recovery.false_positives;
        recovery.false_positives += result.false_positive_rings;
        for (const auto& report : result.reports) {
          if (report.rule != core::RuleId::kWfCycleDetected &&
              report.rule != core::RuleId::kLockOrderCycle &&
              report.rule != core::RuleId::kRecoveryAction) {
            ++recovery.false_positives;
          }
        }
      }
      // Zero-action control: consistent order with recovery attached.
      wl::GateCrossingOptions options;
      options.consistent_order = true;
      options.recovery = true;
      const wl::GateCrossingResult control = wl::run_gate_crossing(options);
      ++recovery.iterations;
      if (!control.completed) ++recovery.missed;
      recovery.false_positives +=
          static_cast<std::uint64_t>(control.recovery_actions) +
          control.potential_deadlocks;
    }

    // --- budget: degrade in shed order under a 10× spike, then recover. ----
    if (soak_budget) {
      // The scenario derives its budget from an uncontrolled calibration
      // pass, so it follows TSan's inflated cost level on its own.
      const wl::BudgetSpikeResult result =
          wl::run_budget_spike(wl::BudgetSpikeOptions{});
      ++spike.iterations;
      // "Missed" here covers the whole controller contract, not just fault
      // detections: a shed-order violation, a controller stuck degraded
      // after load subsides, or a spike window with zero wait-for passes is
      // expected behaviour that never came.
      spike.missed += result.missed_detections;
      if (!result.shed_order_ok) ++spike.missed;
      if (!result.recovered) ++spike.missed;
      if (result.waitfor_passes_during_spike == 0) ++spike.missed;
      spike.false_positives += result.false_positive_monitors;
      spike.operations += result.operations;
    }

    std::printf(
        "soak %6.1fs: multi x%llu dining x%llu gate x%llu recovery x%llu "
        "budget x%llu — missed %llu, false positives %llu\n",
        seconds_since(started),
        static_cast<unsigned long long>(multi.iterations),
        static_cast<unsigned long long>(dining.iterations),
        static_cast<unsigned long long>(gate.iterations),
        static_cast<unsigned long long>(recovery.iterations),
        static_cast<unsigned long long>(spike.iterations),
        static_cast<unsigned long long>(multi.missed + dining.missed +
                                        gate.missed + recovery.missed +
                                        spike.missed),
        static_cast<unsigned long long>(multi.false_positives +
                                        dining.false_positives +
                                        gate.false_positives +
                                        recovery.false_positives +
                                        spike.false_positives));
    std::fflush(stdout);
  }

  const bool passed = multi.clean() && dining.clean() && gate.clean() &&
                      recovery.clean() && spike.clean();
  const std::string out_path = flags.str("out");
  if (std::FILE* out = std::fopen(out_path.c_str(), "w")) {
    std::fprintf(out, "{\n  \"schema\": \"robmon-soak-v2\",\n");
    std::fprintf(out, "  \"seconds\": %.1f,\n", seconds_since(started));
    const auto emit = [out](const char* name, const Scorecard& card,
                            const char* trailing) {
      std::fprintf(out,
                   "  \"%s\": {\"iterations\": %llu, \"missed\": %llu, "
                   "\"false_positives\": %llu}%s\n",
                   name, static_cast<unsigned long long>(card.iterations),
                   static_cast<unsigned long long>(card.missed),
                   static_cast<unsigned long long>(card.false_positives),
                   trailing);
    };
    emit("multi", multi, ",");
    emit("dining", dining, ",");
    emit("gate", gate, ",");
    emit("recovery", recovery, ",");
    emit("budget", spike, ",");
    std::fprintf(out, "  \"passed\": %s\n}\n", passed ? "true" : "false");
    std::fclose(out);
  }

  if (!passed) {
    std::printf("soak: FAILED (missed detections or false positives above)\n");
    return 1;
  }
  std::printf("soak: all scenario families clean\n");
  return 0;
}
