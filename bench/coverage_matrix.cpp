// Robustness evaluation (Section 4): "Faults of different kinds as
// classified in Section 3.2 are injected randomly for evaluating the
// coverage of the fault detection algorithms.  The results show that all
// injected faults are detected."
//
// Prints a 21-row matrix: one taxonomy class per row, detection rate over
// seeded trials, the checking period at which detection landed, and the
// rules that fired.  The expected bottom line, as in the paper, is 21/21
// classes detected on every exercised trial; the exit status is non-zero
// otherwise.
//
// A second table is the checking-interval trade-off of Section 3.3 ("When
// T = 1, the checking becomes real-time"): detection latency, in virtual
// milliseconds, of a representative non-timer fault under decreasing T.
// (bench/ablation_interval measures the throughput side of the trade-off
// under real threads.)
//
// Every trial runs the real RobustMonitor under the seeded SimScheduler
// (this bench links robmon_sim): virtual time, deterministic per seed.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "inject/catalog.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "workloads/sim_scenarios.hpp"

using namespace robmon;

int main(int argc, char** argv) {
  util::Flags flags;
  flags.define("trials", "5", "seeded trials per fault class and per T");
  if (!flags.parse(argc, argv)) return 2;
  const auto trials = static_cast<std::uint64_t>(flags.i64("trials"));

  std::printf("Fault-injection coverage matrix (%llu seeded trials per "
              "class, SimScheduler)\n\n",
              static_cast<unsigned long long>(trials));
  std::printf("%-7s %-42s %-9s %-10s %s\n", "class", "fault", "detected",
              "at check", "rules observed");

  std::size_t detected_classes = 0;
  std::size_t exercised_classes = 0;
  for (const core::FaultKind kind : core::all_fault_kinds()) {
    std::size_t injected = 0;
    std::size_t detected = 0;
    util::RunningStats latency;
    std::map<core::RuleId, int> rules_seen;
    const auto& entry = inject::catalog_entry(kind);
    for (std::uint64_t seed = 1; seed <= trials; ++seed) {
      const wl::CoverageOutcome outcome = wl::run_coverage_trial(kind, seed);
      if (!outcome.injected) continue;
      ++injected;
      if (outcome.detected) {
        ++detected;
        latency.add(static_cast<double>(outcome.detection_check));
        for (const auto& report : outcome.reports) {
          if (std::find(entry.detecting_rules.begin(),
                        entry.detecting_rules.end(),
                        report.rule) != entry.detecting_rules.end()) {
            rules_seen[report.rule]++;
          }
        }
      }
    }
    if (injected > 0) {
      ++exercised_classes;
      if (detected == injected) ++detected_classes;
    }

    std::string rules;
    int listed = 0;
    for (const auto& [rule, count] : rules_seen) {
      if (listed++ == 3) {
        rules += ", ...";
        break;
      }
      if (!rules.empty()) rules += ", ";
      const std::string name(core::to_string(rule));
      rules += name.substr(0, name.find(' '));
    }
    std::printf("%-7s %-42s %zu/%zu%s     ~%.1f      %s\n",
                std::string(core::paper_designation(kind)).c_str(),
                std::string(core::to_string(kind)).c_str(), detected,
                injected, detected == injected ? " " : "!",
                latency.count() ? latency.mean() : 0.0, rules.c_str());
  }

  std::printf("\nclasses fully detected: %zu / %zu exercised "
              "(paper: all injected faults are detected)\n",
              detected_classes, exercised_classes);

  std::printf("\nDetection latency vs checking interval "
              "(fault II.a send-delay-wrong, %llu seeds, virtual time)\n\n",
              static_cast<unsigned long long>(trials));
  std::printf("%-14s %-18s %-14s\n", "T (virtual)", "mean latency",
              "checks to detect");
  const std::vector<util::TimeNs> intervals = {
      2 * util::kMillisecond, 5 * util::kMillisecond,
      15 * util::kMillisecond, 30 * util::kMillisecond,
      60 * util::kMillisecond};
  for (const util::TimeNs interval : intervals) {
    util::RunningStats latency_ms;
    util::RunningStats checks;
    for (std::uint64_t seed = 1; seed <= trials; ++seed) {
      wl::CoverageConfig config;
      config.check_period = interval;
      // The small-T arms deliberately break the paper's T > Tmax constraint
      // and enter the near-real-time regime.
      const wl::CoverageOutcome outcome = wl::run_coverage_trial(
          core::FaultKind::kSendDelayWrong, seed, config);
      if (outcome.injected && outcome.detected) {
        latency_ms.add(static_cast<double>(outcome.detection_check) *
                       static_cast<double>(interval) / 1e6);
        checks.add(static_cast<double>(outcome.detection_check));
      }
    }
    std::printf("%10.0f ms  %12.1f ms  %10.1f\n",
                static_cast<double>(interval) / 1e6, latency_ms.mean(),
                checks.mean());
  }
  return detected_classes == exercised_classes ? 0 : 1;
}
