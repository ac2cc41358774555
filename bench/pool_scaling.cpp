// CheckerPool scaling sweep: M monitors under concurrent client traffic on
// one shared deadline-scheduled CheckerPool (K ≤ hardware concurrency
// workers).
//
// For each M in --monitors the bench runs the same injected-fault workload
// (a subset of monitors gets one deterministic fault) and reports client
// throughput, checking throughput, the capture window per check, and
// the number of detection threads provisioned — K, however large M grows.
// The run fails (non-zero exit) if any injected fault goes undetected or a
// clean monitor reports one.  docs/bench-history.md keeps the last numbers
// of the retired one-thread-per-monitor mode.
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/flags.hpp"
#include "workloads/loadgen.hpp"

using namespace robmon;

namespace {

/// Parses "1,8,64"; returns false on any token that is not a positive
/// integer.
bool parse_monitor_list(const std::string& csv, std::vector<std::size_t>* out) {
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
  if (!flags.parse(argc, argv)) return 1;

  std::vector<std::size_t> sweep;
  if (!parse_monitor_list(flags.str("monitors"), &sweep)) {
    std::fprintf(stderr,
                 "--monitors must be a comma-separated list of positive "
                 "integers, got '%s'\n",
                 flags.str("monitors").c_str());
    return 1;
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  std::printf("pool_scaling: hardware concurrency = %u\n", hardware);
  std::printf("%8s %9s %12s %10s %12s %12s %10s\n", "monitors", "chk-thrd",
              "client-ops/s", "checks/s", "quiesce-us", "faults", "missed");

  bool detection_failed = false;
  for (const std::size_t monitors : sweep) {
    wl::MultiLoadOptions options;
    options.monitors = monitors;
    options.threads_per_monitor =
        static_cast<int>(flags.i64("threads-per-monitor"));
    options.ops_per_thread = flags.i64("ops-per-thread");
    options.faulty_monitors = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               static_cast<double>(monitors) * flags.f64("faulty-fraction")));
    options.pool_threads = static_cast<std::size_t>(flags.i64("pool-threads"));
    options.check_period = flags.i64("check-period-ms") * util::kMillisecond;

    const wl::MultiLoadResult result = wl::run_multi_load(options);
    std::printf("%8zu %9zu %12.0f %10.0f %12.2f %7zu/%zu %10zu\n", monitors,
                result.checker_threads, result.ops_per_second,
                result.checks_per_second, result.avg_quiesce_us,
                result.faulty_detected, result.faults_expected,
                result.missed_detections);
    if (result.missed_detections > 0 || result.false_positive_monitors > 0) {
      std::printf("  ^ FAILED: %zu missed, %zu false-positive monitors\n",
                  result.missed_detections, result.false_positive_monitors);
      detection_failed = true;
    }
  }
  if (detection_failed) {
    std::printf("pool_scaling: detection FAILURES above\n");
    return 1;
  }
  std::printf("pool_scaling: zero missed detections in every configuration\n");
  return 0;
}
