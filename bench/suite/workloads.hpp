// The four bench_suite workloads.  Each runs five detection-on/off phase
// pairs (alternating which side goes first) after a warm-up, and writes its
// metrics and correctness gates into the Report.
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"

namespace suite {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;  ///< Measured time: on + off phases together.
  bool trace = false;
  std::string host;     ///< bench_suite_pthread_host (shim_pthread only).
  std::string preload;  ///< librobmon_preload.so (shim_pthread only).
};

constexpr int kPairs = 5;
/// Detection-on set-ups timed after every phase; setup_s is the median of
/// all 2 x kPairs x kSetupsPerPhase.
constexpr int kSetupsPerPhase = 3;
/// Discarded detection-on warm-up before the phases.
constexpr double kWarmupSeconds = 0.5;

/// monitor_mix, many_idle and deadlock_recovery (native RobustMonitors).
void run_native(const RunOptions& options, Report& report, Tracer& tracer);

/// shim_pthread: the pthread host in child processes, with and without
/// LD_PRELOAD of the shim.
void run_shim(const RunOptions& options, Report& report, Tracer& tracer);

/// Phase order of pair `pair`: detection-on first or second, alternating,
/// with the starting side drawn from the seed.
inline bool on_first(std::uint64_t seed, int pair) {
  return (seed + static_cast<std::uint64_t>(pair)) % 2 == 0;
}

}  // namespace suite
