// Ablation: the checking-interval trade-off of Section 3.3 — "When T = 1,
// the checking becomes real-time" but costs more; larger T amortizes the
// checking routine at the price of detection latency and of post-checking
// accuracy.
//
// Real threads: throughput of a checking-interval sweep, checking on vs off.
// The latency side of the trade-off (detection latency vs T, virtual time)
// is the second table of bench/coverage_matrix.
#include <cstdio>
#include <vector>

#include "util/flags.hpp"
#include "workloads/loadgen.hpp"

using namespace robmon;

int main(int argc, char** argv) {
  util::Flags flags;
  flags.define("ops", "3000", "operations per worker");
  if (!flags.parse(argc, argv)) return 2;

  std::printf("Throughput vs checking interval "
              "(coordinator, 4 threads, real time)\n\n");
  std::printf("%-14s %-16s %-16s\n", "T", "checking", "no checking");
  const std::vector<util::TimeNs> wall_intervals = {
      25 * util::kMillisecond, 50 * util::kMillisecond,
      100 * util::kMillisecond, 200 * util::kMillisecond};
  for (const util::TimeNs interval : wall_intervals) {
    double results[2] = {0, 0};
    for (int variant = 0; variant < 2; ++variant) {
      wl::LoadOptions options;
      options.type = core::MonitorType::kCommunicationCoordinator;
      options.workers = 4;
      options.ops_per_worker = flags.i64("ops");
      options.check_period = interval;
      options.periodic_checking = variant == 0;
      results[variant] = wl::run_load(options).ops_per_second;
    }
    std::printf("%10.0fms  %11.0f op/s %11.0f op/s\n",
                static_cast<double>(interval) / 1e6, results[0], results[1]);
  }
  std::printf("\n(smaller T -> more checking-routine invocations -> lower "
              "throughput)\n");
  return 0;
}
