// Producer/consumer throughput demo over the augmented monitor construct.
//
// Runs a closed-loop bounded-buffer workload on any of the three monitor
// types and reports throughput, recorded events, checking-routine activity
// and fault reports.  Toggle --instrumented=false for the bare monitor (the
// paper's "without the extension" baseline) to see the overhead the robust
// construct adds.
//
//   ./producer_consumer --type=coordinator --workers=4 --ops=5000
//   ./producer_consumer --instrumented=false
#include <cstdio>

#include "robmon.hpp"

using namespace robmon;

int main(int argc, char** argv) {
  util::Flags flags;
  flags.define("type", "coordinator",
               "monitor type: coordinator | allocator | manager");
  flags.define("workers", "4", "worker threads");
  flags.define("ops", "5000", "operations per worker");
  flags.define("capacity", "8", "buffer slots / allocator units");
  flags.define("interval-ms", "100", "checking interval T (milliseconds)");
  flags.define("instrumented", "true",
               "false = bare monitor, no gathering or checking");
  if (!flags.parse(argc, argv)) return 2;

  wl::LoadOptions options;
  options.type = core::monitor_type_from_string(flags.str("type"));
  options.workers = static_cast<int>(flags.i64("workers"));
  options.ops_per_worker = flags.i64("ops");
  options.capacity = static_cast<std::size_t>(flags.i64("capacity"));
  options.check_period = flags.i64("interval-ms") * util::kMillisecond;
  options.instrumentation = flags.boolean("instrumented")
                                ? rt::Instrumentation::kFull
                                : rt::Instrumentation::kOff;
  options.periodic_checking = flags.boolean("instrumented");

  const wl::LoadResult result = wl::run_load(options);

  std::printf("type:            %s\n",
              std::string(core::to_string(options.type)).c_str());
  std::printf("instrumented:    %s\n",
              flags.boolean("instrumented") ? "yes" : "no (baseline)");
  std::printf("operations:      %llu\n",
              static_cast<unsigned long long>(result.operations));
  std::printf("elapsed:         %.3f s\n", result.seconds);
  std::printf("throughput:      %.0f ops/s\n", result.ops_per_second);
  std::printf("events recorded: %llu\n",
              static_cast<unsigned long long>(result.events_recorded));
  std::printf("checks run:      %llu\n",
              static_cast<unsigned long long>(result.checks_run));
  std::printf("fault reports:   %zu\n", result.faults_reported);
  return result.faults_reported == 0 ? 0 : 1;
}
