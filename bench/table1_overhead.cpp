// Table 1 reproduction: run-time overhead of the augmented monitor
// construct as a function of the checking interval T.
//
// The paper reports, per monitor type, the "average ratio between the time
// spent on executing monitor operations with the extension and that without
// the extension" for T in 0.5s..3.0s, observing ~7.4x at T=0.5s falling to
// ~4.0-4.6x at T=3.0s.
//
// The overhead decomposes as  ratio(T) = 1 + g*r + c*r + f/T  where g is
// the per-event gathering cost, c the per-event checking cost, r the event
// rate, and f the fixed per-check cost (quiescing every process, taking the
// snapshot).  The *decreasing-in-T* shape comes from f/T.  On the paper's
// 2001 JVM both f (Thread.suspend on every process) and g,c were enormous,
// giving ratios of 4-7.5x; on modern C++ the same mechanism costs far less,
// so we scale the interval axis by 1/500 (T = 1..6 ms) to keep f/T in the
// observable regime, and we verify the paper's two qualitative claims:
// the extension always costs throughput, and the cost falls as T grows.
//
// Each cell runs `reps` back-to-back off/on pairs and reports the median
// per-pair ratio with its IQR (the benchmark suite's method), so machine
// drift lands inside a pair, not between a baseline and later runs.
#include <cstdio>
#include <vector>

#include "util/flags.hpp"
#include "util/stats.hpp"
#include "workloads/loadgen.hpp"

using namespace robmon;

namespace {

wl::LoadOptions base_options(core::MonitorType type,
                             std::int64_t ops_per_worker) {
  wl::LoadOptions options;
  options.type = type;
  options.workers = 4;
  options.ops_per_worker = ops_per_worker;
  options.instrumentation = rt::Instrumentation::kOff;
  options.periodic_checking = false;
  return options;
}

/// Ops per worker so one run lasts roughly `target_seconds`.
std::int64_t calibrate(core::MonitorType type, double target_seconds) {
  const wl::LoadResult probe = wl::run_load(base_options(type, 4000));
  const double rate = probe.ops_per_second;           // total ops/s
  const double total = rate * target_seconds;
  return std::max<std::int64_t>(2000, static_cast<std::int64_t>(total / 4));
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  flags.define("duration", "1.2", "target seconds per measured run");
  flags.define("reps", "3", "off/on pairs per cell");
  if (!flags.parse(argc, argv)) return 2;
  const double duration = flags.f64("duration");
  const int reps = static_cast<int>(flags.i64("reps"));

  const std::vector<double> paper_axis = {0.5, 1.0, 1.5, 2.0, 2.5, 3.0};
  constexpr double kScale = 1.0 / 500.0;  // paper seconds -> our seconds
  const std::vector<core::MonitorType> types = {
      core::MonitorType::kCommunicationCoordinator,
      core::MonitorType::kResourceAllocator,
      core::MonitorType::kOperationManager};

  std::printf("Table 1: overhead ratio (with extension / without) vs "
              "checking interval T\n");
  std::printf("(T axis = paper axis x 1/500, i.e. 1..6 ms; 4 workers; "
              "~%.1fs per run; median [IQR] of %d off/on pairs)\n\n",
              duration, reps);
  std::printf("%-22s %-20s %-20s %-20s\n", "T (paper -> ours)",
              "coordinator", "allocator", "manager");

  std::vector<std::int64_t> ops(types.size(), 0);
  for (std::size_t t = 0; t < types.size(); ++t) {
    ops[t] = calibrate(types[t], duration);
  }

  std::vector<std::vector<double>> grid;
  for (const double paper_seconds : paper_axis) {
    const auto interval =
        static_cast<util::TimeNs>(paper_seconds * kScale * 1e9);
    std::printf("%5.1fs -> %4.0fms      ", paper_seconds,
                static_cast<double>(interval) / 1e6);
    std::vector<double> row;
    for (std::size_t t = 0; t < types.size(); ++t) {
      util::Samples ratios;
      for (int rep = 0; rep < reps; ++rep) {
        const wl::LoadResult off = wl::run_load(base_options(types[t], ops[t]));
        wl::LoadOptions options = base_options(types[t], ops[t]);
        options.instrumentation = rt::Instrumentation::kFull;
        options.periodic_checking = true;
        options.check_period = interval;
        const wl::LoadResult on = wl::run_load(options);
        if (on.ops_per_second > 0) {
          ratios.add(off.ops_per_second / on.ops_per_second);
        }
      }
      const double median = ratios.percentile(50);
      row.push_back(median);
      std::printf("%.3fx [%.2f-%.2f]  ", median, ratios.percentile(25),
                  ratios.percentile(75));
      std::fflush(stdout);
    }
    grid.push_back(row);
    std::printf("\n");
  }

  // The paper's qualitative claims, with a noise allowance on monotonicity.
  bool always_overhead = true;
  for (const auto& row : grid) {
    for (const double r : row) always_overhead = always_overhead && r > 1.0;
  }
  int decreasing_types = 0;
  for (std::size_t t = 0; t < types.size(); ++t) {
    // Average of the two smallest T vs the two largest T.
    const double small = (grid[0][t] + grid[1][t]) / 2.0;
    const double large =
        (grid[grid.size() - 1][t] + grid[grid.size() - 2][t]) / 2.0;
    if (large <= small * 1.02) ++decreasing_types;
  }
  std::printf("\nshape checks (paper's qualitative claims):\n");
  std::printf("  extension always costs something (ratio > 1):       %s\n",
              always_overhead ? "PASS" : "FAIL");
  std::printf("  overhead falls (or is flat) as T grows, per type:   %d/3\n",
              decreasing_types);
  std::printf("\n(absolute ratios are substrate-bound: the paper's JVM-2001 "
              "prototype paid 4-7.5x; modern C++ gathering costs ~1.1-1.5x. "
              "See docs/bench-history.md.)\n");
  return always_overhead && decreasing_types >= 2 ? 0 : 1;
}
