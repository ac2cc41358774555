// bench_suite — runs one workload of the robmon benchmark and prints its
// result as one JSON line on stdout.  bench/suite/run.py builds it, runs
// it, checks the metric names and formats the result; see README.md.
//
//   bench_suite --workload NAME --seed N --seconds S --trace 0|1
//               [--trace-file PATH] [--host PATH --preload PATH]
//
// Exit status: 0 when every correctness gate held and no operation failed,
// 1 otherwise (the failing gates are named on stderr), 2 on bad arguments.
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

constexpr const char* kUsage =
    "usage: bench_suite --workload monitor_mix|many_idle|deadlock_recovery|"
    "shim_pthread --seed N --seconds S --trace 0|1 [--trace-file PATH] "
    "[--host PATH --preload PATH]\n";

bool parse(int argc, char** argv, suite::RunOptions& options,
           std::string& trace_file) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const std::size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds >= 0.5 && options.seconds <= 600)) {
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      options.trace = value == "1";
    } else if (key == "--trace-file") {
      trace_file = value;
    } else if (key == "--host") {
      options.host = value;
    } else if (key == "--preload") {
      options.preload = value;
    } else {
      return false;
    }
  }
  const std::string& w = options.workload;
  if (w == "shim_pthread") return !options.host.empty() && !options.preload.empty();
  return w == "monitor_mix" || w == "many_idle" || w == "deadlock_recovery";
}

}  // namespace

int main(int argc, char** argv) {
  suite::RunOptions options;
  std::string trace_file;
  if (!parse(argc, argv, options, trace_file)) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  suite::Report report;
  suite::Tracer tracer(options.trace && !trace_file.empty());
  try {
    if (options.workload == "shim_pthread") {
      suite::run_shim(options, report, tracer);
    } else {
      suite::run_native(options, report, tracer);
    }
  } catch (const std::exception& e) {
    report.gate("bench.exception", false, e.what());
  }
  if (tracer.enabled() && !tracer.write(trace_file)) {
    report.gate("bench.trace_written", false, "cannot write " + trace_file);
  }
  const std::string json = report.to_json(options.workload, options.seed,
                                          options.seconds, options.trace);
  std::printf("%s\n", json.c_str());
  return report.correct() ? 0 : 1;
}
