// Result assembly for bench_suite: phase aggregation into the suite's
// metrics, correctness gates, and the in-memory Chrome trace-event writer.
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace suite {

/// What one measured phase (detection on or off) produced.
struct PhaseResult {
  bool on = false;
  int pair = 0;  ///< On/off pair this phase belongs to.
  double wall_s = 0;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  int loop_threads = 0;              ///< Closed-loop client threads.
  std::int64_t loop_cpu_ns = 0;      ///< Their CPU over the window.
  std::int64_t detector_cpu_ns = 0;  ///< Process − app threads − driver.
  Histogram all;
  std::array<Histogram, kMaxKinds> by_kind;
};

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::uint64_t n) {
    metrics_[name] = Entry{value, unit, n};
  }
  /// Record a correctness gate; a failing gate is also named on stderr.
  void gate(const std::string& name, bool ok, const std::string& detail) {
    gates_.push_back({name, ok, detail});
    if (!ok) std::fprintf(stderr, "gate FAILED: %s: %s\n", name.c_str(),
                          detail.c_str());
  }
  void attempt(std::uint64_t n, std::uint64_t failed) {
    attempted_ += n;
    failed_ += failed;
  }
  /// Every gate held and no operation failed.
  bool correct() const {
    for (const Gate& g : gates_) {
      if (!g.ok) return false;
    }
    return failed_ == 0;
  }

  /// Fold the on/off phases and the detection-on set-up times into the
  /// metrics every workload reports.  Per-phase values are combined by
  /// median, so one phase disturbed by the machine moves no metric.
  /// `kinds` names the op kinds recorded in by_kind.
  void phases(const std::vector<PhaseResult>& phases,
              std::vector<double> setups,
              const std::vector<std::string>& kinds, const char* layer);

  std::string to_json(const std::string& workload, std::uint64_t seed,
                      double seconds, bool trace) const;

 private:
  struct Entry {
    double value;
    std::string unit;
    std::uint64_t n;
  };
  struct Gate {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::map<std::string, Entry> metrics_;
  std::vector<Gate> gates_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Spans and counters kept in memory, written once at exit as Chrome
/// trace-event JSON (opens in Perfetto and chrome://tracing).  Disabled
/// tracers drop everything, so call sites need no checks.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), base_(now_ns()) {}
  bool enabled() const { return enabled_; }

  /// Complete span [start, end) on track `tid`; `args` is a JSON object body
  /// such as "\"episode\":3".
  void span(const std::string& name, std::int64_t start, std::int64_t end,
            int tid, const std::string& args = "");
  void counter(const std::string& name, std::int64_t at, double value);
  void op_spans(const std::vector<OpSpan>& spans,
                const std::vector<std::string>& kinds, int tid);
  /// Write the trace; returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  double us(std::int64_t t) const {
    return static_cast<double>(t - base_) / 1000.0;
  }
  bool enabled_;
  std::int64_t base_;
  mutable std::mutex mu_;
  std::vector<std::string> events_;
};

}  // namespace suite
