// Shared by bench_suite and bench_suite_pthread_host.  Standard library
// only: the host must stay free of robmon code so that LD_PRELOAD of the
// shim is the only robmon in its process.
#pragma once

#include <time.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace suite {

// --- Clocks. -----------------------------------------------------------------

/// CLOCK_MONOTONIC in ns: the same timeline as std::chrono::steady_clock and
/// robmon's SteadyClock, and shared across processes on one machine.
inline std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

inline std::int64_t cpu_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
inline std::int64_t thread_cpu_ns() { return cpu_ns(CLOCK_THREAD_CPUTIME_ID); }
inline std::int64_t process_cpu_ns() {
  return cpu_ns(CLOCK_PROCESS_CPUTIME_ID);
}

inline void sleep_until_ns(std::int64_t deadline) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(deadline / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(deadline % 1'000'000'000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

// --- Seeded generator (SplitMix64-seeded xorshift64*). -----------------------

class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    state_ = (z ^ (z >> 31)) | 1;
  }
  std::uint64_t next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545F4914F6CDD1Dull;
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, bound); bound > 0.
  std::size_t below(std::size_t bound) {
    return static_cast<std::size_t>(uniform() * static_cast<double>(bound));
  }

 private:
  std::uint64_t state_;
};

/// Zipf(s) over ranks 0..n-1 by inverse CDF (n is small: a partition).
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  std::size_t sample(Rng& rng) const {
    const double u = rng.uniform();
    return static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end() - 1, u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

// --- Latency histogram. -------------------------------------------------------

/// Fixed-size log-linear histogram of nanosecond values: 128 linear
/// sub-buckets per power of two (< 0.8% bucket width), no allocation after
/// construction.  Quantiles interpolate linearly inside the bucket so the
/// reported value moves with the underlying distribution, not in bucket
/// steps.
class Histogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kMaxExp = 44;  // ~4.8 hours in ns.

  void record(std::int64_t ns) {
    ++counts_[index(ns < 0 ? 0 : static_cast<std::uint64_t>(ns))];
    ++total_;
  }
  void merge(const Histogram& other) {
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
    total_ += other.total_;
  }
  std::uint64_t count() const { return total_; }

  /// Sparse text form "index:count ..." (the host → driver wire format).
  std::string encode() const {
    std::string out;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] == 0) continue;
      out += ' ' + std::to_string(i) + ':' + std::to_string(counts_[i]);
    }
    return out;
  }
  /// Add one "index:count" token of encode()'s output; false if malformed.
  bool decode_token(const std::string& token) {
    const std::size_t colon = token.find(':');
    if (colon == std::string::npos) return false;
    const unsigned long long index = std::strtoull(token.c_str(), nullptr, 10);
    const unsigned long long n =
        std::strtoull(token.c_str() + colon + 1, nullptr, 10);
    if (index >= counts_.size()) return false;
    counts_[index] += n;
    total_ += n;
    return true;
  }

  /// Value at quantile q in [0, 1]; 0 when empty.
  double quantile(double q) const {
    if (total_ == 0) return 0.0;
    const double rank = q * static_cast<double>(total_ - 1) + 0.5;
    double seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] == 0) continue;
      const double next = seen + static_cast<double>(counts_[i]);
      if (rank <= next) {
        const double fraction = (rank - seen) / static_cast<double>(counts_[i]);
        return lower(i) + fraction * (upper(i) - lower(i));
      }
      seen = next;
    }
    return upper(counts_.size() - 1);
  }

 private:
  static std::size_t index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int exp = 63 - __builtin_clzll(v);  // >= kSubBits
    const int shift = exp - kSubBits;
    const std::size_t bucket =
        static_cast<std::size_t>(shift + 1) * kSub +
        static_cast<std::size_t>((v >> shift) - kSub);
    return std::min(bucket, kBuckets - 1);
  }
  static double lower(std::size_t i) {
    if (i < kSub) return static_cast<double>(i);
    const std::size_t shift = i / kSub - 1;
    return std::ldexp(static_cast<double>(kSub + i % kSub),
                      static_cast<int>(shift));
  }
  static double upper(std::size_t i) {
    if (i < kSub) return static_cast<double>(i + 1);
    const std::size_t shift = i / kSub - 1;
    return std::ldexp(static_cast<double>(kSub + i % kSub + 1),
                      static_cast<int>(shift));
  }

  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kMaxExp - kSubBits + 1) * kSub;
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

/// Quantile of a small sample vector (sorted in place), linear between
/// order statistics; 0 when empty.
inline double sample_quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

// --- Per-thread closed-loop accounting. ---------------------------------------

/// One op in kSampleEvery has its latency taken (two clock reads); one in
/// kSpanEvery of those becomes a trace span.
constexpr std::uint64_t kSampleEvery = 8;
constexpr std::uint64_t kSpanEvery = 1024;
constexpr int kMaxKinds = 4;

struct OpSpan {
  std::int64_t start = 0;
  std::int64_t end = 0;
  int kind = 0;
};

/// Everything one load thread measures; written only by that thread.
struct ThreadStats {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::int64_t cpu_ns = 0;
  Histogram all;
  std::array<Histogram, kMaxKinds> by_kind;
  std::vector<OpSpan> spans;  ///< Reserved up front when tracing.
  bool trace = false;
};

/// Run `op(rng) -> int kind (negative = failed)` until `stop` reads true,
/// sampling latency on one op in kSampleEvery.  `Stop` is any callable
/// returning bool.
template <typename Stop, typename Op>
void closed_loop(ThreadStats& stats, Rng& rng, Stop stop, Op op) {
  std::uint64_t n = 0;
  while (!stop()) {
    if (++n % kSampleEvery != 0) {
      if (op(rng) < 0) ++stats.failed;
      continue;
    }
    const std::int64_t start = now_ns();
    const int kind = op(rng);
    const std::int64_t end = now_ns();
    if (kind < 0) {
      ++stats.failed;
      continue;
    }
    stats.all.record(end - start);
    stats.by_kind[static_cast<std::size_t>(kind)].record(end - start);
    if (stats.trace && n % kSpanEvery == 0 &&
        stats.spans.size() < stats.spans.capacity()) {
      stats.spans.push_back({start, end, kind});
    }
  }
  stats.ops = n;
}

// --- JSON helpers. ------------------------------------------------------------

inline std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

/// Shortest round-trip rendering, so values keep all their digits.
inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace suite
