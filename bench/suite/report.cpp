#include "report.hpp"

#include <sstream>

namespace suite {

namespace {

double median(std::vector<double> values) {
  return sample_quantile(values, 0.5);
}

}  // namespace

void Report::phases(const std::vector<PhaseResult>& phases,
                    std::vector<double> setups,
                    const std::vector<std::string>& kinds, const char* layer) {
  double on_thread_wall = 0;
  std::uint64_t on_ops = 0, off_ops = 0;
  std::int64_t on_cpu = 0, off_cpu = 0, detector_cpu = 0;
  std::vector<double> on_rates, p50s, p99s, p999s, shares, ratios;
  std::map<int, std::pair<double, double>> pair_rates;  // pair -> (on, off)
  std::uint64_t samples = 0;
  std::array<Histogram, kMaxKinds> by_kind;
  for (const PhaseResult& p : phases) {
    attempt(p.ops, p.failed);
    const double rate = static_cast<double>(p.ops) / p.wall_s;
    std::fprintf(stderr, "phase %d %-3s %.2f s: %.0f ops/s\n", p.pair,
                 p.on ? "on" : "off", p.wall_s, rate);
    if (!p.on) {
      off_ops += p.ops;
      off_cpu += p.loop_cpu_ns;
      pair_rates[p.pair].second = rate;
      continue;
    }
    pair_rates[p.pair].first = rate;
    on_thread_wall += p.wall_s * p.loop_threads;
    on_ops += p.ops;
    on_cpu += p.loop_cpu_ns;
    detector_cpu += p.detector_cpu_ns;
    on_rates.push_back(rate);
    p50s.push_back(p.all.quantile(0.5) / 1000.0);
    p99s.push_back(p.all.quantile(0.99) / 1000.0);
    p999s.push_back(p.all.quantile(0.999) / 1000.0);
    shares.push_back(static_cast<double>(p.detector_cpu_ns) / 1e9 / p.wall_s);
    samples += p.all.count();
    for (std::size_t k = 0; k < kinds.size(); ++k) by_kind[k].merge(p.by_kind[k]);
  }
  // Overhead per pair: adjacent phases see the same machine conditions.
  for (const auto& [pair, rates] : pair_rates) {
    if (rates.first > 0 && rates.second > 0) {
      ratios.push_back(rates.second / rates.first);
    }
  }
  const auto n_on = static_cast<std::uint64_t>(on_rates.size());
  const double ops = static_cast<double>(on_ops);
  metric("ops_per_s", median(on_rates), "ops/s", on_ops);
  metric("op_latency_p50_us", median(p50s), "us", samples);
  metric("op_latency_p99_us", median(p99s), "us", samples);
  metric("overhead_ratio", median(ratios), "x", ratios.size());
  metric("detector_cpu_share", median(shares), "cores", n_on);
  metric("setup_s", median(setups), "s", setups.size());

  metric("app.client_cpu_ns_per_op", static_cast<double>(on_cpu) / ops, "ns",
         on_ops);
  metric("app.client_cpu_ns_per_op_off",
         static_cast<double>(off_cpu) / static_cast<double>(off_ops), "ns",
         off_ops);
  metric("app.blocked_ns_per_op",
         (on_thread_wall * 1e9 - static_cast<double>(on_cpu)) / ops, "ns",
         on_ops);
  metric("detector.cpu_ns_per_op", static_cast<double>(detector_cpu) / ops,
         "ns", on_ops);
  metric(std::string(layer) + ".op_ns_p999", median(p999s) * 1000.0, "ns",
         samples);
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    metric(std::string(layer) + ".op_ns_p50." + kinds[k],
           by_kind[k].quantile(0.5), "ns", by_kind[k].count());
  }
}

std::string Report::to_json(const std::string& workload, std::uint64_t seed,
                            double seconds, bool trace) const {
  std::ostringstream out;
  out << "{\"workload\":\"" << json_escape(workload) << "\",\"seed\":" << seed
      << ",\"seconds\":" << json_number(seconds)
      << ",\"trace\":" << (trace ? 1 : 0) << ",\"attempted\":" << attempted_
      << ",\"failed\":" << failed_ << ",\"build\":{\"compiler\":\""
      << json_escape(__VERSION__) << "\",\"build_type\":\""
      << json_escape(ROBMON_SUITE_BUILD_TYPE) << "\",\"ndebug\":"
#ifdef NDEBUG
      << "true"
#else
      << "false"
#endif
      << ",\"sanitizer\":"
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
      << "true"
#else
      << "false"
#endif
      << "},\"gates\":[";
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    const Gate& g = gates_[i];
    out << (i ? "," : "") << "{\"name\":\"" << json_escape(g.name)
        << "\",\"ok\":" << (g.ok ? "true" : "false") << ",\"detail\":\""
        << json_escape(g.detail) << "\"}";
  }
  out << "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, e] : metrics_) {
    out << (first ? "" : ",") << "\"" << json_escape(name)
        << "\":{\"value\":" << json_number(e.value) << ",\"unit\":\""
        << json_escape(e.unit) << "\",\"n\":" << e.n << "}";
    first = false;
  }
  out << "}}";
  return out.str();
}

void Tracer::span(const std::string& name, std::int64_t start,
                  std::int64_t end, int tid, const std::string& args) {
  if (!enabled_) return;
  std::ostringstream e;
  e << "{\"name\":\"" << json_escape(name) << "\",\"ph\":\"X\",\"pid\":1,"
    << "\"tid\":" << tid << ",\"ts\":" << json_number(us(start))
    << ",\"dur\":" << json_number(us(end) - us(start)) << ",\"args\":{"
    << args << "}}";
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(e.str());
}

void Tracer::counter(const std::string& name, std::int64_t at, double value) {
  if (!enabled_) return;
  std::ostringstream e;
  e << "{\"name\":\"" << json_escape(name) << "\",\"ph\":\"C\",\"pid\":1,"
    << "\"ts\":" << json_number(us(at)) << ",\"args\":{\"value\":"
    << json_number(value) << "}}";
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(e.str());
}

void Tracer::op_spans(const std::vector<OpSpan>& spans,
                      const std::vector<std::string>& kinds, int tid) {
  for (const OpSpan& s : spans) {
    span("op", s.start, s.end, tid,
         "\"monitor_type\":\"" + kinds[static_cast<std::size_t>(s.kind)] +
             "\"");
  }
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < events_.size(); ++i) {
    out << (i ? ",\n" : "\n") << events_[i];
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace suite
