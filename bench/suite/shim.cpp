// shim_pthread: bench_suite_pthread_host run as child processes, with
// LD_PRELOAD of the shim (detection on) and without it (off), one process
// per phase.  The host reports its own measurements on stdout; the shim's
// stderr summary line is the correctness evidence from inside.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "workloads.hpp"

extern char** environ;

namespace suite {

namespace {

struct HostRun {
  bool spawned = false;
  int exit_status = -1;
  double peak_rss_mb = 0;
  std::int64_t spawned_at = 0;
  std::string out, err;
};

/// Spawn the host, collect stdout/stderr until both close, reap it.  A host
/// still running after `timeout_ns` is killed.
HostRun spawn_host(const RunOptions& options, bool on, double seconds,
                   std::uint64_t seed, std::int64_t timeout_ns) {
  HostRun run;
  std::vector<std::string> env_strings;
  for (char** e = environ; *e != nullptr; ++e) {
    // Default ROBMON_* configuration, and the shim only when asked for.
    if (std::strncmp(*e, "LD_PRELOAD=", 11) == 0) continue;
    if (std::strncmp(*e, "ROBMON_", 7) == 0) continue;
    env_strings.emplace_back(*e);
  }
  if (on) env_strings.push_back("LD_PRELOAD=" + options.preload);
  std::vector<char*> env;
  for (auto& s : env_strings) env.push_back(s.data());
  env.push_back(nullptr);

  std::vector<std::string> arg_strings = {
      options.host, "--seed", std::to_string(seed), "--seconds",
      std::to_string(seconds), "--trace", options.trace ? "1" : "0"};
  std::vector<char*> args;
  for (auto& s : arg_strings) args.push_back(s.data());
  args.push_back(nullptr);

  int out_pipe[2], err_pipe[2];
  if (pipe2(out_pipe, O_CLOEXEC) != 0) return run;
  if (pipe2(err_pipe, O_CLOEXEC) != 0) {
    close(out_pipe[0]);
    close(out_pipe[1]);
    return run;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], 1);
  posix_spawn_file_actions_adddup2(&actions, err_pipe[1], 2);
  pid_t pid = 0;
  run.spawned_at = now_ns();
  const int rc = posix_spawn(&pid, options.host.c_str(), &actions, nullptr,
                             args.data(), env.data());
  posix_spawn_file_actions_destroy(&actions);
  close(out_pipe[1]);
  close(err_pipe[1]);
  if (rc != 0) {
    close(out_pipe[0]);
    close(err_pipe[0]);
    run.err = std::string("posix_spawn: ") + std::strerror(rc);
    return run;
  }
  run.spawned = true;

  pollfd fds[2] = {{out_pipe[0], POLLIN, 0}, {err_pipe[0], POLLIN, 0}};
  std::string* sinks[2] = {&run.out, &run.err};
  const std::int64_t deadline = run.spawned_at + timeout_ns;
  bool killed = false;
  char buf[65536];
  while (fds[0].fd >= 0 || fds[1].fd >= 0) {
    const std::int64_t left = deadline - now_ns();
    if (left <= 0 && !killed) {
      kill(pid, SIGKILL);
      killed = true;
    }
    if (poll(fds, 2, killed ? 100 : static_cast<int>(left / 1'000'000) + 1) < 0 &&
        errno != EINTR) {
      break;
    }
    for (int i = 0; i < 2; ++i) {
      if (fds[i].fd < 0 || fds[i].revents == 0) continue;
      const ssize_t n = read(fds[i].fd, buf, sizeof buf);
      if (n > 0) {
        sinks[i]->append(buf, static_cast<std::size_t>(n));
      } else if (n == 0 || errno != EINTR) {
        close(fds[i].fd);
        fds[i].fd = -1;
      }
    }
  }
  for (auto& fd : fds) {
    if (fd.fd >= 0) close(fd.fd);
  }
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  run.exit_status =
      killed ? -1 : (WIFEXITED(status) ? WEXITSTATUS(status) : -1);
  run.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return run;
}

/// The host's "key values..." lines.
struct HostOutput {
  std::map<std::string, long long> scalars;
  std::map<std::string, Histogram> hists;
  std::vector<std::pair<int, OpSpan>> spans;
  bool ok = true;
};

HostOutput parse_host(const std::string& text) {
  HostOutput out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream words(line);
    std::string key;
    words >> key;
    if (key.rfind("hist_", 0) == 0) {
      Histogram& h = out.hists[key.substr(5)];
      std::string token;
      while (words >> token) out.ok = h.decode_token(token) && out.ok;
    } else if (key == "span") {
      int tid = 0;
      OpSpan s;
      words >> tid >> s.start >> s.end >> s.kind;
      if (s.kind >= 0 && s.kind < 3) out.spans.emplace_back(tid, s);
    } else if (!key.empty()) {
      long long v = 0;
      if (!(words >> v)) out.ok = false;
      out.scalars[key] = v;
    }
  }
  for (const char* key : {"setup_end_ns", "start_ns", "end_ns", "ops",
                          "loop_cpu_ns", "other_cpu_ns", "correct"}) {
    if (out.scalars.count(key) == 0) out.ok = false;
  }
  return out;
}

/// The shim's exit line: "robmon: summary monitors=N faults=N ...".
std::map<std::string, long long> parse_summary(const std::string& err,
                                               std::size_t* other_lines) {
  std::map<std::string, long long> fields;
  *other_lines = 0;
  std::istringstream lines(err);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("robmon: summary ", 0) != 0) {
      if (line.rfind("robmon:", 0) == 0) ++*other_lines;
      continue;
    }
    std::istringstream words(line.substr(16));
    std::string field;
    while (words >> field) {
      const std::size_t eq = field.find('=');
      if (eq != std::string::npos) {
        fields[field.substr(0, eq)] = std::atoll(field.c_str() + eq + 1);
      }
    }
  }
  return fields;
}

}  // namespace

void run_shim(const RunOptions& options, Report& report, Tracer& tracer) {
  const double phase_seconds = options.seconds / (2 * kPairs);
  const std::vector<std::string> kinds = {"single", "nested", "handoff"};
  const std::int64_t timeout =
      static_cast<std::int64_t>((phase_seconds + 60) * 1e9);
  std::vector<PhaseResult> phases;
  std::vector<double> setups, peak_rss;
  Histogram lock_ns, unlock_ns;
  double monitors = 0;

  // One host process: run it, check its gates, and time its set-up.
  // Returns false when the host failed.
  const auto launch = [&](bool on, double seconds, std::uint64_t seed,
                          HostRun* run, HostOutput* host) {
    *run = spawn_host(options, on, seconds, seed, timeout);
    *host = parse_host(run->out);
    const bool ran = run->spawned && run->exit_status == 0 && host->ok &&
                     host->scalars["correct"] == 1;
    report.gate(on ? "shim_pthread.on.host_correct"
                   : "shim_pthread.off.host_correct",
                ran,
                "exit " + std::to_string(run->exit_status) + "; " +
                    run->err.substr(0, 400));
    if (!ran) {
      report.attempt(1, 1);
      return false;
    }
    std::size_t other_lines = 0;
    const auto summary = parse_summary(run->err, &other_lines);
    if (!on) {
      report.gate("shim_pthread.off_unobserved",
                  summary.empty() && other_lines == 0,
                  "robmon output without LD_PRELOAD");
      return true;
    }
    bool clean = summary.count("monitors") && summary.at("monitors") > 0;
    std::string detail;
    for (const char* key :
         {"faults", "deadlocks", "order_warnings", "passthrough", "events_lost"}) {
      const auto it = summary.find(key);
      clean = clean && it != summary.end() && it->second == 0;
      detail += std::string(key) + "=" +
                (it == summary.end() ? "?" : std::to_string(it->second)) + " ";
    }
    report.gate("shim_pthread.summary_clean", clean && other_lines == 0,
                detail + "other robmon lines=" + std::to_string(other_lines));
    if (summary.count("monitors")) {
      monitors =
          std::max(monitors, static_cast<double>(summary.at("monitors")));
    }
    tracer.span("setup", run->spawned_at, host->scalars["setup_end_ns"], 1,
                "\"detection\":\"on\"");
    return true;
  };

  HostRun run;
  HostOutput host;
  launch(true, kWarmupSeconds, options.seed, &run, &host);  // Discarded.
  for (int pair = 0; pair < kPairs; ++pair) {
    const bool first_on = on_first(options.seed, pair);
    for (const bool on : {first_on, !first_on}) {
      const std::uint64_t seed =
          options.seed * 7919 + static_cast<std::uint64_t>(pair);
      if (!launch(on, phase_seconds, seed, &run, &host)) continue;
      PhaseResult r;
      r.on = on;
      r.pair = pair;
      const std::int64_t start = host.scalars["start_ns"];
      const std::int64_t end = host.scalars["end_ns"];
      r.wall_s = static_cast<double>(end - start) / 1e9;
      r.ops = static_cast<std::uint64_t>(host.scalars["ops"]);
      r.failed = static_cast<std::uint64_t>(host.scalars["failed"]);
      r.loop_threads = 3;
      r.loop_cpu_ns = host.scalars["loop_cpu_ns"];
      r.detector_cpu_ns = host.scalars["other_cpu_ns"];
      r.all = host.hists["all"];
      r.by_kind[0] = host.hists["single"];
      r.by_kind[1] = host.hists["nested"];
      r.by_kind[2] = host.hists["handoff"];
      phases.push_back(r);
      if (on) {
        peak_rss.push_back(run.peak_rss_mb);
        lock_ns.merge(host.hists["lock"]);
        unlock_ns.merge(host.hists["unlock"]);
      }
      for (const auto& [tid, span] : host.spans) {
        tracer.op_spans({span}, kinds, (on ? 10 : 20) + tid);
      }
      tracer.span("measured", start, end, 1,
                  on ? "\"detection\":\"on\"" : "\"detection\":\"off\"");
      // Set-up-only hosts between phases sample the machine across the
      // whole run, so that their median is steady.
      for (int i = 0; i < kSetupsPerPhase; ++i) {
        if (launch(true, 0, seed, &run, &host)) {
          setups.push_back(static_cast<double>(host.scalars["setup_end_ns"] -
                                               run.spawned_at) /
                           1e9);
        }
      }
    }
  }
  if (phases.empty()) return;
  report.phases(phases, setups, kinds, "interpose");
  report.metric("peak_rss_mb", sample_quantile(peak_rss, 0.5), "MB",
                peak_rss.size());
  report.metric("detector.monitors", monitors, "count", 1);
  report.metric("interpose.lock_ns_p50", lock_ns.quantile(0.5), "ns",
                lock_ns.count());
  report.metric("interpose.lock_ns_p999", lock_ns.quantile(0.999), "ns",
                lock_ns.count());
  report.metric("interpose.unlock_ns_p50", unlock_ns.quantile(0.5), "ns",
                unlock_ns.count());
}

}  // namespace suite
