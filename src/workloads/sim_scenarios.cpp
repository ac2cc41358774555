#include "workloads/sim_scenarios.hpp"

#include <stdexcept>

namespace robmon::wl {

CoverageOutcome run_coverage_trial(core::FaultKind kind, std::uint64_t seed) {
  return run_coverage_trial(kind, seed, CoverageConfig{});
}

std::size_t run_fault_free_trial(core::MonitorType type, std::uint64_t seed) {
  return run_fault_free_trial(type, seed, CoverageConfig{});
}

FdTrialResult run_fd_trial(std::optional<core::FaultKind> kind,
                           std::uint64_t seed) {
  return run_fd_trial(kind, seed, CoverageConfig{});
}

}  // namespace robmon::wl

#if !defined(ROBMON_SYNC_BACKEND_SIM)

namespace robmon::wl {
namespace {

[[noreturn]] void require_sim_backend() {
  throw std::logic_error(
      "coverage trials require the SimBackend build "
      "(link robmon_sim / compile with ROBMON_SYNC_BACKEND_SIM)");
}

}  // namespace

CoverageOutcome run_coverage_trial(core::FaultKind, std::uint64_t,
                                   const CoverageConfig&) {
  require_sim_backend();
}

std::size_t run_fault_free_trial(core::MonitorType, std::uint64_t,
                                 const CoverageConfig&) {
  require_sim_backend();
}

FdTrialResult run_fd_trial(std::optional<core::FaultKind>, std::uint64_t,
                           const CoverageConfig&) {
  require_sim_backend();
}

}  // namespace robmon::wl

#else  // ROBMON_SYNC_BACKEND_SIM

#include <algorithm>
#include <functional>
#include <string>

#include "core/fd_rules.hpp"
#include "core/monitor_spec.hpp"
#include "runtime/robust_monitor.hpp"
#include "sync/backend.hpp"
#include "sync/sim_backend.hpp"
#include "workloads/allocator.hpp"
#include "workloads/bounded_buffer.hpp"

namespace robmon::wl {
namespace {

using core::FaultKind;
using core::MonitorType;

void vsleep(util::TimeNs delta) {
  if (delta > 0) sync::backend_sleep_for(delta);
}

core::MonitorSpec trial_spec(MonitorType type, const CoverageConfig& config) {
  core::MonitorSpec spec;
  if (type == MonitorType::kCommunicationCoordinator) {
    spec = core::MonitorSpec::coordinator(
        "cov-buffer", static_cast<std::int64_t>(config.buffer_capacity));
  } else {
    spec = core::MonitorSpec::allocator("cov-allocator");
  }
  spec.t_max = config.t_max;
  spec.t_io = config.t_io;
  spec.t_limit = config.t_limit;
  spec.check_period = config.check_period;
  return spec;
}

/// Runs one trial on a fresh SimScheduler seeded with `seed`.  A driver
/// fiber builds a RobustMonitor (with its private one-thread checker pool),
/// spawns the clients, and sleeps one check period at a time: up to
/// `max_checks` periods, or fewer once every client has finished and the
/// longest timer horizon has been covered.  It then stops checking,
/// poisons the monitor to release clients that an injected fault left
/// parked, and joins them.  With `inspect` set, the monitor retains its
/// history and records the T=1 state trace, and `inspect` sees the
/// finished monitor before teardown.  Returns every report.
std::vector<core::FaultReport> run_trial(
    MonitorType type, std::uint64_t seed, const CoverageConfig& config,
    inject::InjectionController& injection,
    const std::function<void(rt::RobustMonitor&)>& inspect = {}) {
  sync::SimScheduler sched({.seed = seed});  // kRandom, 1 us tick
  core::CollectingSink sink;
  sched.spawn([&] {
    rt::RobustMonitor::Options options;
    options.injection = &injection;
    options.retain_trace = static_cast<bool>(inspect);
    rt::RobustMonitor monitor(trial_spec(type, config), sink, options);
    if (inspect) monitor.monitor().enable_state_trace();

    std::optional<BoundedBuffer> buffer;
    std::optional<ResourceAllocator> allocator;
    int running = 0;
    std::vector<sync::SimThread> clients;
    const auto spawn_client = [&](std::function<void()> body) {
      ++running;
      clients.emplace_back([&running, body = std::move(body)] {
        body();
        --running;
      });
    };

    if (type == MonitorType::kCommunicationCoordinator) {
      buffer.emplace(monitor, config.buffer_capacity, injection,
                     config.in_monitor_ns);
      for (int p = 0; p < config.producers; ++p) {
        spawn_client([&, p] {
          vsleep(config.producer_initial_delay_ns);
          for (int i = 0; i < config.operations; ++i) {
            if (buffer->send(p, i) != rt::Status::kOk) return;
            vsleep(config.producer_think_ns);
          }
        });
      }
      const int total = config.producers * config.operations;
      for (int c = 0; c < config.consumers; ++c) {
        const int quota = total / config.consumers +
                          (c == 0 ? total % config.consumers : 0);
        spawn_client([&, c, quota] {
          std::int64_t item = 0;
          for (int i = 0; i < quota; ++i) {
            if (buffer->receive(100 + c, &item) != rt::Status::kOk) return;
            vsleep(config.consumer_think_ns);
          }
        });
      }
    } else {
      allocator.emplace(monitor, config.allocator_units);
      const ClientOptions client{.iterations = config.operations / 2 + 1,
                                 .hold_ns = config.producer_think_ns,
                                 .think_ns = config.producer_think_ns};
      for (int w = 0; w < config.producers + config.consumers; ++w) {
        spawn_client([&, w] {
          run_allocator_client(*allocator, w, injection, client, vsleep);
        });
      }
    }

    monitor.start_checking();
    const util::TimeNs horizon =
        std::max({config.t_max, config.t_io, config.t_limit});
    const auto min_checks =
        static_cast<std::uint64_t>(horizon / config.check_period) + 3;
    for (std::uint64_t check = 0; check < config.max_checks; ++check) {
      sync::backend_sleep_for(config.check_period);
      if (running == 0 && check + 1 >= min_checks) break;
    }
    monitor.stop_checking();
    monitor.poison();
    for (sync::SimThread& client : clients) client.join();
    if (inspect) inspect(monitor);
  });
  const auto stop = sched.run(config.max_steps);
  sched.rethrow_any_failure();
  if (stop != sync::SimScheduler::StopReason::kAllDone) {
    throw std::runtime_error("coverage trial did not finish under seed " +
                             std::to_string(seed));
  }
  return sink.reports();
}

CoverageOutcome run_one_attempt(FaultKind kind, std::uint64_t seed,
                                const CoverageConfig& config,
                                std::int64_t nth) {
  const inject::CatalogEntry& entry = inject::catalog_entry(kind);

  inject::ScriptedInjection::Plan plan;
  plan.kind = kind;
  plan.nth = nth;
  plan.sticky = inject::is_sticky_fault(kind);
  inject::ScriptedInjection injection(plan);

  CoverageOutcome outcome;
  outcome.kind = kind;
  outcome.reports = run_trial(entry.exercised_on, seed, config, injection);
  outcome.injected = injection.fired();
  outcome.injection_attempt = nth;
  outcome.total_reports = outcome.reports.size();
  outcome.detected = inject::detected(entry, outcome.reports);
  if (outcome.detected) {
    util::TimeNs first = 0;
    for (const auto& report : outcome.reports) {
      const bool matches =
          std::find(entry.detecting_rules.begin(),
                    entry.detecting_rules.end(),
                    report.rule) != entry.detecting_rules.end();
      if (matches && (first == 0 || report.detected_at < first)) {
        first = report.detected_at;
      }
    }
    outcome.detection_check = static_cast<std::uint64_t>(
        (first + config.check_period - 1) / config.check_period);
  }
  return outcome;
}

}  // namespace

CoverageOutcome run_coverage_trial(core::FaultKind kind, std::uint64_t seed,
                                   const CoverageConfig& config) {
  constexpr std::int64_t kMaxAttempts = 12;
  CoverageOutcome outcome;
  for (std::int64_t nth = 1; nth <= kMaxAttempts; ++nth) {
    outcome = run_one_attempt(kind, seed, config, nth);
    // Detected, or the fault never even armed at this depth (no further
    // opportunities exist) -> stop.
    if (outcome.detected || !outcome.injected) break;
  }
  return outcome;
}

std::size_t run_fault_free_trial(core::MonitorType type, std::uint64_t seed,
                                 const CoverageConfig& config) {
  return run_trial(type, seed, config, inject::NullInjection::instance())
      .size();
}

FdTrialResult run_fd_trial(std::optional<core::FaultKind> kind,
                           std::uint64_t seed, const CoverageConfig& config) {
  const MonitorType type =
      kind ? inject::catalog_entry(*kind).exercised_on
           : MonitorType::kCommunicationCoordinator;

  inject::ScriptedInjection::Plan plan;
  plan.kind = kind.value_or(core::FaultKind::kEnterRequestLost);
  plan.sticky = kind ? inject::is_sticky_fault(*kind) : false;
  inject::ScriptedInjection scripted(plan);
  inject::InjectionController& injection =
      kind ? static_cast<inject::InjectionController&>(scripted)
           : inject::NullInjection::instance();

  FdTrialResult result;
  const auto validate = [&](rt::RobustMonitor& monitor) {
    result.history = monitor.monitor().history();
    result.event_count = result.history.size();
    result.fd_reports = core::validate_fd_rules(
        monitor.spec(), monitor.symbols(), result.history,
        monitor.monitor().state_trace(), sync::backend_now());
  };
  result.st_reports = run_trial(type, seed, config, injection, validate);
  result.injected = kind ? scripted.fired() : false;
  return result;
}

}  // namespace robmon::wl

#endif  // ROBMON_SYNC_BACKEND_SIM
