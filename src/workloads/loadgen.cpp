#include "workloads/loadgen.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "runtime/checker_pool.hpp"
#include "workloads/account.hpp"
#include "workloads/allocator.hpp"
#include "workloads/bounded_buffer.hpp"

namespace robmon::wl {

namespace {

void simulated_work(util::TimeNs ns) {
  if (ns <= 0) return;
  std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
}

core::MonitorSpec make_spec(const LoadOptions& options) {
  core::MonitorSpec spec;
  switch (options.type) {
    case core::MonitorType::kCommunicationCoordinator:
      spec = core::MonitorSpec::coordinator(
          "load-buffer", static_cast<std::int64_t>(options.capacity));
      break;
    case core::MonitorType::kResourceAllocator:
      spec = core::MonitorSpec::allocator("load-allocator");
      break;
    case core::MonitorType::kOperationManager:
      spec = core::MonitorSpec::manager("load-account");
      break;
  }
  spec.check_period = options.check_period;
  spec.t_max = options.t_max;
  spec.t_io = options.t_io;
  spec.t_limit = options.t_limit;
  return spec;
}

/// The monitor fleet both pool scenarios drive: alternating communication
/// coordinators (even index) and resource allocators (odd index) on one
/// shared pool, each with its own sink so detections are accounted per
/// monitor.  The first `faulty` coordinators carry the scripted II.c
/// injection their fabricated receive needs; each scenario injects the
/// faults itself.  Wrappers die before their monitors, and monitors
/// before their sinks (reverse declaration order).
struct Fleet {
  std::size_t faulty = 0;
  std::vector<std::unique_ptr<core::CollectingSink>> sinks;
  std::vector<std::unique_ptr<inject::ScriptedInjection>> injections;
  std::vector<std::unique_ptr<rt::RobustMonitor>> monitors;
  std::vector<std::unique_ptr<BoundedBuffer>> buffers;
  std::vector<std::unique_ptr<ResourceAllocator>> allocators;

  static bool is_coordinator(std::size_t i) { return i % 2 == 0; }

  /// Detection scorecard: every faulty monitor must report, no clean one.
  template <typename Result>
  void score(Result& result) const {
    result.faults_expected = faulty;
    for (std::size_t i = 0; i < sinks.size(); ++i) {
      const bool reported = sinks[i]->count() > 0;
      if (i < faulty) {
        if (reported) {
          ++result.faulty_detected;
        } else {
          ++result.missed_detections;
        }
      } else if (reported) {
        ++result.false_positive_monitors;
      }
    }
  }
};

/// `monitor_count` monitors named `prefix`-i on `pool`, sized and paced by
/// `options` (MultiLoadOptions or BudgetSpikeOptions).
template <typename Options>
Fleet build_fleet(rt::CheckerPool& pool, const std::string& prefix,
                  std::size_t monitor_count, const Options& options) {
  const int threads_per_monitor = std::max(1, options.threads_per_monitor);
  const std::size_t buffer_capacity = std::max<std::size_t>(
      options.capacity, static_cast<std::size_t>(threads_per_monitor));
  Fleet fleet;
  fleet.faulty = std::min(options.faulty_monitors, monitor_count);
  fleet.buffers.resize(monitor_count);
  fleet.allocators.resize(monitor_count);
  for (std::size_t i = 0; i < monitor_count; ++i) {
    const std::string name = prefix + "-" + std::to_string(i);
    core::MonitorSpec spec =
        Fleet::is_coordinator(i)
            ? core::MonitorSpec::coordinator(
                  name, static_cast<std::int64_t>(buffer_capacity))
            : core::MonitorSpec::allocator(name);
    spec.check_period = options.check_period;
    spec.t_max = 5 * util::kSecond;
    spec.t_io = 5 * util::kSecond;
    spec.t_limit = 5 * util::kSecond;

    fleet.sinks.push_back(std::make_unique<core::CollectingSink>());
    rt::RobustMonitor::Options monitor_options;
    monitor_options.checker_pool = &pool;
    monitor_options.cadence_max_stretch = options.max_stretch;
    fleet.monitors.push_back(std::make_unique<rt::RobustMonitor>(
        std::move(spec), *fleet.sinks.back(), monitor_options));

    if (Fleet::is_coordinator(i)) {
      inject::InjectionController* injection =
          &inject::NullInjection::instance();
      if (i < fleet.faulty) {
        fleet.injections.push_back(
            std::make_unique<inject::ScriptedInjection>(
                inject::ScriptedInjection::Plan{
                    core::FaultKind::kReceiveExceedsSend, trace::kNoPid, 1,
                    false}));
        injection = fleet.injections.back().get();
      }
      fleet.buffers[i] = std::make_unique<BoundedBuffer>(
          *fleet.monitors[i], buffer_capacity, *injection);
    } else {
      fleet.allocators[i] = std::make_unique<ResourceAllocator>(
          *fleet.monitors[i],
          static_cast<std::int64_t>(
              std::max<std::size_t>(1, options.capacity)));
    }
  }
  return fleet;
}

}  // namespace

LoadResult run_load(const LoadOptions& options) {
  core::CollectingSink sink;
  rt::RobustMonitor::Options monitor_options;
  monitor_options.instrumentation = options.instrumentation;
  rt::RobustMonitor monitor(make_spec(options), sink, monitor_options);

  const bool checking = options.periodic_checking &&
                        options.instrumentation == rt::Instrumentation::kFull;

  std::vector<std::thread> threads;
  std::uint64_t total_operations = 0;
  const auto started = std::chrono::steady_clock::now();

  switch (options.type) {
    case core::MonitorType::kCommunicationCoordinator: {
      BoundedBuffer buffer(monitor, options.capacity);
      const int producers = std::max(1, options.workers / 2);
      const int consumers = std::max(1, options.workers - producers);
      const std::int64_t total_items =
          options.ops_per_worker * static_cast<std::int64_t>(producers);
      const std::int64_t per_consumer = total_items / consumers;
      const std::int64_t remainder = total_items % consumers;
      if (checking) monitor.start_checking();
      for (int p = 0; p < producers; ++p) {
        threads.emplace_back([&, p] {
          const trace::Pid pid = p;
          for (std::int64_t i = 0; i < options.ops_per_worker; ++i) {
            if (buffer.send(pid, i) != rt::Status::kOk) return;
            simulated_work(options.work_ns);
          }
        });
      }
      for (int c = 0; c < consumers; ++c) {
        threads.emplace_back([&, c] {
          const trace::Pid pid = 1000 + c;
          const std::int64_t quota = per_consumer + (c == 0 ? remainder : 0);
          std::int64_t item = 0;
          for (std::int64_t i = 0; i < quota; ++i) {
            if (buffer.receive(pid, &item) != rt::Status::kOk) return;
            simulated_work(options.work_ns);
          }
        });
      }
      total_operations =
          static_cast<std::uint64_t>(total_items) * 2;  // sends + receives
      for (auto& thread : threads) thread.join();
      break;
    }
    case core::MonitorType::kResourceAllocator: {
      ResourceAllocator allocator(
          monitor, static_cast<std::int64_t>(std::max<std::size_t>(
                       1, options.capacity)));
      const std::int64_t iterations = options.ops_per_worker / 2;
      if (checking) monitor.start_checking();
      for (int w = 0; w < options.workers; ++w) {
        threads.emplace_back([&, w] {
          const trace::Pid pid = w;
          ClientOptions client;
          client.iterations = static_cast<int>(iterations);
          client.hold_ns = options.work_ns;
          client.think_ns = 0;
          run_allocator_client(allocator, pid,
                               inject::NullInjection::instance(), client);
        });
      }
      total_operations = static_cast<std::uint64_t>(iterations) * 2 *
                         static_cast<std::uint64_t>(options.workers);
      for (auto& thread : threads) thread.join();
      break;
    }
    case core::MonitorType::kOperationManager: {
      AccountManager account(monitor,
                             static_cast<std::int64_t>(options.workers));
      const int depositors = std::max(1, options.workers / 2);
      const int withdrawers = std::max(1, options.workers - depositors);
      const std::int64_t deposits_total =
          options.ops_per_worker * static_cast<std::int64_t>(depositors);
      const std::int64_t per_withdrawer = deposits_total / withdrawers;
      const std::int64_t remainder = deposits_total % withdrawers;
      if (checking) monitor.start_checking();
      for (int d = 0; d < depositors; ++d) {
        threads.emplace_back([&, d] {
          const trace::Pid pid = d;
          for (std::int64_t i = 0; i < options.ops_per_worker; ++i) {
            if (account.deposit(pid, 1) != rt::Status::kOk) return;
            simulated_work(options.work_ns);
          }
        });
      }
      for (int w = 0; w < withdrawers; ++w) {
        threads.emplace_back([&, w] {
          const trace::Pid pid = 1000 + w;
          const std::int64_t quota = per_withdrawer + (w == 0 ? remainder : 0);
          for (std::int64_t i = 0; i < quota; ++i) {
            if (account.withdraw(pid, 1) != rt::Status::kOk) return;
            simulated_work(options.work_ns);
          }
        });
      }
      total_operations = static_cast<std::uint64_t>(deposits_total) * 2;
      for (auto& thread : threads) thread.join();
      break;
    }
  }

  const auto finished = std::chrono::steady_clock::now();
  if (checking) {
    monitor.stop_checking();
    monitor.check_now();  // final segment
  }

  LoadResult result;
  result.operations = total_operations;
  result.seconds =
      std::chrono::duration<double>(finished - started).count();
  result.ops_per_second =
      result.seconds > 0 ? static_cast<double>(result.operations) /
                               result.seconds
                         : 0.0;
  result.checks_run = monitor.detector().checks_run();
  result.events_recorded = monitor.monitor().log().total_appended();
  result.faults_reported = sink.count();
  return result;
}

MultiLoadResult run_multi_load(const MultiLoadOptions& options) {
  const std::size_t monitor_count = std::max<std::size_t>(1, options.monitors);
  const int threads_per_monitor = std::max(1, options.threads_per_monitor);

  // Pool-scoped prediction sink (must stay empty).  Declared before the
  // pool: workers hold a pointer to it, so it must outlive them.
  core::CollectingSink lockorder_sink;
  rt::CheckerPool::Options pool_options;
  pool_options.threads = options.pool_threads;
  if (options.lockorder_checkpoint_period > 0) {
    pool_options.lockorder_checkpoint_period =
        options.lockorder_checkpoint_period;
    pool_options.lockorder_sink = &lockorder_sink;
  }
  rt::CheckerPool pool(pool_options);
  Fleet fleet = build_fleet(pool, "multi", monitor_count, options);

  // Deterministic fault injection before the measured region: a fabricated
  // receive from an empty buffer (II.c, caught by Algorithm-2 at the next
  // checking point) or a release-before-acquire client (III.a, caught by
  // the real-time phase and confirmed by Algorithm-3).
  for (std::size_t i = 0; i < fleet.faulty; ++i) {
    // Injector pids are globally unique (like the client pids below): the
    // lock-order join matches accesses by pid across monitors, so a pid
    // shared by threads on different monitors would fabricate order edges.
    const trace::Pid inject_pid = 9000 + static_cast<trace::Pid>(i);
    if (Fleet::is_coordinator(i)) {
      std::int64_t item = 0;
      fleet.buffers[i]->receive(inject_pid, &item);
    } else {
      inject::ScriptedInjection release_early(
          {core::FaultKind::kReleaseBeforeAcquire, trace::kNoPid, 1, false});
      ClientOptions client;
      client.iterations = 1;
      run_allocator_client(*fleet.allocators[i], inject_pid, release_early,
                           client);
    }
  }

  for (auto& monitor : fleet.monitors) monitor->start_checking();

  std::vector<std::thread> threads;
  threads.reserve(monitor_count * static_cast<std::size_t>(threads_per_monitor));
  const std::int64_t pairs = std::max<std::int64_t>(1, options.ops_per_thread / 2);
  const auto started = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < monitor_count; ++i) {
    for (int t = 0; t < threads_per_monitor; ++t) {
      const trace::Pid pid =
          100 + static_cast<trace::Pid>(i) * threads_per_monitor + t;
      if (Fleet::is_coordinator(i)) {
        BoundedBuffer* buffer = fleet.buffers[i].get();
        threads.emplace_back([buffer, pid, pairs] {
          std::int64_t item = 0;
          for (std::int64_t k = 0; k < pairs; ++k) {
            if (buffer->send(pid, k) != rt::Status::kOk) return;
            if (buffer->receive(pid, &item) != rt::Status::kOk) return;
          }
        });
      } else {
        ResourceAllocator* allocator = fleet.allocators[i].get();
        threads.emplace_back([allocator, pid, pairs] {
          ClientOptions client;
          client.iterations = static_cast<int>(pairs);
          run_allocator_client(*allocator, pid,
                               inject::NullInjection::instance(), client);
        });
      }
    }
  }
  for (auto& thread : threads) thread.join();
  const auto finished = std::chrono::steady_clock::now();

  const std::size_t checker_threads = pool.thread_count();

  for (auto& monitor : fleet.monitors) monitor->stop_checking();
  // Final synchronous check per monitor: drains the tail segment, so a
  // detection cannot be missed just because the run outpaced the cadence.
  for (auto& monitor : fleet.monitors) monitor->check_now();

  MultiLoadResult result;
  result.seconds = std::chrono::duration<double>(finished - started).count();
  result.operations = static_cast<std::uint64_t>(monitor_count) *
                      static_cast<std::uint64_t>(threads_per_monitor) *
                      static_cast<std::uint64_t>(pairs) * 2;
  result.ops_per_second =
      result.seconds > 0
          ? static_cast<double>(result.operations) / result.seconds
          : 0.0;
  for (std::size_t i = 0; i < monitor_count; ++i) {
    result.checks_run += fleet.monitors[i]->detector().checks_run();
    result.events_recorded +=
        fleet.monitors[i]->monitor().log().total_appended();
  }
  result.checks_per_second =
      result.seconds > 0
          ? static_cast<double>(result.checks_run) / result.seconds
          : 0.0;
  result.checker_threads = checker_threads;

  const std::uint64_t engine_checks = pool.checks_executed();
  const std::uint64_t quiesce_ns = pool.total_quiesce_ns();
  const std::uint64_t check_ns = pool.total_check_ns();
  result.dispatches = pool.dispatches();
  result.checks_coalesced = pool.checks_coalesced();
  result.events_lost = pool.events_lost();
  for (std::size_t i = 0; i < monitor_count; ++i) {
    result.idle_checks += fleet.monitors[i]->detector().idle_checks();
  }
  if (engine_checks > 0) {
    result.avg_quiesce_us =
        static_cast<double>(quiesce_ns) / engine_checks / 1000.0;
    result.avg_check_us =
        static_cast<double>(check_ns) / engine_checks / 1000.0;
    result.dispatches_per_1k_checks =
        static_cast<double>(result.dispatches) * 1000.0 /
        static_cast<double>(engine_checks);
  }
  if (result.dispatches > 0) {
    result.avg_batch = static_cast<double>(engine_checks) /
                       static_cast<double>(result.dispatches);
  }

  result.lockorder_checkpoints = pool.lockorder_checkpoints();
  result.lockorder_edges = pool.lockorder_edge_count();
  result.potential_deadlocks = lockorder_sink.count();
  fleet.score(result);
  return result;
}

namespace {

/// The spike scenario's controller; only the fraction is set per pass.
/// Under a sustained spike it may hunt between kShedPrediction and kWiden:
/// that is the intended closed-loop behaviour (it seeks the least
/// degradation that fits the budget), and the shed order holds through
/// every step.
rt::BudgetOptions spike_controller(double fraction) {
  return {.fraction = fraction,
          .ewma_alpha = 0.3,
          .recover_margin = 0.8,
          .decision_window = 50 * util::kMillisecond,
          .stretch_boost = 4.0,
          .widen_factor = 8.0};
}

/// One pass of the spike scenario on a fresh pool and fresh monitors,
/// governed by a budget of `fraction`.
BudgetSpikeResult run_spike_pass(const BudgetSpikeOptions& options,
                                 double fraction) {
  const std::size_t monitor_count = std::max<std::size_t>(2, options.monitors);
  const int threads_per_monitor = std::max(1, options.threads_per_monitor);

  // One shared pool carries the budget: the controller sees the spend of
  // every monitor and both checkpoints together.
  core::CollectingSink waitfor_sink;
  core::CollectingSink lockorder_sink;
  rt::CheckerPool::Options pool_options;
  pool_options.budget = spike_controller(fraction);
  if (options.waitfor_checkpoint_period > 0) {
    pool_options.waitfor_checkpoint_period = options.waitfor_checkpoint_period;
    pool_options.waitfor_sink = &waitfor_sink;
  }
  if (options.lockorder_checkpoint_period > 0) {
    pool_options.lockorder_checkpoint_period =
        options.lockorder_checkpoint_period;
    pool_options.lockorder_sink = &lockorder_sink;
  }
  rt::CheckerPool pool(pool_options);
  Fleet fleet = build_fleet(pool, "spike", monitor_count, options);

  // Coordinator faults go in before the run: the fabricated receive needs an
  // empty buffer, and Algorithm 2 catches it at any later checking point —
  // including one widened toward the timer bound.  Allocator faults are
  // injected at spike onset instead (below): the real-time calling-order
  // phase is state-independent, so injecting under full degradation proves
  // detection is never shed.  Injector pids stay globally unique (the
  // lock-order join matches accesses by pid across monitors).
  for (std::size_t i = 0; i < fleet.faulty; ++i) {
    if (!Fleet::is_coordinator(i)) continue;
    std::int64_t item = 0;
    fleet.buffers[i]->receive(9000 + static_cast<trace::Pid>(i), &item);
  }

  for (auto& monitor : fleet.monitors) monitor->start_checking();

  // Client threads run open-ended op pairs; the driver throttles them all
  // through one shared delay, which is what makes the spike a load change
  // rather than a different workload.
  std::atomic<util::TimeNs> op_delay{options.base_op_delay};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> operations{0};
  std::vector<std::thread> threads;
  threads.reserve(monitor_count *
                  static_cast<std::size_t>(threads_per_monitor));
  for (std::size_t i = 0; i < monitor_count; ++i) {
    for (int t = 0; t < threads_per_monitor; ++t) {
      const trace::Pid pid =
          100 + static_cast<trace::Pid>(i) * threads_per_monitor + t;
      if (Fleet::is_coordinator(i)) {
        BoundedBuffer* buffer = fleet.buffers[i].get();
        threads.emplace_back([buffer, pid, &op_delay, &stop, &operations] {
          std::int64_t item = 0;
          std::int64_t k = 0;
          while (!stop.load(std::memory_order_relaxed)) {
            if (buffer->send(pid, k++) != rt::Status::kOk) return;
            if (buffer->receive(pid, &item) != rt::Status::kOk) return;
            operations.fetch_add(2, std::memory_order_relaxed);
            simulated_work(op_delay.load(std::memory_order_relaxed));
          }
        });
      } else {
        ResourceAllocator* allocator = fleet.allocators[i].get();
        threads.emplace_back([allocator, pid, &op_delay, &stop, &operations] {
          while (!stop.load(std::memory_order_relaxed)) {
            if (allocator->acquire(pid) != rt::Status::kOk) return;
            if (allocator->release(pid) != rt::Status::kOk) return;
            operations.fetch_add(2, std::memory_order_relaxed);
            simulated_work(op_delay.load(std::memory_order_relaxed));
          }
        });
      }
    }
  }

  const util::Clock& clock = util::SteadyClock::instance();
  const auto sleep_ns = [](util::TimeNs ns) {
    if (ns > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
  };
  // Phase spend is the controller's own measure (thread-CPU time of every
  // batch, checkpoint pass and synchronous check), so the gate and the
  // calibration compare like with like.
  struct Mark {
    util::TimeNs t = 0;
    std::uint64_t spent_ns = 0;
    std::uint64_t waitfor = 0;
  };
  const auto mark = [&] {
    return Mark{clock.now_ns(), pool.budget_spent_ns(),
                pool.waitfor_checkpoints()};
  };
  const auto spend = [](const Mark& a, const Mark& b) {
    const util::TimeNs elapsed = b.t - a.t;
    return elapsed > 0 ? static_cast<double>(b.spent_ns - a.spent_ns) /
                             static_cast<double>(elapsed)
                       : 0.0;
  };
  const double settle_fraction =
      std::clamp(options.settle_fraction, 0.0, 0.95);
  const auto settle = [settle_fraction](util::TimeNs phase) {
    return static_cast<util::TimeNs>(static_cast<double>(phase) *
                                     settle_fraction);
  };

  // Phase 1: calm baseline.
  const auto run_started = mark();
  sleep_ns(options.baseline_ns);
  const auto baseline_end = mark();

  // Phase 2: spike — divide every client's pause, and inject the allocator
  // order violations right at the onset so they are detected while the
  // controller is degrading.
  op_delay.store(
      std::max<util::TimeNs>(
          1, options.base_op_delay / std::max(1, options.spike_multiplier)),
      std::memory_order_relaxed);
  for (std::size_t i = 0; i < fleet.faulty; ++i) {
    if (Fleet::is_coordinator(i)) continue;
    inject::ScriptedInjection release_early(
        {core::FaultKind::kReleaseBeforeAcquire, trace::kNoPid, 1, false});
    ClientOptions client;
    client.iterations = 1;
    run_allocator_client(*fleet.allocators[i],
                         9000 + static_cast<trace::Pid>(i), release_early,
                         client);
  }
  sleep_ns(settle(options.spike_ns));
  const auto spike_mid = mark();
  sleep_ns(options.spike_ns - settle(options.spike_ns));
  const auto spike_end = mark();

  // Phase 3: load subsides; the controller must retrace the ladder down.
  const util::TimeNs post_delay = options.post_op_delay > 0
                                      ? options.post_op_delay
                                      : 4 * options.base_op_delay;
  op_delay.store(post_delay, std::memory_order_relaxed);
  sleep_ns(settle(options.post_ns));
  const auto post_mid = mark();
  sleep_ns(options.post_ns - settle(options.post_ns));
  const auto post_end = mark();

  stop.store(true, std::memory_order_relaxed);
  for (auto& thread : threads) thread.join();
  for (auto& monitor : fleet.monitors) monitor->stop_checking();

  BudgetSpikeResult result;
  result.budget_fraction = fraction;
  result.baseline_spend = spend(run_started, baseline_end);
  result.spike_spend = spend(spike_mid, spike_end);
  result.post_spend = spend(post_mid, post_end);
  result.waitfor_passes_during_spike = spike_end.waitfor - spike_mid.waitfor;
  // The controller's record ends with the run: the final synchronous checks
  // below are teardown, and under the budget check_now() is measured too.
  result.transitions = pool.budget_transitions();
  result.prediction_sheds = pool.prediction_sheds();
  result.budget_log = pool.budget_log();
  for (auto& monitor : fleet.monitors) monitor->check_now();  // final segment
  // Replay the transition log: every record must chain from the previous
  // level and move exactly one rung — which makes "prediction shed before
  // detection widened" and "recovery retraced the ladder" structural facts
  // of the log rather than sampled observations.
  int level = 0;
  for (const auto& record : result.budget_log) {
    if (record.from != level || std::abs(record.to - record.from) != 1 ||
        record.to < 0 ||
        record.to > static_cast<int>(rt::BudgetLevel::kWiden)) {
      result.shed_order_ok = false;
    }
    level = record.to;
    result.max_level = std::max(result.max_level, record.to);
  }
  result.final_level = level;
  result.recovered = result.final_level ==
                     static_cast<int>(rt::BudgetLevel::kNominal);
  result.operations = operations.load(std::memory_order_relaxed);
  result.events_lost = pool.events_lost();
  result.seconds = static_cast<double>(post_end.t - run_started.t) / 1e9;
  fleet.score(result);
  return result;
}

}  // namespace

BudgetSpikeResult run_budget_spike(const BudgetSpikeOptions& options) {
  // Calibration pass: the same monitors, load and faults, calm and spike
  // phases only, under a controller that measures but never degrades (a
  // budget of the whole wall clock cannot be exceeded).  The budget is its
  // calm spend over the recovery margin, so the recovery threshold sits at
  // the uncontrolled calm spend: the calm baseline runs below the budget
  // and the gentler post phase must fall below the threshold.  It follows
  // the machine, and a sanitizer's cost, instead of a constant tuned on one
  // box.  The spike plays no part in it: whether the uncontrolled spike
  // overruns 1.5× the budget is the bench's check that the spend gate
  // cannot hold without the controller shedding.
  BudgetSpikeOptions calibration_options = options;
  calibration_options.post_ns = 0;
  const BudgetSpikeResult calibration =
      run_spike_pass(calibration_options, 1.0);
  const double fraction =
      std::clamp(calibration.baseline_spend /
                     spike_controller(1.0).recover_margin,
                 1e-6, 1.0);
  BudgetSpikeResult result = run_spike_pass(options, fraction);
  result.uncontrolled_baseline_spend = calibration.baseline_spend;
  result.uncontrolled_spike_spend = calibration.spike_spend;
  result.faults_expected += calibration.faults_expected;
  result.faulty_detected += calibration.faulty_detected;
  result.missed_detections += calibration.missed_detections;
  result.false_positive_monitors += calibration.false_positive_monitors;
  result.events_lost += calibration.events_lost;
  return result;
}

}  // namespace robmon::wl
