#include "workloads/dining.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "core/recovery.hpp"
#include "runtime/checker_pool.hpp"
#include "sync/gate.hpp"
#include "workloads/allocator.hpp"

namespace robmon::wl {

namespace {

util::TimeNs wall_now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Parade timing (impose-order phase 1): each philosopher takes left, then
/// right one step later, under a driver-side serialization, and keeps both
/// until the driver's check_now sweeps have certainly snapshotted the
/// double hold (see `sweeps` in run_dining_load).
constexpr util::TimeNs kParadeStepNs = 1 * util::kMillisecond;

bool is_timeout_rule(core::RuleId rule) {
  return rule == core::RuleId::kSt8cHoldExceedsTlimit ||
         rule == core::RuleId::kSt5ResidenceExceedsTmax ||
         rule == core::RuleId::kSt6EntryWaitExceedsTio;
}

core::MonitorSpec fork_spec(const std::string& name, util::TimeNs t_limit,
                            util::TimeNs t_max, util::TimeNs t_io,
                            util::TimeNs check_period) {
  core::MonitorSpec spec = core::MonitorSpec::allocator(name);
  spec.t_limit = t_limit;
  spec.t_max = t_max;
  spec.t_io = t_io;
  spec.check_period = check_period;
  return spec;
}

}  // namespace

DiningResult run_dining(const DiningOptions& options) {
  const int n = options.philosophers;

  core::CollectingSink sink;
  // The pool outlives the monitors (their destructors unregister).
  rt::CheckerPool::Options pool_options;
  pool_options.waitfor_checkpoint_period = options.checkpoint_period;
  pool_options.waitfor_sink = &sink;
  rt::CheckerPool pool(pool_options);

  std::vector<std::unique_ptr<rt::RobustMonitor>> fork_monitors;
  std::vector<std::unique_ptr<ResourceAllocator>> forks;
  fork_monitors.reserve(static_cast<std::size_t>(n));
  forks.reserve(static_cast<std::size_t>(n));
  rt::RobustMonitor::Options monitor_options;
  monitor_options.checker_pool = &pool;
  for (int f = 0; f < n; ++f) {
    fork_monitors.push_back(std::make_unique<rt::RobustMonitor>(
        fork_spec("fork-" + std::to_string(f), options.t_limit, options.t_max,
                  options.t_io, options.check_period),
        sink, monitor_options));
    forks.push_back(
        std::make_unique<ResourceAllocator>(*fork_monitors.back(), 1));
    fork_monitors.back()->start_checking();
  }

  std::atomic<int> finished{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < n; ++p) {
    threads.emplace_back([&, p] {
      const trace::Pid pid = p;
      int first = p;            // left fork
      int second = (p + 1) % n;  // right fork
      if (!options.symmetric_order && p == n - 1) std::swap(first, second);
      for (int round = 0; round < options.rounds; ++round) {
        if (forks[static_cast<std::size_t>(first)]->acquire(pid) !=
            rt::Status::kOk) {
          return;
        }
        if (options.grab_gap_ns > 0) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(options.grab_gap_ns));
        }
        if (forks[static_cast<std::size_t>(second)]->acquire(pid) !=
            rt::Status::kOk) {
          return;
        }
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(options.eat_ns));
        forks[static_cast<std::size_t>(second)]->release(pid);
        forks[static_cast<std::size_t>(first)]->release(pid);
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(options.think_ns));
      }
      finished.fetch_add(1, std::memory_order_relaxed);
    });
  }

  // Watchdog: wait for completion, a confirmed structural deadlock, or the
  // timeout; then poison the forks so that deadlocked philosophers unwind.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::nanoseconds(options.run_timeout);
  while (finished.load(std::memory_order_relaxed) < n &&
         std::chrono::steady_clock::now() < deadline) {
    if (sink.any_with_rule(core::RuleId::kWfCycleDetected)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const bool completed = finished.load(std::memory_order_relaxed) == n;
  if (!completed) {
    for (auto& monitor : fork_monitors) monitor->poison();
  }
  for (auto& thread : threads) thread.join();
  for (auto& monitor : fork_monitors) {
    monitor->stop_checking();
    if (completed) monitor->check_now();  // final segment on clean runs
  }

  DiningResult result;
  result.completed = completed;
  result.reports = sink.reports();
  result.fault_reports = result.reports.size();
  for (const auto& report : result.reports) {
    if (is_timeout_rule(report.rule)) result.deadlock_reported = true;
    if (report.rule == core::RuleId::kWfCycleDetected) {
      result.global_deadlock_reported = true;
      result.cycles.push_back(report.message);
    }
  }
  return result;
}

DiningLoadResult run_dining_load(const DiningLoadOptions& options) {
  const std::size_t rings = options.rings;
  const int n = options.philosophers;
  const std::size_t forks_per_ring = static_cast<std::size_t>(n);
  const std::size_t deadlock_rings = std::min(options.deadlock_rings, rings);
  const std::size_t clean_rings = rings - deadlock_rings;

  const bool recovery_on = options.recovery != DiningRecovery::kOff;
  const bool impose = options.recovery == DiningRecovery::kImposeOrder;

  core::CollectingSink sink;
  core::RecoveryPolicy::Options policy_options;
  policy_options.confirmed_remedy =
      options.recovery == DiningRecovery::kDeliverFault
          ? core::RecoveryRemedy::kDeliverFault
          : core::RecoveryRemedy::kPoisonVictim;
  policy_options.preempt_predicted = impose;
  core::RecoveryPolicy policy(policy_options);
  sync::Gate gate;

  rt::CheckerPool::Options pool_options;
  pool_options.threads = options.pool_threads;
  pool_options.waitfor_checkpoint_period = options.checkpoint_period;
  pool_options.waitfor_sink = &sink;
  if (impose) {
    // Pre-emption needs the prediction checkpoint; the other modes leave it
    // off so the only verdicts are structural WF cycles.
    pool_options.lockorder_checkpoint_period = options.checkpoint_period;
    pool_options.lockorder_sink = &sink;
  }
  if (recovery_on) {
    pool_options.recovery.policy = &policy;
    pool_options.recovery.gate = &gate;
  }
  rt::CheckerPool pool(pool_options);

  const auto fork_name = [](std::size_t ring, int f) {
    return "r" + std::to_string(ring) + "-fork" + std::to_string(f);
  };
  std::vector<std::unique_ptr<rt::RobustMonitor>> fork_monitors;
  std::vector<std::unique_ptr<ResourceAllocator>> forks;
  std::unordered_map<std::string, std::size_t> fork_index;
  fork_monitors.reserve(rings * forks_per_ring);
  forks.reserve(rings * forks_per_ring);
  rt::RobustMonitor::Options monitor_options;
  monitor_options.checker_pool = &pool;
  for (std::size_t r = 0; r < rings; ++r) {
    for (int f = 0; f < n; ++f) {
      fork_monitors.push_back(std::make_unique<rt::RobustMonitor>(
          fork_spec(fork_name(r, f), options.t_limit, options.t_max,
                    options.t_io, options.check_period),
          sink, monitor_options));
      forks.push_back(
          std::make_unique<ResourceAllocator>(*fork_monitors.back(), 1));
      fork_index.emplace(fork_name(r, f), forks.size() - 1);
      fork_monitors.back()->start_checking();
    }
  }
  const auto fork_at = [&](std::size_t ring, int f) -> ResourceAllocator& {
    return *forks[ring * forks_per_ring + static_cast<std::size_t>(f)];
  };

  // Rendezvous counters for the injected hold-and-wait cycles: a ring's
  // philosophers all take their left fork before anyone reaches for the
  // right one, making the circular wait certain, not just likely.
  std::vector<std::unique_ptr<std::atomic<int>>> left_held;
  // Impose-order mode: per-ring parade serialization (phase 1).
  std::vector<std::unique_ptr<std::mutex>> parade_mu;
  for (std::size_t r = 0; r < deadlock_rings; ++r) {
    left_held.push_back(std::make_unique<std::atomic<int>>(0));
    parade_mu.push_back(std::make_unique<std::mutex>());
  }
  const std::size_t injected_threads =
      deadlock_rings * static_cast<std::size_t>(n);
  std::atomic<std::size_t> parade_done{0};
  /// Full phase-1 check_now sweeps completed by the driver.  A parader
  /// keeps its double hold until this advances by 2: the second sweep to
  /// finish began after the first one did, hence after the hold began, so
  /// it snapshotted both forks mid-hold.  A fixed dwell is not enough — one
  /// sweep can outlast it on a slow (e.g. sanitizer) build.
  std::atomic<std::uint64_t> sweeps{0};
  std::atomic<bool> phase2_go{false};
  std::atomic<std::size_t> recovered_done{0};
  /// Wall time the first injected cycle closed (recovery-latency clock).
  std::atomic<util::TimeNs> deadlock_formed_at{0};

  std::atomic<std::size_t> clean_finished{0};
  // Raised before the forks are poisoned: a ring whose rendezvous never
  // completed (e.g. the watchdog timed out first) must abandon the spin
  // wait below instead of spinning forever against ring-mates that
  // unwound with kPoisoned.
  std::atomic<bool> tearing_down{false};
  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < rings; ++r) {
    const bool inject_deadlock = r < deadlock_rings;
    for (int p = 0; p < n; ++p) {
      threads.emplace_back([&, r, p, inject_deadlock] {
        const trace::Pid pid =
            static_cast<trace::Pid>(r * forks_per_ring) + p;
        if (inject_deadlock) {
          const int left = p;
          const int right = (p + 1) % n;
          std::atomic<int>& held = *left_held[r];

          if (impose) {
            // Phase 1 — parade: serialized, each philosopher briefly holds
            // left+right, so the circular order relation is recorded with
            // no real deadlock possible.  The driver sweeps check_now over
            // the forks, warns, and imposes before phase 2 starts.
            {
              std::lock_guard<std::mutex> parade(*parade_mu[r]);
              if (fork_at(r, left).acquire(pid) != rt::Status::kOk) return;
              std::this_thread::sleep_for(
                  std::chrono::nanoseconds(kParadeStepNs));
              if (fork_at(r, right).acquire(pid) != rt::Status::kOk) {
                fork_at(r, left).release(pid);
                return;
              }
              const std::uint64_t seen =
                  sweeps.load(std::memory_order_acquire);
              while (sweeps.load(std::memory_order_acquire) < seen + 2 &&
                     !tearing_down.load(std::memory_order_acquire)) {
                std::this_thread::sleep_for(std::chrono::microseconds(200));
              }
              fork_at(r, right).release(pid);
              fork_at(r, left).release(pid);
            }
            parade_done.fetch_add(1, std::memory_order_acq_rel);
            while (!phase2_go.load(std::memory_order_acquire)) {
              if (tearing_down.load(std::memory_order_acquire)) return;
              std::this_thread::sleep_for(std::chrono::microseconds(200));
            }
            // Phase 2 — the rendezvous crossing that deterministically
            // deadlocks without recovery, now gate-aware: the imposed
            // order re-sorts the acquisition sequence and fenced pids
            // cross exclusively, so the cycle can no longer close.
            std::vector<std::string> crossing = {fork_name(r, left),
                                                 fork_name(r, right)};
            gate.apply_order(crossing);
            sync::Gate::Scope scope(gate, pid);
            if (forks[fork_index.at(crossing[0])]->acquire(pid) !=
                rt::Status::kOk) {
              return;
            }
            held.fetch_add(1, std::memory_order_acq_rel);
            while (held.load(std::memory_order_acquire) < n) {
              // The imposition makes the all-hold rendezvous unreachable;
              // proceeding is exactly what the imposed order licenses.
              if (gate.engaged()) break;
              if (tearing_down.load(std::memory_order_acquire)) return;
              std::this_thread::sleep_for(std::chrono::microseconds(100));
            }
            if (forks[fork_index.at(crossing[1])]->acquire(pid) !=
                rt::Status::kOk) {
              // Poisoned mid-crossing (teardown, or a confirmed-cycle
              // remedy racing the imposition): hand the first fork back
              // so the rest of the ring can still drain.
              forks[fork_index.at(crossing[0])]->release(pid);
              return;
            }
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(options.eat_ns));
            forks[fork_index.at(crossing[1])]->release(pid);
            forks[fork_index.at(crossing[0])]->release(pid);
            recovered_done.fetch_add(1, std::memory_order_acq_rel);
            return;
          }

          if (fork_at(r, left).acquire(pid) != rt::Status::kOk) return;
          if (held.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
            // Last left fork taken: from here every right-fork acquire can
            // only block — the cycle is closed (latency clock starts).
            util::TimeNs expected = 0;
            deadlock_formed_at.compare_exchange_strong(
                expected, wall_now(), std::memory_order_acq_rel);
          }
          while (held.load(std::memory_order_acquire) < n) {
            if (tearing_down.load(std::memory_order_acquire)) return;
            std::this_thread::sleep_for(std::chrono::microseconds(100));
          }
          if (!recovery_on) {
            // Detection-only: block forever; poison unwinds at teardown.
            (void)fork_at(r, right).acquire(pid);
            return;
          }
          // Recovery liveness path (poison-victim / deliver-fault): a
          // kRecoveryFault eviction hands the left fork back — which lets
          // the ring drain — then retries the full crossing until it
          // succeeds (on a poisoned victim monitor that also exercises the
          // poison ending with its hold and restoring service).
          bool have_left = true;
          for (;;) {
            if (tearing_down.load(std::memory_order_acquire)) {
              if (have_left) fork_at(r, left).release(pid);
              return;
            }
            if (!have_left) {
              const rt::Status status = fork_at(r, left).acquire(pid);
              if (status == rt::Status::kPoisoned) return;
              if (status != rt::Status::kOk) {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
                continue;
              }
              have_left = true;
            }
            const rt::Status status = fork_at(r, right).acquire(pid);
            if (status == rt::Status::kOk) break;
            if (status == rt::Status::kPoisoned) {
              fork_at(r, left).release(pid);
              return;
            }
            fork_at(r, left).release(pid);
            have_left = false;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(options.eat_ns));
          fork_at(r, right).release(pid);
          fork_at(r, left).release(pid);
          recovered_done.fetch_add(1, std::memory_order_acq_rel);
          return;
        }
        // Clean ring: asymmetric grab order, cannot deadlock.
        int first = p;
        int second = (p + 1) % n;
        if (p == n - 1) std::swap(first, second);
        for (int round = 0; round < options.rounds; ++round) {
          if (fork_at(r, first).acquire(pid) != rt::Status::kOk) return;
          if (fork_at(r, second).acquire(pid) != rt::Status::kOk) return;
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(options.eat_ns));
          fork_at(r, second).release(pid);
          fork_at(r, first).release(pid);
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(options.think_ns));
        }
        clean_finished.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }

  // Ring of a WF report: its pid encodes ring * philosophers + seat.
  const auto ring_of = [&](trace::Pid pid) -> std::size_t {
    return static_cast<std::size_t>(pid) / forks_per_ring;
  };
  const auto detected_rings = [&] {
    std::vector<bool> seen(rings, false);
    for (const auto& report : sink.reports()) {
      if (report.rule != core::RuleId::kWfCycleDetected) continue;
      if (report.pid == trace::kNoPid) continue;
      const std::size_t ring = ring_of(report.pid);
      if (ring < rings) seen[ring] = true;
    }
    return seen;
  };

  const std::size_t clean_threads = clean_rings * static_cast<std::size_t>(n);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::nanoseconds(options.run_timeout);
  const auto expired = [&] {
    return std::chrono::steady_clock::now() >= deadline;
  };
  util::TimeNs first_action_at = 0;
  util::TimeNs impose_baseline = 0;

  if (impose) {
    // Phase-1 observation: sweep every injected-ring fork while the
    // parades run; each parader holds until two sweeps have finished, so
    // each double hold is certainly snapshotted into the order relation.
    while (parade_done.load(std::memory_order_acquire) < injected_threads &&
           !expired()) {
      for (std::size_t i = 0; i < deadlock_rings * forks_per_ring; ++i) {
        fork_monitors[i]->check_now();
      }
      sweeps.fetch_add(1, std::memory_order_acq_rel);
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    impose_baseline = wall_now();
    // Drive prediction passes until every injected ring has been imposed
    // on; only then may the deterministic crossing start.
    while (pool.orders_imposed() < deadlock_rings && !expired()) {
      pool.run_lockorder_checkpoint();
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    if (pool.recovery_actions() > 0) first_action_at = wall_now();
    phase2_go.store(true, std::memory_order_release);
  }

  while (!expired()) {
    if (recovery_on) {
      // Liveness contract: the run is done when everything completed —
      // deterministically deadlocking rings included.
      if (first_action_at == 0 && pool.recovery_actions() > 0) {
        first_action_at = wall_now();
      }
      if (recovered_done.load(std::memory_order_acquire) ==
              injected_threads &&
          clean_finished.load(std::memory_order_relaxed) == clean_threads) {
        break;
      }
    } else {
      const std::vector<bool> seen = detected_rings();
      std::size_t injected_seen = 0;
      for (std::size_t r = 0; r < deadlock_rings; ++r) {
        if (seen[r]) ++injected_seen;
      }
      if (injected_seen == deadlock_rings &&
          clean_finished.load(std::memory_order_relaxed) == clean_threads) {
        break;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (recovery_on && pool.victims_poisoned() > pool.monitors_unpoisoned()) {
    // Closing pass: every crossing is done, so every poisoned hold has
    // ended; one check per fork records the completion deterministically
    // instead of depending on periodic timing.
    for (std::size_t i = 0; i < deadlock_rings * forks_per_ring; ++i) {
      fork_monitors[i]->check_now();
    }
  }
  tearing_down.store(true, std::memory_order_release);
  phase2_go.store(true, std::memory_order_release);
  for (auto& monitor : fork_monitors) monitor->poison();
  for (auto& thread : threads) thread.join();
  for (auto& monitor : fork_monitors) monitor->stop_checking();

  DiningLoadResult result;
  // Impose-order pre-empts the cycle, so no structural deadlock may close;
  // its success metric is orders_imposed + liveness, not detections.
  result.deadlocks_expected = impose ? 0 : deadlock_rings;
  result.clean_rings_completed =
      clean_finished.load(std::memory_order_relaxed) == clean_threads;
  result.checkpoints_run = pool.waitfor_checkpoints();
  result.reports = sink.reports();
  result.fault_reports = result.reports.size();
  const std::vector<bool> seen = detected_rings();
  for (std::size_t r = 0; r < rings; ++r) {
    if (!seen[r]) continue;
    if (r < deadlock_rings && !impose) {
      ++result.deadlocked_rings_detected;
    } else {
      // A clean ring named by any cycle — or any closed cycle at all under
      // pre-emption — is a false positive.
      ++result.false_positive_rings;
    }
  }
  result.missed_detections =
      result.deadlocks_expected > result.deadlocked_rings_detected
          ? result.deadlocks_expected - result.deadlocked_rings_detected
          : 0;
  for (const auto& report : result.reports) {
    if (report.rule == core::RuleId::kWfCycleDetected) {
      result.cycles.push_back(report.message);
    }
  }
  result.recovered_rings_completed =
      recovery_on &&
      recovered_done.load(std::memory_order_acquire) == injected_threads;
  result.recovery_actions = pool.recovery_actions();
  result.victims_poisoned = pool.victims_poisoned();
  result.faults_delivered = pool.recovery_faults_delivered();
  result.orders_imposed = pool.orders_imposed();
  result.monitors_unpoisoned = pool.monitors_unpoisoned();
  result.recovery_log = pool.recovery_log();
  if (first_action_at != 0) {
    const util::TimeNs base =
        impose ? impose_baseline
               : deadlock_formed_at.load(std::memory_order_acquire);
    if (base > 0 && first_action_at > base) {
      result.recovery_latency_ns =
          static_cast<std::uint64_t>(first_action_at - base);
    }
  }
  return result;
}

}  // namespace robmon::wl
