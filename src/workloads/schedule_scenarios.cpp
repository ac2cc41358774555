#include "workloads/schedule_scenarios.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

namespace robmon::wl {

const char* to_string(ScheduleScenario scenario) {
  switch (scenario) {
    case ScheduleScenario::kRecoveryFull:
      return "recovery-full";
    case ScheduleScenario::kDeliverToVictim:
      return "deliver-to-victim";
    case ScheduleScenario::kPoisonDuringWait:
      return "poison-during-wait";
    case ScheduleScenario::kUnpoisonRacesNewBlocker:
      return "unpoison-races-new-blocker";
    case ScheduleScenario::kRemovePoisonedMonitor:
      return "remove-poisoned-monitor";
    case ScheduleScenario::kGateImpositionRacesCrossing:
      return "gate-imposition-races-crossing";
  }
  return "unknown";
}

ScheduleScenario scenario_from_name(const std::string& name) {
  for (const ScheduleScenario scenario : kAllScheduleScenarios) {
    if (name == to_string(scenario)) return scenario;
  }
  throw std::invalid_argument("unknown schedule scenario: " + name);
}

std::string ScenarioResult::scorecard() const {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "wf=%llu lo=%llu act=%llu poison=%llu deliver=%llu "
                "unpoison=%llu impose=%llu fenced=%llu rf=%d reports=%llu",
                static_cast<unsigned long long>(deadlocks_reported),
                static_cast<unsigned long long>(potential_deadlocks),
                static_cast<unsigned long long>(recovery_actions),
                static_cast<unsigned long long>(victims_poisoned),
                static_cast<unsigned long long>(faults_delivered),
                static_cast<unsigned long long>(monitors_unpoisoned),
                static_cast<unsigned long long>(orders_imposed),
                static_cast<unsigned long long>(fenced_crossings),
                recovery_faults,
                static_cast<unsigned long long>(reports_total));
  return buffer;
}

}  // namespace robmon::wl

#if !defined(ROBMON_SYNC_BACKEND_SIM)

namespace robmon::wl {

ScenarioResult run_schedule_scenario(ScheduleScenario, std::uint64_t) {
  throw std::logic_error(
      "run_schedule_scenario requires the SimBackend build "
      "(link robmon_sim / compile with ROBMON_SYNC_BACKEND_SIM)");
}

}  // namespace robmon::wl

#else  // ROBMON_SYNC_BACKEND_SIM

#include <memory>
#include <optional>
#include <vector>

#include "core/recovery.hpp"
#include "runtime/checker_pool.hpp"
#include "runtime/robust_monitor.hpp"
#include "sync/backend.hpp"
#include "sync/gate.hpp"
#include "sync/sim_backend.hpp"
#include "trace/codec.hpp"
#include "workloads/allocator.hpp"

namespace robmon::wl {
namespace {

using core::RuleId;
using rt::CheckerPool;
using rt::RobustMonitor;
using sync::SimScheduler;
using util::kMillisecond;
using util::kSecond;
using util::TimeNs;

constexpr TimeNs kMicrosecond = 1'000;

core::MonitorSpec alloc_spec(const std::string& name) {
  core::MonitorSpec spec = core::MonitorSpec::allocator(name);
  // Timer rules far out of the way: these scenarios exercise the wait-for /
  // lock-order / recovery paths, not Tio/Tmax/Tlimit.
  spec.t_limit = 30 * kSecond;
  spec.t_max = 30 * kSecond;
  spec.t_io = 30 * kSecond;
  spec.check_period = kMillisecond;
  return spec;
}

RobustMonitor::Options pool_options(CheckerPool& pool) {
  RobustMonitor::Options options;
  options.checker_pool = &pool;
  options.retain_trace = true;
  return options;
}

/// Scenario-side invariant recorder: the first violated expectation is
/// captured (with the scenario still running to completion where possible)
/// so the explorer can print seed + replay command instead of aborting.
struct Recorder {
  ScenarioResult& result;

  void fail(const std::string& message) {
    if (result.failure.empty()) result.failure = message;
  }
  void expect(bool condition, const std::string& message) {
    if (!condition) fail(message);
  }
  void expect_eq(std::uint64_t got, std::uint64_t want,
                 const std::string& what) {
    if (got != want) {
      fail(what + ": got " + std::to_string(got) + ", want " +
           std::to_string(want));
    }
  }
};

void vsleep(TimeNs delta) { sync::backend_sleep_for(delta); }

/// Bounded virtual-time poll; the scheduler jumps the clock when everyone
/// is parked, so this always makes progress.
template <typename Predicate>
bool poll_until(Predicate pred, int tries = 2000,
                TimeNs step = 200 * kMicrosecond) {
  for (int i = 0; i < tries; ++i) {
    if (pred()) return true;
    vsleep(step);
  }
  return false;
}

/// Fold the pool/gate/sink state into the scorecard; append every
/// retain_trace monitor's v6 trace in the given (fixed) order.
void collect(ScenarioResult& result, const CheckerPool* pool,
             const sync::Gate* gate, const core::CollectingSink& sink,
             const std::vector<const RobustMonitor*>& monitors) {
  if (pool != nullptr) {
    result.deadlocks_reported = pool->deadlocks_reported();
    result.potential_deadlocks = pool->potential_deadlocks_reported();
    result.recovery_actions = pool->recovery_actions();
    result.victims_poisoned = pool->victims_poisoned();
    result.faults_delivered = pool->recovery_faults_delivered();
    result.monitors_unpoisoned = pool->monitors_unpoisoned();
    result.orders_imposed = pool->orders_imposed();
  }
  if (gate != nullptr) {
    result.fenced_crossings = gate->fenced_crossings();
  }
  for (const auto& report : sink.reports()) {
    result.report_log.append(core::to_string(report.rule));
    result.report_log.append(" ");
    result.report_log.append(report.message);
    result.report_log.append("\n");
    ++result.reports_total;
  }
  for (const RobustMonitor* monitor : monitors) {
    result.trace += trace::write_trace_string(monitor->export_trace());
  }
}

/// Reports outside {WF verdict, LO warning, RC action} are recovery-induced
/// false positives — the bug class the suspension/re-baseline plumbing
/// exists to prevent.
void expect_only_recovery_reports(Recorder& rec,
                                  const core::CollectingSink& sink) {
  for (const auto& report : sink.reports()) {
    rec.expect(report.rule == RuleId::kWfCycleDetected ||
                   report.rule == RuleId::kLockOrderCycle ||
                   report.rule == RuleId::kRecoveryAction,
               "unexpected report: " +
                   std::string(core::to_string(report.rule)) + " " +
                   report.message);
  }
}

// --- Deadlocking client pair (shared by the confirmed-cycle scenarios). ------
//
// A takes f0 then f1, B takes f1 then f0; the stagger sleeps guarantee both
// first acquisitions land before either second one, so the cycle always
// closes and the pool's periodic wait-for checkpoint must break it.  The
// evicted client releases its other hold so the survivor can finish —
// full liveness, no teardown poison.
struct DeadlockPair {
  ResourceAllocator& f0;
  ResourceAllocator& f1;
  int* recovery_faults;

  void run_a() const {
    if (f0.acquire(1) != rt::Status::kOk) return;
    vsleep(200 * kMicrosecond);
    const rt::Status status = f1.acquire(1);
    if (status == rt::Status::kRecoveryFault) {
      ++*recovery_faults;
      f0.release(1);
    } else if (status == rt::Status::kOk) {
      f1.release(1);
      f0.release(1);
    }
  }
  void run_b() const {
    if (f1.acquire(2) != rt::Status::kOk) return;
    vsleep(200 * kMicrosecond);
    const rt::Status status = f0.acquire(2);
    if (status == rt::Status::kRecoveryFault) {
      ++*recovery_faults;
      f1.release(2);
    } else if (status == rt::Status::kOk) {
      f0.release(2);
      f1.release(2);
    }
  }
};

// --- Scenario bodies (each runs inside the scenario-main fiber). -------------

void run_recovery_full(SimScheduler& sched, Recorder& rec,
                       ScenarioResult& result) {
  core::CollectingSink sink;
  core::RecoveryPolicy policy([] {
    core::RecoveryPolicy::Options options;
    options.confirmed_remedy = core::RecoveryRemedy::kPoisonVictim;
    return options;
  }());
  sync::Gate gate;
  CheckerPool pool([&] {
    CheckerPool::Options options;
    options.waitfor_checkpoint_period = kMillisecond;
    options.waitfor_sink = &sink;
    options.lockorder_checkpoint_period = kMillisecond;
    options.lockorder_sink = &sink;
    options.recovery.policy = &policy;
    options.recovery.gate = &gate;
    return options;
  }());
  // Every monitor feeds the order relation, so the deadlocking pair's
  // opposite-order holds on f0/f1 draw a true order warning (and an
  // imposition) of their own beside the g0/g1 one.
  RobustMonitor m0(alloc_spec("f0"), sink, pool_options(pool));
  RobustMonitor m1(alloc_spec("f1"), sink, pool_options(pool));
  RobustMonitor m2(alloc_spec("g0"), sink, pool_options(pool));
  RobustMonitor m3(alloc_spec("g1"), sink, pool_options(pool));
  ResourceAllocator f0(m0, 1), f1(m1, 1), g0(m2, 1), g1(m3, 1);
  m0.start_checking();
  m1.start_checking();
  m2.start_checking();
  m3.start_checking();

  // Confirmed-cycle half: the deadlocking pair, broken by victim poison.
  int recovery_faults = 0;
  DeadlockPair pair{f0, f1, &recovery_faults};
  const int fiber_a = sched.spawn([&] { pair.run_a(); }, "client-a");
  const int fiber_b = sched.spawn([&] { pair.run_b(); }, "client-b");

  // Predicted-cycle half: C crosses g0→g1 twice, then (strictly after C —
  // a real overlap would close a second confirmed cycle) D crosses g1→g0
  // once.  Holds span multiple check periods so periodic snapshots witness
  // both orders; the lock-order checkpoint must impose the dominant order
  // and fence the minority witness (pid 4) — pre-emption, no deadlock ever.
  const int fiber_c = sched.spawn(
      [&] {
        for (int round = 0; round < 2; ++round) {
          if (g0.acquire(3) != rt::Status::kOk) return;
          vsleep(500 * kMicrosecond);
          if (g1.acquire(3) != rt::Status::kOk) return;
          vsleep(2 * kMillisecond);
          g1.release(3);
          g0.release(3);
          vsleep(kMillisecond);
        }
      },
      "client-c");
  sched.join_fiber(fiber_c);
  const int fiber_d = sched.spawn(
      [&] {
        if (g1.acquire(4) != rt::Status::kOk) return;
        vsleep(500 * kMicrosecond);
        if (g0.acquire(4) != rt::Status::kOk) return;
        vsleep(2 * kMillisecond);
        g0.release(4);
        g1.release(4);
      },
      "client-d");
  sched.join_fiber(fiber_d);
  sched.join_fiber(fiber_a);
  sched.join_fiber(fiber_b);

  rec.expect(poll_until([&] { return gate.is_fenced(4); }),
             "g0/g1 imposition never fenced its minority witness");
  // The fenced witness crosses once more: the crossing must run under the
  // exclusive protocol.
  const int fiber_e = sched.spawn(
      [&] {
        sync::Gate::Scope scope(gate, 4);
        vsleep(100 * kMicrosecond);
      },
      "client-d-fenced");
  sched.join_fiber(fiber_e);

  // The poison ended when the survivor released the hold it was cast
  // against; the victim monitor's next check completes the recovery.
  rec.expect(poll_until([&] {
               return pool.monitors_unpoisoned() >= 1 &&
                      !m0.recovery_poisoned() && !m1.recovery_poisoned();
             }),
             "victim monitor never unpoisoned");
  m0.stop_checking();
  m1.stop_checking();
  m2.stop_checking();
  m3.stop_checking();

  result.recovery_faults = recovery_faults;
  collect(result, &pool, &gate, sink, {&m0, &m1, &m2, &m3});
  rec.expect_eq(result.recovery_faults, 1, "recovery faults seen");
  rec.expect_eq(pool.deadlocks_reported(), 1, "confirmed cycles");
  rec.expect_eq(pool.victims_poisoned(), 1, "victims poisoned");
  rec.expect_eq(pool.recovery_faults_delivered(), 0, "faults delivered");
  rec.expect_eq(pool.monitors_unpoisoned(), 1, "monitors unpoisoned");
  rec.expect_eq(pool.orders_imposed(), 2, "orders imposed");
  rec.expect_eq(pool.recovery_actions(), 3, "recovery actions");
  rec.expect_eq(pool.potential_deadlocks_reported(), 2, "order cycles");
  rec.expect(gate.engaged(), "gate not engaged after imposition");
  // Both impositions landed: the gate ranks both pairs (g0 first, C's
  // dominant order), and the g0/g1 minority witness stays fenced.
  const std::vector<std::string> imposed = gate.imposed_order();
  const auto rank = [&imposed](const char* name) {
    return std::find(imposed.begin(), imposed.end(), name) - imposed.begin();
  };
  const auto unranked = static_cast<std::ptrdiff_t>(imposed.size());
  rec.expect(rank("f0") < unranked && rank("f1") < unranked,
             "imposed order does not rank f0/f1");
  rec.expect(rank("g0") < rank("g1") && rank("g1") < unranked,
             "imposed order does not rank g0 before g1");
  rec.expect(gate.is_fenced(4), "pid 4 not fenced");
  rec.expect_eq(gate.fenced_crossings(), 1, "fenced crossings");
  rec.expect(m0.recovery_poisoned() == false && m1.recovery_poisoned() == false,
             "poison still sticky after dissolution");
  expect_only_recovery_reports(rec, sink);
}

void run_deliver_to_victim(SimScheduler& sched, Recorder& rec,
                           ScenarioResult& result) {
  core::CollectingSink sink;
  core::RecoveryPolicy policy([] {
    core::RecoveryPolicy::Options options;
    options.confirmed_remedy = core::RecoveryRemedy::kDeliverFault;
    return options;
  }());
  CheckerPool pool([&] {
    CheckerPool::Options options;
    options.waitfor_checkpoint_period = kMillisecond;
    options.waitfor_sink = &sink;
    options.recovery.policy = &policy;
    return options;
  }());
  RobustMonitor m0(alloc_spec("f0"), sink, pool_options(pool));
  RobustMonitor m1(alloc_spec("f1"), sink, pool_options(pool));
  ResourceAllocator f0(m0, 1), f1(m1, 1);
  m0.start_checking();
  m1.start_checking();

  int recovery_faults = 0;
  DeadlockPair pair{f0, f1, &recovery_faults};
  const int fiber_a = sched.spawn([&] { pair.run_a(); }, "client-a");
  const int fiber_b = sched.spawn([&] { pair.run_b(); }, "client-b");
  sched.join_fiber(fiber_a);
  sched.join_fiber(fiber_b);
  m0.stop_checking();
  m1.stop_checking();

  result.recovery_faults = recovery_faults;
  collect(result, &pool, nullptr, sink, {&m0, &m1});
  rec.expect_eq(result.recovery_faults, 1, "recovery faults seen");
  rec.expect_eq(pool.deadlocks_reported(), 1, "confirmed cycles");
  rec.expect_eq(pool.recovery_faults_delivered(), 1, "faults delivered");
  rec.expect_eq(pool.victims_poisoned(), 0, "victims poisoned");
  rec.expect_eq(pool.recovery_actions(), 1, "recovery actions");
  rec.expect(!m0.recovery_poisoned() && !m1.recovery_poisoned(),
             "delivery must not poison");
  expect_only_recovery_reports(rec, sink);
}

void run_poison_during_wait(SimScheduler& sched, Recorder& rec,
                            ScenarioResult& result) {
  core::CollectingSink sink;
  RobustMonitor::Options options;
  options.retain_trace = true;
  RobustMonitor monitor(alloc_spec("r"), sink, options);
  ResourceAllocator allocator(monitor, 1);

  constexpr int kWaiters = 3;
  int recovery_faults = 0;
  int completed = 0;
  std::vector<int> waiter_fibers;
  // Scenario-main owns the only unit BEFORE any waiter runs, so every
  // waiter parks on condition "available"; the poison lands mid-wait.
  if (allocator.acquire(9) != rt::Status::kOk) {
    rec.fail("holder could not take the unit");
    return;
  }
  for (int i = 0; i < kWaiters; ++i) {
    waiter_fibers.push_back(sched.spawn(
        [&, pid = trace::Pid(i + 1)] {
          for (;;) {
            const rt::Status status = allocator.acquire(pid);
            if (status == rt::Status::kOk) {
              vsleep(50 * kMicrosecond);
              allocator.release(pid);
              ++completed;
              return;
            }
            if (status == rt::Status::kRecoveryFault) ++recovery_faults;
            vsleep(200 * kMicrosecond);
          }
        },
        "waiter-" + std::to_string(i + 1)));
  }
  if (!poll_until(
          [&] { return monitor.snapshot().blocked_count() >= kWaiters; })) {
    rec.fail("waiters never parked");
  }
  // Cast against pid 9's hold, the only one.
  monitor.recovery_poison(monitor.snapshot().holders.at(0).ticket);
  vsleep(500 * kMicrosecond);
  monitor.unpoison();
  allocator.release(9);
  for (const int fiber : waiter_fibers) sched.join_fiber(fiber);

  result.recovery_faults = recovery_faults;
  collect(result, nullptr, nullptr, sink, {&monitor});
  rec.expect_eq(static_cast<std::uint64_t>(completed), kWaiters,
                "waiters completed after restore");
  rec.expect(recovery_faults >= kWaiters,
             "every parked waiter must evict with kRecoveryFault");
  rec.expect(!monitor.recovery_poisoned(), "poison still sticky");
  rec.expect_eq(monitor.snapshot().blocked_count(), 0, "stragglers parked");
}

void run_unpoison_races_new_blocker(SimScheduler& sched, Recorder& rec,
                                    ScenarioResult& result) {
  core::CollectingSink sink;
  RobustMonitor::Options options;
  options.retain_trace = true;
  RobustMonitor monitor(alloc_spec("r"), sink, options);
  ResourceAllocator allocator(monitor, 1);

  // Scenario-main holds the only unit across the poison window: poison
  // rejects exactly the calls that would park, so a free monitor would let
  // every arrival flow and there would be no race to explore.
  if (allocator.acquire(9) != rt::Status::kOk) {
    rec.fail("holder could not take the unit");
    return;
  }
  // Cast against pid 9's hold, the only one.
  monitor.recovery_poison(monitor.snapshot().holders.at(0).ticket);
  int recovery_faults = 0;
  int completed = 0;
  const int restorer = sched.spawn(
      [&] {
        vsleep(300 * kMicrosecond);
        monitor.unpoison();
      },
      "restorer");
  std::vector<int> blockers;
  for (int i = 0; i < 4; ++i) {
    // Arrival times straddle the unpoison (and the release below):
    // depending on the schedule a blocker sees kRecoveryFault (would have
    // parked while poisoned) or normal service — both legal; a hang or a
    // stuck poison is not.
    blockers.push_back(sched.spawn(
        [&, i, pid = trace::Pid(i + 1)] {
          vsleep(static_cast<TimeNs>(i) * 150 * kMicrosecond);
          for (;;) {
            const rt::Status status = allocator.acquire(pid);
            if (status == rt::Status::kOk) {
              vsleep(50 * kMicrosecond);
              allocator.release(pid);
              ++completed;
              return;
            }
            if (status == rt::Status::kRecoveryFault) ++recovery_faults;
            vsleep(100 * kMicrosecond);
          }
        },
        "blocker-" + std::to_string(i + 1)));
  }
  sched.join_fiber(restorer);
  vsleep(300 * kMicrosecond);
  allocator.release(9);
  for (const int fiber : blockers) sched.join_fiber(fiber);

  result.recovery_faults = recovery_faults;
  collect(result, nullptr, nullptr, sink, {&monitor});
  rec.expect_eq(static_cast<std::uint64_t>(completed), 4,
                "blockers completed after restore");
  rec.expect(recovery_faults >= 1,
             "no arrival ever raced the poison window");
  rec.expect(!monitor.recovery_poisoned(), "poison still sticky");
}

void run_remove_poisoned_monitor(SimScheduler& sched, Recorder& rec,
                                 ScenarioResult& result) {
  core::CollectingSink sink;
  core::RecoveryPolicy policy([] {
    core::RecoveryPolicy::Options options;
    options.confirmed_remedy = core::RecoveryRemedy::kPoisonVictim;
    return options;
  }());
  CheckerPool pool([&] {
    CheckerPool::Options options;
    options.waitfor_checkpoint_period = kMillisecond;
    options.waitfor_sink = &sink;
    options.recovery.policy = &policy;
    return options;
  }());
  std::optional<RobustMonitor> m0;
  std::optional<RobustMonitor> m1;
  m0.emplace(alloc_spec("f0"), sink, pool_options(pool));
  m1.emplace(alloc_spec("f1"), sink, pool_options(pool));
  std::optional<ResourceAllocator> f0;
  std::optional<ResourceAllocator> f1;
  f0.emplace(*m0, 1);
  f1.emplace(*m1, 1);
  m0->start_checking();
  m1->start_checking();

  // Satellite regression, raced against the churn below: check_now() on a
  // removed id must deterministically return empty stats, never throw.
  rt::HoareMonitor stale_source(alloc_spec("stale"), *sync::backend_clock());
  const CheckerPool::MonitorId stale_id = pool.add(stale_source);
  const int prober = sched.spawn(
      [&] {
        for (int i = 0; i < 20; ++i) {
          if (i == 7) pool.remove(stale_id);
          const auto stats = pool.check_now(stale_id);
          if (i > 7 && stats.events != 0) {
            rec.fail("check_now on removed id returned non-empty stats");
          }
          vsleep(300 * kMicrosecond);
        }
      },
      "prober");

  int recovery_faults = 0;
  DeadlockPair pair{*f0, *f1, &recovery_faults};
  const int fiber_a = sched.spawn([&] { pair.run_a(); }, "client-a");
  const int fiber_b = sched.spawn([&] { pair.run_b(); }, "client-b");
  sched.join_fiber(fiber_a);
  sched.join_fiber(fiber_b);
  rec.expect_eq(static_cast<std::uint64_t>(recovery_faults), 1,
                "recovery faults seen");

  // Destroy whichever monitor took the poison — the dtor runs
  // pool.remove() — racing its periodic checks: the survivor's release
  // ended the poison, and a check may or may not have recorded the
  // completion first (both orders are legal and the seed pins which one
  // this schedule takes).
  const std::string victim = pool.recovery_log().at(0).monitor;  // the 'P'
  if (victim == "f0") {
    f0.reset();
    m0.reset();
  } else if (victim == "f1") {
    f1.reset();
    m1.reset();
  }
  // Poll a few checkpoint periods: the pool must stay consistent — no new
  // reports, the surviving monitor clean.
  vsleep(5 * kMillisecond);
  sched.join_fiber(prober);
  if (m0) {
    rec.expect(!m0->recovery_poisoned(), "survivor f0 left poisoned");
    m0->stop_checking();
  }
  if (m1) {
    rec.expect(!m1->recovery_poisoned(), "survivor f1 left poisoned");
    m1->stop_checking();
  }

  result.recovery_faults = recovery_faults;
  std::vector<const RobustMonitor*> monitors;
  if (m0) monitors.push_back(&*m0);
  if (m1) monitors.push_back(&*m1);
  collect(result, &pool, nullptr, sink, monitors);
  rec.expect_eq(pool.deadlocks_reported(), 1, "confirmed cycles");
  rec.expect_eq(pool.victims_poisoned(), 1, "victims poisoned");
  rec.expect(pool.monitors_unpoisoned() <= 1, "unpoison count");
  expect_only_recovery_reports(rec, sink);
}

void run_gate_imposition_races_crossing(SimScheduler& sched, Recorder& rec,
                                        ScenarioResult& result) {
  core::CollectingSink sink;
  core::RecoveryPolicy policy([] {
    core::RecoveryPolicy::Options options;
    options.confirmed_remedy = core::RecoveryRemedy::kPoisonVictim;
    return options;
  }());
  sync::Gate gate;
  CheckerPool pool([&] {
    CheckerPool::Options options;
    options.lockorder_checkpoint_period = kMillisecond;
    options.lockorder_sink = &sink;
    options.recovery.policy = &policy;
    options.recovery.gate = &gate;
    return options;
  }());
  RobustMonitor m0(alloc_spec("g0"), sink, pool_options(pool));
  RobustMonitor m1(alloc_spec("g1"), sink, pool_options(pool));
  ResourceAllocator g0(m0, 1), g1(m1, 1);
  m0.start_checking();
  m1.start_checking();

  // Crossing traffic in flight the whole time, including pid 2 — the
  // minority witness the imposition will fence mid-stream.  A fenced
  // crossing must run alone.
  int inside = 0;
  bool overlap = false;
  bool done_crossing = false;
  std::vector<int> crossers;
  for (const trace::Pid pid : {trace::Pid(2), trace::Pid(11), trace::Pid(12)}) {
    crossers.push_back(sched.spawn(
        [&, pid] {
          while (!done_crossing) {
            {
              sync::Gate::Scope scope(gate, pid);
              const int occupancy = ++inside;
              if (gate.engaged() && gate.is_fenced(pid) && occupancy > 1) {
                overlap = true;
              }
              vsleep(100 * kMicrosecond);
              --inside;
            }
            vsleep(150 * kMicrosecond);
          }
        },
        "crosser-" + std::to_string(pid)));
  }

  // Inconsistent acquisition orders, strictly serialized (predicted-only):
  // pid 1 crosses g0→g1 twice, pid 2 crosses g1→g0 once.
  const int fiber_c = sched.spawn(
      [&] {
        for (int round = 0; round < 2; ++round) {
          if (g0.acquire(1) != rt::Status::kOk) return;
          vsleep(500 * kMicrosecond);
          if (g1.acquire(1) != rt::Status::kOk) return;
          vsleep(2 * kMillisecond);
          g1.release(1);
          g0.release(1);
          vsleep(kMillisecond);
        }
      },
      "order-major");
  sched.join_fiber(fiber_c);
  const int fiber_d = sched.spawn(
      [&] {
        if (g1.acquire(2) != rt::Status::kOk) return;
        vsleep(500 * kMicrosecond);
        if (g0.acquire(2) != rt::Status::kOk) return;
        vsleep(2 * kMillisecond);
        g0.release(2);
        g1.release(2);
      },
      "order-minor");
  sched.join_fiber(fiber_d);

  rec.expect(poll_until([&] { return pool.orders_imposed() >= 1; }),
             "imposition never fired");
  // Let fenced traffic cross the engaged gate a few more times.
  vsleep(2 * kMillisecond);
  done_crossing = true;
  for (const int fiber : crossers) sched.join_fiber(fiber);
  m0.stop_checking();
  m1.stop_checking();

  collect(result, &pool, &gate, sink, {&m0, &m1});
  rec.expect_eq(pool.orders_imposed(), 1, "orders imposed");
  rec.expect_eq(pool.recovery_actions(), 1, "recovery actions");
  rec.expect_eq(pool.potential_deadlocks_reported(), 1, "order cycles");
  rec.expect(gate.engaged(), "gate not engaged");
  rec.expect(gate.is_fenced(2), "minority witness not fenced");
  rec.expect(gate.fenced_crossings() >= 1, "no fenced crossing ran");
  rec.expect(!overlap, "fenced crossing overlapped another");
  expect_only_recovery_reports(rec, sink);
}

void run_body(ScheduleScenario scenario, SimScheduler& sched, Recorder& rec,
              ScenarioResult& result) {
  switch (scenario) {
    case ScheduleScenario::kRecoveryFull:
      return run_recovery_full(sched, rec, result);
    case ScheduleScenario::kDeliverToVictim:
      return run_deliver_to_victim(sched, rec, result);
    case ScheduleScenario::kPoisonDuringWait:
      return run_poison_during_wait(sched, rec, result);
    case ScheduleScenario::kUnpoisonRacesNewBlocker:
      return run_unpoison_races_new_blocker(sched, rec, result);
    case ScheduleScenario::kRemovePoisonedMonitor:
      return run_remove_poisoned_monitor(sched, rec, result);
    case ScheduleScenario::kGateImpositionRacesCrossing:
      return run_gate_imposition_races_crossing(sched, rec, result);
  }
  rec.fail("unknown scenario");
}

}  // namespace

ScenarioResult run_schedule_scenario(ScheduleScenario scenario,
                                     std::uint64_t seed) {
  ScenarioResult result;
  result.name = to_string(scenario);
  result.seed = seed;
  Recorder rec{result};

  SimScheduler sched([&] {
    SimScheduler::Options options;
    options.policy = sync::SchedulePolicy::kRandom;
    options.seed = seed;
    return options;
  }());
  sched.spawn([&] { run_body(scenario, sched, rec, result); },
              "scenario-main");
  const SimScheduler::StopReason stop = sched.run(2'000'000);
  result.schedule_digest = sched.schedule_digest();
  result.steps = sched.steps();
  result.virtual_end_ns = sched.now();
  if (stop == SimScheduler::StopReason::kQuiescent) {
    rec.fail("scheduler quiescent: undetected deadlock among fibers");
  } else if (stop == SimScheduler::StopReason::kMaxSteps) {
    rec.fail("scheduler step budget exhausted");
  }
  try {
    sched.rethrow_any_failure();
  } catch (const std::exception& error) {
    rec.fail(std::string("fiber exception: ") + error.what());
  }
  result.completed = result.failure.empty();
  return result;
}

}  // namespace robmon::wl

#endif  // ROBMON_SYNC_BACKEND_SIM
