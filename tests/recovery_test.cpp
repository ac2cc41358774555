// Recovery engine tests: victim policy units, the sync::Gate fence,
// survivable poison / fault-delivery semantics on the monitor (including
// churn around poison under a frozen ManualClock), pool-level actuation
// from both checkpoints, and the workload liveness contracts (a
// deterministically deadlocking ring must complete under every remedy,
// with exactly one action per cycle and zero actions on clean controls).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/recovery.hpp"
#include "runtime/checker_pool.hpp"
#include "runtime/robust_monitor.hpp"
#include "sync/gate.hpp"
#include "util/clock.hpp"
#include "workloads/allocator.hpp"
#include "workloads/dining.hpp"
#include "workloads/gate_crossing.hpp"

namespace robmon {
namespace {

using core::RuleId;
using rt::CheckerPool;
using rt::HoareMonitor;
using rt::RobustMonitor;
using util::kMillisecond;
using util::kSecond;

core::MonitorSpec fork_spec(const std::string& name) {
  core::MonitorSpec spec = core::MonitorSpec::allocator(name);
  spec.t_limit = 30 * kSecond;  // timers stay out of the way
  spec.t_max = 30 * kSecond;
  spec.t_io = 30 * kSecond;
  spec.check_period = 2 * kMillisecond;
  return spec;
}

// --- sync::Gate units. -------------------------------------------------------

TEST(GateTest, DisengagedIsANoOp) {
  sync::Gate gate;
  EXPECT_FALSE(gate.engaged());
  std::vector<std::string> names = {"b", "a"};
  gate.apply_order(names);
  EXPECT_EQ(names, (std::vector<std::string>{"b", "a"}));
  {
    sync::Gate::Scope scope(gate, 1);
    sync::Gate::Scope nested(gate, 2);  // shared side: no exclusion
  }
  EXPECT_EQ(gate.fenced_crossings(), 0u);
  EXPECT_EQ(gate.impositions(), 0u);
}

TEST(GateTest, ApplyOrderSortsOntoImposedOrder) {
  sync::Gate gate;
  gate.impose({"a", "b", "c"}, {7});
  EXPECT_TRUE(gate.engaged());
  EXPECT_TRUE(gate.is_fenced(7));
  EXPECT_FALSE(gate.is_fenced(8));
  std::vector<std::string> names = {"c", "x", "a", "y"};
  gate.apply_order(names);
  // Ranked names sort onto the imposed order; unranked keep their relative
  // position after every ranked one.
  EXPECT_EQ(names, (std::vector<std::string>{"a", "c", "x", "y"}));
}

TEST(GateTest, ImposeMergesOrdersAndFencedSets) {
  sync::Gate gate;
  gate.impose({"a", "b"}, {1});
  gate.impose({"c", "a", "d"}, {2});  // "a" keeps rank 0; c/d append
  EXPECT_EQ(gate.imposed_order(),
            (std::vector<std::string>{"a", "b", "c", "d"}));
  EXPECT_TRUE(gate.is_fenced(1));
  EXPECT_TRUE(gate.is_fenced(2));
  EXPECT_EQ(gate.impositions(), 2u);
}

TEST(GateTest, FencedCrossingRunsExclusively) {
  sync::Gate gate;
  gate.impose({"a", "b"}, {9});
  std::atomic<int> inside{0};
  std::atomic<bool> overlap{false};
  std::atomic<bool> fenced_ran{false};
  const auto crossing = [&](trace::Pid pid) {
    sync::Gate::Scope scope(gate, pid);
    if (pid == 9) fenced_ran = true;
    if (inside.fetch_add(1) > 0 && pid == 9) overlap = true;
    if (pid != 9 && fenced_ran.load()) {
      // a shared crossing observed while the fenced one ran would mean the
      // exclusion failed -- checked via the counter below instead (the
      // fenced crossing may simply have finished already).
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    inside.fetch_sub(1);
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back(crossing, i == 0 ? 9 : i + 10);
  }
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(overlap.load()) << "fenced crossing overlapped another";
  EXPECT_EQ(gate.fenced_crossings(), 1u);
}

// --- RecoveryPolicy units. ---------------------------------------------------

core::DeadlockCycle two_link_cycle() {
  core::DeadlockCycle cycle;
  core::DeadlockCycle::Link a;
  a.pid = 1;
  a.monitor = 10;
  a.monitor_name = "f0";
  a.cond = "available";
  a.blocked_since = 100;
  a.blocked_ticket = 5;
  a.holder = 2;
  core::DeadlockCycle::Link b;
  b.pid = 2;
  b.monitor = 11;
  b.monitor_name = "f1";
  b.cond = "available";
  b.blocked_since = 200;
  b.blocked_ticket = 9;
  b.holder = 1;
  cycle.links = {a, b};
  return cycle;
}

TEST(VictimPolicyTest, DefaultComparatorPrefersYoungestEpisode) {
  core::RecoveryPolicy policy;
  const core::RecoveryDecision decision = policy.decide(two_link_cycle());
  EXPECT_EQ(decision.victim.pid, 2);  // ticket 9 > ticket 5: youngest
  EXPECT_EQ(decision.victim.monitor_name, "f1");
  EXPECT_EQ(decision.remedy, core::RecoveryRemedy::kPoisonVictim);
  EXPECT_NE(decision.rationale.find("victim p2"), std::string::npos)
      << decision.rationale;
}

TEST(VictimPolicyTest, TicketTiesFallToHeldMonitorsThenPriority) {
  core::DeadlockCycle cycle = two_link_cycle();
  cycle.links[0].blocked_ticket = 7;
  cycle.links[0].blocked_since = 300;
  cycle.links[1].blocked_ticket = 7;
  cycle.links[1].blocked_since = 300;
  // p1 holds two cycle monitors, p2 holds one: p2 loses less work.
  cycle.links.push_back(cycle.links[0]);
  cycle.links[2].pid = 3;
  cycle.links[2].blocked_ticket = 7;
  cycle.links[2].blocked_since = 300;
  cycle.links[2].holder = 1;
  core::RecoveryPolicy policy;
  const auto candidates = policy.candidates(cycle);
  ASSERT_EQ(candidates.size(), 3u);
  const core::RecoveryDecision decision = policy.decide(cycle);
  EXPECT_NE(decision.victim.pid, 1);  // p1 holds 2 monitors, never chosen
}

TEST(VictimPolicyTest, PriorityHookProtectsImportantThreads) {
  core::RecoveryPolicy::Options options;
  options.confirmed_remedy = core::RecoveryRemedy::kDeliverFault;
  // Score by priority alone: p2 is important, p1 expendable.
  options.comparator = [](const core::VictimCandidate& a,
                          const core::VictimCandidate& b) {
    if (a.priority != b.priority) return a.priority < b.priority;
    return a.pid < b.pid;
  };
  options.priority = [](trace::Pid pid) { return pid == 2 ? 10 : 0; };
  core::RecoveryPolicy policy(options);
  const core::RecoveryDecision decision = policy.decide(two_link_cycle());
  EXPECT_EQ(decision.victim.pid, 1);
  EXPECT_EQ(decision.remedy, core::RecoveryRemedy::kDeliverFault);
}

TEST(OrderPolicyTest, MinorityEdgeFencedAndOrderLinearized) {
  core::OrderCycle cycle;
  core::OrderCycle::Step s0;
  s0.monitor = 1;
  s0.name = "a";
  s0.witness = {3, 1, 2, true};
  core::OrderCycle::Step s1;
  s1.monitor = 2;
  s1.name = "b";
  s1.witness = {4, 3, 4, true};
  cycle.steps = {s0, s1};

  std::vector<core::OrderEdge> edges(2);
  edges[0].from = 1;
  edges[0].to = 2;
  edges[0].from_name = "a";
  edges[0].to_name = "b";
  edges[0].witnesses = {{3, 1, 2, true}};
  edges[0].witness_total = 5;  // dominant direction
  edges[1].from = 2;
  edges[1].to = 1;
  edges[1].from_name = "b";
  edges[1].to_name = "a";
  edges[1].witnesses = {{4, 3, 4, true}, {6, 7, 8, true}};
  edges[1].witness_total = 2;  // minority direction

  core::RecoveryPolicy policy;
  const core::OrderDecision decision = policy.decide(cycle, edges);
  EXPECT_EQ(decision.minority_from, "b");
  EXPECT_EQ(decision.minority_to, "a");
  EXPECT_EQ(decision.fenced, (std::vector<trace::Pid>{4, 6}));
  // Linearized past the minority edge: the dominant a -> b points forward.
  EXPECT_EQ(decision.imposed_order, (std::vector<std::string>{"a", "b"}));
  EXPECT_NE(decision.rationale.find("imposed order a b"), std::string::npos)
      << decision.rationale;
}

// --- Survivable poison / fault delivery on the monitor. ----------------------

TEST(RecoveryPoisonTest, ParkedAndArrivingWaitersObserveRecoveryFault) {
  util::ManualClock clock(1000);  // frozen: semantics are clock-independent
  HoareMonitor monitor(fork_spec("m"), clock);

  ASSERT_EQ(monitor.enter(1, "Acquire"), rt::Status::kOk);  // owner inside
  std::atomic<int> status2{-1};
  std::thread parked([&] {
    status2 = static_cast<int>(monitor.enter(2, "Acquire"));
  });
  for (int spin = 0; spin < 4000 && monitor.snapshot().blocked_count() < 1;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::microseconds(250));
  }
  ASSERT_EQ(monitor.snapshot().blocked_count(), 1u);

  // Cast against the owner's ownership: sticky while pid 1 stays inside.
  monitor.recovery_poison(monitor.snapshot().running_ticket);
  parked.join();
  EXPECT_EQ(status2.load(), static_cast<int>(rt::Status::kRecoveryFault));

  // Arrivals after the poison observe the sticky state without parking.
  EXPECT_EQ(monitor.enter(3, "Acquire"), rt::Status::kRecoveryFault);
  EXPECT_TRUE(monitor.recovery_poisoned());

  // Unpoison restores normal service; the original owner still works.
  monitor.unpoison();
  EXPECT_FALSE(monitor.recovery_poisoned());
  monitor.exit(1);
  EXPECT_EQ(monitor.enter(3, "Acquire"), rt::Status::kOk);
  monitor.exit(3);
}

TEST(RecoveryPoisonTest, ConditionWaiterWakesAndOwnershipIsReleased) {
  util::ManualClock clock(1000);
  HoareMonitor monitor(fork_spec("m"), clock);

  std::atomic<int> status{-1};
  std::thread waiter([&] {
    ASSERT_EQ(monitor.enter(1, "Acquire"), rt::Status::kOk);
    status = static_cast<int>(monitor.wait(1, "available"));
  });
  for (int spin = 0; spin < 4000 && monitor.snapshot().blocked_count() < 1;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::microseconds(250));
  }
  // Nobody holds anything: a poison cast against no hold only evicts.
  monitor.recovery_poison(0);
  waiter.join();
  EXPECT_EQ(status.load(), static_cast<int>(rt::Status::kRecoveryFault));
  EXPECT_FALSE(monitor.recovery_poisoned());
  // The monitor is free again (the wait released ownership on park).
  EXPECT_EQ(monitor.enter(2, "Acquire"), rt::Status::kOk);
  monitor.exit(2);
}

TEST(RecoveryPoisonTest, NonBlockingTrafficFlowsWhilePoisoned) {
  // The poison rejects exactly the calls that would park; an enter of a
  // FREE monitor (the shape of a Release returning a unit) must proceed,
  // or the poisoned monitor could never drain back to service.
  util::ManualClock clock(1000);
  HoareMonitor monitor(fork_spec("m"), clock);
  monitor.note_hold(9);  // the hold the poison is cast against
  monitor.recovery_poison(monitor.snapshot().holders.at(0).ticket);
  EXPECT_EQ(monitor.enter(1, "Release"), rt::Status::kOk);
  monitor.exit(1);
  // A call that would block is still rejected.
  ASSERT_EQ(monitor.enter(2, "Acquire"), rt::Status::kOk);
  EXPECT_EQ(monitor.enter(3, "Acquire"), rt::Status::kRecoveryFault);
  EXPECT_EQ(monitor.wait(2, "available"), rt::Status::kRecoveryFault);
  monitor.unpoison();
}

TEST(RecoveryPoisonTest, PoisonEndsWithTheHoldItWasCastAgainst) {
  util::ManualClock clock(1000);
  HoareMonitor monitor(fork_spec("m"), clock);
  monitor.note_hold(9);
  monitor.note_hold(9);  // a second unit keeps the same hold episode
  monitor.note_hold(8);  // another holder's hold is not the poisoned one
  const auto holders = monitor.snapshot().holders;
  ASSERT_EQ(holders.size(), 2u);
  monitor.recovery_poison(holders.at(1).ticket);  // pid 9 (pid-sorted)
  ASSERT_EQ(monitor.enter(1, "Acquire"), rt::Status::kOk);
  EXPECT_EQ(monitor.enter(2, "Acquire"), rt::Status::kRecoveryFault);
  monitor.note_release(9);
  EXPECT_TRUE(monitor.recovery_poisoned());  // one unit still held
  monitor.note_release(9);
  // The hold episode ended: normal service, with no unpoison() call.
  EXPECT_FALSE(monitor.recovery_poisoned());
  std::atomic<int> status2{-1};
  std::thread parked([&] {
    status2 = static_cast<int>(monitor.enter(2, "Acquire"));
  });
  for (int spin = 0; spin < 4000 && monitor.snapshot().blocked_count() < 1;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::microseconds(250));
  }
  EXPECT_EQ(monitor.snapshot().blocked_count(), 1u);  // parked, not rejected
  monitor.exit(1);
  parked.join();
  EXPECT_EQ(status2.load(), static_cast<int>(rt::Status::kOk));
  monitor.exit(2);
  // A new hold by the same pid is a new episode: the poison stays ended.
  monitor.note_hold(9);
  EXPECT_FALSE(monitor.recovery_poisoned());
}

TEST(RecoveryPoisonTest, PoisonCastAgainstOwnershipEndsAtExit) {
  util::ManualClock clock(1000);
  HoareMonitor monitor(fork_spec("m"), clock);
  ASSERT_EQ(monitor.enter(1, "Acquire"), rt::Status::kOk);
  monitor.recovery_poison(monitor.snapshot().running_ticket);
  EXPECT_EQ(monitor.enter(2, "Acquire"), rt::Status::kRecoveryFault);
  monitor.exit(1);
  EXPECT_FALSE(monitor.recovery_poisoned());
  // The next ownership carries a fresh ticket.
  ASSERT_EQ(monitor.enter(2, "Acquire"), rt::Status::kOk);
  EXPECT_FALSE(monitor.recovery_poisoned());
  monitor.exit(2);
}

TEST(RecoveryPoisonTest, WaitUnderStickyPoisonReleasesOwnership) {
  util::ManualClock clock(1000);
  HoareMonitor monitor(fork_spec("m"), clock);
  ASSERT_EQ(monitor.enter(1, "Acquire"), rt::Status::kOk);
  monitor.recovery_poison(monitor.snapshot().running_ticket);
  // The owner's wait is rejected -- and must hand the monitor back, which
  // ends the ownership the poison was cast against.
  EXPECT_EQ(monitor.wait(1, "available"), rt::Status::kRecoveryFault);
  EXPECT_FALSE(monitor.recovery_poisoned());
  EXPECT_EQ(monitor.enter(2, "Acquire"), rt::Status::kOk);
  monitor.exit(2);
}

TEST(RecoveryPoisonTest, DeliverFaultWakesOnlyTheVictim) {
  util::ManualClock clock(1000);
  HoareMonitor monitor(fork_spec("m"), clock);

  ASSERT_EQ(monitor.enter(1, "Acquire"), rt::Status::kOk);  // owner
  std::atomic<int> status2{-1};
  std::atomic<int> status3{-1};
  std::thread victim([&] {
    status2 = static_cast<int>(monitor.enter(2, "Acquire"));
  });
  std::thread bystander([&] {
    status3 = static_cast<int>(monitor.enter(3, "Acquire"));
  });
  for (int spin = 0; spin < 4000 && monitor.snapshot().blocked_count() < 2;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::microseconds(250));
  }

  EXPECT_FALSE(monitor.deliver_recovery_fault(99));  // unknown pid: no-op
  EXPECT_TRUE(monitor.deliver_recovery_fault(2));
  victim.join();
  EXPECT_EQ(status2.load(), static_cast<int>(rt::Status::kRecoveryFault));
  EXPECT_EQ(status3.load(), -1);  // bystander still parked
  EXPECT_FALSE(monitor.recovery_poisoned());  // delivery does not poison

  monitor.exit(1);  // hand off to the bystander
  bystander.join();
  EXPECT_EQ(status3.load(), static_cast<int>(rt::Status::kOk));
  monitor.exit(3);
}

TEST(RecoveryPoisonTest, ChurnAroundPoisonStaysConsistent) {
  // Waiters parked before each poison and arrivals after it must both
  // observe kRecoveryFault; after the final unpoison every thread must be
  // able to complete normally.  ManualClock keeps timestamps frozen, so
  // nothing here depends on timing; TSan referees the handoffs.
  util::ManualClock clock(1000);
  HoareMonitor monitor(fork_spec("m"), clock);
  monitor.note_hold(99);  // keeps every poison below sticky until unpoison
  const std::uint64_t held = monitor.snapshot().holders.at(0).ticket;
  constexpr int kThreads = 8;
  std::atomic<bool> stop{false};
  std::atomic<int> ok_after_restore{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      const trace::Pid pid = i + 1;
      while (!stop.load(std::memory_order_acquire)) {
        const rt::Status status = monitor.enter(pid, "Acquire");
        ASSERT_NE(status, rt::Status::kPoisoned);
        if (status == rt::Status::kOk) monitor.exit(pid);
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      // Post-restore: normal service must be reachable for everyone.
      for (;;) {
        const rt::Status status = monitor.enter(pid, "Acquire");
        if (status == rt::Status::kOk) {
          monitor.exit(pid);
          ok_after_restore.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  }
  for (int cycle = 0; cycle < 20; ++cycle) {
    monitor.recovery_poison(held);
    clock.advance(kMillisecond);
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    monitor.unpoison();
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  }
  monitor.unpoison();
  monitor.note_release(99);
  stop.store(true, std::memory_order_release);
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(ok_after_restore.load(), kThreads);
  EXPECT_FALSE(monitor.recovery_poisoned());
}

// --- Pool-level actuation. ---------------------------------------------------

struct RecoveryFixture {
  core::CollectingSink sink;
  core::RecoveryPolicy policy;
  sync::Gate gate;
  CheckerPool pool;
  RobustMonitor m0, m1;
  wl::ResourceAllocator f0, f1;

  explicit RecoveryFixture(core::RecoveryRemedy remedy)
      : policy([&] {
          core::RecoveryPolicy::Options options;
          options.confirmed_remedy = remedy;
          return options;
        }()),
        pool([&] {
          CheckerPool::Options options;
          options.waitfor_checkpoint_period = kMillisecond;
          options.waitfor_sink = &sink;
          options.lockorder_checkpoint_period = kMillisecond;
          options.lockorder_sink = &sink;
          options.recovery.policy = &policy;
          options.recovery.gate = &gate;
          return options;
        }()),
        m0(fork_spec("f0"), sink, with_pool()),
        m1(fork_spec("f1"), sink, with_pool()),
        f0(m0, 1),
        f1(m1, 1) {}

  RobustMonitor::Options with_pool() {
    RobustMonitor::Options options;
    options.checker_pool = &pool;
    return options;
  }

  void wait_blocked(const RobustMonitor& monitor, std::size_t count) {
    for (int spin = 0; spin < 4000; ++spin) {
      if (monitor.snapshot().blocked_count() >= count) return;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    FAIL() << "thread never blocked";
  }

  std::size_t reports_with(RuleId rule) const {
    std::size_t n = 0;
    for (const auto& report : sink.reports()) {
      if (report.rule == rule) ++n;
    }
    return n;
  }
};

TEST(PoolRecoveryTest, PoisonVictimBreaksTwoMonitorDeadlock) {
  RecoveryFixture fx(core::RecoveryRemedy::kPoisonVictim);

  ASSERT_EQ(fx.f0.acquire(1), rt::Status::kOk);
  ASSERT_EQ(fx.f1.acquire(2), rt::Status::kOk);
  std::atomic<int> recovery_faults{0};
  std::thread t1([&] {
    if (fx.f1.acquire(1) == rt::Status::kRecoveryFault) ++recovery_faults;
  });
  std::thread t2([&] {
    if (fx.f0.acquire(2) == rt::Status::kRecoveryFault) ++recovery_faults;
  });
  fx.wait_blocked(fx.m0, 1);
  fx.wait_blocked(fx.m1, 1);

  fx.m0.check_now();
  fx.m1.check_now();
  EXPECT_EQ(fx.pool.run_waitfor_checkpoint(), 1u);

  // Exactly one action: the victim monitor was poisoned, its one waiter
  // evicted with kRecoveryFault; the deadlock is broken.
  EXPECT_EQ(fx.pool.recovery_actions(), 1u);
  EXPECT_EQ(fx.pool.victims_poisoned(), 1u);
  EXPECT_EQ(fx.reports_with(RuleId::kRecoveryAction), 1u);
  const bool m0_poisoned = fx.m0.recovery_poisoned();
  const bool m1_poisoned = fx.m1.recovery_poisoned();
  EXPECT_TRUE(m0_poisoned != m1_poisoned) << "exactly one victim monitor";
  // The evicted thread returns; the other stays parked behind a live hold.
  for (int spin = 0; spin < 4000 && recovery_faults.load() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  EXPECT_EQ(recovery_faults.load(), 1);

  // The cycle is gone, but the poison lasts as long as the hold it was
  // cast against: a wait-for pass no longer ends it.
  fx.m0.check_now();
  fx.m1.check_now();
  EXPECT_EQ(fx.pool.run_waitfor_checkpoint(), 0u);
  EXPECT_EQ(fx.pool.monitors_unpoisoned(), 0u);
  EXPECT_EQ(fx.m0.recovery_poisoned(), m0_poisoned);
  EXPECT_EQ(fx.m1.recovery_poisoned(), m1_poisoned);

  // The victim monitor's holder (pid 1 on f0, pid 2 on f1) releases: the
  // poison ends, and the next check completes the recovery.
  if (m0_poisoned) {
    ASSERT_EQ(fx.f0.release(1), rt::Status::kOk);
  } else {
    ASSERT_EQ(fx.f1.release(2), rt::Status::kOk);
  }
  EXPECT_FALSE(fx.m0.recovery_poisoned());
  EXPECT_FALSE(fx.m1.recovery_poisoned());
  fx.m0.check_now();
  fx.m1.check_now();
  EXPECT_EQ(fx.pool.monitors_unpoisoned(), 1u);

  // A second pass does not act again, and the detectors stay quiet: no
  // ST-Rule false positives from the out-of-band eviction.
  fx.m0.check_now();
  fx.m1.check_now();
  fx.pool.run_waitfor_checkpoint();
  EXPECT_EQ(fx.pool.recovery_actions(), 1u);
  for (const auto& report : fx.sink.reports()) {
    EXPECT_TRUE(report.rule == RuleId::kWfCycleDetected ||
                report.rule == RuleId::kRecoveryAction)
        << core::to_string(report.rule);
  }

  fx.m0.poison();
  fx.m1.poison();
  t1.join();
  t2.join();
}

// A poison ends with its hold, not at the next wait-for pass: a fresh
// crossing on the same forks right after the first episode unwound must
// block (not be turned away with kRecoveryFault) and be reported and
// acted on as a cycle of its own.
TEST(PoolRecoveryTest, FreshCycleAfterPoisonedHoldEndsIsDetected) {
  RecoveryFixture fx(core::RecoveryRemedy::kPoisonVictim);
  // One crossing of pid p: `first` is already held; take `second`, then
  // hand both back.  The evicted victim only returns `first`.
  const auto crossing = [](wl::ResourceAllocator& first,
                           wl::ResourceAllocator& second, trace::Pid pid,
                           std::atomic<int>& status) {
    status = static_cast<int>(second.acquire(pid));
    if (status == static_cast<int>(rt::Status::kOk)) second.release(pid);
    first.release(pid);
  };
  for (int episode = 1; episode <= 2; ++episode) {
    ASSERT_EQ(fx.f0.acquire(1), rt::Status::kOk);
    ASSERT_EQ(fx.f1.acquire(2), rt::Status::kOk);
    std::atomic<int> status1{-1};
    std::atomic<int> status2{-1};
    std::thread t1(crossing, std::ref(fx.f0), std::ref(fx.f1), 1,
                   std::ref(status1));
    std::thread t2(crossing, std::ref(fx.f1), std::ref(fx.f0), 2,
                   std::ref(status2));
    fx.wait_blocked(fx.m0, 1);
    fx.wait_blocked(fx.m1, 1);
    const bool blocked = fx.m0.snapshot().blocked_count() == 1 &&
                         fx.m1.snapshot().blocked_count() == 1;
    EXPECT_TRUE(blocked) << "episode " << episode
                         << ": a crossing was turned away instead of blocking";
    if (!blocked) {
      fx.m0.poison();
      fx.m1.poison();
      t1.join();
      t2.join();
      return;
    }

    fx.m0.check_now();
    fx.m1.check_now();
    EXPECT_EQ(fx.pool.run_waitfor_checkpoint(), 1u) << "episode " << episode;
    // Reported and acted on, once per episode.
    EXPECT_EQ(fx.pool.deadlocks_reported(), static_cast<unsigned>(episode));
    EXPECT_EQ(fx.pool.victims_poisoned(), static_cast<unsigned>(episode));
    t1.join();
    t2.join();
    // The victim was evicted; the survivor crossed and released every
    // hold, so the poison has ended although no wait-for pass ran since.
    EXPECT_EQ((status1 == static_cast<int>(rt::Status::kRecoveryFault)) +
                  (status2 == static_cast<int>(rt::Status::kRecoveryFault)),
              1);
    EXPECT_FALSE(fx.m0.recovery_poisoned());
    EXPECT_FALSE(fx.m1.recovery_poisoned());
  }
  // The first episode's completion was recorded by the second episode's
  // checks; the second one's by these.
  fx.m0.check_now();
  fx.m1.check_now();
  EXPECT_EQ(fx.pool.monitors_unpoisoned(), 2u);
  EXPECT_EQ(fx.reports_with(RuleId::kRecoveryAction), 2u);
  for (const auto& report : fx.sink.reports()) {
    EXPECT_TRUE(report.rule == RuleId::kWfCycleDetected ||
                report.rule == RuleId::kRecoveryAction)
        << core::to_string(report.rule) << ": " << report.message;
  }
}

TEST(PoolRecoveryTest, DeliverFaultWakesVictimWithoutPoisoning) {
  RecoveryFixture fx(core::RecoveryRemedy::kDeliverFault);

  ASSERT_EQ(fx.f0.acquire(1), rt::Status::kOk);
  ASSERT_EQ(fx.f1.acquire(2), rt::Status::kOk);
  std::atomic<int> recovery_faults{0};
  std::thread t1([&] {
    if (fx.f1.acquire(1) == rt::Status::kRecoveryFault) ++recovery_faults;
  });
  std::thread t2([&] {
    if (fx.f0.acquire(2) == rt::Status::kRecoveryFault) ++recovery_faults;
  });
  fx.wait_blocked(fx.m0, 1);
  fx.wait_blocked(fx.m1, 1);

  fx.m0.check_now();
  fx.m1.check_now();
  EXPECT_EQ(fx.pool.run_waitfor_checkpoint(), 1u);
  EXPECT_EQ(fx.pool.recovery_actions(), 1u);
  EXPECT_EQ(fx.pool.recovery_faults_delivered(), 1u);
  EXPECT_EQ(fx.pool.victims_poisoned(), 0u);
  EXPECT_FALSE(fx.m0.recovery_poisoned());
  EXPECT_FALSE(fx.m1.recovery_poisoned());
  for (int spin = 0; spin < 4000 && recovery_faults.load() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  EXPECT_EQ(recovery_faults.load(), 1);

  fx.m0.poison();
  fx.m1.poison();
  t1.join();
  t2.join();
}

TEST(PoolRecoveryTest, PredictedCycleImposesOrderOnGate) {
  RecoveryFixture fx(core::RecoveryRemedy::kPoisonVictim);

  // Thread p1 crosses f0 -> f1, p2 crosses f1 -> f0; never concurrently,
  // so no real cycle -- only the order relation records the conflict.
  ASSERT_EQ(fx.f0.acquire(1), rt::Status::kOk);
  ASSERT_EQ(fx.f1.acquire(1), rt::Status::kOk);
  fx.m0.check_now();
  fx.m1.check_now();
  ASSERT_EQ(fx.f1.release(1), rt::Status::kOk);
  ASSERT_EQ(fx.f0.release(1), rt::Status::kOk);
  ASSERT_EQ(fx.f1.acquire(2), rt::Status::kOk);
  ASSERT_EQ(fx.f0.acquire(2), rt::Status::kOk);
  fx.m0.check_now();
  fx.m1.check_now();
  ASSERT_EQ(fx.f0.release(2), rt::Status::kOk);
  ASSERT_EQ(fx.f1.release(2), rt::Status::kOk);

  EXPECT_GE(fx.pool.run_lockorder_checkpoint(), 1u);
  EXPECT_EQ(fx.pool.orders_imposed(), 1u);
  EXPECT_EQ(fx.pool.recovery_actions(), 1u);
  EXPECT_TRUE(fx.gate.engaged());
  EXPECT_EQ(fx.gate.imposed_order().size(), 2u);
  EXPECT_EQ(fx.reports_with(RuleId::kRecoveryAction), 1u);
  EXPECT_EQ(fx.reports_with(RuleId::kWfCycleDetected), 0u);

  // Re-running the pass does not impose again (cycle already reported).
  fx.pool.run_lockorder_checkpoint();
  EXPECT_EQ(fx.pool.orders_imposed(), 1u);
}

TEST(PoolRecoveryTest, RecoveryLogRecordsActionsAndCompletions) {
  RecoveryFixture fx(core::RecoveryRemedy::kPoisonVictim);

  ASSERT_EQ(fx.f0.acquire(1), rt::Status::kOk);
  ASSERT_EQ(fx.f1.acquire(2), rt::Status::kOk);
  std::thread t1([&] { (void)fx.f1.acquire(1); });
  std::thread t2([&] { (void)fx.f0.acquire(2); });
  fx.wait_blocked(fx.m0, 1);
  fx.wait_blocked(fx.m1, 1);
  fx.m0.check_now();
  fx.m1.check_now();
  fx.pool.run_waitfor_checkpoint();
  // The victim monitor's holder releases, ending the poison; the next
  // check completes the recovery.
  if (fx.m0.recovery_poisoned()) {
    ASSERT_EQ(fx.f0.release(1), rt::Status::kOk);
  } else {
    ASSERT_EQ(fx.f1.release(2), rt::Status::kOk);
  }
  fx.m0.check_now();
  fx.m1.check_now();

  const std::vector<trace::RecoveryRecord> log = fx.pool.recovery_log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].action, 'P');
  EXPECT_NE(log[0].victim, trace::kNoPid);
  EXPECT_FALSE(log[0].monitor.empty());
  EXPECT_NE(log[0].detail.find("victim"), std::string::npos);
  EXPECT_EQ(log[1].action, 'C');
  EXPECT_EQ(log[1].monitor, log[0].monitor);

  fx.m0.poison();
  fx.m1.poison();
  t1.join();
  t2.join();
}

// --- Workload liveness contracts. --------------------------------------------

// No report outside {WF verdicts, LO warnings, RC actions} may appear: a
// recovery intervention that surfaces as a per-monitor ST or call-order
// violation is a recovery-induced false positive (the bug class the
// detection-suspension + re-baseline + matcher-reset plumbing exists to
// prevent).
void expect_no_unexpected_reports(const wl::DiningLoadResult& result) {
  for (const auto& report : result.reports) {
    EXPECT_TRUE(report.rule == RuleId::kWfCycleDetected ||
                report.rule == RuleId::kLockOrderCycle ||
                report.rule == RuleId::kRecoveryAction)
        << core::to_string(report.rule) << ": " << report.message;
  }
}

void expect_recovered(const wl::DiningLoadResult& result) {
  EXPECT_TRUE(result.recovered_rings_completed);
  EXPECT_TRUE(result.clean_rings_completed);
  EXPECT_EQ(result.recovery_actions, 1u);  // exactly one per injected cycle
  EXPECT_EQ(result.false_positive_rings, 0u);
  EXPECT_EQ(result.missed_detections, 0u);
  EXPECT_GT(result.recovery_latency_ns, 0u);
  EXPECT_FALSE(result.recovery_log.empty());
  expect_no_unexpected_reports(result);
}

TEST(RecoveryWorkloadTest, DiningCompletesUnderPoisonVictim) {
  wl::DiningLoadOptions options;
  options.rings = 2;
  options.philosophers = 4;
  options.deadlock_rings = 1;
  options.rounds = 5;
  options.recovery = wl::DiningRecovery::kPoisonVictim;
  options.run_timeout = 20 * kSecond;
  const wl::DiningLoadResult result = wl::run_dining_load(options);
  expect_recovered(result);
  EXPECT_EQ(result.victims_poisoned, 1u);
  EXPECT_EQ(result.monitors_unpoisoned, 1u);  // service restored
  EXPECT_EQ(result.deadlocked_rings_detected, 1u);
}

TEST(RecoveryWorkloadTest, DiningCompletesUnderDeliverFault) {
  wl::DiningLoadOptions options;
  options.rings = 2;
  options.philosophers = 4;
  options.deadlock_rings = 1;
  options.rounds = 5;
  options.recovery = wl::DiningRecovery::kDeliverFault;
  options.run_timeout = 20 * kSecond;
  const wl::DiningLoadResult result = wl::run_dining_load(options);
  expect_recovered(result);
  EXPECT_EQ(result.faults_delivered, 1u);
  EXPECT_EQ(result.victims_poisoned, 0u);
}

TEST(RecoveryWorkloadTest, DiningCompletesUnderImposedOrder) {
  wl::DiningLoadOptions options;
  options.rings = 2;
  options.philosophers = 4;
  options.deadlock_rings = 1;
  options.rounds = 5;
  options.recovery = wl::DiningRecovery::kImposeOrder;
  options.run_timeout = 20 * kSecond;
  const wl::DiningLoadResult result = wl::run_dining_load(options);
  EXPECT_TRUE(result.recovered_rings_completed);
  EXPECT_TRUE(result.clean_rings_completed);
  EXPECT_EQ(result.orders_imposed, 1u);
  EXPECT_EQ(result.recovery_actions, 1u);
  // Pre-emption: the cycle never closes, so no structural deadlock and no
  // victim -- that is the point.
  EXPECT_EQ(result.victims_poisoned, 0u);
  EXPECT_EQ(result.faults_delivered, 0u);
  EXPECT_EQ(result.false_positive_rings, 0u);
  EXPECT_GT(result.recovery_latency_ns, 0u);
  expect_no_unexpected_reports(result);
}

TEST(RecoveryWorkloadTest, ConsistentOrderControlDrawsZeroActions) {
  wl::GateCrossingOptions options;
  options.consistent_order = true;
  options.recovery = true;
  const wl::GateCrossingResult result = wl::run_gate_crossing(options);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.potential_deadlocks, 0u);
  EXPECT_EQ(result.recovery_actions, 0u);
  EXPECT_EQ(result.orders_imposed, 0u);
  EXPECT_TRUE(result.recovery_log.empty());
}

TEST(RecoveryWorkloadTest, RotatedGateCrossingImposesTheDominantOrder) {
  wl::GateCrossingOptions options;
  options.recovery = true;
  const wl::GateCrossingResult result = wl::run_gate_crossing(options);
  EXPECT_TRUE(result.completed);
  EXPECT_GE(result.potential_deadlocks, 1u);
  EXPECT_EQ(result.global_deadlocks, 0u);
  EXPECT_GE(result.orders_imposed, 1u);
  EXPECT_EQ(result.orders_imposed, result.recovery_actions);
  EXPECT_FALSE(result.imposed_order.empty());
  ASSERT_FALSE(result.recovery_log.empty());
  EXPECT_EQ(result.recovery_log[0].action, 'O');
}

}  // namespace
}  // namespace robmon
