// Wait-for graph edge lifecycle: pure-graph cycle enumeration, the offline
// WF-Rule validator, and the CheckerPool checkpoint end-to-end — cycles
// across 2 and 5 monitors, a cycle that resolves before the checkpoint (the
// stale-contribution shape must produce zero faults), register/unregister
// churn while checkpoints run, detection under a frozen ManualClock, and
// cycles that form silently on monitors the evidence gate found quiet.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/fd_rules.hpp"
#include "core/waitfor.hpp"
#include "interpose/synthetic_monitor.hpp"
#include "runtime/checker_pool.hpp"
#include "runtime/hoare_monitor.hpp"
#include "runtime/robust_monitor.hpp"
#include "workloads/allocator.hpp"
#include "workloads/dining.hpp"

namespace robmon {
namespace {

using core::DeadlockCycle;
using core::RuleId;
using core::WaitContribution;
using core::WaitForGraph;
using rt::CheckerPool;
using rt::RobustMonitor;
using util::kMillisecond;

core::MonitorSpec fork_spec(const std::string& name) {
  core::MonitorSpec spec = core::MonitorSpec::allocator(name);
  spec.t_max = 30 * util::kSecond;
  spec.t_io = 30 * util::kSecond;
  spec.t_limit = 30 * util::kSecond;
  spec.check_period = 2 * kMillisecond;
  return spec;
}

WaitContribution contribution(core::WaitMonitorId id, const std::string& name,
                              std::vector<WaitContribution::Wait> waits,
                              std::vector<WaitContribution::Hold> holds) {
  WaitContribution c;
  c.monitor = id;
  c.name = name;
  c.waits = std::move(waits);
  c.holds = std::move(holds);
  return c;
}

// --- Pure graph. -------------------------------------------------------------

TEST(WaitForGraphTest, TwoMonitorCycle) {
  WaitForGraph graph;
  // p1 holds m1, waits on m2's resource; p2 holds m2, waits on m1's.
  graph.update(contribution(1, "m1", {{2, "available", 20}},
                            {{1, false, 10}}));
  graph.update(contribution(2, "m2", {{1, "available", 21}},
                            {{2, false, 11}}));
  const auto cycles = graph.find_cycles();
  ASSERT_EQ(cycles.size(), 1u);
  ASSERT_EQ(cycles[0].links.size(), 2u);
  // Canonical rotation: smallest pid first.
  EXPECT_EQ(cycles[0].links[0].pid, 1);
  EXPECT_EQ(cycles[0].links[0].monitor, 2u);
  EXPECT_EQ(cycles[0].links[0].holder, 2);
  EXPECT_EQ(cycles[0].links[1].pid, 2);
  EXPECT_EQ(cycles[0].links[1].monitor, 1u);
  EXPECT_EQ(cycles[0].links[1].holder, 1);
  const std::string text = core::describe(cycles[0]);
  EXPECT_NE(text.find("p1 waits on m2[available] held by p2"),
            std::string::npos)
      << text;
}

TEST(WaitForGraphTest, FiveMonitorRing) {
  WaitForGraph graph;
  for (int i = 0; i < 5; ++i) {
    const int next = (i + 1) % 5;
    // p_i holds m_i and waits on m_{i+1} (held by p_{i+1}).
    graph.update(contribution(
        static_cast<core::WaitMonitorId>(i + 1), "m" + std::to_string(i),
        {{next, "available", 20 + i}}, {{i, false, 10 + i}}));
  }
  const auto cycles = graph.find_cycles();
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].links.size(), 5u);
  EXPECT_EQ(cycles[0].links[0].pid, 0);
}

TEST(WaitForGraphTest, NoCycleWhenHolderIsNotBlocked) {
  WaitForGraph graph;
  graph.update(contribution(1, "m1", {{2, "available", 20}},
                            {{1, false, 10}}));
  graph.update(contribution(2, "m2", {}, {{2, false, 11}}));
  EXPECT_TRUE(graph.find_cycles().empty());
}

TEST(WaitForGraphTest, SelfLoopIsAOneLinkCycle) {
  WaitForGraph graph;
  // p1 re-acquires a monitor whose only unit it already holds (III.c).
  graph.update(contribution(1, "m1", {{1, "available", 20}},
                            {{1, false, 10}}));
  const auto cycles = graph.find_cycles();
  ASSERT_EQ(cycles.size(), 1u);
  ASSERT_EQ(cycles[0].links.size(), 1u);
  EXPECT_EQ(cycles[0].links[0].pid, 1);
  EXPECT_EQ(cycles[0].links[0].holder, 1);
}

TEST(WaitForGraphTest, EntryWaitersBlockBehindMutexHolderOnly) {
  WaitForGraph graph;
  // p2 waits on m1's entry queue; p1 runs inside m1 (mutex holder) while
  // p3 merely holds a resource unit: only the p2→p1 edge may exist.
  graph.update(contribution(1, "m1", {{2, "", 20}},
                            {{1, true, 10}, {3, false, 5}}));
  graph.update(contribution(2, "m2", {{1, "available", 21}},
                            {{2, false, 11}}));
  const auto cycles = graph.find_cycles();
  ASSERT_EQ(cycles.size(), 1u);
  ASSERT_EQ(cycles[0].links.size(), 2u);
  EXPECT_EQ(cycles[0].links[0].pid, 1);   // p1 waits on m2's resource
  EXPECT_EQ(cycles[0].links[1].pid, 2);   // p2 waits on m1's mutex
  EXPECT_TRUE(cycles[0].links[1].cond.empty());
}

TEST(WaitForGraphTest, MultipleDistinctHoldersEmitNoResourceEdges) {
  WaitForGraph graph;
  // m1 has two units held by p1 and p3: p2's wait is an OR (either holder
  // releasing unblocks it), so no cycle may be built through it even
  // though p1 is blocked behind p2 elsewhere.
  graph.update(contribution(1, "m1", {{2, "available", 20}},
                            {{1, false, 10}, {3, false, 12}}));
  graph.update(contribution(2, "m2", {{1, "available", 21}},
                            {{2, false, 11}}));
  EXPECT_TRUE(graph.find_cycles().empty());
}

TEST(WaitForGraphTest, EraseRemovesAMonitorsEdges) {
  WaitForGraph graph;
  graph.update(contribution(1, "m1", {{2, "available", 20}},
                            {{1, false, 10}}));
  graph.update(contribution(2, "m2", {{1, "available", 21}},
                            {{2, false, 11}}));
  ASSERT_EQ(graph.find_cycles().size(), 1u);
  graph.erase(2);
  EXPECT_TRUE(graph.find_cycles().empty());
  EXPECT_EQ(graph.monitor_count(), 1u);
}

// The stale shape of the resolved-cycle end-to-end test below: the graph
// alone (no live validation) does present a candidate cycle, which is
// exactly what the CheckerPool's validation pass must then reject.
TEST(WaitForGraphTest, StaleContributionsCanFormACandidateCycle) {
  WaitForGraph graph;
  graph.update(contribution(1, "f0", {{2, "available", 20}},
                            {{1, false, 10}}));  // stale by now
  graph.update(contribution(2, "f1", {{1, "available", 50}},
                            {{2, false, 40}}));  // fresh
  EXPECT_EQ(graph.find_cycles().size(), 1u);
}

// --- Offline WF-Rule validator (fd_rules integration). -----------------------

TEST(ValidateWaitForTest, ReportsCycleAcrossRecordedStates) {
  trace::SymbolTable symbols0, symbols1;
  const trace::SymbolId avail0 = symbols0.intern("available");
  const trace::SymbolId avail1 = symbols1.intern("available");

  trace::SchedulingState s0;  // p2 waits on f0[available]; p1 holds f0
  s0.cond_queues.push_back({avail0, {{2, trace::kNoSymbol, 20}}});
  s0.holders.push_back({1, 1, 10});
  trace::SchedulingState s1;  // p1 waits on f1[available]; p2 holds f1
  s1.cond_queues.push_back({avail1, {{1, trace::kNoSymbol, 21}}});
  s1.holders.push_back({2, 1, 11});

  const auto reports = core::validate_wait_for(
      {{"f0", &s0, &symbols0}, {"f1", &s1, &symbols1}}, 99);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].rule, RuleId::kWfCycleDetected);
  ASSERT_TRUE(reports[0].suspected.has_value());
  EXPECT_EQ(*reports[0].suspected, core::FaultKind::kGlobalDeadlock);
  EXPECT_EQ(reports[0].detected_at, 99);
  EXPECT_NE(reports[0].message.find("f0"), std::string::npos);
  EXPECT_NE(reports[0].message.find("f1"), std::string::npos);
}

TEST(ValidateWaitForTest, CleanStatesReportNothing) {
  trace::SymbolTable symbols;
  trace::SchedulingState s0;
  s0.holders.push_back({1, 1, 10});
  trace::SchedulingState s1;
  const auto reports =
      core::validate_wait_for({{"f0", &s0, &symbols}, {"f1", &s1, &symbols}}, 5);
  EXPECT_TRUE(reports.empty());
}

// --- End-to-end through the CheckerPool. -------------------------------------

struct TwoForkFixture {
  core::CollectingSink sink;
  CheckerPool pool;
  RobustMonitor m0, m1;
  wl::ResourceAllocator f0, f1;

  explicit TwoForkFixture(CheckerPool::Options pool_options)
      : pool([&] {
          pool_options.waitfor_sink = &sink;
          return pool_options;
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

  std::size_t wf_reports() const {
    std::size_t n = 0;
    for (const auto& report : sink.reports()) {
      if (report.rule == RuleId::kWfCycleDetected) ++n;
    }
    return n;
  }
};

TEST(PoolWaitForTest, TwoMonitorDeadlockConfirmedAndReportedOnce) {
  CheckerPool::Options options;
  options.waitfor_checkpoint_period = 1 * kMillisecond;
  TwoForkFixture fx(options);

  ASSERT_EQ(fx.f0.acquire(1), rt::Status::kOk);  // p1 holds f0
  ASSERT_EQ(fx.f1.acquire(2), rt::Status::kOk);  // p2 holds f1
  std::thread t1([&] { (void)fx.f1.acquire(1); });  // p1 blocks on f1
  std::thread t2([&] { (void)fx.f0.acquire(2); });  // p2 blocks on f0
  fx.wait_blocked(fx.m0, 1);
  fx.wait_blocked(fx.m1, 1);

  // Deterministic: contribute both snapshots, then run one checkpoint.
  fx.m0.check_now();
  fx.m1.check_now();
  EXPECT_EQ(fx.pool.waitfor_graph_monitors(), 2u);
  EXPECT_EQ(fx.pool.run_waitfor_checkpoint(), 1u);
  ASSERT_EQ(fx.wf_reports(), 1u);
  EXPECT_EQ(fx.pool.deadlocks_reported(), 1u);

  std::string message;
  for (const auto& report : fx.sink.reports()) {
    if (report.rule == RuleId::kWfCycleDetected) message = report.message;
  }
  EXPECT_NE(message.find("p1 waits on f1[available] held by p2"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("p2 waits on f0[available] held by p1"),
            std::string::npos)
      << message;

  // A persisting deadlock is not re-reported at the next checkpoint.
  EXPECT_EQ(fx.pool.run_waitfor_checkpoint(), 1u);
  EXPECT_EQ(fx.wf_reports(), 1u);

  fx.m0.poison();
  fx.m1.poison();
  t1.join();
  t2.join();

  // Dissolved: the next checkpoint confirms nothing and re-arms the cycle.
  fx.m0.check_now();
  fx.m1.check_now();
  EXPECT_EQ(fx.pool.run_waitfor_checkpoint(), 0u);
}

TEST(PoolWaitForTest, UnscheduleKeepsReportedCycleStateAcrossReschedule) {
  // The lifecycle contract (checker_pool.hpp): unschedule() withdraws the
  // live wait-for contribution but keeps reported-cycle keys and all
  // counters, so a re-scheduled monitor resumes exactly where it left off
  // and a persisting deadlock is NOT re-reported.  (remove() is the one
  // that re-arms; its order-side twin is covered in lockorder_test.)
  // The periodic cadence is parked far in the future: a periodic pass
  // racing the unschedule window would observe the withdrawn contribution
  // as a dissolved cycle and legitimately re-arm it — only the
  // synchronous passes below may run.
  CheckerPool::Options options;
  options.waitfor_checkpoint_period = 3600 * util::kSecond;
  TwoForkFixture fx(options);
  fx.m0.start_checking();
  fx.m1.start_checking();

  ASSERT_EQ(fx.f0.acquire(1), rt::Status::kOk);
  ASSERT_EQ(fx.f1.acquire(2), rt::Status::kOk);
  std::thread t1([&] { (void)fx.f1.acquire(1); });
  std::thread t2([&] { (void)fx.f0.acquire(2); });
  fx.wait_blocked(fx.m0, 1);
  fx.wait_blocked(fx.m1, 1);

  fx.m0.check_now();
  fx.m1.check_now();
  EXPECT_EQ(fx.pool.run_waitfor_checkpoint(), 1u);
  EXPECT_EQ(fx.wf_reports(), 1u);
  const std::uint64_t reported_before = fx.pool.deadlocks_reported();

  fx.m0.stop_checking();   // unschedule: contribution withdrawn ...
  fx.m0.start_checking();  // ... reported-cycle keys and counters kept
  fx.m0.check_now();
  fx.m1.check_now();
  EXPECT_EQ(fx.pool.run_waitfor_checkpoint(), 1u);  // still confirmed
  EXPECT_EQ(fx.wf_reports(), 1u);                   // but not re-reported
  EXPECT_EQ(fx.pool.deadlocks_reported(), reported_before);

  fx.m0.poison();
  fx.m1.poison();
  t1.join();
  t2.join();
  fx.m0.stop_checking();
  fx.m1.stop_checking();
}

TEST(PoolWaitForTest, FiveMonitorRingDetectedUnderLoad) {
  wl::DiningLoadOptions options;
  options.rings = 1;
  options.philosophers = 5;
  options.deadlock_rings = 1;
  const wl::DiningLoadResult result = wl::run_dining_load(options);
  EXPECT_EQ(result.missed_detections, 0u);
  EXPECT_EQ(result.deadlocked_rings_detected, 1u);
  EXPECT_EQ(result.false_positive_rings, 0u);
  ASSERT_FALSE(result.cycles.empty());
  EXPECT_NE(result.cycles[0].find("(5 links)"), std::string::npos)
      << result.cycles[0];
  EXPECT_GT(result.checkpoints_run, 0u);
}

TEST(PoolWaitForTest, MixedCleanAndDeadlockedRings) {
  wl::DiningLoadOptions options;
  options.rings = 3;
  options.philosophers = 4;
  options.deadlock_rings = 2;
  options.rounds = 10;
  const wl::DiningLoadResult result = wl::run_dining_load(options);
  EXPECT_EQ(result.deadlocks_expected, 2u);
  EXPECT_EQ(result.missed_detections, 0u);
  EXPECT_EQ(result.false_positive_rings, 0u);
  EXPECT_TRUE(result.clean_rings_completed);
}

// A cycle shape assembled from one stale and one fresh contribution must be
// rejected by the live validation pass: the "cycle" resolved before the
// checkpoint ever ran, so reporting it would be a false positive.
TEST(PoolWaitForTest, ResolvedCycleBeforeCheckpointReportsNothing) {
  CheckerPool::Options options;
  options.waitfor_checkpoint_period = 50 * util::kSecond;  // manual only
  TwoForkFixture fx(options);

  // Phase 1: p1 holds f0, p2 blocks on f0.  Contribute f0's snapshot.
  ASSERT_EQ(fx.f0.acquire(1), rt::Status::kOk);
  std::thread t2([&] {
    ASSERT_EQ(fx.f0.acquire(2), rt::Status::kOk);  // resumes in phase 2
    ASSERT_EQ(fx.f0.release(2), rt::Status::kOk);
  });
  fx.wait_blocked(fx.m0, 1);
  fx.m0.check_now();  // graph: p2 → f0 held by p1 (about to go stale)

  // Phase 2: the wait resolves completely.
  ASSERT_EQ(fx.f0.release(1), rt::Status::kOk);
  t2.join();

  // Phase 3: the mirror-image wait forms: p2 holds f1, p1 blocks on f1.
  ASSERT_EQ(fx.f1.acquire(2), rt::Status::kOk);
  std::thread t1([&] { (void)fx.f1.acquire(1); });
  fx.wait_blocked(fx.m1, 1);
  fx.m1.check_now();  // graph: p1 → f1 held by p2 (fresh)

  // The graph alone would now show the two-link candidate cycle (see
  // WaitForGraphTest.StaleContributionsCanFormACandidateCycle); live
  // validation must reject it because f0's edges no longer hold.
  EXPECT_EQ(fx.pool.run_waitfor_checkpoint(), 0u);
  EXPECT_EQ(fx.wf_reports(), 0u);
  EXPECT_EQ(fx.pool.deadlocks_reported(), 0u);

  fx.m1.poison();
  t1.join();
}

TEST(PoolWaitForTest, RegisterUnregisterChurnDuringCheckpoints) {
  core::CollectingSink sink;
  CheckerPool::Options options;
  options.waitfor_checkpoint_period = 1 * kMillisecond;
  options.waitfor_sink = &sink;
  CheckerPool pool(options);

  RobustMonitor::Options monitor_options;
  monitor_options.checker_pool = &pool;

  // Steady traffic on two long-lived forks (no deadlock: fixed order).
  RobustMonitor steady0(fork_spec("steady0"), sink, monitor_options);
  RobustMonitor steady1(fork_spec("steady1"), sink, monitor_options);
  wl::ResourceAllocator fork0(steady0, 1), fork1(steady1, 1);
  steady0.start_checking();
  steady1.start_checking();
  std::atomic<bool> stop{false};
  std::vector<std::thread> traffic;
  for (int t = 0; t < 2; ++t) {
    traffic.emplace_back([&, t] {
      const trace::Pid pid = 10 + t;
      while (!stop.load(std::memory_order_relaxed)) {
        if (fork0.acquire(pid) != rt::Status::kOk) return;
        if (fork1.acquire(pid) != rt::Status::kOk) return;
        fork1.release(pid);
        fork0.release(pid);
      }
    });
  }

  // Churn: monitors register, contribute, and unregister while periodic
  // checkpoints run; unregistration must drop their edges atomically.
  // Keep churning until several checkpoint passes have raced against it.
  for (int round = 0; round < 400; ++round) {
    RobustMonitor churn(fork_spec("churn"), sink, monitor_options);
    wl::ResourceAllocator fork(churn, 1);
    churn.start_checking();
    ASSERT_EQ(fork.acquire(99), rt::Status::kOk);
    churn.check_now();  // contributes a hold edge, then unregisters below
    ASSERT_EQ(fork.release(99), rt::Status::kOk);
    if (round >= 30 && pool.waitfor_checkpoints() >= 5) break;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }

  stop.store(true);
  for (auto& thread : traffic) thread.join();
  EXPECT_GT(pool.waitfor_checkpoints(), 0u);
  EXPECT_EQ(pool.deadlocks_reported(), 0u);
  for (const auto& report : sink.reports()) {
    EXPECT_NE(report.rule, RuleId::kWfCycleDetected) << report.message;
  }
}

TEST(PoolWaitForTest, FrozenManualClockStillDetectsDeadlock) {
  // The checkpoint cadence is wall-clock; a frozen rule clock must neither
  // stall the checkpoint nor break episode matching in the validator.
  util::ManualClock clock(1000);
  CheckerPool::Options options;
  options.clock = &clock;
  options.waitfor_checkpoint_period = 1 * kMillisecond;
  core::CollectingSink sink;
  options.waitfor_sink = &sink;
  CheckerPool pool(options);

  RobustMonitor::Options monitor_options;
  monitor_options.checker_pool = &pool;
  monitor_options.clock = &clock;
  RobustMonitor m0(fork_spec("f0"), sink, monitor_options);
  RobustMonitor m1(fork_spec("f1"), sink, monitor_options);
  wl::ResourceAllocator f0(m0, 1), f1(m1, 1);
  m0.start_checking();
  m1.start_checking();

  ASSERT_EQ(f0.acquire(1), rt::Status::kOk);
  ASSERT_EQ(f1.acquire(2), rt::Status::kOk);
  std::thread t1([&] { (void)f1.acquire(1); });
  std::thread t2([&] { (void)f0.acquire(2); });

  bool detected = false;
  for (int spin = 0; spin < 4000 && !detected; ++spin) {
    detected = sink.any_with_rule(RuleId::kWfCycleDetected);
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  EXPECT_TRUE(detected);
  EXPECT_GE(pool.deadlocks_reported(), 1u);

  m0.poison();
  m1.poison();
  t1.join();
  t2.join();
  m0.stop_checking();
  m1.stop_checking();
}

// --- Evidence gate: silent state changes on quiet monitors. ------------------
//
// The pool answers a due check of a quiet monitor (nobody running, queued or
// holding) by reading its state version.  These cycles form after one quiet
// check of every participant, through operations that record no event, so a
// probe counting events would leave every monitor gated on its empty
// contribution and the cycle unreported.

/// A one-worker pool whose 1 ms wait-for checkpoint reports to `sink`.
CheckerPool::Options gate_pool_options(core::CollectingSink& sink) {
  CheckerPool::Options options;
  options.threads = 1;
  options.waitfor_checkpoint_period = 1 * kMillisecond;
  options.waitfor_sink = &sink;
  return options;
}

/// Wait until the worker has answered a few more due checks.
void let_pool_check(const CheckerPool& pool) {
  const std::uint64_t checked = pool.checks_executed();
  for (int spin = 0; spin < 4000 && pool.checks_executed() < checked + 4;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

bool cycle_reported(const core::CollectingSink& sink) {
  for (int spin = 0; spin < 4000; ++spin) {
    if (sink.any_with_rule(RuleId::kWfCycleDetected)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return sink.any_with_rule(RuleId::kWfCycleDetected);
}

TEST(PoolWaitForTest, SilentHoldsOnQuietAllocatorsAreContributed) {
  // Instrumentation::kOff records no event at all, so note_hold, enter and
  // wait all change the state silently; registered detector-less, since the
  // per-monitor rules need the events.
  core::CollectingSink sink;
  CheckerPool pool(gate_pool_options(sink));
  const util::Clock& clock = util::SteadyClock::instance();
  rt::HoareMonitor f0(fork_spec("f0"), clock, inject::NullInjection::instance(),
                      rt::Instrumentation::kOff);
  rt::HoareMonitor f1(fork_spec("f1"), clock, inject::NullInjection::instance(),
                      rt::Instrumentation::kOff);
  const CheckerPool::MonitorId id0 = pool.add(f0);
  const CheckerPool::MonitorId id1 = pool.add(f1);
  pool.schedule(id0);
  pool.schedule(id1);
  pool.check_now(id0);  // one quiet check each
  pool.check_now(id1);
  let_pool_check(pool);

  f0.note_hold(1);  // p1 holds f0, p2 holds f1: no event either way
  f1.note_hold(2);
  const auto block = [](rt::HoareMonitor& fork, trace::Pid pid) {
    if (fork.enter(pid, "Acquire") == rt::Status::kOk) {
      (void)fork.wait(pid, "available");
    }
  };
  std::thread t1([&] { block(f1, 1); });  // p1 waits on f1
  std::thread t2([&] { block(f0, 2); });  // p2 waits on f0
  EXPECT_TRUE(cycle_reported(sink));
  std::string message;
  for (const auto& report : sink.reports()) {
    if (report.rule == RuleId::kWfCycleDetected) message = report.message;
  }
  EXPECT_NE(message.find("p1 waits on f1[available] held by p2"),
            std::string::npos)
      << message;

  f0.poison();
  f1.poison();
  t1.join();
  t2.join();
  pool.remove(id0);
  pool.remove(id1);
}

TEST(PoolWaitForTest, RecordingOffSyntheticMutexCycleIsContributed) {
  // The shim's default: no event is recorded, and an uncontended
  // lock_acquired publishes the owner through the seqlock alone.
  core::CollectingSink sink;
  CheckerPool pool(gate_pool_options(sink));
  const util::Clock& clock = util::SteadyClock::instance();
  using interpose::SyntheticMonitor;
  SyntheticMonitor::Config config;
  config.check_period = 2 * kMillisecond;
  SyntheticMonitor a("mutex-a", SyntheticMonitor::Kind::kMutex, clock, config);
  SyntheticMonitor b("mutex-b", SyntheticMonitor::Kind::kMutex, clock, config);
  const CheckerPool::MonitorId ida = pool.add(a);
  const CheckerPool::MonitorId idb = pool.add(b);
  pool.schedule(ida);
  pool.schedule(idb);
  pool.check_now(ida);  // one quiet check each
  pool.check_now(idb);
  let_pool_check(pool);
  EXPECT_EQ(a.log().total_appended(), 0u);

  a.lock_acquired(1);  // fast paths: owner seqlock only
  b.lock_acquired(2);
  a.lock_blocked(2);
  b.lock_blocked(1);
  EXPECT_TRUE(cycle_reported(sink));
  EXPECT_EQ(a.log().total_appended() + b.log().total_appended(), 0u);
  pool.remove(ida);
  pool.remove(idb);
}

// --- Episode tickets (clock-independent episode identity). -------------------

TEST(EpisodeTicketTest, LinkValidationMatchesByTicketNotTimestamp) {
  trace::SymbolTable symbols;
  // A fresh snapshot where p1 waits on the entry queue (ticket 7) behind
  // running p2 (ticket 9); the timestamps alias a frozen clock (all 100).
  trace::SchedulingState state;
  state.entry_queue = {{1, trace::kNoSymbol, 100, 7}};
  state.running = 2;
  state.running_since = 100;
  state.running_ticket = 9;

  DeadlockCycle::Link link;
  link.pid = 1;
  link.monitor = 1;
  link.blocked_since = 100;
  link.holder = 2;
  link.held_since = 100;
  link.blocked_ticket = 7;
  link.holder_ticket = 9;
  EXPECT_TRUE(core::link_holds_in(link, state, symbols));

  // Same timestamps, different episode: the wait re-formed (new ticket).
  link.blocked_ticket = 6;
  EXPECT_FALSE(core::link_holds_in(link, state, symbols))
      << "timestamp aliasing must not confirm a re-formed wait";
  link.blocked_ticket = 7;
  link.holder_ticket = 8;  // ownership changed hands and came back
  EXPECT_FALSE(core::link_holds_in(link, state, symbols));

  // Pre-ticket links (0) fall back to timestamp matching.
  link.blocked_ticket = 0;
  link.holder_ticket = 0;
  EXPECT_TRUE(core::link_holds_in(link, state, symbols));
}

TEST(EpisodeTicketTest, FrozenClockSnapshotsDistinguishEpisodes) {
  // Two blocking episodes of the same thread under a frozen ManualClock:
  // identical enqueue timestamps, distinct tickets — the property the
  // checkpoint validator relies on for exactness.
  util::ManualClock clock(1000);
  rt::HoareMonitor monitor(fork_spec("frozen"), clock);

  ASSERT_EQ(monitor.enter(1, "Acquire"), rt::Status::kOk);  // occupies
  std::thread blocked([&] { (void)monitor.enter(2, "Acquire"); });
  trace::SchedulingState first;
  for (int spin = 0; spin < 4000; ++spin) {
    first = monitor.snapshot();
    if (!first.entry_queue.empty()) break;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  ASSERT_EQ(first.entry_queue.size(), 1u);
  const std::uint64_t first_ticket = first.entry_queue[0].ticket;
  const std::uint64_t first_owner_ticket = first.running_ticket;
  EXPECT_NE(first_ticket, 0u);
  EXPECT_NE(first_owner_ticket, 0u);

  monitor.exit(1);  // admits p2, which exits; episode one over
  blocked.join();
  monitor.exit(2);

  ASSERT_EQ(monitor.enter(1, "Acquire"), rt::Status::kOk);
  std::thread blocked_again([&] { (void)monitor.enter(2, "Acquire"); });
  trace::SchedulingState second;
  for (int spin = 0; spin < 4000; ++spin) {
    second = monitor.snapshot();
    if (!second.entry_queue.empty()) break;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  ASSERT_EQ(second.entry_queue.size(), 1u);

  // Frozen clock: timestamps alias; tickets do not.
  EXPECT_EQ(second.entry_queue[0].enqueued_at,
            first.entry_queue[0].enqueued_at);
  EXPECT_NE(second.entry_queue[0].ticket, first_ticket);
  EXPECT_NE(second.running_ticket, first_owner_ticket);

  monitor.exit(1);
  blocked_again.join();
  monitor.exit(2);
}

}  // namespace
}  // namespace robmon
