// Lock-order prediction: certified-interval joins (no fabricated orders),
// Goodlock witness distinctness, cycle detection over the accumulated
// relation, erase/re-arm on unregister, trace persistence (v3) and offline
// re-derivation, the CheckerPool prediction checkpoint end-to-end, and the
// gate-crossing workload contract (order cycle without a wait cycle warns;
// gate-serialized consistent order never warns).
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/fd_rules.hpp"
#include "core/lockorder.hpp"
#include "runtime/checker_pool.hpp"
#include "runtime/robust_monitor.hpp"
#include "workloads/allocator.hpp"
#include "workloads/gate_crossing.hpp"

namespace robmon {
namespace {

using core::LockOrderGraph;
using core::OrderCycle;
using core::OrderEdge;
using core::RuleId;
using rt::CheckerPool;
using rt::RobustMonitor;
using util::kMillisecond;

trace::SchedulingState state_at(util::TimeNs captured) {
  trace::SchedulingState state;
  state.captured_at = captured;
  return state;
}

void add_hold(trace::SchedulingState& state, trace::Pid pid,
              util::TimeNs since, std::uint64_t ticket) {
  state.holders.push_back({pid, 1, since, ticket});
}

void add_wait(trace::SchedulingState& state, trace::Pid pid,
              util::TimeNs since, std::uint64_t ticket) {
  if (state.cond_queues.empty()) state.cond_queues.push_back({0, {}});
  state.cond_queues[0].entries.push_back(
      {pid, trace::kNoSymbol, since, ticket});
}

// --- Certified-interval joins. -----------------------------------------------

TEST(LockOrderGraphTest, InconsistentHoldOrdersFormACycle) {
  LockOrderGraph graph;
  // p1 takes A then B; p2 takes B then A — all four holds overlap, the
  // classic inconsistent pair.  No thread ever blocks: this is an order
  // cycle without a wait cycle.
  trace::SchedulingState a = state_at(100);
  add_hold(a, 1, 10, 1);
  add_hold(a, 2, 40, 2);
  trace::SchedulingState b = state_at(100);
  add_hold(b, 1, 20, 3);
  add_hold(b, 2, 30, 4);
  graph.observe(1, "A", a);
  graph.observe(2, "B", b);

  EXPECT_EQ(graph.edge_count(), 2u);  // A->B (p1) and B->A (p2)
  const auto cycles = graph.find_cycles();
  ASSERT_EQ(cycles.size(), 1u);
  ASSERT_EQ(cycles[0].steps.size(), 2u);
  EXPECT_EQ(cycles[0].steps[0].monitor, 1u);
  EXPECT_EQ(cycles[0].steps[0].name, "A");
  EXPECT_EQ(cycles[0].steps[0].witness.pid, 1);
  EXPECT_EQ(cycles[0].steps[1].monitor, 2u);
  EXPECT_EQ(cycles[0].steps[1].witness.pid, 2);
  const std::string text = core::describe(cycles[0]);
  EXPECT_NE(text.find("potential deadlock"), std::string::npos) << text;
  EXPECT_NE(text.find("A -> B"), std::string::npos) << text;
  EXPECT_NE(text.find("B -> A"), std::string::npos) << text;
  EXPECT_NE(text.find("p1"), std::string::npos) << text;
  EXPECT_NE(text.find("p2"), std::string::npos) << text;
}

TEST(LockOrderGraphTest, ConsistentOrderNeverWarns) {
  LockOrderGraph graph;
  // Both threads honour the global order A before B.
  trace::SchedulingState a = state_at(100);
  add_hold(a, 1, 10, 1);
  add_hold(a, 2, 30, 2);
  trace::SchedulingState b = state_at(100);
  add_hold(b, 1, 20, 3);
  add_hold(b, 2, 40, 4);
  graph.observe(1, "A", a);
  graph.observe(2, "B", b);
  EXPECT_EQ(graph.edge_count(), 1u);  // A->B only, two witnesses
  EXPECT_TRUE(graph.find_cycles().empty());
}

TEST(LockOrderGraphTest, SingleThreadReversalIsNotPlausible) {
  LockOrderGraph graph;
  // One thread takes A then B in episode one, B then A in episode two.
  // Both edges exist, but a thread cannot deadlock with itself across
  // episodes: the cycle has no pairwise-distinct witness assignment.
  trace::SchedulingState a1 = state_at(50);
  add_hold(a1, 1, 10, 1);
  trace::SchedulingState b1 = state_at(50);
  add_hold(b1, 1, 20, 2);
  graph.observe(1, "A", a1);
  graph.observe(2, "B", b1);
  trace::SchedulingState b2 = state_at(150);
  add_hold(b2, 1, 110, 3);
  trace::SchedulingState a2 = state_at(150);
  add_hold(a2, 1, 120, 4);
  graph.observe(2, "B", b2);
  graph.observe(1, "A", a2);

  EXPECT_EQ(graph.edge_count(), 2u);
  EXPECT_TRUE(graph.find_cycles().empty());

  // A second thread independently witnessing the reversal makes the cycle
  // plausible.
  trace::SchedulingState b3 = state_at(250);
  add_hold(b3, 2, 210, 5);
  trace::SchedulingState a3 = state_at(250);
  add_hold(a3, 2, 220, 6);
  graph.observe(2, "B", b3);
  graph.observe(1, "A", a3);
  EXPECT_EQ(graph.find_cycles().size(), 1u);

  // The second thread's witness joined the existing B -> A edge.
  for (const OrderEdge& edge : graph.edges()) {
    EXPECT_EQ(edge.witness_total, edge.from_name == "A" ? 1u : 2u);
  }
}

TEST(LockOrderGraphTest, BlockedAcquisitionWitnessesTheEdge) {
  LockOrderGraph graph;
  // p1 holds A and is parked acquiring B: the direction is forced by the
  // kinds, not the timestamps.
  trace::SchedulingState a = state_at(100);
  add_hold(a, 1, 10, 1);
  trace::SchedulingState b = state_at(100);
  add_wait(b, 1, 20, 2);
  graph.observe(1, "A", a);
  graph.observe(2, "B", b);
  const auto edges = graph.edges();
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].from_name, "A");
  EXPECT_EQ(edges[0].to_name, "B");
  ASSERT_EQ(edges[0].witnesses.size(), 1u);
  EXPECT_TRUE(edges[0].witnesses[0].to_wait);
}

TEST(LockOrderGraphTest, DisjointIntervalsDoNotFabricateOrders) {
  LockOrderGraph graph;
  // p1 held A over [10, 50] (released), then held B over [60, 100]: the
  // certified intervals are disjoint, so no simultaneous-hold claim — and
  // no edge — may be derived, even though both observations coexist in
  // the store.
  trace::SchedulingState a = state_at(50);
  add_hold(a, 1, 10, 1);
  trace::SchedulingState b = state_at(100);
  add_hold(b, 1, 60, 2);
  graph.observe(1, "A", a);
  graph.observe(2, "B", b);
  EXPECT_EQ(graph.edge_count(), 0u);
}

TEST(LockOrderGraphTest, FrozenClockTiesAreUnordered) {
  LockOrderGraph graph;
  // Identical acquisition starts (frozen ManualClock): hold-hold pairs
  // cannot be ordered and must not become edges in either direction.
  trace::SchedulingState a = state_at(100);
  add_hold(a, 1, 100, 1);
  trace::SchedulingState b = state_at(100);
  add_hold(b, 1, 100, 2);
  graph.observe(1, "A", a);
  graph.observe(2, "B", b);
  EXPECT_EQ(graph.edge_count(), 0u);
}

TEST(LockOrderGraphTest, WaitWhileHoldingSameMonitorIsNotAnAcquisition) {
  LockOrderGraph graph;
  // p1 already holds a unit of B and is queued at B again (release or
  // re-entry); only the hold-hold edge B->A may appear, never A->B.
  trace::SchedulingState b = state_at(100);
  add_hold(b, 1, 5, 1);
  add_wait(b, 1, 30, 2);
  trace::SchedulingState a = state_at(100);
  add_hold(a, 1, 10, 3);
  graph.observe(2, "B", b);
  graph.observe(1, "A", a);
  const auto edges = graph.edges();
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].from_name, "B");
  EXPECT_EQ(edges[0].to_name, "A");
}

TEST(LockOrderGraphTest, EraseDropsAMonitorsEdges) {
  LockOrderGraph graph;
  trace::SchedulingState a = state_at(100);
  add_hold(a, 1, 10, 1);
  add_hold(a, 2, 40, 2);
  trace::SchedulingState b = state_at(100);
  add_hold(b, 1, 20, 3);
  add_hold(b, 2, 30, 4);
  graph.observe(1, "A", a);
  graph.observe(2, "B", b);
  ASSERT_EQ(graph.find_cycles().size(), 1u);
  graph.erase(2);
  EXPECT_EQ(graph.edge_count(), 0u);
  EXPECT_TRUE(graph.find_cycles().empty());
  EXPECT_EQ(graph.monitor_count(), 1u);
}

TEST(LockOrderGraphTest, WitnessCapBoundsMemoryNotCounting) {
  LockOrderGraph graph;
  for (int i = 0; i < 20; ++i) {
    const trace::Pid pid = i;
    trace::SchedulingState a = state_at(100 + i * 10);
    add_hold(a, pid, 100 + i * 10 - 5, static_cast<std::uint64_t>(2 * i + 1));
    trace::SchedulingState b = state_at(100 + i * 10);
    add_hold(b, pid, 100 + i * 10 - 2, static_cast<std::uint64_t>(2 * i + 2));
    graph.observe(1, "A", a);
    graph.observe(2, "B", b);
  }
  const auto edges = graph.edges();
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].witnesses.size(), LockOrderGraph::kMaxWitnessesPerEdge);
  EXPECT_EQ(edges[0].witness_total, 20u);
  EXPECT_EQ(graph.witness_total(), 20u);
}

TEST(LockOrderGraphTest, LongerCycleFoundWhenShorterOneLacksWitnesses) {
  // SCC {1,2,3,4} with a single-thread triangle 1->2->3->1 (all pA, so
  // implausible) and an independently witnessed detour 1->2->4->1 (pA, pB,
  // pC): the detour must be reported even though the triangle — which a
  // one-representative-cycle-per-SCC scheme would likely pick — fails the
  // distinct-witness test.
  const auto edge = [](core::OrderMonitorId from, core::OrderMonitorId to,
                       trace::Pid pid) {
    OrderEdge e;
    e.from = from;
    e.to = to;
    e.from_name = "m" + std::to_string(from);
    e.to_name = "m" + std::to_string(to);
    e.witnesses = {{pid, 1, 2, false}};
    e.witness_total = 1;
    return e;
  };
  LockOrderGraph graph;
  graph.restore({edge(1, 2, 10), edge(2, 3, 10), edge(3, 1, 10),
                 edge(2, 4, 11), edge(4, 1, 12)});
  const auto cycles = graph.find_cycles();
  ASSERT_EQ(cycles.size(), 1u);
  ASSERT_EQ(cycles[0].steps.size(), 3u);
  EXPECT_EQ(cycles[0].steps[0].monitor, 1u);
  EXPECT_EQ(cycles[0].steps[1].monitor, 2u);
  EXPECT_EQ(cycles[0].steps[2].monitor, 4u);
  EXPECT_EQ(cycles[0].steps[0].witness.pid, 10);
  EXPECT_EQ(cycles[0].steps[1].witness.pid, 11);
  EXPECT_EQ(cycles[0].steps[2].witness.pid, 12);
}

TEST(LockOrderGraphTest, RestoreFromPersistedRecordsRederivesCycles) {
  LockOrderGraph graph;
  trace::SchedulingState a = state_at(100);
  add_hold(a, 1, 10, 1);
  add_hold(a, 2, 40, 2);
  trace::SchedulingState b = state_at(100);
  add_hold(b, 1, 20, 3);
  add_hold(b, 2, 30, 4);
  graph.observe(1, "A", a);
  graph.observe(2, "B", b);
  const auto live = graph.find_cycles();
  ASSERT_EQ(live.size(), 1u);

  const std::vector<trace::LockOrderRecord> records =
      core::to_order_records(graph.edges());
  LockOrderGraph restored;
  restored.restore(core::order_edges_from_records(records));
  EXPECT_EQ(restored.edge_count(), graph.edge_count());
  const auto offline = restored.find_cycles();
  ASSERT_EQ(offline.size(), 1u);
  EXPECT_EQ(core::describe(offline[0]), core::describe(live[0]));
}

// --- Offline LO-Rule validator (fd_rules integration). -----------------------

TEST(ValidateLockOrderTest, ReportsPotentialDeadlockAcrossHistories) {
  trace::SchedulingState a = state_at(100);
  add_hold(a, 1, 10, 1);
  add_hold(a, 2, 40, 2);
  trace::SchedulingState b = state_at(100);
  add_hold(b, 1, 20, 3);
  add_hold(b, 2, 30, 4);
  const auto reports = core::validate_lock_order(
      {{"A", {&a}}, {"B", {&b}}}, 777);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].rule, RuleId::kLockOrderCycle);
  ASSERT_TRUE(reports[0].suspected.has_value());
  EXPECT_EQ(*reports[0].suspected, core::FaultKind::kPotentialDeadlock);
  EXPECT_EQ(reports[0].detected_at, 777);
  EXPECT_NE(reports[0].message.find("A"), std::string::npos);
  EXPECT_NE(reports[0].message.find("B"), std::string::npos);
}

TEST(ValidateLockOrderTest, CleanHistoriesReportNothing) {
  trace::SchedulingState a = state_at(100);
  add_hold(a, 1, 10, 1);
  trace::SchedulingState b = state_at(100);
  add_hold(b, 1, 20, 2);
  EXPECT_TRUE(
      core::validate_lock_order({{"A", {&a}}, {"B", {&b}}}, 5).empty());
}

// --- End-to-end through the CheckerPool. -------------------------------------

core::MonitorSpec fork_spec(const std::string& name) {
  core::MonitorSpec spec = core::MonitorSpec::allocator(name);
  spec.t_max = 30 * util::kSecond;
  spec.t_io = 30 * util::kSecond;
  spec.t_limit = 30 * util::kSecond;
  spec.check_period = 2 * kMillisecond;
  return spec;
}

struct TwoForkFixture {
  core::CollectingSink sink;
  CheckerPool pool;
  RobustMonitor m0, m1;
  wl::ResourceAllocator f0, f1;

  TwoForkFixture()
      : pool([this] {
          CheckerPool::Options options;
          options.waitfor_checkpoint_period = 60 * util::kSecond;  // manual
          options.waitfor_sink = &sink;
          options.lockorder_checkpoint_period = 60 * util::kSecond;
          options.lockorder_sink = &sink;
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

  std::size_t reports_with(RuleId rule) const {
    std::size_t n = 0;
    for (const auto& report : sink.reports()) {
      if (report.rule == rule) ++n;
    }
    return n;
  }
};

TEST(PoolLockOrderTest, OrderCycleWithoutWaitCycleWarnsExactlyOnce) {
  TwoForkFixture fx;
  // Episode one: p1 holds f0 and f1 together (f0 first); both snapshots
  // taken while held.  Episode two, after p1 fully released: p2 takes the
  // opposite order.  No thread ever blocks — no wait cycle exists at any
  // instant — yet the order relation closes a cycle.
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

  EXPECT_EQ(fx.pool.run_lockorder_checkpoint(), 1u);
  EXPECT_EQ(fx.pool.potential_deadlocks_reported(), 1u);
  ASSERT_EQ(fx.reports_with(RuleId::kLockOrderCycle), 1u);
  // The fault that never happened must not be reported as one that did.
  EXPECT_EQ(fx.pool.run_waitfor_checkpoint(), 0u);
  EXPECT_EQ(fx.reports_with(RuleId::kWfCycleDetected), 0u);

  std::string message;
  for (const auto& report : fx.sink.reports()) {
    if (report.rule == RuleId::kLockOrderCycle) message = report.message;
  }
  EXPECT_NE(message.find("f0"), std::string::npos) << message;
  EXPECT_NE(message.find("f1"), std::string::npos) << message;
  EXPECT_NE(message.find("p1"), std::string::npos) << message;
  EXPECT_NE(message.find("p2"), std::string::npos) << message;

  // The relation is historical: the cycle persists, but the warning fired.
  EXPECT_EQ(fx.pool.run_lockorder_checkpoint(), 1u);
  EXPECT_EQ(fx.reports_with(RuleId::kLockOrderCycle), 1u);
  EXPECT_EQ(fx.pool.lockorder_checkpoints(), 2u);
}

TEST(PoolLockOrderTest, GateSerializedConsistentOrderNeverWarns) {
  TwoForkFixture fx;
  // Both threads honour f0-before-f1 (serialized here by construction).
  for (trace::Pid pid = 1; pid <= 2; ++pid) {
    ASSERT_EQ(fx.f0.acquire(pid), rt::Status::kOk);
    ASSERT_EQ(fx.f1.acquire(pid), rt::Status::kOk);
    fx.m0.check_now();
    fx.m1.check_now();
    ASSERT_EQ(fx.f1.release(pid), rt::Status::kOk);
    ASSERT_EQ(fx.f0.release(pid), rt::Status::kOk);
  }
  EXPECT_EQ(fx.pool.run_lockorder_checkpoint(), 0u);
  EXPECT_EQ(fx.reports_with(RuleId::kLockOrderCycle), 0u);
  EXPECT_GT(fx.pool.lockorder_edge_count(), 0u);  // the relation did record
}

TEST(PoolLockOrderTest, UnregisteringAParticipantReArmsTheCycle) {
  TwoForkFixture fx;
  {
    RobustMonitor churn(fork_spec("churn"), fx.sink, fx.with_pool());
    wl::ResourceAllocator fork(churn, 1);
    // churn -> f0 from p1; f0 -> churn from p2: cycle through churn.
    ASSERT_EQ(fork.acquire(1), rt::Status::kOk);
    ASSERT_EQ(fx.f0.acquire(1), rt::Status::kOk);
    churn.check_now();
    fx.m0.check_now();
    ASSERT_EQ(fx.f0.release(1), rt::Status::kOk);
    ASSERT_EQ(fork.release(1), rt::Status::kOk);
    ASSERT_EQ(fx.f0.acquire(2), rt::Status::kOk);
    ASSERT_EQ(fork.acquire(2), rt::Status::kOk);
    churn.check_now();
    fx.m0.check_now();
    ASSERT_EQ(fork.release(2), rt::Status::kOk);
    ASSERT_EQ(fx.f0.release(2), rt::Status::kOk);
    EXPECT_EQ(fx.pool.run_lockorder_checkpoint(), 1u);
    EXPECT_EQ(fx.reports_with(RuleId::kLockOrderCycle), 1u);
  }  // ~RobustMonitor unregisters churn from the pool

  // Its edges went with it: nothing left to warn about.
  EXPECT_EQ(fx.pool.run_lockorder_checkpoint(), 0u);
  EXPECT_EQ(fx.reports_with(RuleId::kLockOrderCycle), 1u);
}

TEST(PoolLockOrderTest, RegisterUnregisterChurnUnderPeriodicCheckpoints) {
  core::CollectingSink sink;
  CheckerPool::Options options;
  options.lockorder_checkpoint_period = 1 * kMillisecond;
  options.lockorder_sink = &sink;
  CheckerPool pool(options);
  RobustMonitor::Options monitor_options;
  monitor_options.checker_pool = &pool;

  RobustMonitor steady(fork_spec("steady"), sink, monitor_options);
  wl::ResourceAllocator steady_fork(steady, 1);
  steady.start_checking();

  // Monitors register, contribute consistent-order holds, and unregister
  // while periodic prediction passes race against the churn.
  for (int round = 0; round < 60; ++round) {
    RobustMonitor churn(fork_spec("churn"), sink, monitor_options);
    wl::ResourceAllocator fork(churn, 1);
    churn.start_checking();
    ASSERT_EQ(steady_fork.acquire(7), rt::Status::kOk);
    ASSERT_EQ(fork.acquire(7), rt::Status::kOk);
    churn.check_now();
    steady.check_now();
    ASSERT_EQ(fork.release(7), rt::Status::kOk);
    ASSERT_EQ(steady_fork.release(7), rt::Status::kOk);
    if (round >= 20 && pool.lockorder_checkpoints() >= 5) break;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  steady.stop_checking();
  EXPECT_GT(pool.lockorder_checkpoints(), 0u);
  EXPECT_EQ(pool.potential_deadlocks_reported(), 0u);
  for (const auto& report : sink.reports()) {
    EXPECT_NE(report.rule, RuleId::kLockOrderCycle) << report.message;
  }
}

// --- Gate-crossing workload contract. ----------------------------------------

TEST(GateCrossingTest, RotatedOrdersArePredictedWithZeroFalsePositives) {
  wl::GateCrossingOptions options;
  options.rounds = 3;
  const wl::GateCrossingResult result = wl::run_gate_crossing(options);
  EXPECT_TRUE(result.completed);
  EXPECT_GE(result.potential_deadlocks, 1u);
  EXPECT_EQ(result.global_deadlocks, 0u);
  ASSERT_FALSE(result.cycles.empty());
  EXPECT_NE(result.cycles[0].find("lane-"), std::string::npos)
      << result.cycles[0];
  EXPECT_GT(result.order_edges, 0u);
}

TEST(GateCrossingTest, ConsistentOrderStaysSilent) {
  wl::GateCrossingOptions options;
  options.consistent_order = true;
  options.rounds = 3;
  const wl::GateCrossingResult result = wl::run_gate_crossing(options);
  EXPECT_TRUE(result.completed);
  EXPECT_EQ(result.potential_deadlocks, 0u);
  EXPECT_EQ(result.global_deadlocks, 0u);
}

}  // namespace
}  // namespace robmon
