// Tests for the deterministic scheduler and the simulated monitor:
// coroutine mechanics, virtual time, Hoare hand-off semantics, and the
// reduced event recording model.
#include <gtest/gtest.h>

#include <vector>

#include "sim/scheduler.hpp"
#include "sim/sim_monitor.hpp"
#include "trace/codec.hpp"

namespace robmon::sim {
namespace {

using core::MonitorSpec;
using trace::EventKind;

std::vector<trace::EventRecord> drain(trace::EventLog& log) {
  std::vector<trace::EventRecord> segment;
  log.drain(segment);
  return segment;
}

Process appender(Scheduler& sched, std::vector<int>& order, int id,
                 int rounds) {
  for (int i = 0; i < rounds; ++i) {
    order.push_back(id);
    co_await sched.yield();
  }
}

TEST(SchedulerTest, FifoRoundRobin) {
  Scheduler sched;
  std::vector<int> order;
  sched.spawn(0, appender(sched, order, 0, 2));
  sched.spawn(1, appender(sched, order, 1, 2));
  EXPECT_EQ(sched.run(), Scheduler::StopReason::kAllDone);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 0, 1}));
}

TEST(SchedulerTest, RandomPolicyDeterministicPerSeed) {
  auto trace_for = [](std::uint64_t seed) {
    Scheduler sched(Scheduler::Options{1000, SchedulePolicy::kRandom, seed});
    std::vector<int> order;
    for (int p = 0; p < 4; ++p) sched.spawn(p, appender(sched, order, p, 5));
    sched.run();
    return order;
  };
  EXPECT_EQ(trace_for(7), trace_for(7));
  EXPECT_NE(trace_for(7), trace_for(8));
}

TEST(SchedulerTest, VirtualTimeAdvancesPerStep) {
  Scheduler sched(Scheduler::Options{500, SchedulePolicy::kFifo, 1});
  std::vector<int> order;
  sched.spawn(0, appender(sched, order, 0, 3));
  sched.run();
  // 3 appends + final resume that completes the coroutine = 4 steps.
  EXPECT_EQ(sched.now(), 4 * 500);
}

Process sleeper(Scheduler& sched, util::TimeNs delay, bool& woke) {
  co_await sched.delay(delay);
  woke = true;
}

TEST(SchedulerTest, DelayJumpsClockWhenIdle) {
  Scheduler sched;
  bool woke = false;
  sched.spawn(0, sleeper(sched, 10 * util::kMillisecond, woke));
  EXPECT_EQ(sched.run(), Scheduler::StopReason::kAllDone);
  EXPECT_TRUE(woke);
  EXPECT_GE(sched.now(), 10 * util::kMillisecond);
}

Process parker(Scheduler& sched, bool& resumed) {
  co_await sched.park();
  resumed = true;
}

Process unparker(Scheduler& sched, trace::Pid target) {
  co_await sched.yield();
  sched.unpark(target);
  co_return;
}

TEST(SchedulerTest, ParkUnpark) {
  Scheduler sched;
  bool resumed = false;
  sched.spawn(0, parker(sched, resumed));
  sched.spawn(1, unparker(sched, 0));
  EXPECT_EQ(sched.run(), Scheduler::StopReason::kAllDone);
  EXPECT_TRUE(resumed);
}

TEST(SchedulerTest, QuiescentWhenAllParked) {
  Scheduler sched;
  bool resumed = false;
  sched.spawn(0, parker(sched, resumed));
  EXPECT_EQ(sched.run(), Scheduler::StopReason::kQuiescent);
  EXPECT_FALSE(resumed);
  EXPECT_TRUE(sched.is_parked(0));
  EXPECT_EQ(sched.parked_pids(), std::vector<trace::Pid>{0});
}

TEST(SchedulerTest, MaxStepsBudget) {
  Scheduler sched;
  std::vector<int> order;
  sched.spawn(0, appender(sched, order, 0, 1000000));
  EXPECT_EQ(sched.run(10), Scheduler::StopReason::kMaxSteps);
  EXPECT_EQ(sched.steps(), 10u);
}

Process thrower(Scheduler& sched) {
  co_await sched.yield();
  throw std::runtime_error("boom");
}

TEST(SchedulerTest, ExceptionsSurfaceViaRethrow) {
  Scheduler sched;
  sched.spawn(0, thrower(sched));
  sched.run();
  EXPECT_THROW(sched.rethrow_any_failure(), std::runtime_error);
}

TEST(SchedulerTest, DuplicatePidRejected) {
  Scheduler sched;
  std::vector<int> order;
  sched.spawn(0, appender(sched, order, 0, 1));
  EXPECT_THROW(sched.spawn(0, appender(sched, order, 0, 1)),
               std::invalid_argument);
}

// --- SimMonitor semantics. --------------------------------------------------

struct MonitorRig {
  Scheduler sched;
  MonitorSpec spec = MonitorSpec::manager("m");
  SimMonitor monitor{spec, sched};
};

Process enter_exit(SimMonitor& mon, std::vector<trace::Pid>& order,
                   trace::Pid pid, util::TimeNs hold) {
  co_await mon.enter("Op");
  order.push_back(pid);
  if (hold > 0) co_await mon.scheduler().delay(hold);
  mon.exit();
}

TEST(SimMonitorTest, MutualExclusionAndFifoEntry) {
  MonitorRig rig;
  std::vector<trace::Pid> order;
  for (trace::Pid p = 0; p < 4; ++p) {
    rig.sched.spawn(p, enter_exit(rig.monitor, order, p, 500'000));
  }
  EXPECT_EQ(rig.sched.run(), Scheduler::StopReason::kAllDone);
  EXPECT_EQ(order, (std::vector<trace::Pid>{0, 1, 2, 3}));
  EXPECT_FALSE(rig.monitor.owner().has_value());
}

TEST(SimMonitorTest, EventSequenceForUncontendedEnterExit) {
  MonitorRig rig;
  std::vector<trace::Pid> order;
  rig.sched.spawn(1, enter_exit(rig.monitor, order, 1, 0));
  rig.sched.run();
  const auto events = drain(rig.monitor.log());
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, EventKind::kEnter);
  EXPECT_TRUE(events[0].flag);  // immediate entry
  EXPECT_EQ(events[1].kind, EventKind::kSignalExit);
  EXPECT_FALSE(events[1].flag);
}

TEST(SimMonitorTest, ContendedEntryRecordsFlagZeroOnce) {
  MonitorRig rig;
  std::vector<trace::Pid> order;
  rig.sched.spawn(1, enter_exit(rig.monitor, order, 1, 500'000));
  rig.sched.spawn(2, enter_exit(rig.monitor, order, 2, 0));
  rig.sched.run();
  const auto events = drain(rig.monitor.log());
  // Enter(1,1), Enter(2,0), SignalExit(1), SignalExit(2): the resume of p2
  // is implied by SignalExit(1) per the reduced model, not re-recorded.
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].pid, 1);
  EXPECT_TRUE(events[0].flag);
  EXPECT_EQ(events[1].pid, 2);
  EXPECT_FALSE(events[1].flag);
  EXPECT_EQ(events[2].pid, 1);
  EXPECT_EQ(events[2].kind, EventKind::kSignalExit);
  EXPECT_EQ(events[3].pid, 2);
}

Process wait_then_exit(SimMonitor& mon, std::vector<int>& marks, int before,
                       int after) {
  co_await mon.enter("Waiter");
  marks.push_back(before);
  co_await mon.wait("go");
  marks.push_back(after);
  mon.exit();
}

Process signal_once(SimMonitor& mon) {
  co_await mon.enter("Signaller");
  mon.signal_exit("go");
}

TEST(SimMonitorTest, SignalExitHandsOffToCondWaiter) {
  MonitorRig rig;
  std::vector<int> marks;
  rig.sched.spawn(1, wait_then_exit(rig.monitor, marks, 10, 11));
  rig.sched.spawn(2, signal_once(rig.monitor));
  EXPECT_EQ(rig.sched.run(), Scheduler::StopReason::kAllDone);
  EXPECT_EQ(marks, (std::vector<int>{10, 11}));
  const auto events = drain(rig.monitor.log());
  // Enter(1,1) Wait(1) Enter(2,1) SignalExit(2,go,1) SignalExit(1).
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[3].kind, EventKind::kSignalExit);
  EXPECT_TRUE(events[3].flag);  // resumed the condition waiter
  EXPECT_EQ(events[4].pid, 1);
}

TEST(SimMonitorTest, SignalWithNoWaiterHasFlagZero) {
  MonitorRig rig;
  rig.sched.spawn(2, signal_once(rig.monitor));
  rig.sched.run();
  const auto events = drain(rig.monitor.log());
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].kind, EventKind::kSignalExit);
  EXPECT_FALSE(events[1].flag);
}

TEST(SimMonitorTest, SnapshotReflectsQueues) {
  MonitorRig rig;
  std::vector<int> marks;
  std::vector<trace::Pid> order;
  rig.sched.spawn(1, wait_then_exit(rig.monitor, marks, 1, 2));
  rig.sched.spawn(2, enter_exit(rig.monitor, order, 2, 10 * util::kSecond));
  rig.sched.spawn(3, enter_exit(rig.monitor, order, 3, 0));
  // Exactly three resume steps: p1 enters and waits on "go", p2 enters and
  // sleeps holding the monitor, p3 queues on EQ.  (More steps would let the
  // virtual clock jump past p2's hold.)
  rig.sched.run(3);
  const auto state = rig.monitor.snapshot();
  EXPECT_EQ(state.running, 2);
  ASSERT_EQ(state.entry_queue.size(), 1u);
  EXPECT_EQ(state.entry_queue[0].pid, 3);
  const auto go = rig.monitor.symbols().find("go");
  ASSERT_NE(go, trace::kNoSymbol);
  ASSERT_EQ(state.cond_entries(go).size(), 1u);
  EXPECT_EQ(state.cond_entries(go)[0].pid, 1);
  EXPECT_EQ(state.blocked_count(), 2u);
}

TEST(SimMonitorTest, RandomSeedYieldsByteIdenticalEventLog) {
  // The determinism contract the schedule explorer builds on, pinned at the
  // coroutine-simulator layer: the serialized event log is a pure function
  // of (workload, seed) — same seed twice gives byte-identical bytes, and
  // nearby seeds take schedules different enough to move the log.
  const auto trace_for = [](std::uint64_t seed) {
    Scheduler sched(Scheduler::Options{1000, SchedulePolicy::kRandom, seed});
    MonitorSpec spec = MonitorSpec::manager("m");
    SimMonitor monitor(spec, sched);
    std::vector<trace::Pid> order;
    for (trace::Pid p = 1; p <= 5; ++p) {
      sched.spawn(p, enter_exit(monitor, order, p, 200'000 * p));
    }
    EXPECT_EQ(sched.run(), Scheduler::StopReason::kAllDone);
    return trace::write_trace_string(trace::make_trace_file(
        "m", "manager", -1, monitor.symbols(), drain(monitor.log()), {}));
  };
  const std::string base = trace_for(99);
  EXPECT_FALSE(base.empty());
  EXPECT_EQ(base, trace_for(99)) << "event log not byte-identical";
  bool diverged = false;
  for (std::uint64_t seed = 100; seed <= 104 && !diverged; ++seed) {
    diverged = trace_for(seed) != base;
  }
  EXPECT_TRUE(diverged) << "seed sweep never changed the event log";
}

TEST(SimMonitorTest, StateTraceAlignsWithEvents) {
  MonitorRig rig;
  rig.monitor.enable_state_trace();
  std::vector<int> marks;
  rig.sched.spawn(1, wait_then_exit(rig.monitor, marks, 1, 2));
  rig.sched.spawn(2, signal_once(rig.monitor));
  rig.sched.run();
  const auto events = drain(rig.monitor.log());
  const auto& states = rig.monitor.state_trace();
  EXPECT_EQ(states.size(), events.size() + 1);
}

TEST(SimMonitorTest, ResourceGaugeInSnapshot) {
  MonitorRig rig;
  std::int64_t value = 42;
  rig.monitor.set_resource_gauge([&value] { return value; });
  EXPECT_EQ(rig.monitor.snapshot().resources, 42);
  value = 7;
  EXPECT_EQ(rig.monitor.snapshot().resources, 7);
}

TEST(SimMonitorTest, NoGaugeMeansNotApplicable) {
  MonitorRig rig;
  EXPECT_EQ(rig.monitor.snapshot().resources, -1);
}

}  // namespace
}  // namespace robmon::sim
