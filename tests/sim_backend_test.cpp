// Unit tests for the deterministic fiber backend (sync/sim_backend.hpp):
// scheduling, virtual time, the cooperative primitives, the seed →
// schedule-digest determinism contract the schedule explorer relies on, and
// HoareMonitor's hand-off semantics and event recording on fibers.
// This binary links robmon_sim, so sync::Semaphore / Gate are
// the backend-ported versions running on fibers.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/monitor_spec.hpp"
#include "runtime/hoare_monitor.hpp"
#include "sync/backend.hpp"
#include "sync/semaphore.hpp"
#include "sync/sim_backend.hpp"
#include "workloads/sim_scenarios.hpp"

namespace robmon {
namespace {

using sync::SchedulePolicy;
using sync::SimScheduler;

TEST(SimSchedulerTest, RunsAllFibersToCompletion) {
  SimScheduler sched;
  int ran = 0;
  sched.spawn([&] { ++ran; });
  sched.spawn([&] { ++ran; });
  sched.spawn([&] { ++ran; });
  EXPECT_EQ(sched.run(), SimScheduler::StopReason::kAllDone);
  sched.rethrow_any_failure();
  EXPECT_EQ(ran, 3);
  EXPECT_EQ(sched.live_count(), 0u);
}

TEST(SimSchedulerTest, VirtualSleepAdvancesClockWithoutWallTime) {
  SimScheduler sched;
  util::TimeNs woke_at = -1;
  sched.spawn([&] {
    sync::backend_sleep_for(5 * util::kSecond);
    woke_at = sync::backend_now();
  });
  EXPECT_EQ(sched.run(), SimScheduler::StopReason::kAllDone);
  EXPECT_GE(woke_at, 5 * util::kSecond);
}

TEST(SimSchedulerTest, DeadlockedFibersReportQuiescent) {
  SimScheduler sched({.policy = SchedulePolicy::kFifo});
  sync::SimMutex a;
  sync::SimMutex b;
  sched.spawn([&] {
    a.lock();
    sched.yield_fiber();
    b.lock();  // never acquired
    b.unlock();
    a.unlock();
  });
  sched.spawn([&] {
    b.lock();
    sched.yield_fiber();
    a.lock();  // never acquired
    a.unlock();
    b.unlock();
  });
  EXPECT_EQ(sched.run(), SimScheduler::StopReason::kQuiescent);
  EXPECT_EQ(sched.live_count(), 2u);
}

TEST(SimSchedulerTest, MutexProvidesMutualExclusion) {
  SimScheduler sched({.seed = 7});
  sync::SimMutex mu;
  int in_section = 0;
  int max_in_section = 0;
  int total = 0;
  for (int i = 0; i < 8; ++i) {
    sched.spawn([&] {
      for (int j = 0; j < 10; ++j) {
        mu.lock();
        max_in_section = std::max(max_in_section, ++in_section);
        sched.yield_fiber();  // tempt another fiber into the section
        --in_section;
        ++total;
        mu.unlock();
      }
    });
  }
  EXPECT_EQ(sched.run(), SimScheduler::StopReason::kAllDone);
  EXPECT_EQ(max_in_section, 1);
  EXPECT_EQ(total, 80);
}

TEST(SimSchedulerTest, CondVarNotifyAndTimedWait) {
  SimScheduler sched;
  sync::SimMutex mu;
  sync::SimCondVar cv;
  bool ready = false;
  bool waiter_saw_ready = false;
  bool timed_out = false;
  sched.spawn([&] {
    std::unique_lock<sync::SimMutex> lock(mu);
    cv.wait(lock, [&] { return ready; });
    waiter_saw_ready = ready;
  });
  sched.spawn([&] {
    // Nobody ever sets this condition: the timed wait must ride the virtual
    // clock to its deadline (the scheduler jumps time when all are parked).
    std::unique_lock<sync::SimMutex> lock(mu);
    sync::SimCondVar idle_cv;
    timed_out = !idle_cv.wait_for(lock, std::chrono::milliseconds(50),
                                  [] { return false; });
  });
  sched.spawn([&] {
    std::unique_lock<sync::SimMutex> lock(mu);
    ready = true;
    cv.notify_all();
  });
  EXPECT_EQ(sched.run(), SimScheduler::StopReason::kAllDone);
  sched.rethrow_any_failure();
  EXPECT_TRUE(waiter_saw_ready);
  EXPECT_TRUE(timed_out);
  EXPECT_GE(sched.now(), 50 * util::kMillisecond);
}

TEST(SimSchedulerTest, SimThreadJoinsLikeStdThread) {
  SimScheduler sched;
  std::vector<int> order;
  sched.spawn([&] {
    sync::BackendThread worker([&] {
      sync::backend_sleep_for(util::kMillisecond);
      order.push_back(1);
    });
    worker.join();
    order.push_back(2);
  });
  EXPECT_EQ(sched.run(), SimScheduler::StopReason::kAllDone);
  sched.rethrow_any_failure();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimSchedulerTest, SemaphorePoisonReleasesParkedFiber) {
  SimScheduler sched;
  sync::Semaphore sem(0);
  sync::AcquireResult result = sync::AcquireResult::kAcquired;
  sched.spawn([&] { result = sem.acquire(); });
  sched.spawn([&] { sem.poison(); });
  EXPECT_EQ(sched.run(), SimScheduler::StopReason::kAllDone);
  EXPECT_EQ(result, sync::AcquireResult::kPoisoned);
}

TEST(SimSchedulerTest, SameSeedSameDigestDifferentSeedDiverges) {
  const auto digest_for = [](std::uint64_t seed) {
    SimScheduler sched({.policy = SchedulePolicy::kRandom, .seed = seed});
    sync::SimMutex mu;
    long counter = 0;
    for (int i = 0; i < 6; ++i) {
      sched.spawn([&] {
        for (int j = 0; j < 20; ++j) {
          mu.lock();
          ++counter;
          mu.unlock();
          sched.yield_fiber();
        }
      });
    }
    EXPECT_EQ(sched.run(), SimScheduler::StopReason::kAllDone);
    return sched.schedule_digest();
  };
  const std::uint64_t first = digest_for(1234);
  const std::uint64_t again = digest_for(1234);
  EXPECT_EQ(first, again);
  // At least one of a handful of other seeds must take a different schedule.
  bool diverged = false;
  for (std::uint64_t seed = 1; seed <= 4 && !diverged; ++seed) {
    diverged = digest_for(seed) != first;
  }
  EXPECT_TRUE(diverged);
}

TEST(SimSchedulerTest, ExceptionInFiberIsCapturedAndRethrown) {
  SimScheduler sched;
  sched.spawn([] { throw std::runtime_error("boom"); });
  EXPECT_EQ(sched.run(), SimScheduler::StopReason::kAllDone);
  EXPECT_THROW(sched.rethrow_any_failure(), std::runtime_error);
}

// --- HoareMonitor on fibers. -------------------------------------------------

using trace::EventKind;

/// A manager monitor that retains its history, on a FIFO scheduler: fibers
/// run in spawn order until they block, so every schedule is the obvious one.
struct MonitorRig {
  SimScheduler sched{{.policy = SchedulePolicy::kFifo}};
  rt::HoareMonitor monitor{core::MonitorSpec::manager("m"),
                           *sync::backend_clock(),
                           inject::NullInjection::instance(),
                           rt::Instrumentation::kFull,
                           rt::Semantics::kHoareSignalExit,
                           /*retain_history=*/true};

  void enter_exit(std::vector<trace::Pid>& order, trace::Pid pid,
                  util::TimeNs hold) {
    sched.spawn([this, &order, pid, hold] {
      ASSERT_EQ(monitor.enter(pid, "Op"), rt::Status::kOk);
      order.push_back(pid);
      if (hold > 0) sync::backend_sleep_for(hold);
      monitor.exit(pid);
    });
  }
  void wait_then_exit(std::vector<int>& marks, trace::Pid pid) {
    sched.spawn([this, &marks, pid] {
      ASSERT_EQ(monitor.enter(pid, "Waiter"), rt::Status::kOk);
      marks.push_back(10);
      ASSERT_EQ(monitor.wait(pid, "go"), rt::Status::kOk);
      marks.push_back(11);
      monitor.exit(pid);
    });
  }
  void signal_once(trace::Pid pid) {
    sched.spawn([this, pid] {
      ASSERT_EQ(monitor.enter(pid, "Signaller"), rt::Status::kOk);
      monitor.signal_exit(pid, "go");
    });
  }
  void run_all() {
    EXPECT_EQ(sched.run(), SimScheduler::StopReason::kAllDone);
    sched.rethrow_any_failure();
  }
};

TEST(HoareMonitorSimTest, MutualExclusionAndFifoEntry) {
  MonitorRig rig;
  std::vector<trace::Pid> order;
  for (trace::Pid p = 0; p < 4; ++p) rig.enter_exit(order, p, 500'000);
  rig.run_all();
  EXPECT_EQ(order, (std::vector<trace::Pid>{0, 1, 2, 3}));
  EXPECT_FALSE(rig.monitor.snapshot().has_running());
}

TEST(HoareMonitorSimTest, EventSequenceForUncontendedEnterExit) {
  MonitorRig rig;
  std::vector<trace::Pid> order;
  rig.enter_exit(order, 1, 0);
  rig.run_all();
  const auto events = rig.monitor.history();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, EventKind::kEnter);
  EXPECT_TRUE(events[0].flag);  // immediate entry
  EXPECT_EQ(events[1].kind, EventKind::kSignalExit);
  EXPECT_FALSE(events[1].flag);
}

TEST(HoareMonitorSimTest, ContendedEntryRecordsFlagZeroOnce) {
  MonitorRig rig;
  std::vector<trace::Pid> order;
  rig.enter_exit(order, 1, 500'000);
  rig.enter_exit(order, 2, 0);
  rig.run_all();
  const auto events = rig.monitor.history();
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

TEST(HoareMonitorSimTest, SignalExitHandsOffToCondWaiter) {
  MonitorRig rig;
  std::vector<int> marks;
  rig.wait_then_exit(marks, 1);
  rig.signal_once(2);
  rig.run_all();
  EXPECT_EQ(marks, (std::vector<int>{10, 11}));
  const auto events = rig.monitor.history();
  // Enter(1,1) Wait(1) Enter(2,1) SignalExit(2,go,1) SignalExit(1).
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[3].kind, EventKind::kSignalExit);
  EXPECT_TRUE(events[3].flag);  // resumed the condition waiter
  EXPECT_EQ(events[4].pid, 1);
}

TEST(HoareMonitorSimTest, SignalWithNoWaiterHasFlagZero) {
  MonitorRig rig;
  rig.signal_once(2);
  rig.run_all();
  const auto events = rig.monitor.history();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].kind, EventKind::kSignalExit);
  EXPECT_FALSE(events[1].flag);
}

TEST(HoareMonitorSimTest, StateTraceAlignsWithEvents) {
  MonitorRig rig;
  rig.monitor.enable_state_trace();
  std::vector<int> marks;
  rig.wait_then_exit(marks, 1);
  rig.signal_once(2);
  rig.run_all();
  const auto events = rig.monitor.history();
  const auto states = rig.monitor.state_trace();
  ASSERT_EQ(events.size(), 5u);
  ASSERT_EQ(states.size(), events.size() + 1);
  // State i+1 is the state right after event i: p1 waiting on "go" after
  // its Wait, p1 running again after the hand-off.
  const auto go = rig.monitor.symbols().find("go");
  EXPECT_EQ(states[2].cond_entries(go).size(), 1u);
  EXPECT_EQ(states[4].running, 1);
  EXPECT_FALSE(states[5].has_running());
}

TEST(HoareMonitorSimTest, ResourceGaugeInSnapshot) {
  MonitorRig rig;
  EXPECT_EQ(rig.monitor.snapshot().resources, -1);  // no gauge: n/a
  std::int64_t value = 42;
  rig.monitor.set_resource_gauge([&value] { return value; });
  EXPECT_EQ(rig.monitor.snapshot().resources, 42);
  value = 7;
  EXPECT_EQ(rig.monitor.snapshot().resources, 7);
}

// --- Determinism of the coverage harness. ------------------------------------

/// Everything an FD trial observed, rendered field by field.
std::string render(const wl::FdTrialResult& result) {
  std::ostringstream out;
  for (const trace::EventRecord& e : result.history) {
    out << e.seq << ' ' << e.time << ' ' << trace::to_string(e.kind) << ' '
        << e.pid << ' ' << e.proc << ' ' << e.cond << ' ' << e.flag << '\n';
  }
  for (const auto* reports : {&result.st_reports, &result.fd_reports}) {
    for (const core::FaultReport& r : *reports) {
      out << core::to_string(r.rule) << ' ' << r.pid << ' ' << r.detected_at
          << ' ' << r.message << '\n';
    }
    out << "--\n";
  }
  return out.str();
}

TEST(CoverageDeterminismTest, SameSeedYieldsByteIdenticalFdTrial) {
  // The determinism contract the coverage matrix builds on: history and
  // reports of a trial on the real monitor are a pure function of
  // (fault, seed) — same seed twice gives identical bytes, and nearby seeds
  // take schedules different enough to move the history.
  const auto trial_for = [](std::uint64_t seed) {
    return render(wl::run_fd_trial(core::FaultKind::kWaitNoBlock, seed));
  };
  const std::string base = trial_for(99);
  EXPECT_NE(base.find("ST-"), std::string::npos) << "fault not detected";
  EXPECT_EQ(base, trial_for(99)) << "trial not byte-identical";
  bool diverged = false;
  for (std::uint64_t seed = 100; seed <= 104 && !diverged; ++seed) {
    diverged = trial_for(seed) != base;
  }
  EXPECT_TRUE(diverged) << "seed sweep never changed the trial";
}

}  // namespace
}  // namespace robmon
