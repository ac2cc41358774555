// Integration tests for the real-thread backend: the Hoare monitor under
// contention, the periodic checker, the RobustMonitor real-time phase,
// Level II/III fault injection on real workloads, dining philosophers, and
// trace export/replay.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/replay.hpp"
#include "runtime/robust_monitor.hpp"
#include "workloads/allocator.hpp"
#include "workloads/account.hpp"
#include "workloads/bounded_buffer.hpp"
#include "workloads/dining.hpp"
#include "workloads/loadgen.hpp"

namespace robmon::rt {
namespace {

using core::CollectingSink;
using core::FaultKind;
using core::MonitorSpec;
using core::RuleId;
using util::kMillisecond;

MonitorSpec relaxed_timers(MonitorSpec spec) {
  spec.t_max = 5 * util::kSecond;
  spec.t_io = 5 * util::kSecond;
  spec.t_limit = 5 * util::kSecond;
  spec.check_period = 20 * kMillisecond;
  return spec;
}

TEST(HoareMonitorTest, MutualExclusionUnderContention) {
  CollectingSink sink;
  RobustMonitor monitor(relaxed_timers(MonitorSpec::manager("mx")), sink);
  std::atomic<int> inside{0};
  std::atomic<bool> violation{false};
  constexpr int kThreads = 4;
  constexpr int kOps = 800;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        ASSERT_EQ(monitor.enter(t, "Op"), Status::kOk);
        if (inside.fetch_add(1) != 0) violation.store(true);
        inside.fetch_sub(1);
        monitor.exit(t);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(violation.load());
  monitor.check_now();
  EXPECT_EQ(sink.count(), 0u);
}

TEST(HoareMonitorTest, PoisonUnblocksParkedThreads) {
  CollectingSink sink;
  RobustMonitor monitor(relaxed_timers(MonitorSpec::manager("p")), sink);
  ASSERT_EQ(monitor.enter(0, "Hold"), Status::kOk);
  std::atomic<int> poisoned{0};
  std::vector<std::thread> blocked;
  for (int t = 1; t <= 3; ++t) {
    blocked.emplace_back([&, t] {
      if (monitor.enter(t, "Op") == Status::kPoisoned) poisoned.fetch_add(1);
    });
  }
  // Wait for all three to park on the entry queue.
  for (int spin = 0; spin < 200; ++spin) {
    if (monitor.snapshot().entry_queue.size() == 3) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(monitor.snapshot().entry_queue.size(), 3u);
  monitor.poison();
  for (auto& thread : blocked) thread.join();
  EXPECT_EQ(poisoned.load(), 3);
}

TEST(HoareMonitorTest, SnapshotSeesBlockedWaiters) {
  CollectingSink sink;
  RobustMonitor monitor(relaxed_timers(MonitorSpec::manager("s")), sink);
  ASSERT_EQ(monitor.enter(0, "Hold"), Status::kOk);
  std::thread blocked([&] { monitor.enter(1, "Op"); });
  for (int spin = 0; spin < 200; ++spin) {
    if (monitor.snapshot().entry_queue.size() == 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const auto state = monitor.snapshot();
  EXPECT_EQ(state.running, 0);
  ASSERT_EQ(state.entry_queue.size(), 1u);
  EXPECT_EQ(state.entry_queue[0].pid, 1);
  monitor.exit(0);  // hands off to p1
  blocked.join();
  monitor.exit(1);
  monitor.check_now();
  EXPECT_EQ(sink.count(), 0u);
}

TEST(BoundedBufferTest, FaultFreeSoakWithPeriodicChecking) {
  CollectingSink sink;
  MonitorSpec spec = relaxed_timers(MonitorSpec::coordinator("buf", 4));
  spec.check_period = 10 * kMillisecond;
  RobustMonitor monitor(spec, sink);
  wl::BoundedBuffer buffer(monitor, 4);
  monitor.start_checking();

  constexpr std::int64_t kItems = 3000;
  std::atomic<std::int64_t> received_sum{0};
  std::thread producer([&] {
    for (std::int64_t i = 1; i <= kItems; ++i) {
      ASSERT_EQ(buffer.send(1, i), Status::kOk);
    }
  });
  std::thread consumer([&] {
    std::int64_t item = 0;
    for (std::int64_t i = 0; i < kItems; ++i) {
      ASSERT_EQ(buffer.receive(2, &item), Status::kOk);
      received_sum.fetch_add(item);
    }
  });
  producer.join();
  consumer.join();
  monitor.stop_checking();
  monitor.check_now();
  EXPECT_EQ(received_sum.load(), kItems * (kItems + 1) / 2);
  EXPECT_EQ(sink.count(), 0u) << core::describe(sink.reports()[0],
                                                monitor.symbols());
  EXPECT_GT(monitor.detector().events_processed(), 0u);
}

TEST(BoundedBufferTest, FifoOrderPreserved) {
  CollectingSink sink;
  RobustMonitor monitor(
      relaxed_timers(MonitorSpec::coordinator("fifo", 2)), sink);
  wl::BoundedBuffer buffer(monitor, 2);
  std::thread producer([&] {
    for (std::int64_t i = 0; i < 500; ++i) {
      ASSERT_EQ(buffer.send(1, i), Status::kOk);
    }
  });
  std::int64_t previous = -1;
  for (std::int64_t i = 0; i < 500; ++i) {
    std::int64_t item = 0;
    ASSERT_EQ(buffer.receive(2, &item), Status::kOk);
    EXPECT_EQ(item, previous + 1);
    previous = item;
  }
  producer.join();
}

TEST(LevelTwoInjectionTest, OverfillDetectedByAlgorithm2) {
  CollectingSink sink;
  inject::ScriptedInjection injection(
      {FaultKind::kSendExceedsCapacity, trace::kNoPid, 1, false});
  RobustMonitor::Options options;
  options.injection = &injection;
  RobustMonitor monitor(relaxed_timers(MonitorSpec::coordinator("of", 2)),
                        sink, options);
  wl::BoundedBuffer buffer(monitor, 2, injection);
  // Fill to capacity, then the injected third send skips the wait.
  ASSERT_EQ(buffer.send(1, 10), Status::kOk);
  ASSERT_EQ(buffer.send(1, 11), Status::kOk);
  ASSERT_EQ(buffer.send(1, 12), Status::kOk);  // would block if correct
  EXPECT_TRUE(injection.fired());
  monitor.check_now();
  EXPECT_TRUE(sink.any_with_rule(RuleId::kSt7aSendExceedsCapacity));
}

TEST(LevelTwoInjectionTest, PhantomReceiveDetectedByAlgorithm2) {
  CollectingSink sink;
  inject::ScriptedInjection injection(
      {FaultKind::kReceiveExceedsSend, trace::kNoPid, 1, false});
  RobustMonitor::Options options;
  options.injection = &injection;
  RobustMonitor monitor(relaxed_timers(MonitorSpec::coordinator("pr", 2)),
                        sink, options);
  wl::BoundedBuffer buffer(monitor, 2, injection);
  std::int64_t item = 0;
  ASSERT_EQ(buffer.receive(1, &item), Status::kOk);  // fabricates from empty
  EXPECT_TRUE(injection.fired());
  EXPECT_EQ(item, -1);
  monitor.check_now();
  EXPECT_TRUE(sink.any_with_rule(RuleId::kSt7aReceiveExceedsSend));
}

TEST(LevelTwoInjectionTest, WrongSendDelayDetectedByAlgorithm2) {
  CollectingSink sink;
  inject::ScriptedInjection injection(
      {FaultKind::kSendDelayWrong, trace::kNoPid, 1, false});
  RobustMonitor::Options options;
  options.injection = &injection;
  RobustMonitor monitor(relaxed_timers(MonitorSpec::coordinator("sd", 2)),
                        sink, options);
  wl::BoundedBuffer buffer(monitor, 2, injection);
  std::thread sender([&] {
    buffer.send(1, 42);  // wrongly delayed on "full"; buffer is empty
  });
  for (int spin = 0; spin < 300; ++spin) {
    if (monitor.monitor().log().pending() >= 2) break;  // Enter + Wait
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  monitor.check_now();
  EXPECT_TRUE(sink.any_with_rule(RuleId::kSt7cSendDelayedWhenNotFull));
  monitor.poison();  // unblock the wrongly-delayed sender
  sender.join();
}

TEST(LevelThreeInjectionTest, ReleaseBeforeAcquireCaughtTwice) {
  CollectingSink sink;
  inject::ScriptedInjection injection(
      {FaultKind::kReleaseBeforeAcquire, trace::kNoPid, 1, false});
  RobustMonitor monitor(relaxed_timers(MonitorSpec::allocator("a")), sink);
  wl::ResourceAllocator allocator(monitor, 2);
  wl::ClientOptions client;
  client.iterations = 3;
  ASSERT_EQ(
      wl::run_allocator_client(allocator, 7, injection, client),
      Status::kOk);
  EXPECT_TRUE(injection.fired());
  // Real-time phase catches it immediately...
  EXPECT_TRUE(sink.any_with_rule(RuleId::kRealTimeOrder));
  // ...and Algorithm-3 confirms from history at the checking point.
  monitor.check_now();
  EXPECT_TRUE(sink.any_with_rule(RuleId::kSt8bReleaseWithoutAcquire));
}

TEST(LevelThreeInjectionTest, DoubleAcquireCaughtTwice) {
  CollectingSink sink;
  inject::ScriptedInjection injection(
      {FaultKind::kDoubleAcquireDeadlock, trace::kNoPid, 1, false});
  RobustMonitor monitor(relaxed_timers(MonitorSpec::allocator("d")), sink);
  wl::ResourceAllocator allocator(monitor, 4);  // enough units: no blocking
  wl::ClientOptions client;
  client.iterations = 2;
  ASSERT_EQ(
      wl::run_allocator_client(allocator, 3, injection, client),
      Status::kOk);
  EXPECT_TRUE(injection.fired());
  EXPECT_TRUE(sink.any_with_rule(RuleId::kRealTimeOrder));
  monitor.check_now();
  EXPECT_TRUE(sink.any_with_rule(RuleId::kSt8aDuplicateAcquire));
}

TEST(LevelThreeInjectionTest, NeverReleasedCaughtAtTlimit) {
  CollectingSink sink;
  MonitorSpec spec = MonitorSpec::allocator("n");
  spec.t_max = 5 * util::kSecond;
  spec.t_io = 5 * util::kSecond;
  spec.t_limit = 30 * kMillisecond;
  RobustMonitor monitor(spec, sink);
  wl::ResourceAllocator allocator(monitor, 2);
  inject::ScriptedInjection injection(
      {FaultKind::kResourceNeverReleased, trace::kNoPid, 1, false});
  wl::ClientOptions client;
  client.iterations = 1;
  ASSERT_EQ(
      wl::run_allocator_client(allocator, 5, injection, client),
      Status::kOk);
  monitor.check_now();  // within Tlimit: nothing yet
  EXPECT_FALSE(sink.any_with_rule(RuleId::kSt8cHoldExceedsTlimit));
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  monitor.check_now();
  EXPECT_TRUE(sink.any_with_rule(RuleId::kSt8cHoldExceedsTlimit));
}

TEST(RealTimeOrderTest, CleanClientsPassSilently) {
  CollectingSink sink;
  RobustMonitor monitor(relaxed_timers(MonitorSpec::allocator("ok")), sink);
  wl::ResourceAllocator allocator(monitor, 2);
  wl::ClientOptions client;
  client.iterations = 5;
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      wl::run_allocator_client(allocator, t,
                               inject::NullInjection::instance(), client);
    });
  }
  for (auto& thread : threads) thread.join();
  monitor.check_now();
  EXPECT_EQ(sink.count(), 0u);
}

TEST(AccountManagerTest, WithdrawWaitsForFunds) {
  CollectingSink sink;
  RobustMonitor monitor(relaxed_timers(MonitorSpec::manager("acct")), sink);
  wl::AccountManager account(monitor, 0);
  std::thread withdrawer([&] {
    ASSERT_EQ(account.withdraw(1, 5), Status::kOk);
  });
  // The withdrawer must block until deposits cover the request.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(account.balance(), 0);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(account.deposit(2, 1), Status::kOk);
  }
  withdrawer.join();
  EXPECT_EQ(account.balance(), 0);
  monitor.check_now();
  EXPECT_EQ(sink.count(), 0u);
}

TEST(DiningTest, SymmetricOrderDeadlockIsDetected) {
  wl::DiningOptions options;
  options.philosophers = 4;
  options.rounds = 10000;  // effectively "until deadlock"
  options.eat_ns = 100'000;
  options.think_ns = 0;
  options.grab_gap_ns = 2 * kMillisecond;  // force the circular wait
  options.symmetric_order = true;
  options.t_limit = 60 * kMillisecond;
  options.t_max = 60 * kMillisecond;
  options.t_io = 120 * kMillisecond;
  options.check_period = 30 * kMillisecond;
  options.run_timeout = 1500 * kMillisecond;
  const wl::DiningResult result = wl::run_dining(options);
  EXPECT_FALSE(result.completed);
  // The pool-level checkpoint names the cycle structurally, well before any
  // of the ST-5/6/8c timeout rules can reach the same verdict.
  EXPECT_TRUE(result.global_deadlock_reported);
  ASSERT_FALSE(result.cycles.empty());
  EXPECT_NE(result.cycles[0].find("waits on"), std::string::npos);
}

TEST(DiningTest, TimeoutRulesStillDetectWithCheckpointDisabled) {
  // The pre-pool behaviour: with the wait-for checkpoint off, the deadlock
  // is still caught indirectly through the per-monitor timeout rules.
  wl::DiningOptions options;
  options.philosophers = 4;
  options.rounds = 10000;
  options.eat_ns = 100'000;
  options.think_ns = 0;
  options.grab_gap_ns = 2 * kMillisecond;
  options.symmetric_order = true;
  options.t_limit = 60 * kMillisecond;
  options.t_max = 60 * kMillisecond;
  options.t_io = 120 * kMillisecond;
  options.check_period = 30 * kMillisecond;
  options.checkpoint_period = 0;  // structural detection disabled
  options.run_timeout = 1500 * kMillisecond;
  const wl::DiningResult result = wl::run_dining(options);
  EXPECT_FALSE(result.completed);
  EXPECT_FALSE(result.global_deadlock_reported);
  EXPECT_TRUE(result.deadlock_reported);
}

TEST(DiningTest, AsymmetricOrderRunsClean) {
  wl::DiningOptions options;
  options.philosophers = 4;
  options.rounds = 30;
  options.eat_ns = 50'000;
  options.think_ns = 20'000;
  options.symmetric_order = false;
  options.run_timeout = 5 * util::kSecond;
  const wl::DiningResult result = wl::run_dining(options);
  EXPECT_TRUE(result.completed);
  EXPECT_FALSE(result.deadlock_reported);
  EXPECT_EQ(result.fault_reports, 0u);
}

TEST(TraceExportTest, ExportedTraceReplaysClean) {
  CollectingSink sink;
  RobustMonitor::Options options;
  options.retain_trace = true;
  MonitorSpec spec = relaxed_timers(MonitorSpec::coordinator("tr", 3));
  RobustMonitor monitor(spec, sink, options);
  wl::BoundedBuffer buffer(monitor, 3);
  std::thread producer([&] {
    for (std::int64_t i = 0; i < 50; ++i) {
      ASSERT_EQ(buffer.send(1, i), Status::kOk);
    }
  });
  std::int64_t item = 0;
  for (std::int64_t i = 0; i < 50; ++i) {
    ASSERT_EQ(buffer.receive(2, &item), Status::kOk);
  }
  producer.join();
  monitor.check_now();

  const trace::TraceFile exported = monitor.export_trace();
  EXPECT_GE(exported.checkpoints.size(), 2u);  // initial + >=1 check
  // 50*2 operations, two events each, plus one Wait per blocked call.
  EXPECT_GE(exported.events.size(), 200u);

  // Round-trip through the codec, then replay offline.
  const trace::TraceFile parsed =
      trace::read_trace_string(trace::write_trace_string(exported));
  const core::ReplayResult replayed = core::replay_trace(parsed, spec);
  EXPECT_TRUE(replayed.reports.empty());
  EXPECT_EQ(replayed.events_processed + replayed.events_unchecked,
            exported.events.size());
}

TEST(TraceExportTest, CheckAndExportRaceApplicationThreads) {
  // The owner-serialized EventLog is touched from three sides at once:
  // application threads append under the monitor lock, a checker drains
  // it, and an exporter reads its history.  Every cross-thread access must
  // go through the monitor (TSan referees), and the exported stream must
  // stay dense and lossless throughout.
  CollectingSink sink;
  RobustMonitor::Options options;
  options.retain_trace = true;
  RobustMonitor monitor(relaxed_timers(MonitorSpec::manager("race")), sink,
                        options);
  constexpr int kThreads = 3;
  constexpr int kOps = 400;
  std::atomic<int> running{kThreads};
  std::atomic<bool> checking{false};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      while (!checking.load()) std::this_thread::yield();
      for (int i = 0; i < kOps; ++i) {
        ASSERT_EQ(monitor.enter(t, "Op"), Status::kOk);
        monitor.exit(t);
      }
      running.fetch_sub(1);
    });
  }
  std::size_t exports = 0;
  std::thread checker([&] {
    do {
      monitor.check_now();
      const trace::TraceFile exported = monitor.export_trace();
      checking.store(true);
      for (std::size_t i = 0; i < exported.events.size(); ++i) {
        ASSERT_EQ(exported.events[i].seq, i);
      }
      ++exports;
    } while (running.load() > 0);
  });
  for (auto& client : clients) client.join();
  checker.join();
  monitor.check_now();

  const trace::TraceFile exported = monitor.export_trace();
  EXPECT_GT(exports, 0u);
  EXPECT_EQ(exported.events_lost, 0u);
  EXPECT_EQ(exported.events.size(), monitor.monitor().log().total_appended());
  EXPECT_GE(exported.events.size(), 2u * kThreads * kOps);
  EXPECT_EQ(monitor.monitor().log().pending(), 0u);
  EXPECT_EQ(sink.count(), 0u);
}

TEST(LoadGenTest, AllThreeTypesRunClean) {
  for (const core::MonitorType type :
       {core::MonitorType::kCommunicationCoordinator,
        core::MonitorType::kResourceAllocator,
        core::MonitorType::kOperationManager}) {
    wl::LoadOptions options;
    options.type = type;
    options.workers = 4;
    options.ops_per_worker = 300;
    const wl::LoadResult result = wl::run_load(options);
    EXPECT_EQ(result.faults_reported, 0u) << core::to_string(type);
    EXPECT_GT(result.operations, 0u);
    EXPECT_GT(result.events_recorded, 0u);
  }
}

TEST(LoadGenTest, InstrumentationOffRecordsNothing) {
  wl::LoadOptions options;
  options.workers = 2;
  options.ops_per_worker = 200;
  options.instrumentation = Instrumentation::kOff;
  options.periodic_checking = false;
  const wl::LoadResult result = wl::run_load(options);
  EXPECT_EQ(result.events_recorded, 0u);
  EXPECT_EQ(result.checks_run, 0u);
  EXPECT_EQ(result.faults_reported, 0u);
}

}  // namespace
}  // namespace robmon::rt
