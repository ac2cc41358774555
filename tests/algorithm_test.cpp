// Unit tests for the checking lists and Algorithms 1-3 over hand-crafted
// event segments — each ST-Rule violated in isolation, plus correct
// sequences that must pass silently.
#include <gtest/gtest.h>

#include "core/algorithms.hpp"
#include "core/checking_lists.hpp"
#include "core/detector.hpp"
#include "core/fault.hpp"
#include "core/monitor_spec.hpp"

namespace robmon::core {
namespace {

using trace::EventRecord;
using trace::SchedulingState;
using trace::SymbolId;
using util::kMillisecond;

class ChecklistFixture : public ::testing::Test {
 protected:
  ChecklistFixture() {
    spec_ = MonitorSpec::manager("m");
    spec_.t_max = 50 * kMillisecond;
    spec_.t_io = 100 * kMillisecond;
    op_ = symbols_.intern("Op");
    cond_ = symbols_.intern("cond");
  }

  std::size_t run1(const SchedulingState& prev, const SchedulingState& cur,
                   const std::vector<EventRecord>& events,
                   util::TimeNs now = 10 * kMillisecond) {
    sink_.clear();
    const CheckContext ctx = CheckContext::make(spec_, symbols_, now, sink_);
    return run_algorithm1(ctx, prev, cur, events, lists_);
  }

  bool reported(RuleId rule) const { return sink_.any_with_rule(rule); }

  MonitorSpec spec_;
  trace::SymbolTable symbols_;
  CollectingSink sink_;
  CheckingLists lists_;
  SymbolId op_;
  SymbolId cond_;
};

TEST_F(ChecklistFixture, FromStateSeedsLists) {
  SchedulingState prev;
  prev.entry_queue = {{2, op_, 100}};
  prev.cond_queues = {{cond_, {{3, op_, 50}}}};
  prev.running = 1;
  prev.running_proc = op_;
  prev.resources = 4;
  CheckingLists lists;
  lists.reset(prev);
  ASSERT_EQ(lists.enter_zero.size(), 1u);
  EXPECT_EQ(lists.enter_zero[0].pid, 2);
  ASSERT_NE(lists.find_wait_slot(cond_), nullptr);
  ASSERT_EQ(lists.find_wait_slot(cond_)->entries.size(), 1u);
  ASSERT_EQ(lists.running.size(), 1u);
  EXPECT_EQ(lists.running[0].pid, 1);
  EXPECT_EQ(lists.resource_no, 4);
  EXPECT_TRUE(lists.pid_blocked(2));
  EXPECT_TRUE(lists.pid_blocked(3));
  EXPECT_FALSE(lists.pid_blocked(1));
  EXPECT_TRUE(lists.pid_running(1));
}

TEST_F(ChecklistFixture, ListsMatchComparesPidsAndProcs) {
  ListQueue rebuilt;
  rebuilt.push_back({1, op_, 0});
  rebuilt.push_back({2, op_, 0});
  std::vector<trace::QueueEntry> actual = {{1, op_, 5}, {2, op_, 9}};
  EXPECT_TRUE(lists_match(rebuilt, actual));
  actual[1].pid = 3;
  EXPECT_FALSE(lists_match(rebuilt, actual));
  actual.pop_back();
  EXPECT_FALSE(lists_match(rebuilt, actual));
}

TEST_F(ChecklistFixture, StandingQueueKeepsFifoOrderInBoundedSpace) {
  // Three entries stay queued while 100000 more pass through, as on an
  // entry queue that never drains within a segment: the order holds across
  // every compaction and the list does not grow with the traffic.
  ListQueue queue;
  for (trace::Pid pid = 1; pid <= 3; ++pid) queue.push_back({pid, op_, 0});
  for (trace::Pid pid = 4; pid <= 100003; ++pid) {
    queue.push_back({pid, op_, 0});
    ASSERT_EQ(queue.pop_front().pid, pid - 3);
  }
  ASSERT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue[0].pid, 100001);
  EXPECT_EQ(queue[2].pid, 100003);
  EXPECT_LE(queue.capacity(), 16u);
}

TEST_F(ChecklistFixture, EmptySegmentEmptyStatesIsClean) {
  EXPECT_EQ(run1({}, {}, {}), 0u);
}

TEST_F(ChecklistFixture, EnterExitWithinSegmentIsClean) {
  const std::vector<EventRecord> events = {
      EventRecord::enter(1, op_, true, 1000),
      EventRecord::signal_exit(1, op_, trace::kNoSymbol, false, 2000),
  };
  EXPECT_EQ(run1({}, {}, events), 0u);
}

TEST_F(ChecklistFixture, WaitHandoffToEntryHeadIsClean) {
  SchedulingState prev;
  prev.running = 1;
  prev.running_proc = op_;
  prev.entry_queue = {{2, op_, 500}};

  const std::vector<EventRecord> events = {
      EventRecord::wait(1, op_, cond_, 1000),
  };

  SchedulingState cur;
  cur.running = 2;
  cur.running_proc = op_;
  cur.running_since = 1000;
  cur.cond_queues = {{cond_, {{1, op_, 1000}}}};
  EXPECT_EQ(run1(prev, cur, events), 0u);
}

TEST_F(ChecklistFixture, SignalHandoffToCondWaiterIsClean) {
  SchedulingState prev;
  prev.running = 1;
  prev.running_proc = op_;
  prev.cond_queues = {{cond_, {{2, op_, 500}}}};

  const std::vector<EventRecord> events = {
      EventRecord::signal_exit(1, op_, cond_, true, 1000),
  };

  SchedulingState cur;
  cur.running = 2;
  cur.running_proc = op_;
  cur.running_since = 1000;
  cur.cond_queues = {{cond_, {}}};
  EXPECT_EQ(run1(prev, cur, events), 0u);
}

TEST_F(ChecklistFixture, St3cEnterWhileOccupied) {
  const std::vector<EventRecord> events = {
      EventRecord::enter(1, op_, true, 1000),
      EventRecord::enter(2, op_, true, 1100),
  };
  SchedulingState cur;  // whatever follows, the replay already fails
  cur.running = 1;
  cur.running_proc = op_;
  run1({}, cur, events);
  EXPECT_TRUE(reported(RuleId::kSt3cEnterWhileOccupied));
  EXPECT_TRUE(reported(RuleId::kSt3aMultipleRunning));
}

TEST_F(ChecklistFixture, St3dBlockedWhileFree) {
  const std::vector<EventRecord> events = {
      EventRecord::enter(1, op_, false, 1000),
  };
  SchedulingState cur;
  cur.entry_queue = {{1, op_, 1000}};
  run1({}, cur, events);
  EXPECT_TRUE(reported(RuleId::kSt3dBlockedWhileFree));
  EXPECT_FALSE(reported(RuleId::kSt1EntryQueueMismatch));
}

TEST_F(ChecklistFixture, St3bWaitFromNonRunner) {
  const std::vector<EventRecord> events = {
      EventRecord::wait(1, op_, cond_, 1000),
  };
  SchedulingState cur;
  cur.cond_queues = {{cond_, {{1, op_, 1000}}}};
  run1({}, cur, events);
  EXPECT_TRUE(reported(RuleId::kSt3bRunnerNotSole));
}

TEST_F(ChecklistFixture, St4EventFromBlockedProcess) {
  SchedulingState prev;
  prev.running = 1;
  prev.running_proc = op_;
  prev.entry_queue = {{2, op_, 500}};
  const std::vector<EventRecord> events = {
      // p2 is on the entry queue and must not act.
      EventRecord::wait(2, op_, cond_, 1000),
  };
  SchedulingState cur = prev;
  run1(prev, cur, events);
  EXPECT_TRUE(reported(RuleId::kSt4EventFromBlockedProcess));
}

// ST-4 inside one segment: Algorithm 1 scans for a blocked actor only while
// it counts somebody as blocked, so each push and pop of Enter-0-List and
// the Wait-Cond-Lists must move that count.
TEST_F(ChecklistFixture, St4AfterEnterQueuedInSegment) {
  SchedulingState prev;
  prev.running = 1;
  prev.running_proc = op_;
  const std::vector<EventRecord> events = {
      EventRecord::enter(2, op_, false, 1000),  // p2 queues on EQ
      EventRecord::wait(2, op_, cond_, 1100),   // ... and acts
  };
  run1(prev, prev, events);
  EXPECT_TRUE(reported(RuleId::kSt4EventFromBlockedProcess));
}

TEST_F(ChecklistFixture, St4AfterWaitInSegment) {
  SchedulingState prev;
  prev.running = 2;
  prev.running_proc = op_;
  const std::vector<EventRecord> events = {
      EventRecord::wait(2, op_, cond_, 1000),  // p2 parks on cond
      EventRecord::signal_exit(2, op_, trace::kNoSymbol, false, 1100),
  };
  run1(prev, {}, events);
  EXPECT_TRUE(reported(RuleId::kSt4EventFromBlockedProcess));
}

TEST_F(ChecklistFixture, EntryWaiterAdmittedByExitMayAct) {
  SchedulingState prev;
  prev.running = 1;
  prev.running_proc = op_;
  const std::vector<EventRecord> events = {
      EventRecord::enter(2, op_, false, 1000),
      EventRecord::signal_exit(1, op_, trace::kNoSymbol, false, 1100),
      EventRecord::signal_exit(2, op_, trace::kNoSymbol, false, 1200),
  };
  EXPECT_EQ(run1(prev, {}, events), 0u);
}

TEST_F(ChecklistFixture, CondWaiterResumedBySignalMayAct) {
  SchedulingState prev;
  prev.running = 1;
  prev.running_proc = op_;
  prev.cond_queues = {{cond_, {{2, op_, 500}}}};
  const std::vector<EventRecord> events = {
      EventRecord::signal_exit(1, op_, cond_, true, 1000),  // resumes p2
      EventRecord::signal_exit(2, op_, trace::kNoSymbol, false, 1100),
  };
  SchedulingState cur;
  cur.cond_queues = {{cond_, {}}};
  EXPECT_EQ(run1(prev, cur, events), 0u);
}

TEST_F(ChecklistFixture, St1EntryQueueMismatch) {
  SchedulingState prev;
  prev.running = 1;
  prev.running_proc = op_;
  prev.entry_queue = {{2, op_, 500}};
  SchedulingState cur = prev;
  cur.entry_queue.clear();  // p2 vanished without being admitted
  run1(prev, cur, {});
  EXPECT_TRUE(reported(RuleId::kSt1EntryQueueMismatch));
}

TEST_F(ChecklistFixture, St2CondQueueMismatch) {
  SchedulingState prev;
  prev.running = 1;
  prev.running_proc = op_;
  prev.cond_queues = {{cond_, {{3, op_, 500}}}};
  SchedulingState cur = prev;
  cur.cond_queues[0].entries.clear();  // p3 vanished without a signal
  run1(prev, cur, {});
  EXPECT_TRUE(reported(RuleId::kSt2CondQueueMismatch));
}

TEST_F(ChecklistFixture, RunningMismatch) {
  SchedulingState cur;
  cur.running = 7;
  cur.running_proc = op_;
  run1({}, cur, {});
  EXPECT_TRUE(reported(RuleId::kStRunningMismatch));
}

TEST_F(ChecklistFixture, SignalClaimsResumeFromEmptyQueue) {
  SchedulingState prev;
  prev.running = 1;
  prev.running_proc = op_;
  const std::vector<EventRecord> events = {
      EventRecord::signal_exit(1, op_, cond_, true, 1000),  // flag=1, no waiter
  };
  run1(prev, {}, events);
  EXPECT_TRUE(reported(RuleId::kSt2CondQueueMismatch));
}

TEST_F(ChecklistFixture, St5RunningExceedsTmax) {
  SchedulingState cur;
  cur.running = 1;
  cur.running_proc = op_;
  cur.running_since = 0;
  run1(cur, cur, {}, /*now=*/60 * kMillisecond);  // Tmax = 50ms
  EXPECT_TRUE(reported(RuleId::kSt5ResidenceExceedsTmax));
}

TEST_F(ChecklistFixture, St5CondWaitExceedsTmax) {
  SchedulingState state;
  state.running = 1;
  state.running_proc = op_;
  state.running_since = 55 * kMillisecond;
  state.cond_queues = {{cond_, {{2, op_, 0}}}};
  run1(state, state, {}, /*now=*/60 * kMillisecond);
  EXPECT_TRUE(reported(RuleId::kSt5ResidenceExceedsTmax));
}

TEST_F(ChecklistFixture, St6EntryWaitExceedsTio) {
  SchedulingState state;
  state.running = 1;
  state.running_proc = op_;
  state.running_since = 100 * kMillisecond;
  state.entry_queue = {{2, op_, 0}};
  run1(state, state, {}, /*now=*/110 * kMillisecond);  // Tio = 100ms
  EXPECT_TRUE(reported(RuleId::kSt6EntryWaitExceedsTio));
}

TEST_F(ChecklistFixture, FreshWaitersUnderTimersAreClean) {
  SchedulingState state;
  state.running = 1;
  state.running_proc = op_;
  state.running_since = 9 * kMillisecond;
  state.entry_queue = {{2, op_, 9 * kMillisecond}};
  EXPECT_EQ(run1(state, state, {}, /*now=*/10 * kMillisecond), 0u);
}

// ---------------------------------------------------------------------------
// One rule trigger inside a long uncontended run.  Algorithm 1 replays the
// uncontended events (immediate Enter into a vacant monitor, plain
// Signal-Exit by the sole runner, nobody blocked) on a cheap step of their
// own; each row checks that the general step still takes over at the
// trigger and hands back afterwards, by the exact report list.
// ---------------------------------------------------------------------------

/// The fields of a report that identify it: rule, offending pid, offending
/// event (0 for an end-of-segment comparison).
struct ReportKey {
  RuleId rule;
  trace::Pid pid;
  std::uint64_t event_seq;

  bool operator==(const ReportKey&) const = default;
};

void PrintTo(const ReportKey& key, std::ostream* out) {
  *out << to_string(key.rule) << "(p" << key.pid << ", seq " << key.event_seq
       << ")";
}

/// `pairs` Enter(1)/Signal-Exit(0) rounds by p1.
std::vector<EventRecord> uncontended_run(SymbolId op, std::size_t pairs) {
  std::vector<EventRecord> events;
  for (std::size_t i = 0; i < pairs; ++i) {
    events.push_back(EventRecord::enter(1, op, true, 0));
    events.push_back(
        EventRecord::signal_exit(1, op, trace::kNoSymbol, false, 0));
  }
  return events;
}

TEST_F(ChecklistFixture, TriggerInsideUncontendedRunReportsExactly) {
  constexpr std::size_t kPairs = 64;
  constexpr std::uint64_t kPrefix = 2 * kPairs;  // seq of the last prefix event
  const auto enter = [&](trace::Pid pid, bool entered) {
    return EventRecord::enter(pid, op_, entered, 0);
  };
  const auto exit = [&](trace::Pid pid, SymbolId cond, bool resumed) {
    return EventRecord::signal_exit(pid, op_, cond, resumed, 0);
  };
  const SymbolId none = trace::kNoSymbol;

  struct Row {
    const char* name;
    std::vector<EventRecord> trigger;  ///< Spliced between two runs.
    SchedulingState current;           ///< s_t (s_p is empty).
    /// Expected reports; an event_seq counts from the first trigger event
    /// (1) and 0 marks an end-of-segment comparison.
    std::vector<ReportKey> expected;
  };
  SchedulingState queued_p9;
  queued_p9.entry_queue = {{9, op_, 10 * kMillisecond}};
  SchedulingState waiting_p9;
  waiting_p9.cond_queues = {{cond_, {{9, op_, 10 * kMillisecond}}}};

  const std::vector<Row> rows = {
      {"ST-4: an event from a queued pid",
       {enter(1, true), enter(2, false), enter(2, false),
        exit(1, none, false), exit(2, none, false), exit(2, none, false)},
       {},
       {{RuleId::kSt4EventFromBlockedProcess, 2, 3},
        {RuleId::kSt4EventFromBlockedProcess, 2, 5}}},
      {"ST-3c: Enter(1) while occupied",
       {enter(1, true), enter(2, true), exit(2, none, false),
        exit(1, none, false)},
       {},
       {{RuleId::kSt3cEnterWhileOccupied, 2, 2},
        {RuleId::kSt3aMultipleRunning, 2, 2},
        {RuleId::kSt3bRunnerNotSole, 2, 3}}},
      {"ST-3b: Signal-Exit by a non-runner",
       {enter(1, true), exit(2, none, false), exit(1, none, false)},
       {},
       {{RuleId::kSt3bRunnerNotSole, 2, 2}}},
      {"ST-3d: blocked while the monitor is free",
       {enter(2, false), enter(1, true), exit(1, none, false),
        exit(2, none, false)},
       {},
       {{RuleId::kSt3dBlockedWhileFree, 2, 1}}},
      {"ST-2: flagged Signal-Exit on an empty Wait-Cond-List",
       {enter(1, true), exit(1, cond_, true)},
       {},
       {{RuleId::kSt2CondQueueMismatch, 1, 2}}},
      {"ST-1: end-of-segment Enter-0-List mismatch",
       {enter(1, true), exit(1, none, false)},
       queued_p9,
       {{RuleId::kSt1EntryQueueMismatch, trace::kNoPid, 0}}},
      {"ST-2: end-of-segment Wait-Cond-List mismatch",
       {enter(1, true), exit(1, none, false)},
       waiting_p9,
       {{RuleId::kSt2CondQueueMismatch, trace::kNoPid, 0}}},
  };

  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    std::vector<EventRecord> events = uncontended_run(op_, kPairs);
    events.insert(events.end(), row.trigger.begin(), row.trigger.end());
    const auto suffix = uncontended_run(op_, kPairs);
    events.insert(events.end(), suffix.begin(), suffix.end());
    for (std::size_t i = 0; i < events.size(); ++i) {
      events[i].seq = i + 1;
      events[i].time = static_cast<util::TimeNs>(i + 1);
    }

    const std::size_t violations = run1({}, row.current, events);
    std::vector<ReportKey> expected = row.expected;
    for (ReportKey& key : expected) {
      if (key.event_seq != 0) key.event_seq += kPrefix;
    }
    std::vector<ReportKey> got;
    for (const FaultReport& report : sink_.reports()) {
      got.push_back({report.rule, report.pid, report.event_seq});
    }
    EXPECT_EQ(got, expected);
    EXPECT_EQ(violations, expected.size());
  }
}

// The Detector resets its checking lists at every check instead of
// rebuilding them.  A check that leaves processes on a Wait-Cond-List and
// on the Enter-0-List must leave nothing behind for a later check from an
// empty s_p.
TEST_F(ChecklistFixture, ReusedListsKeepNothingFromTheEarlierCheck) {
  const std::vector<EventRecord> parking = {
      EventRecord::enter(1, op_, true, 1000),
      EventRecord::enter(2, op_, false, 1100),  // p2 queues on EQ
      EventRecord::wait(1, op_, cond_, 1200),   // p1 parks, p2 admitted
      EventRecord::enter(3, op_, false, 1300),  // p3 queues on EQ
  };
  SchedulingState parked;
  parked.running = 2;
  parked.running_proc = op_;
  parked.running_since = 1200;
  parked.entry_queue = {{3, op_, 1300}};
  parked.cond_queues = {{cond_, {{1, op_, 1200}}}};
  EXPECT_EQ(run1({}, parked, parking), 0u);
  EXPECT_EQ(sink_.count(), 0u);

  EXPECT_EQ(run1({}, {}, uncontended_run(op_, 8)), 0u);
  EXPECT_EQ(sink_.count(), 0u);
  EXPECT_EQ(run1({}, {}, {}), 0u);
  EXPECT_EQ(sink_.count(), 0u);
}

// ---------------------------------------------------------------------------
// Algorithm-2 (communication coordinator).
// ---------------------------------------------------------------------------

class Algorithm2Fixture : public ::testing::Test {
 protected:
  Algorithm2Fixture() {
    spec_ = MonitorSpec::coordinator("buf", 2);
    send_ = symbols_.intern("Send");
    receive_ = symbols_.intern("Receive");
    full_ = symbols_.intern("full");
    empty_ = symbols_.intern("empty");
  }

  std::size_t run2(std::int64_t prev_resources, std::int64_t cur_resources,
                   const std::vector<EventRecord>& events) {
    sink_.clear();
    SchedulingState prev;
    prev.resources = prev_resources;
    SchedulingState cur;
    cur.resources = cur_resources;
    const CheckContext ctx =
        CheckContext::make(spec_, symbols_, 10 * kMillisecond, sink_);
    return run_algorithm2(ctx, prev, cur, events, counters_);
  }

  bool reported(RuleId rule) const { return sink_.any_with_rule(rule); }

  MonitorSpec spec_;
  trace::SymbolTable symbols_;
  CollectingSink sink_;
  ResourceCounters counters_;
  SymbolId send_, receive_, full_, empty_;
};

TEST_F(Algorithm2Fixture, BalancedTrafficIsClean) {
  const std::vector<EventRecord> events = {
      EventRecord::signal_exit(1, send_, empty_, false, 100),
      EventRecord::signal_exit(2, receive_, full_, false, 200),
      EventRecord::signal_exit(1, send_, empty_, false, 300),
  };
  EXPECT_EQ(run2(2, 1, events), 0u);
  EXPECT_EQ(counters_.sends, 2);
  EXPECT_EQ(counters_.receives, 1);
}

TEST_F(Algorithm2Fixture, OverfillReportsSendExceedsCapacity) {
  const std::vector<EventRecord> events = {
      EventRecord::signal_exit(1, send_, empty_, false, 100),
      EventRecord::signal_exit(1, send_, empty_, false, 200),
      EventRecord::signal_exit(1, send_, empty_, false, 300),  // third: over
  };
  run2(2, -1, events);
  EXPECT_TRUE(reported(RuleId::kSt7aSendExceedsCapacity));
}

TEST_F(Algorithm2Fixture, PhantomReceiveReportsReceiveExceedsSend) {
  const std::vector<EventRecord> events = {
      EventRecord::signal_exit(2, receive_, full_, false, 100),
  };
  run2(2, 3, events);
  EXPECT_TRUE(reported(RuleId::kSt7aReceiveExceedsSend));
}

TEST_F(Algorithm2Fixture, SendDelayedWhenNotFull) {
  const std::vector<EventRecord> events = {
      EventRecord::wait(1, send_, full_, 100),  // 2 slots free, not full
  };
  run2(2, 2, events);
  EXPECT_TRUE(reported(RuleId::kSt7cSendDelayedWhenNotFull));
}

TEST_F(Algorithm2Fixture, SendDelayedWhenFullIsLegitimate) {
  const std::vector<EventRecord> events = {
      EventRecord::wait(1, send_, full_, 100),
  };
  EXPECT_EQ(run2(0, 0, events), 0u);
}

TEST_F(Algorithm2Fixture, ReceiveDelayedWhenNotEmpty) {
  const std::vector<EventRecord> events = {
      EventRecord::wait(2, receive_, empty_, 100),  // 1 slot free: not empty
  };
  run2(1, 1, events);
  EXPECT_TRUE(reported(RuleId::kSt7dReceiveDelayedWhenNotEmpty));
}

TEST_F(Algorithm2Fixture, ReceiveDelayedWhenEmptyIsLegitimate) {
  const std::vector<EventRecord> events = {
      EventRecord::wait(2, receive_, empty_, 100),
  };
  EXPECT_EQ(run2(2, 2, events), 0u);
}

TEST_F(Algorithm2Fixture, BalanceMismatchReported) {
  const std::vector<EventRecord> events = {
      EventRecord::signal_exit(1, send_, empty_, false, 100),
  };
  run2(2, 2, events);  // send happened but R# did not move
  EXPECT_TRUE(reported(RuleId::kSt7bResourceBalanceMismatch));
}

TEST_F(Algorithm2Fixture, CumulativeCountersSpanChecks) {
  run2(2, 1, {EventRecord::signal_exit(1, send_, empty_, false, 100)});
  run2(1, 0, {EventRecord::signal_exit(1, send_, empty_, false, 200)});
  EXPECT_EQ(counters_.sends, 2);
  // Third send in a third segment exceeds capacity cumulatively.
  run2(0, -1, {EventRecord::signal_exit(1, send_, empty_, false, 300)});
  EXPECT_TRUE(reported(RuleId::kSt7aSendExceedsCapacity));
}

// ---------------------------------------------------------------------------
// Algorithm-3 (resource allocator).
// ---------------------------------------------------------------------------

class Algorithm3Fixture : public ::testing::Test {
 protected:
  Algorithm3Fixture() {
    spec_ = MonitorSpec::allocator("alloc");
    spec_.t_limit = 100 * kMillisecond;
    acquire_ = symbols_.intern("Acquire");
    release_ = symbols_.intern("Release");
    available_ = symbols_.intern("available");
  }

  std::size_t run3(const std::vector<EventRecord>& events,
                   util::TimeNs now = 10 * kMillisecond) {
    sink_.clear();
    const CheckContext ctx = CheckContext::make(spec_, symbols_, now, sink_);
    return run_algorithm3(ctx, events, requests_);
  }

  bool reported(RuleId rule) const { return sink_.any_with_rule(rule); }

  MonitorSpec spec_;
  trace::SymbolTable symbols_;
  CollectingSink sink_;
  RequestList requests_;
  SymbolId acquire_, release_, available_;
};

TEST_F(Algorithm3Fixture, AcquireReleaseCycleIsClean) {
  const std::vector<EventRecord> events = {
      EventRecord::enter(1, acquire_, true, 1000),
      EventRecord::signal_exit(1, acquire_, trace::kNoSymbol, false, 1100),
      EventRecord::enter(1, release_, true, 2000),
      EventRecord::signal_exit(1, release_, available_, false, 2100),
  };
  EXPECT_EQ(run3(events), 0u);
  EXPECT_TRUE(requests_.entries.empty());
}

TEST_F(Algorithm3Fixture, DuplicateAcquireReported) {
  const std::vector<EventRecord> events = {
      EventRecord::enter(1, acquire_, true, 1000),
      EventRecord::enter(1, acquire_, true, 2000),
  };
  run3(events);
  EXPECT_TRUE(reported(RuleId::kSt8aDuplicateAcquire));
}

TEST_F(Algorithm3Fixture, ReleaseWithoutAcquireReported) {
  const std::vector<EventRecord> events = {
      EventRecord::enter(1, release_, true, 1000),
  };
  run3(events);
  EXPECT_TRUE(reported(RuleId::kSt8bReleaseWithoutAcquire));
}

TEST_F(Algorithm3Fixture, HoldBeyondTlimitReported) {
  run3({EventRecord::enter(1, acquire_, true, 0)},
       /*now=*/50 * kMillisecond);
  EXPECT_FALSE(reported(RuleId::kSt8cHoldExceedsTlimit));
  run3({}, /*now=*/150 * kMillisecond);  // Tlimit = 100ms
  EXPECT_TRUE(reported(RuleId::kSt8cHoldExceedsTlimit));
}

TEST_F(Algorithm3Fixture, RequestListPersistsAcrossChecks) {
  run3({EventRecord::enter(1, acquire_, true, 1000)});
  ASSERT_EQ(requests_.entries.size(), 1u);
  run3({EventRecord::enter(1, release_, true, 2000),
        EventRecord::signal_exit(1, release_, available_, false, 2100)});
  EXPECT_TRUE(requests_.entries.empty());
  EXPECT_EQ(sink_.count(), 0u);
}

TEST_F(Algorithm3Fixture, DistinctPidsMayHoldConcurrently) {
  const std::vector<EventRecord> events = {
      EventRecord::enter(1, acquire_, true, 1000),
      EventRecord::enter(2, acquire_, true, 1100),
  };
  EXPECT_EQ(run3(events), 0u);
  EXPECT_EQ(requests_.entries.size(), 2u);
}

// ---------------------------------------------------------------------------
// Detector dispatch.
// ---------------------------------------------------------------------------

TEST(DetectorTest, DispatchesByMonitorType) {
  trace::SymbolTable symbols;
  CollectingSink sink;
  MonitorSpec spec = MonitorSpec::coordinator("buf", 2);
  Detector detector(spec, symbols, sink);
  detector.initialize({});
  const SymbolId send = symbols.intern(spec.send_procedure);
  const SymbolId empty = symbols.intern(spec.empty_condition);

  SchedulingState prev;  // initialize() state
  prev.resources = 2;
  detector.initialize(prev);

  SchedulingState cur;
  cur.resources = 1;
  const auto stats = detector.check(
      {EventRecord::enter(1, send, true, 1000),
       EventRecord::signal_exit(1, send, empty, false, 1100)},
      cur, 10 * kMillisecond);
  EXPECT_EQ(stats.events, 2u);
  EXPECT_EQ(stats.violations, 0u);
  EXPECT_EQ(detector.checks_run(), 1u);
  EXPECT_EQ(detector.counters().sends, 1);
}

TEST(DetectorTest, RebaselineKeepsInFlightAcquirersOnTheRequestList) {
  // A re-baseline discards the segment holding the Enter events of every
  // acquirer still in flight; each must keep its Request-List entry, or
  // its eventual Release reads as ST-8b.
  trace::SymbolTable symbols;
  CollectingSink sink;
  const MonitorSpec spec = MonitorSpec::allocator("r");
  Detector detector(spec, symbols, sink);
  const SymbolId acquire = symbols.intern(spec.acquire_procedure);
  const SymbolId release = symbols.intern(spec.release_procedure);
  const SymbolId available = symbols.intern("available");
  detector.initialize({});

  SchedulingState state;
  state.holders.push_back({1, 1, 100, 1});               // holds a unit
  state.cond_queues.push_back({available, {{2, acquire, 200, 2}}});
  state.entry_queue.push_back({3, acquire, 300, 3});     // queued to enter
  state.entry_queue.push_back({4, release, 400, 4});     // not an acquirer
  state.running = 5;                                     // before note_hold
  state.running_proc = acquire;
  detector.rebaseline(state);

  std::vector<EventRecord> releases;
  for (const trace::Pid pid : {1, 2, 3, 5, 4}) {
    releases.push_back(EventRecord::enter(pid, release, true, 1000));
    releases.push_back(
        EventRecord::signal_exit(pid, release, available, false, 1100));
  }
  detector.check(releases, {}, 10 * kMillisecond);
  std::vector<trace::Pid> unmatched;
  for (const auto& report : sink.reports()) {
    if (report.rule == RuleId::kSt8bReleaseWithoutAcquire) {
      unmatched.push_back(report.pid);
    }
  }
  EXPECT_EQ(unmatched, (std::vector<trace::Pid>{4}));
}

TEST(DetectorTest, TracksTotalsAcrossChecks) {
  trace::SymbolTable symbols;
  CollectingSink sink;
  MonitorSpec spec = MonitorSpec::manager("m");
  Detector detector(spec, symbols, sink);
  detector.initialize({});
  const SymbolId op = symbols.intern("Op");

  detector.check({EventRecord::enter(1, op, true, 100),
                  EventRecord::signal_exit(1, op, trace::kNoSymbol, false,
                                           200)},
                 {}, 1 * kMillisecond);
  detector.check({}, {}, 2 * kMillisecond);
  EXPECT_EQ(detector.checks_run(), 2u);
  EXPECT_EQ(detector.events_processed(), 2u);
  EXPECT_EQ(detector.total_violations(), 0u);
}

}  // namespace
}  // namespace robmon::core
