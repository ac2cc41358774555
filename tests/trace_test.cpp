#include <gtest/gtest.h>

#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "trace/codec.hpp"
#include "trace/event.hpp"
#include "trace/event_log.hpp"
#include "trace/snapshot.hpp"

namespace robmon::trace {
namespace {

TEST(SymbolTableTest, InternIsIdempotent) {
  SymbolTable symbols;
  const SymbolId send = symbols.intern("Send");
  const SymbolId receive = symbols.intern("Receive");
  EXPECT_NE(send, receive);
  EXPECT_EQ(symbols.intern("Send"), send);
  EXPECT_EQ(symbols.name(send), "Send");
  EXPECT_EQ(symbols.size(), 2u);
}

TEST(SymbolTableTest, FindWithoutIntern) {
  SymbolTable symbols;
  EXPECT_EQ(symbols.find("missing"), kNoSymbol);
  const SymbolId id = symbols.intern("present");
  EXPECT_EQ(symbols.find("present"), id);
}

TEST(SymbolTableTest, NoSymbolRendersDash) {
  SymbolTable symbols;
  EXPECT_EQ(symbols.name(kNoSymbol), "-");
}

TEST(SymbolTableTest, UnknownIdThrows) {
  SymbolTable symbols;
  EXPECT_THROW(symbols.name(7), std::out_of_range);
}

TEST(EventTest, FactoryFieldAssignment) {
  const auto enter = EventRecord::enter(3, 1, true, 500);
  EXPECT_EQ(enter.kind, EventKind::kEnter);
  EXPECT_EQ(enter.pid, 3);
  EXPECT_EQ(enter.proc, 1);
  EXPECT_TRUE(enter.flag);
  EXPECT_EQ(enter.time, 500);

  const auto wait = EventRecord::wait(4, 1, 2, 600);
  EXPECT_EQ(wait.kind, EventKind::kWait);
  EXPECT_EQ(wait.cond, 2);

  const auto sigexit = EventRecord::signal_exit(5, 1, 2, true, 700);
  EXPECT_EQ(sigexit.kind, EventKind::kSignalExit);
  EXPECT_TRUE(sigexit.flag);
}

TEST(EventTest, DescribeHumanReadable) {
  SymbolTable symbols;
  const SymbolId send = symbols.intern("Send");
  const SymbolId full = symbols.intern("full");
  EXPECT_EQ(describe(EventRecord::enter(1, send, true, 0), symbols),
            "Enter(p1, Send, 1)");
  EXPECT_EQ(describe(EventRecord::wait(2, send, full, 0), symbols),
            "Wait(p2, Send, full)");
  EXPECT_EQ(describe(EventRecord::signal_exit(3, send, full, false, 0),
                     symbols),
            "Signal-Exit(p3, Send, full, 0)");
}

/// Drain into a fresh vector (tests that do not care about recycling).
std::vector<EventRecord> drain(EventLog& log) {
  std::vector<EventRecord> segment;
  log.drain(segment);
  return segment;
}

TEST(EventLogTest, AppendAssignsSequence) {
  EventLog log;
  EXPECT_EQ(log.append(EventRecord::enter(1, 0, true, 10)), 0u);
  EXPECT_EQ(log.append(EventRecord::enter(2, 0, false, 20)), 1u);
  EXPECT_EQ(log.pending(), 2u);
  EXPECT_EQ(log.total_appended(), 2u);
}

TEST(EventLogTest, DrainEmptiesBuffer) {
  EventLog log;
  log.append(EventRecord::enter(1, 0, true, 10));
  log.append(EventRecord::wait(1, 0, 1, 20));
  const auto first = drain(log);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].seq, 0u);
  EXPECT_EQ(first[1].seq, 1u);
  EXPECT_EQ(log.pending(), 0u);
  EXPECT_TRUE(drain(log).empty());
  log.append(EventRecord::signal_exit(1, 0, 1, false, 30));
  const auto second = drain(log);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].seq, 2u);
  EXPECT_EQ(log.total_appended(), 3u);
}

TEST(EventLogTest, DrainReplacesStaleContents) {
  EventLog log;
  std::vector<EventRecord> out = {EventRecord::enter(9, 0, true, 1),
                                  EventRecord::enter(9, 0, true, 2)};
  log.append(EventRecord::wait(1, 0, 1, 10));
  log.drain(out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].pid, 1);
  log.drain(out);
  EXPECT_TRUE(out.empty());
}

TEST(EventLogTest, SeqsAreDenseAndStrictlyIncreasingAcrossDrains) {
  EventLog log;
  std::vector<EventRecord> segment;
  std::uint64_t expected = 0;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i <= round; ++i) {
      log.append(EventRecord::enter(1, 0, true, i));
    }
    log.drain(segment);
    ASSERT_EQ(segment.size(), static_cast<std::size_t>(round + 1));
    for (const EventRecord& event : segment) {
      EXPECT_EQ(event.seq, expected++) << "round " << round;
    }
  }
  EXPECT_EQ(log.total_appended(), expected);
}

TEST(EventLogTest, DrainSwapReusesStorageAfterTwoRoundTrips) {
  // drain() swaps buffers with its caller: after two round trips the
  // caller's vector is back on its own storage, and neither buffer was
  // reallocated or copied into.
  EventLog log;
  std::vector<EventRecord> out;
  out.reserve(64);
  const EventRecord* const own = out.data();
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 8; ++i) log.append(EventRecord::enter(1, 0, true, i));
    log.drain(out);
    ASSERT_EQ(out.size(), 8u);
  }
  EXPECT_EQ(out.data(), own);
  EXPECT_GE(out.capacity(), 64u);
  EXPECT_EQ(out.front().seq, 8u);
}

TEST(EventLogTest, RetentionArchivesEverything) {
  EventLog log(EventLog::Options{.retain_history = true});
  log.append(EventRecord::enter(1, 0, true, 10));
  drain(log);
  log.append(EventRecord::wait(1, 0, 1, 20));
  drain(log);
  const auto history = log.history();
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history[0].kind, EventKind::kEnter);
  EXPECT_EQ(history[1].kind, EventKind::kWait);
}

TEST(EventLogTest, RetentionArchivesExactlyWhatWasDrained) {
  EventLog log(EventLog::Options{.retain_history = true});
  std::vector<EventRecord> segment;
  std::vector<EventRecord> drained;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 4 + round; ++i) {
      log.append(EventRecord::enter(round, 0, true, i));
    }
    log.drain(segment);
    drained.insert(drained.end(), segment.begin(), segment.end());
  }
  const auto history = log.history();
  ASSERT_EQ(history.size(), drained.size());
  for (std::size_t i = 0; i < history.size(); ++i) {
    EXPECT_EQ(history[i].seq, drained[i].seq);
    EXPECT_EQ(history[i].pid, drained[i].pid);
    EXPECT_EQ(history[i].time, drained[i].time);
  }
}

TEST(EventLogTest, RetentionOffByDefault) {
  EventLog log;
  log.append(EventRecord::enter(1, 0, true, 10));
  EXPECT_TRUE(log.history().empty());
}

TEST(EventLogTest, HistoryIncludesPendingWhenRetained) {
  EventLog log(EventLog::Options{.retain_history = true});
  log.append(EventRecord::enter(1, 0, true, 10));
  log.append(EventRecord::wait(1, 0, 1, 20));
  drain(log);
  log.append(EventRecord::signal_exit(1, 0, 1, false, 30));  // not drained
  const auto history = log.history();
  ASSERT_EQ(history.size(), 3u);
  for (std::size_t i = 0; i < history.size(); ++i) {
    EXPECT_EQ(history[i].seq, i);
  }
  EXPECT_EQ(history.back().kind, EventKind::kSignalExit);
}

TEST(EventLogTest, SerializedAppendsKeepTotalOrder) {
  // The HoareMonitor discipline: appends and drains from many threads, all
  // serialized by the owner's lock.  The drained stream must reproduce the
  // exact append order — Algorithm-1 replays the segment as an
  // order-sensitive state machine.
  EventLog log;
  std::mutex owner_mu;
  long order = 0;
  std::vector<EventRecord> drained;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      std::vector<EventRecord> segment;
      for (int i = 1; i <= 500; ++i) {
        std::lock_guard<std::mutex> lock(owner_mu);
        log.append(EventRecord::enter(1, 0, true, order++));
        if (i % 64 == 0) {
          log.drain(segment);
          drained.insert(drained.end(), segment.begin(), segment.end());
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  const auto rest = drain(log);
  drained.insert(drained.end(), rest.begin(), rest.end());
  ASSERT_EQ(drained.size(), 2000u);
  for (std::size_t i = 0; i < drained.size(); ++i) {
    ASSERT_EQ(drained[i].time, static_cast<long>(i))
        << "append order lost at position " << i;
    ASSERT_EQ(drained[i].seq, i);
  }
}

TEST(EventLogTest, OverflowDropsWithExactAccounting) {
  EventLog log(EventLog::Options{.capacity = 12});
  for (int i = 0; i < 20; ++i) {
    log.append(EventRecord::enter(1, 0, true, i));
  }
  // 12 fill the bound, 8 drop — and every drop is counted: accepted + lost
  // == issued.  Dropped events consumed seqs 12..19.
  EXPECT_EQ(log.total_appended(), 12u);
  EXPECT_EQ(log.events_lost(), 8u);
  const auto drained = drain(log);
  ASSERT_EQ(drained.size(), 12u);
  for (std::size_t i = 0; i < drained.size(); ++i) {
    EXPECT_EQ(drained[i].seq, i);
  }
  EXPECT_EQ(log.pending(), 0u);
  // The bound frees up after the drain; the loss counter is cumulative,
  // and the seq gap marks exactly the dropped events.
  EXPECT_EQ(log.append(EventRecord::enter(1, 0, true, 99)), 20u);
  EXPECT_EQ(log.total_appended(), 13u);
  EXPECT_EQ(log.events_lost(), 8u);
}

TEST(EventLogTest, ConcurrentOverflowAccountingIsExactUnderStalledDrain) {
  // Appender threads, serialized by the owner's lock, race into one
  // deliberately undersized log while no drain runs (a stalled consumer).
  // Every append is either accepted — and drains exactly once — or counted
  // lost.  No silent drops, no duplicates.
  EventLog log(EventLog::Options{.capacity = 128});
  std::mutex owner_mu;
  constexpr std::uint64_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 1000;
  std::vector<std::thread> threads;
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, &owner_mu, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        std::lock_guard<std::mutex> lock(owner_mu);
        log.append(EventRecord::enter(static_cast<Pid>(t), 0, true,
                                      static_cast<long>(i)));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  constexpr std::uint64_t kIssued = kThreads * kPerThread;
  EXPECT_EQ(log.total_appended() + log.events_lost(), kIssued);
  EXPECT_EQ(log.total_appended(), 128u);
  const auto drained = drain(log);
  EXPECT_EQ(drained.size(), log.total_appended());
  for (std::size_t i = 1; i < drained.size(); ++i) {
    ASSERT_LT(drained[i - 1].seq, drained[i].seq) << "duplicate seq";
  }
  EXPECT_EQ(log.pending(), 0u);
  // Accepting resumes once the drain frees the bound.
  log.append(EventRecord::enter(0, 0, true, 0));
  EXPECT_EQ(drain(log).size(), 1u);
}

SchedulingState sample_state() {
  SchedulingState state;
  state.captured_at = 1000;
  state.entry_queue = {{7, 0, 900, 11}, {8, 1, 950, 12}};
  state.cond_queues = {{2, {{9, 0, 800, 10}}}, {3, {}}};
  state.resources = 4;
  state.holders = {{6, 1, 650, 8}};
  state.running = 5;
  state.running_proc = 1;
  state.running_since = 700;
  state.running_ticket = 9;
  return state;
}

TEST(SnapshotTest, CondEntriesLookup) {
  const SchedulingState state = sample_state();
  EXPECT_EQ(state.cond_entries(2).size(), 1u);
  EXPECT_TRUE(state.cond_entries(3).empty());
  EXPECT_TRUE(state.cond_entries(99).empty());
}

TEST(SnapshotTest, BlockedCount) {
  EXPECT_EQ(sample_state().blocked_count(), 3u);
}

TEST(SnapshotTest, EqualityIsStructural) {
  SchedulingState a = sample_state();
  SchedulingState b = sample_state();
  EXPECT_EQ(a, b);
  b.entry_queue.pop_back();
  EXPECT_NE(a, b);
}

TEST(CodecTest, RoundTrip) {
  TraceFile original;
  original.monitor_name = "buf";
  original.monitor_type = "coordinator";
  original.rmax = 8;
  original.symbols = {"Send", "Receive", "full", "empty"};
  original.events.push_back(EventRecord::enter(1, 0, true, 100));
  original.events.back().seq = 0;
  original.events.push_back(EventRecord::wait(1, 0, 2, 200));
  original.events.back().seq = 1;
  original.events.push_back(EventRecord::signal_exit(2, 1, 3, true, 300));
  original.events.back().seq = 2;
  original.checkpoints.push_back(sample_state());

  const std::string text = write_trace_string(original);
  const TraceFile parsed = read_trace_string(text);

  EXPECT_EQ(parsed.monitor_name, original.monitor_name);
  EXPECT_EQ(parsed.monitor_type, original.monitor_type);
  EXPECT_EQ(parsed.rmax, original.rmax);
  EXPECT_EQ(parsed.symbols, original.symbols);
  ASSERT_EQ(parsed.events.size(), original.events.size());
  for (std::size_t i = 0; i < parsed.events.size(); ++i) {
    EXPECT_EQ(parsed.events[i], original.events[i]) << "event " << i;
  }
  ASSERT_EQ(parsed.checkpoints.size(), 1u);
  EXPECT_EQ(parsed.checkpoints[0], original.checkpoints[0]);
}

TEST(CodecTest, EmptyCondQueuePreserved) {
  TraceFile original;
  original.monitor_name = "m";
  original.monitor_type = "manager";
  original.rmax = -1;
  SchedulingState state;
  state.cond_queues = {{0, {}}};
  original.checkpoints.push_back(state);
  const TraceFile parsed = read_trace_string(write_trace_string(original));
  ASSERT_EQ(parsed.checkpoints.size(), 1u);
  ASSERT_EQ(parsed.checkpoints[0].cond_queues.size(), 1u);
  EXPECT_TRUE(parsed.checkpoints[0].cond_queues[0].entries.empty());
}

TEST(CodecTest, RejectsBadMagic) {
  EXPECT_THROW(read_trace_string("not-a-trace\n"), std::runtime_error);
}

TEST(CodecTest, ReadsV1TracesWithoutTickets) {
  // Pre-ticket documents still parse; every episode ticket defaults to 0.
  const std::string v1 =
      "robmon-trace v1\n"
      "monitor buf coordinator 8\n"
      "sym 0 Send\n"
      "state 1000 4 5 0 700\n"
      "eq 7 0 900\n"
      "cq 1 9 0 800\n"
      "hold 6 1 650\n"
      "endstate\n";
  const TraceFile parsed = read_trace_string(v1);
  ASSERT_EQ(parsed.checkpoints.size(), 1u);
  const SchedulingState& state = parsed.checkpoints[0];
  EXPECT_EQ(state.running_ticket, 0u);
  ASSERT_EQ(state.entry_queue.size(), 1u);
  EXPECT_EQ(state.entry_queue[0].pid, 7);
  EXPECT_EQ(state.entry_queue[0].ticket, 0u);
  ASSERT_EQ(state.holders.size(), 1u);
  EXPECT_EQ(state.holders[0].ticket, 0u);
}

TEST(CodecTest, WritesV6WithTickets) {
  TraceFile original;
  original.monitor_name = "m";
  original.monitor_type = "manager";
  original.rmax = -1;
  original.checkpoints.push_back(sample_state());
  const std::string text = write_trace_string(original);
  EXPECT_EQ(text.rfind("robmon-trace v6\n", 0), 0u);
  const TraceFile parsed = read_trace_string(text);
  ASSERT_EQ(parsed.checkpoints.size(), 1u);
  EXPECT_EQ(parsed.checkpoints[0].running_ticket, 9u);
  EXPECT_EQ(parsed.checkpoints[0].entry_queue[0].ticket, 11u);
  EXPECT_EQ(parsed.checkpoints[0].holders[0].ticket, 8u);
}

TEST(CodecTest, LockOrderRelationRoundTrips) {
  TraceFile original;
  original.monitor_name = "pool";
  original.monitor_type = "pool";
  original.rmax = -1;
  original.lock_order = {{"lane-0", "lane-1", 3, 7, 9, true},
                         {"lane-1", "lane-0", 4, 2, 5, false}};
  const TraceFile parsed = read_trace_string(write_trace_string(original));
  EXPECT_EQ(parsed.lock_order, original.lock_order);
}

TEST(CodecTest, V2DocumentsParseWithEmptyLockOrder) {
  // A v2 document has no lord lines; the relation defaults to empty, and a
  // v2-shaped body under a v3 magic parses identically (the codec is
  // tag-driven, versions only gate the magic).
  const std::string v2 =
      "robmon-trace v2\n"
      "monitor buf coordinator 8\n"
      "state 1000 4 5 0 700 9\n"
      "endstate\n";
  const TraceFile parsed = read_trace_string(v2);
  EXPECT_TRUE(parsed.lock_order.empty());
  ASSERT_EQ(parsed.checkpoints.size(), 1u);
  EXPECT_EQ(parsed.checkpoints[0].running_ticket, 9u);
}

TEST(CodecTest, RecoveryActionsRoundTrip) {
  TraceFile original;
  original.monitor_name = "pool";
  original.monitor_type = "pool";
  original.rmax = -1;
  original.recovery = {
      {'P', 3, "fork-1", 17, 2600, "victim p3 blocked on fork-1[available]"},
      {'F', 4, "fork-2", 9, 2700, ""},
      {'O', 1, "lane-0", 0, 2800, "imposed order lane-1 lane-2 lane-0"},
      {'C', kNoPid, "", 0, 3100, "recovery complete"},
  };
  const TraceFile parsed = read_trace_string(write_trace_string(original));
  EXPECT_EQ(parsed.recovery, original.recovery);
}

TEST(CodecTest, V3DocumentsParseWithEmptyRecovery) {
  const std::string v3 =
      "robmon-trace v3\n"
      "monitor buf coordinator 8\n"
      "lord a b 1 2 3 W\n";
  const TraceFile parsed = read_trace_string(v3);
  EXPECT_TRUE(parsed.recovery.empty());
  EXPECT_EQ(parsed.lock_order.size(), 1u);
}

TEST(CodecTest, LossCountRoundTrips) {
  TraceFile original;
  original.monitor_name = "m";
  original.monitor_type = "manager";
  original.rmax = -1;
  original.events_lost = 42;
  const std::string text = write_trace_string(original);
  EXPECT_NE(text.find("loss 42\n"), std::string::npos);
  EXPECT_EQ(read_trace_string(text).events_lost, 42u);
}

TEST(CodecTest, ZeroLossOmitsTheLineAndOlderDocumentsDefaultToZero) {
  // A loss-free trace writes no loss line, so v5 documents from healthy
  // runs differ from v4 only in the magic; v1–v4 documents (no loss tag)
  // parse with events_lost == 0.
  TraceFile original;
  original.monitor_name = "m";
  original.monitor_type = "manager";
  original.rmax = -1;
  EXPECT_EQ(write_trace_string(original).find("loss"), std::string::npos);
  const std::string v4 =
      "robmon-trace v4\n"
      "monitor m manager -1\n";
  EXPECT_EQ(read_trace_string(v4).events_lost, 0u);
}

TEST(CodecTest, RejectsBadLossLine) {
  EXPECT_THROW(read_trace_string("robmon-trace v5\nloss nope\n"),
               std::runtime_error);
}

TEST(CodecTest, RejectsBadRecoveryLine) {
  EXPECT_THROW(read_trace_string("robmon-trace v4\nrcov X 1 m 0 0 why\n"),
               std::runtime_error);
  EXPECT_THROW(read_trace_string("robmon-trace v4\nrcov P 1\n"),
               std::runtime_error);
}

TEST(CodecTest, BudgetTransitionsRoundTrip) {
  TraceFile original;
  original.monitor_name = "pool";
  original.monitor_type = "pool";
  original.rmax = -1;
  original.budget = {
      {0, 1, 5200, 3500, 1200,
       "stretch: idle-cadence ceiling boosted, inline monitors offloaded"},
      {1, 2, 6100, 3500, 1300, "shed: lock-order prediction suspended"},
      {2, 3, 4800, 3500, 1400,
       "widen: detection periods widened toward the timer bound"},
      {3, 2, 2100, 3500, 1900,
       "recover: detection periods restored to base cadence"},
  };
  const TraceFile parsed = read_trace_string(write_trace_string(original));
  EXPECT_EQ(parsed.budget, original.budget);
}

TEST(CodecTest, V5DocumentsParseWithEmptyBudget) {
  // A pre-v6 document has no bdgt lines; the transition log defaults to
  // empty — and a budget-free v6 trace differs from v5 only in the magic.
  const std::string v5 =
      "robmon-trace v5\n"
      "monitor m manager -1\n"
      "loss 3\n";
  const TraceFile parsed = read_trace_string(v5);
  EXPECT_TRUE(parsed.budget.empty());
  EXPECT_EQ(parsed.events_lost, 3u);
}

TEST(CodecTest, RejectsBadBudgetLine) {
  // Too few fields.
  EXPECT_THROW(read_trace_string("robmon-trace v6\nbdgt 0 1 5200\n"),
               std::runtime_error);
  // Levels outside the documented four-step ladder are malformed, not a
  // future extension point.
  EXPECT_THROW(read_trace_string("robmon-trace v6\nbdgt 3 4 1 2 100 x\n"),
               std::runtime_error);
  EXPECT_THROW(read_trace_string("robmon-trace v6\nbdgt -1 0 1 2 100 x\n"),
               std::runtime_error);
}

TEST(CodecTest, DocumentedExampleParses) {
  // The worked round-trip example of docs/trace-format.md, verbatim: if
  // this document shape ever stops parsing, the docs are lying.
  const std::string documented =
      "robmon-trace v6\n"
      "monitor fork-1 allocator 1\n"
      "sym 0 Acquire\n"
      "sym 1 Release\n"
      "sym 2 available\n"
      "ev 1 1000 E 1 0 -1 1\n"
      "ev 2 1400 W 1 0 2 0\n"
      "ev 3 2000 E 2 0 -1 0\n"
      "state 2500 0 2 0 2100 4\n"
      "eq 3 0 2200 5\n"
      "cq 2 1 0 1400 2\n"
      "hold 7 1 900 1\n"
      "endstate\n"
      "lord fork-0 fork-1 1 3 5 W\n"
      "lord fork-1 fork-0 2 4 6 H\n"
      "rcov P 1 fork-1 2 2600 victim p1 blocked on fork-1[available]\n"
      "rcov C -1 fork-1 0 3100 recovery complete: cycle dissolved\n"
      "bdgt 0 1 5200 3500 1200 stretch: idle-cadence ceiling boosted\n"
      "bdgt 1 0 1800 3500 2900 recover: nominal, full detection and "
      "prediction restored\n";
  const TraceFile parsed = read_trace_string(documented);
  EXPECT_EQ(parsed.monitor_name, "fork-1");
  EXPECT_EQ(parsed.monitor_type, "allocator");
  EXPECT_EQ(parsed.rmax, 1);
  EXPECT_EQ(parsed.symbols,
            (std::vector<std::string>{"Acquire", "Release", "available"}));
  ASSERT_EQ(parsed.events.size(), 3u);
  EXPECT_EQ(parsed.events[1].kind, EventKind::kWait);
  EXPECT_EQ(parsed.events[1].cond, 2);
  ASSERT_EQ(parsed.checkpoints.size(), 1u);
  const SchedulingState& state = parsed.checkpoints[0];
  EXPECT_EQ(state.captured_at, 2500);
  EXPECT_EQ(state.running, 2);
  EXPECT_EQ(state.running_ticket, 4u);
  ASSERT_EQ(state.entry_queue.size(), 1u);
  EXPECT_EQ(state.entry_queue[0].pid, 3);
  ASSERT_EQ(state.cond_queues.size(), 1u);
  EXPECT_EQ(state.cond_queues[0].cond, 2);
  ASSERT_EQ(state.holders.size(), 1u);
  EXPECT_EQ(state.holders[0].pid, 7);
  ASSERT_EQ(parsed.lock_order.size(), 2u);
  EXPECT_TRUE(parsed.lock_order[0].to_wait);
  EXPECT_FALSE(parsed.lock_order[1].to_wait);
  ASSERT_EQ(parsed.recovery.size(), 2u);
  EXPECT_EQ(parsed.recovery[0].action, 'P');
  EXPECT_EQ(parsed.recovery[0].victim, 1);
  EXPECT_EQ(parsed.recovery[0].monitor, "fork-1");
  EXPECT_EQ(parsed.recovery[0].ticket, 2u);
  EXPECT_EQ(parsed.recovery[0].detail,
            "victim p1 blocked on fork-1[available]");
  EXPECT_EQ(parsed.recovery[1].action, 'C');
  EXPECT_EQ(parsed.recovery[1].victim, kNoPid);
  ASSERT_EQ(parsed.budget.size(), 2u);
  EXPECT_EQ(parsed.budget[0].from, 0);
  EXPECT_EQ(parsed.budget[0].to, 1);
  EXPECT_EQ(parsed.budget[0].spend_ppm, 5200u);
  EXPECT_EQ(parsed.budget[0].budget_ppm, 3500u);
  EXPECT_EQ(parsed.budget[0].at, 1200);
  EXPECT_EQ(parsed.budget[0].detail, "stretch: idle-cadence ceiling boosted");
  EXPECT_EQ(parsed.budget[1].to, 0);
  // And the example round-trips: re-serializing reproduces the document.
  EXPECT_EQ(write_trace_string(parsed), documented);
}

TEST(CodecTest, RejectsBadLockOrderLine) {
  EXPECT_THROW(read_trace_string("robmon-trace v3\nlord a b 1 2 3 X\n"),
               std::runtime_error);
  EXPECT_THROW(read_trace_string("robmon-trace v3\nlord a b\n"),
               std::runtime_error);
}

TEST(CodecTest, RejectsUnknownTag) {
  EXPECT_THROW(read_trace_string("robmon-trace v1\nbogus 1 2 3\n"),
               std::runtime_error);
}

TEST(CodecTest, RejectsBadEventKind) {
  EXPECT_THROW(
      read_trace_string("robmon-trace v1\nev 0 1 X 1 0 -1 0\n"),
      std::runtime_error);
}

TEST(CodecTest, RejectsOrphanQueueLines) {
  EXPECT_THROW(read_trace_string("robmon-trace v1\neq 1 0 0\n"),
               std::runtime_error);
  EXPECT_THROW(read_trace_string("robmon-trace v1\nendstate\n"),
               std::runtime_error);
}

TEST(CodecTest, MakeTraceFileCopiesSymbols) {
  SymbolTable symbols;
  symbols.intern("Send");
  symbols.intern("full");
  const TraceFile file = make_trace_file("m", "coordinator", 4, symbols,
                                         {}, {});
  ASSERT_EQ(file.symbols.size(), 2u);
  EXPECT_EQ(file.symbols[0], "Send");
  EXPECT_EQ(file.symbols[1], "full");
}

}  // namespace
}  // namespace robmon::trace
