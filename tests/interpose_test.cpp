// Interposition backend: the SyntheticMonitor state machine (guarded
// transitions, event retention, snapshots under concurrent owners), the
// re-entrancy guard, the process Runtime's registry and fork retirement,
// ROBMON_* env parsing, and the equivalence contract — a native
// HoareMonitor deadlock and the same logical schedule adapted through
// synthetic monitors must produce the same wait-for edges and the same
// confirmed verdict.
#include <gtest/gtest.h>
#include <pthread.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/fault.hpp"
#include "core/lockorder.hpp"
#include "core/monitor_spec.hpp"
#include "interpose/runtime.hpp"
#include "interpose/synthetic_monitor.hpp"
#include "runtime/checker_pool.hpp"
#include "runtime/hoare_monitor.hpp"
#include "util/clock.hpp"
#include "util/flags.hpp"

namespace robmon {
namespace {

using core::RuleId;
using interpose::CondWaitScope;
using interpose::ReentryGuard;
using interpose::Runtime;
using interpose::SyntheticMonitor;
using interpose::ThreadHolds;
using rt::CheckerPool;
using rt::HoareMonitor;

SyntheticMonitor::Config small_config() { return SyntheticMonitor::Config{}; }

// --- SyntheticMonitor state machine. -----------------------------------------

TEST(SyntheticMonitorTest, AcquireShowsOwnerAsRunningAndHolder) {
  util::ManualClock clock;
  clock.set(10);
  SyntheticMonitor m("m", SyntheticMonitor::Kind::kMutex, clock,
                     small_config());
  m.lock_acquired(1);
  const trace::SchedulingState state = m.snapshot();
  EXPECT_EQ(state.running, 1);
  EXPECT_NE(state.running_ticket, 0u);
  ASSERT_EQ(state.holders.size(), 1u);
  EXPECT_EQ(state.holders[0].pid, 1);
  EXPECT_EQ(state.holders[0].units, 1);
  EXPECT_EQ(state.holders[0].ticket, state.running_ticket);
  EXPECT_TRUE(state.entry_queue.empty());
}

TEST(SyntheticMonitorTest, BlockedWaitsInEntryQueueUntilAcquire) {
  util::ManualClock clock;
  SyntheticMonitor m("m", SyntheticMonitor::Kind::kMutex, clock,
                     small_config());
  m.lock_acquired(1);
  m.lock_blocked(2);
  trace::SchedulingState state = m.snapshot();
  ASSERT_EQ(state.entry_queue.size(), 1u);
  EXPECT_EQ(state.entry_queue[0].pid, 2);
  EXPECT_EQ(state.running, 1);

  m.unlocked(1);
  m.lock_acquired(2);
  state = m.snapshot();
  EXPECT_TRUE(state.entry_queue.empty());
  EXPECT_EQ(state.running, 2);
}

TEST(SyntheticMonitorTest, RecursiveAcquireTracksDepth) {
  util::ManualClock clock;
  SyntheticMonitor m("m", SyntheticMonitor::Kind::kMutex, clock,
                     small_config());
  m.lock_acquired(1);
  m.lock_acquired(1);
  trace::SchedulingState state = m.snapshot();
  ASSERT_EQ(state.holders.size(), 1u);
  EXPECT_EQ(state.holders[0].units, 2);

  m.unlocked(1);
  state = m.snapshot();
  EXPECT_EQ(state.running, 1);  // Still owned at depth 1.
  m.unlocked(1);
  state = m.snapshot();
  EXPECT_FALSE(state.has_running());
  EXPECT_TRUE(state.holders.empty());
}

TEST(SyntheticMonitorTest, GuardedTransitionsIgnoreMisorderedOps) {
  util::ManualClock clock;
  SyntheticMonitor m("m", SyntheticMonitor::Kind::kMutex, clock,
                     small_config());
  // Unlock by a thread whose acquisition was never observed
  // (pthread_mutex_timedlock is not interposed): must be a no-op.
  m.unlocked(7);
  EXPECT_FALSE(m.snapshot().has_running());

  m.lock_acquired(1);
  m.unlocked(9);  // Not the owner: no-op.
  EXPECT_EQ(m.snapshot().running, 1);

  m.lock_cancelled(5);  // Never blocked: no-op.
  EXPECT_TRUE(m.snapshot().entry_queue.empty());
}

TEST(SyntheticMonitorTest, CancelledBlockLeavesTheEntryQueue) {
  util::ManualClock clock;
  SyntheticMonitor m("m", SyntheticMonitor::Kind::kMutex, clock,
                     small_config());
  m.lock_acquired(1);
  m.lock_blocked(2);
  m.lock_cancelled(2);  // e.g. EDEADLK from the real lock.
  const trace::SchedulingState state = m.snapshot();
  EXPECT_TRUE(state.entry_queue.empty());
  EXPECT_EQ(state.running, 1);
}

TEST(SyntheticMonitorTest, CondParkAndUnpark) {
  util::ManualClock clock;
  SyntheticMonitor c("c", SyntheticMonitor::Kind::kCondition, clock,
                     small_config());
  c.cond_parked(5);
  trace::SchedulingState state = c.snapshot();
  ASSERT_EQ(state.cond_queues.size(), 1u);
  ASSERT_EQ(state.cond_queues[0].entries.size(), 1u);
  EXPECT_EQ(state.cond_queues[0].entries[0].pid, 5);
  // A condition monitor never reports ownership: it can contribute waits
  // but can never close a wait-for edge.
  EXPECT_FALSE(state.has_running());
  EXPECT_TRUE(state.holders.empty());

  c.cond_signalled(6, /*broadcast=*/false);
  c.cond_unparked(5);
  state = c.snapshot();
  EXPECT_TRUE(state.cond_queues[0].entries.empty());
}

TEST(SyntheticMonitorTest, ResetClearsEverything) {
  util::ManualClock clock;
  SyntheticMonitor m("m", SyntheticMonitor::Kind::kMutex, clock,
                     small_config());
  m.lock_acquired(1);
  m.lock_blocked(2);
  m.reset();  // pthread_mutex_destroy: the address may be reused.
  const trace::SchedulingState state = m.snapshot();
  EXPECT_FALSE(state.has_running());
  EXPECT_TRUE(state.entry_queue.empty());
  EXPECT_TRUE(state.holders.empty());
}

TEST(SyntheticMonitorTest, TicketsDistinguishWaitEpisodes) {
  // Two blocking episodes under a frozen clock share a timestamp but must
  // never share a ticket — the pool's live validation depends on it.
  util::ManualClock clock;
  SyntheticMonitor m("m", SyntheticMonitor::Kind::kMutex, clock,
                     small_config());
  m.lock_blocked(2);
  const std::uint64_t first = m.snapshot().entry_queue[0].ticket;
  m.lock_acquired(2);
  m.unlocked(2);
  m.lock_blocked(2);
  const std::uint64_t second = m.snapshot().entry_queue[0].ticket;
  EXPECT_NE(first, 0u);
  EXPECT_NE(second, 0u);
  EXPECT_NE(first, second);
}

TEST(SyntheticMonitorTest, RetentionRecordsEveryPairWithoutLoss) {
  util::ManualClock clock;
  SyntheticMonitor::Config config = small_config();
  config.retain_history = true;  // Record events, so loss is countable.
  SyntheticMonitor m("m", SyntheticMonitor::Kind::kMutex, clock, config);
  // Nobody drains while the burst arrives: every op is applied in place
  // and recorded, none dropped.
  for (int i = 0; i < 64; ++i) {
    m.lock_acquired(1);
    m.unlocked(1);
  }
  EXPECT_EQ(m.events_lost(), 0u);
  const trace::SchedulingState state = m.snapshot();
  EXPECT_FALSE(state.has_running());
  // Every acquire/release pair was recorded.
  std::vector<trace::EventRecord> segment;
  m.capture(segment);
  EXPECT_EQ(segment.size(), 128u);
  EXPECT_EQ(m.history().size(), 128u);
}

TEST(SyntheticMonitorTest, ConcurrentOwnersKeepSnapshotsConsistent) {
  // Three threads take turns on one monitor through a real mutex — the
  // host serialization the owner seqlock relies on — with recursive
  // acquires and blocked/cancelled episodes mixed in, while a fourth
  // thread captures.  Every capture must show a whole owner (Running,
  // holder, depth and ticket from one ownership) or none.  Each owner keeps
  // a hold record, so its holds start unstamped and its recursive relocks
  // and nested holds stamp them while the reader captures; a relocked hold
  // must never show unstamped.  Both the in-place path and the recording
  // (ROBMON_TRACE) path run.
  for (const bool recording : {false, true}) {
    SCOPED_TRACE(recording ? "recording" : "in place");
    SyntheticMonitor::Config config = small_config();
    config.retain_history = recording;
    SyntheticMonitor m("m", SyntheticMonitor::Kind::kMutex,
                       util::SteadyClock::instance(), config);
    std::mutex host;
    constexpr int kRounds = 20000;
    std::atomic<int> running_owners{3};
    std::atomic<std::uint64_t> snapshots{0}, torn{0};

    std::thread reader([&] {
      std::vector<trace::EventRecord> segment;
      while (running_owners.load(std::memory_order_acquire) > 0) {
        const trace::SchedulingState state = m.capture(segment);
        snapshots.fetch_add(1, std::memory_order_relaxed);
        const bool free = !state.has_running() && state.holders.empty() &&
                          state.running_ticket == 0;
        const bool whole = state.has_running() && state.holders.size() == 1 &&
                           state.running == state.holders[0].pid &&
                           state.holders[0].units >= 1 &&
                           state.running_ticket != 0 &&
                           state.running_ticket == state.holders[0].ticket &&
                           (state.holders[0].units == 1 ||
                            state.holders[0].held_since !=
                                SyntheticMonitor::kUnstamped);
        if (!free && !whole) torn.fetch_add(1, std::memory_order_relaxed);
      }
    });
    std::vector<std::thread> owners;
    for (Tid tid = 1; tid <= 3; ++tid) {
      owners.emplace_back([&, tid] {
        ThreadHolds holds;
        SyntheticMonitor own("own", SyntheticMonitor::Kind::kMutex,
                             util::SteadyClock::instance(), config);
        for (int i = 0; i < kRounds; ++i) {
          if (i % 5 == 0) {  // A blocked episode the real lock cancels.
            m.lock_blocked(tid);
            m.lock_cancelled(tid);
          }
          SyntheticMonitor::stamp_outer(tid, holds);
          if (!host.try_lock()) {
            m.lock_blocked(tid);
            host.lock();
          }
          m.lock_acquired(tid, holds);
          if (i % 3 == 0) {  // Recursive re-acquisition (a recursive mutex).
            SyntheticMonitor::stamp_outer(tid, holds);
            m.lock_acquired(tid, holds);
            m.unlocked(tid, holds);
          } else if (i % 3 == 1) {  // A nested hold of a private mutex.
            SyntheticMonitor::stamp_outer(tid, holds);
            own.lock_acquired(tid, holds);
            own.unlocked(tid, holds);
          }
          m.unlocked(tid, holds);
          host.unlock();
        }
        EXPECT_EQ(holds.count, 0);
        EXPECT_EQ(holds.unstamped, nullptr);
        running_owners.fetch_sub(1, std::memory_order_release);
      });
    }
    for (std::thread& owner : owners) owner.join();
    reader.join();

    EXPECT_GT(snapshots.load(), 0u);
    EXPECT_EQ(torn.load(), 0u);
    EXPECT_EQ(m.events_lost(), 0u);
    const trace::SchedulingState end = m.snapshot();
    EXPECT_FALSE(end.has_running());
    EXPECT_TRUE(end.holders.empty());
    EXPECT_TRUE(end.entry_queue.empty());
  }
}

TEST(SyntheticMonitorTest, RetentionOffRecordsNothingButStateMoves) {
  // Without trace retention a synthetic monitor records no events (the
  // pool would drain them only to count them), but its snapshots and
  // episode tickets — all the pool-level analyses read — move as usual.
  util::ManualClock clock;
  SyntheticMonitor m("m", SyntheticMonitor::Kind::kMutex, clock,
                     small_config());
  m.lock_acquired(1);
  m.lock_blocked(2);
  const trace::SchedulingState held = m.snapshot();
  EXPECT_EQ(held.running, 1);
  ASSERT_EQ(held.entry_queue.size(), 1u);
  EXPECT_EQ(held.entry_queue[0].pid, 2);
  m.unlocked(1);
  m.lock_acquired(2);
  const trace::SchedulingState handed = m.snapshot();
  EXPECT_EQ(handed.running, 2);
  EXPECT_TRUE(handed.entry_queue.empty());
  EXPECT_GT(handed.running_ticket, held.running_ticket);

  std::vector<trace::EventRecord> segment;
  m.capture(segment);
  EXPECT_TRUE(segment.empty());
  EXPECT_TRUE(m.history().empty());
  EXPECT_EQ(m.log().total_appended(), 0u);
  EXPECT_EQ(m.events_lost(), 0u);
}

// --- Lazily stamped hold starts and RMW-free tickets. ------------------------

/// The A -> B edges of a graph fed one snapshot of each monitor.
std::vector<core::OrderEdge> order_edges(const SyntheticMonitor& a,
                                         const SyntheticMonitor& b) {
  core::LockOrderGraph graph;
  graph.observe(1, "A", a.snapshot());
  graph.observe(2, "B", b.snapshot());
  return graph.edges();
}

TEST(HoldStampTest, OutermostHoldIsUnstampedAndJoinsNothing) {
  // A thread's outermost hold reads no clock: its start is kUnstamped,
  // after any capture, so its certified interval is empty.  Even against a
  // hold of the same thread whose interval spans the whole run, it joins
  // nothing.
  util::ManualClock clock(10);
  SyntheticMonitor a("A", SyntheticMonitor::Kind::kMutex, clock,
                     small_config());
  SyntheticMonitor b("B", SyntheticMonitor::Kind::kMutex, clock,
                     small_config());
  b.lock_acquired(1);  // Start 10, from the clock.
  clock.set(20);
  ThreadHolds holds;
  SyntheticMonitor::stamp_outer(1, holds);  // Nothing to stamp yet.
  a.lock_acquired(1, holds);
  EXPECT_EQ(holds.count, 1);
  EXPECT_EQ(holds.unstamped, &a);
  clock.set(30);
  const trace::SchedulingState state = a.snapshot();
  ASSERT_EQ(state.holders.size(), 1u);
  EXPECT_EQ(state.holders[0].held_since, SyntheticMonitor::kUnstamped);
  EXPECT_GT(state.holders[0].held_since, state.captured_at);
  EXPECT_EQ(state.running_since, SyntheticMonitor::kUnstamped);
  EXPECT_TRUE(order_edges(a, b).empty());

  a.unlocked(1, holds);
  EXPECT_EQ(holds.count, 0);
  EXPECT_EQ(holds.unstamped, nullptr);
}

TEST(HoldStampTest, NestedAcquireStampsTheOuterHoldFirst) {
  // Lazily: the outer hold is stamped just before the nested acquisition,
  // which reads the clock after acquiring.  Eagerly (a start read at every
  // acquisition): the reference.  Both must yield the same A -> B witness.
  const auto run = [](bool lazy) {
    util::ManualClock clock(100);
    SyntheticMonitor a("A", SyntheticMonitor::Kind::kMutex, clock,
                       small_config());
    SyntheticMonitor b("B", SyntheticMonitor::Kind::kMutex, clock,
                       small_config());
    ThreadHolds holds;
    if (lazy) {
      a.lock_acquired(1, holds);
      clock.set(200);
      SyntheticMonitor::stamp_outer(1, holds);  // Before the real lock of B.
      EXPECT_EQ(holds.unstamped, nullptr);
      clock.set(300);
      b.lock_acquired(1, holds);
    } else {
      a.lock_acquired(1);
      clock.set(300);
      b.lock_acquired(1);
    }
    clock.set(400);
    const util::TimeNs a_since = a.snapshot().holders.at(0).held_since;
    const util::TimeNs b_since = b.snapshot().holders.at(0).held_since;
    EXPECT_EQ(a_since, lazy ? 200 : 100);
    EXPECT_EQ(b_since, 300);
    return order_edges(a, b);
  };
  const std::vector<core::OrderEdge> lazy = run(true);
  const std::vector<core::OrderEdge> eager = run(false);
  ASSERT_EQ(lazy.size(), 1u);
  ASSERT_EQ(eager.size(), 1u);
  EXPECT_EQ(lazy[0].from_name, "A");
  EXPECT_EQ(lazy[0].to_name, "B");
  ASSERT_EQ(lazy[0].witnesses.size(), 1u);
  ASSERT_EQ(eager[0].witnesses.size(), 1u);
  const core::OrderWitness& witness = lazy[0].witnesses[0];
  const core::OrderWitness& reference = eager[0].witnesses[0];
  EXPECT_EQ(witness.pid, reference.pid);
  EXPECT_EQ(witness.from_ticket, reference.from_ticket);
  EXPECT_EQ(witness.to_ticket, reference.to_ticket);
  EXPECT_EQ(witness.to_wait, reference.to_wait);
}

TEST(HoldStampTest, NestedStartsStrictlyIncreaseUnderAFrozenClock) {
  // Rule (b): a clock that does not move between the stamp and the nested
  // acquisition still orders them, so the join sees A before B (an eager
  // start would read 100 twice, which the join skips as unordered).
  util::ManualClock clock(100);
  SyntheticMonitor a("A", SyntheticMonitor::Kind::kMutex, clock,
                     small_config());
  SyntheticMonitor b("B", SyntheticMonitor::Kind::kMutex, clock,
                     small_config());
  ThreadHolds holds;
  a.lock_acquired(1, holds);
  SyntheticMonitor::stamp_outer(1, holds);
  b.lock_acquired(1, holds);
  clock.set(200);
  const util::TimeNs a_since = a.snapshot().holders.at(0).held_since;
  const util::TimeNs b_since = b.snapshot().holders.at(0).held_since;
  EXPECT_GE(a_since, 100);
  EXPECT_LT(a_since, b_since);
  const std::vector<core::OrderEdge> edges = order_edges(a, b);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].from_name, "A");
}

TEST(HoldStampTest, StampOfAHoldNoLongerOwnedWritesNothing) {
  // pthread_mutex_destroy resets the shadow of a mutex its holder still
  // holds; the holder's unlock is then a guarded no-op, so its record still
  // names the mutex when another thread takes it as its outermost hold.
  // The first thread's next stamp must not write the new owner's state.
  util::ManualClock clock(100);
  SyntheticMonitor a("A", SyntheticMonitor::Kind::kMutex, clock,
                     small_config());
  ThreadHolds holds;
  a.lock_acquired(1, holds);
  a.reset();
  a.unlocked(1, holds);
  EXPECT_EQ(holds.unstamped, &a);
  ThreadHolds other;
  a.lock_acquired(2, other);
  SyntheticMonitor::stamp_outer(1, holds);
  EXPECT_EQ(holds.unstamped, nullptr);
  const trace::SchedulingState state = a.snapshot();
  ASSERT_EQ(state.holders.size(), 1u);
  EXPECT_EQ(state.holders[0].pid, 2);
  EXPECT_EQ(state.holders[0].held_since, SyntheticMonitor::kUnstamped);
}

TEST(HoldStampTest, RecursiveRelockKeepsStartAndTicket) {
  util::ManualClock clock(100);
  SyntheticMonitor a("A", SyntheticMonitor::Kind::kMutex, clock,
                     small_config());
  ThreadHolds holds;
  a.lock_acquired(1, holds);
  const std::uint64_t ticket = a.snapshot().holders.at(0).ticket;
  clock.set(200);
  SyntheticMonitor::stamp_outer(1, holds);  // The relock's own stamp.
  clock.set(300);
  a.lock_acquired(1, holds);
  trace::SchedulingState state = a.snapshot();
  ASSERT_EQ(state.holders.size(), 1u);
  EXPECT_EQ(state.holders[0].units, 2);
  EXPECT_EQ(state.holders[0].held_since, 200);
  EXPECT_EQ(state.holders[0].ticket, ticket);
  EXPECT_EQ(holds.count, 2);

  a.unlocked(1, holds);
  state = a.snapshot();
  ASSERT_EQ(state.holders.size(), 1u);
  EXPECT_EQ(state.holders[0].units, 1);
  EXPECT_EQ(state.holders[0].held_since, 200);
  EXPECT_EQ(state.holders[0].ticket, ticket);
  a.unlocked(1, holds);
  EXPECT_TRUE(a.snapshot().holders.empty());
  EXPECT_EQ(holds.count, 0);
  // An unlock by a thread that does not hold it leaves the record alone.
  a.unlocked(1, holds);
  EXPECT_EQ(holds.count, 0);
}

TEST(HoldStampTest, OwnershipTicketsAreDistinctAndDisjointFromQueueTickets) {
  // Ownership tickets come from the owner seqlock's version (even) and
  // queue tickets from a counter under the queue lock (odd): every episode
  // of the monitor gets its own, and the two kinds never meet.
  util::ManualClock clock(1);
  SyntheticMonitor m("m", SyntheticMonitor::Kind::kMutex, clock,
                     small_config());
  SyntheticMonitor c("c", SyntheticMonitor::Kind::kCondition, clock,
                     small_config());
  std::set<std::uint64_t> owned, queued;
  ThreadHolds holds;
  for (int i = 0; i < 50; ++i) {
    m.lock_blocked(2);
    queued.insert(m.snapshot().entry_queue.at(0).ticket);
    m.lock_acquired(2, holds);
    owned.insert(m.snapshot().running_ticket);
    SyntheticMonitor::stamp_outer(2, holds);
    m.lock_acquired(2, holds);  // Recursive: the same episode.
    EXPECT_EQ(m.snapshot().running_ticket, *owned.rbegin());
    m.unlocked(2, holds);
    c.cond_parked(2);
    queued.insert(c.snapshot().cond_queues.at(0).entries.at(0).ticket);
    c.cond_unparked(2);
    m.unlocked(2, holds);
    m.lock_acquired(1);
    owned.insert(m.snapshot().running_ticket);
    m.unlocked(1);
    if (i % 10 == 0) m.reset();
  }
  EXPECT_EQ(owned.size(), 100u);
  EXPECT_EQ(queued.size(), 50u);  // Distinct per monitor, not across them.
  for (const std::uint64_t ticket : owned) {
    EXPECT_NE(ticket, 0u);
    EXPECT_EQ(ticket % 2, 0u);
    EXPECT_EQ(queued.count(ticket), 0u);
    EXPECT_LT(ticket, 1000u);  // Short enough to read in a report.
  }
  for (const std::uint64_t ticket : queued) EXPECT_EQ(ticket % 2, 1u);
}

// --- A cancelled condition waiter (pthread_cancel). --------------------------

struct CancelledWaiter {
  SyntheticMonitor* cond = nullptr;
  SyntheticMonitor* mutex = nullptr;
  pthread_mutex_t real_mutex = PTHREAD_MUTEX_INITIALIZER;
  pthread_cond_t never = PTHREAD_COND_INITIALIZER;
  ThreadHolds holds;
};

constexpr Tid kWaiterTid = 7;

/// The host's cleanup handler, as the shim's unlock wrapper sees it.
void unlock_cancelled_waiter(void* raw) {
  auto* waiter = static_cast<CancelledWaiter*>(raw);
  waiter->mutex->unlocked(kWaiterTid, waiter->holds);
  pthread_mutex_unlock(&waiter->real_mutex);
}

void* wait_until_cancelled(void* raw) {
  auto* waiter = static_cast<CancelledWaiter*>(raw);
  pthread_mutex_lock(&waiter->real_mutex);
  waiter->mutex->lock_acquired(kWaiterTid, waiter->holds);
  pthread_cleanup_push(unlock_cancelled_waiter, waiter);
  for (;;) {
    // The cond-wait wrappers' body.
    const CondWaitScope scope(waiter->cond, waiter->mutex, kWaiterTid,
                              waiter->holds);
    pthread_cond_wait(&waiter->never, &waiter->real_mutex);
  }
  pthread_cleanup_pop(0);
  return nullptr;
}

TEST(CondWaitScopeTest, CancelledWaiterLeavesNoShadowState) {
  // A waiter cancelled inside pthread_cond_wait never returns from it; the
  // scope's destructor still runs (glibc unwinds the cancelled thread), so
  // the waiter leaves the condition's queue and its mutex hold is recorded
  // and then released by the cleanup handler.
  util::ManualClock clock(1);
  SyntheticMonitor cond("c", SyntheticMonitor::Kind::kCondition, clock,
                        small_config());
  SyntheticMonitor mutex("m", SyntheticMonitor::Kind::kMutex, clock,
                         small_config());
  CancelledWaiter waiter;
  waiter.cond = &cond;
  waiter.mutex = &mutex;
  pthread_t thread;
  ASSERT_EQ(pthread_create(&thread, nullptr, wait_until_cancelled, &waiter),
            0);
  // Parked on the shadow condition; once this thread can take the real
  // mutex, the waiter is inside pthread_cond_wait.
  for (int spin = 0; spin < 20000; ++spin) {
    if (!cond.snapshot().cond_queues.at(0).entries.empty()) break;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_EQ(cond.snapshot().cond_queues.at(0).entries.size(), 1u);
  pthread_mutex_lock(&waiter.real_mutex);
  pthread_mutex_unlock(&waiter.real_mutex);
  ASSERT_EQ(pthread_cancel(thread), 0);
  void* result = nullptr;
  ASSERT_EQ(pthread_join(thread, &result), 0);
  EXPECT_EQ(result, PTHREAD_CANCELED);

  EXPECT_TRUE(cond.snapshot().cond_queues.at(0).entries.empty());
  const trace::SchedulingState state = mutex.snapshot();
  EXPECT_FALSE(state.has_running());
  EXPECT_TRUE(state.holders.empty());
  EXPECT_EQ(waiter.holds.count, 0);
  EXPECT_EQ(waiter.holds.unstamped, nullptr);
}

// --- Equivalence: native monitor vs. shim-adapted observation. ---------------

core::MonitorSpec native_spec(const std::string& name) {
  core::MonitorSpec spec = core::MonitorSpec::manager(name);
  spec.t_max = 30 * util::kSecond;
  spec.t_io = 30 * util::kSecond;
  spec.t_limit = 30 * util::kSecond;
  return spec;
}

CheckerPool::Options parked_pool_options(core::ReportSink* sink) {
  CheckerPool::Options options;
  // Periodic checkpoints parked far out: only the synchronous passes the
  // test drives may run.
  options.waitfor_checkpoint_period = 3600 * util::kSecond;
  options.waitfor_sink = sink;
  return options;
}

std::string wf_message(const core::CollectingSink& sink) {
  for (const auto& report : sink.reports()) {
    if (report.rule == RuleId::kWfCycleDetected) return report.message;
  }
  return {};
}

TEST(InterposeEquivalenceTest, NativeAndSyntheticRunsAgreeOnTheCycle) {
  // Native side: two Hoare monitors, two real threads, a cross deadlock —
  // p1 runs inside A and blocks on B's entry queue, p2 the reverse.
  core::CollectingSink native_sink;
  CheckerPool native_pool(parked_pool_options(&native_sink));
  HoareMonitor a(native_spec("A"), util::SteadyClock::instance());
  HoareMonitor b(native_spec("B"), util::SteadyClock::instance());
  const CheckerPool::MonitorId ida = native_pool.add(a);
  const CheckerPool::MonitorId idb = native_pool.add(b);

  std::atomic<bool> a_held{false}, b_held{false};
  std::thread t1([&] {
    ASSERT_EQ(a.enter(1, "lock"), rt::Status::kOk);
    a_held.store(true);
    while (!b_held.load()) std::this_thread::yield();
    (void)b.enter(1, "lock");  // Blocks; released by poison().
  });
  std::thread t2([&] {
    ASSERT_EQ(b.enter(2, "lock"), rt::Status::kOk);
    b_held.store(true);
    while (!a_held.load()) std::this_thread::yield();
    (void)a.enter(2, "lock");
  });
  for (int spin = 0; spin < 4000; ++spin) {
    if (!a.snapshot().entry_queue.empty() &&
        !b.snapshot().entry_queue.empty()) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  ASSERT_EQ(a.snapshot().entry_queue.size(), 1u);
  ASSERT_EQ(b.snapshot().entry_queue.size(), 1u);

  native_pool.check_now(ida);
  native_pool.check_now(idb);
  EXPECT_EQ(native_pool.run_waitfor_checkpoint(), 1u);
  EXPECT_EQ(native_pool.deadlocks_reported(), 1u);
  const std::string native_message = wf_message(native_sink);

  a.poison();
  b.poison();
  t1.join();
  t2.join();
  native_pool.remove(ida);
  native_pool.remove(idb);

  // Synthetic side: the same logical schedule, but delivered as the
  // observations the LD_PRELOAD wrappers would push — no real blocking.
  core::CollectingSink synthetic_sink;
  CheckerPool synthetic_pool(parked_pool_options(&synthetic_sink));
  util::ManualClock clock;
  SyntheticMonitor sa("A", SyntheticMonitor::Kind::kMutex, clock,
                      small_config());
  SyntheticMonitor sb("B", SyntheticMonitor::Kind::kMutex, clock,
                      small_config());
  sa.lock_acquired(1);
  sb.lock_acquired(2);
  sb.lock_blocked(1);
  sa.lock_blocked(2);
  const CheckerPool::MonitorId sida = synthetic_pool.add(sa);
  const CheckerPool::MonitorId sidb = synthetic_pool.add(sb);
  synthetic_pool.check_now(sida);
  synthetic_pool.check_now(sidb);
  EXPECT_EQ(synthetic_pool.run_waitfor_checkpoint(), 1u);
  EXPECT_EQ(synthetic_pool.deadlocks_reported(), 1u);
  const std::string synthetic_message = wf_message(synthetic_sink);

  // Same monitors, same pids, same edges: the confirmed cycle must be
  // described identically — the shim is not a degraded approximation.
  ASSERT_FALSE(native_message.empty());
  EXPECT_EQ(native_message, synthetic_message);
  EXPECT_NE(synthetic_message.find("global deadlock cycle (2 links)"),
            std::string::npos)
      << synthetic_message;
  EXPECT_NE(synthetic_message.find("waits on A[entry]"), std::string::npos);
  EXPECT_NE(synthetic_message.find("waits on B[entry]"), std::string::npos);
  synthetic_pool.remove(sida);
  synthetic_pool.remove(sidb);
}

TEST(InterposeEquivalenceTest, CleanSyntheticScheduleConfirmsNothing) {
  core::CollectingSink sink;
  CheckerPool pool(parked_pool_options(&sink));
  util::ManualClock clock;
  SyntheticMonitor sa("A", SyntheticMonitor::Kind::kMutex, clock,
                      small_config());
  SyntheticMonitor sb("B", SyntheticMonitor::Kind::kMutex, clock,
                      small_config());
  // p1 holds A and wants B, but p2 releases B before the checkpoint: the
  // stale shape must confirm nothing (zero false positives).
  sa.lock_acquired(1);
  sb.lock_acquired(2);
  sb.lock_blocked(1);
  sb.unlocked(2);
  const CheckerPool::MonitorId ida = pool.add(sa);
  const CheckerPool::MonitorId idb = pool.add(sb);
  pool.check_now(ida);
  pool.check_now(idb);
  EXPECT_EQ(pool.run_waitfor_checkpoint(), 0u);
  EXPECT_EQ(pool.deadlocks_reported(), 0u);
  pool.remove(ida);
  pool.remove(idb);
}

// --- Re-entrancy guard. -------------------------------------------------------

TEST(ReentryGuardTest, DepthGatesAdaptation) {
  EXPECT_TRUE(ReentryGuard::should_adapt());
  EXPECT_EQ(ReentryGuard::depth(), 0);
  {
    ReentryGuard outer;
    EXPECT_FALSE(ReentryGuard::should_adapt());
    EXPECT_EQ(ReentryGuard::depth(), 1);
    {
      ReentryGuard inner;
      EXPECT_EQ(ReentryGuard::depth(), 2);
    }
    EXPECT_EQ(ReentryGuard::depth(), 1);
  }
  EXPECT_TRUE(ReentryGuard::should_adapt());
}

TEST(ReentryGuardTest, InternalMarkIsStickyAndPerThread) {
  std::thread worker([] {
    EXPECT_TRUE(ReentryGuard::should_adapt());
    ReentryGuard::mark_internal();
    EXPECT_TRUE(ReentryGuard::internal());
    EXPECT_FALSE(ReentryGuard::should_adapt());  // For the thread's life.
  });
  worker.join();
  // The mark never leaks to other threads.
  EXPECT_FALSE(ReentryGuard::internal());
  EXPECT_TRUE(ReentryGuard::should_adapt());
}

// --- Runtime: registry and fork retirement. -----------------------------------

TEST(InterposeRuntimeTest, RegistryDedupesByAddressAndFindsWithoutCreating) {
  Runtime& runtime = Runtime::instance();
  int object_a = 0, object_b = 0, unseen = 0;
  SyntheticMonitor* ma =
      runtime.monitor_for(&object_a, SyntheticMonitor::Kind::kMutex);
  ASSERT_NE(ma, nullptr);
  EXPECT_EQ(runtime.monitor_for(&object_a, SyntheticMonitor::Kind::kMutex),
            ma);
  SyntheticMonitor* mb =
      runtime.monitor_for(&object_b, SyntheticMonitor::Kind::kCondition);
  ASSERT_NE(mb, nullptr);
  EXPECT_NE(mb, ma);
  EXPECT_EQ(mb->kind(), SyntheticMonitor::Kind::kCondition);
  EXPECT_EQ(runtime.find_monitor(&object_a), ma);
  EXPECT_EQ(runtime.find_monitor(&unseen), nullptr);
  EXPECT_GE(runtime.monitor_count(), 2u);
}

TEST(InterposeRuntimeTest, ForkChildRetiresTheParentRuntime) {
  ASSERT_NE(&Runtime::instance(), nullptr);
  ASSERT_NE(Runtime::instance_if_built(), nullptr);
  // Cache the parent's tid, which the child must not inherit, and give
  // the thread a hold record, whose holds were on the parent's monitors.
  ASSERT_EQ(interpose::self_tid(), static_cast<Tid>(::syscall(SYS_gettid)));
  util::ManualClock clock;
  SyntheticMonitor parents("parents", SyntheticMonitor::Kind::kMutex, clock,
                           small_config());
  parents.lock_acquired(interpose::self_tid(), interpose::detail::t_holds);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // The atfork child handler must have retired the parent's runtime —
    // its pool workers do not exist here — and cleared the cached tid, or
    // every op and report in the child names the parent's thread.  _exit:
    // no gtest teardown in the child.
    const bool retired = Runtime::instance_if_built() == nullptr;
    const bool own_tid =
        interpose::self_tid() == static_cast<Tid>(::syscall(SYS_gettid));
    const bool no_holds = interpose::detail::t_holds.count == 0 &&
                          interpose::detail::t_holds.unstamped == nullptr;
    _exit(retired && own_tid && no_holds ? 0 : 1);
  }
  parents.unlocked(interpose::self_tid(), interpose::detail::t_holds);
  EXPECT_EQ(interpose::detail::t_holds.count, 0);
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  // The parent keeps its runtime.
  EXPECT_NE(Runtime::instance_if_built(), nullptr);
}

// --- ROBMON_* environment parsing (util::EnvFlags). ---------------------------

TEST(EnvFlagsTest, ParsesTypedValuesWithValidation) {
  ::setenv("RMTEST_SHARDS", "4", 1);
  ::setenv("RMTEST_BUDGET", "0.25", 1);
  ::setenv("RMTEST_LOCKORDER", "off", 1);
  util::EnvFlags env("RMTEST_");
  EXPECT_EQ(env.i64("SHARDS", 1, 1, 64), 4);
  EXPECT_DOUBLE_EQ(env.f64("BUDGET", 0.0, 0.0, 0.5), 0.25);
  EXPECT_FALSE(env.boolean("LOCKORDER", true));
  EXPECT_EQ(env.i64("UNSET", 7, 1, 64), 7);  // Fallback, not an error.
  EXPECT_TRUE(env.ok());
  ::unsetenv("RMTEST_SHARDS");
  ::unsetenv("RMTEST_BUDGET");
  ::unsetenv("RMTEST_LOCKORDER");
}

TEST(EnvFlagsTest, CollectsEveryErrorIntoOneReport) {
  ::setenv("RMTEST_SHARDS", "banana", 1);
  ::setenv("RMTEST_BUDGET", "0.9", 1);    // Above max.
  ::setenv("RMTEST_LOCKORDER", "maybe", 1);
  util::EnvFlags env("RMTEST_");
  // Every bad variable falls back to its default ...
  EXPECT_EQ(env.i64("SHARDS", 1, 1, 64), 1);
  EXPECT_DOUBLE_EQ(env.f64("BUDGET", 0.0, 0.0, 0.5), 0.0);
  EXPECT_TRUE(env.boolean("LOCKORDER", true));
  // ... and the single bad-config report names them all.
  EXPECT_FALSE(env.ok());
  EXPECT_EQ(env.errors().size(), 3u);
  const std::string report = env.error_text();
  EXPECT_NE(report.find("bad configuration"), std::string::npos);
  EXPECT_NE(report.find("RMTEST_SHARDS=banana"), std::string::npos);
  EXPECT_NE(report.find("RMTEST_BUDGET=0.9"), std::string::npos);
  EXPECT_NE(report.find("RMTEST_LOCKORDER=maybe"), std::string::npos);
  EXPECT_NE(report.find("recognized variables:"), std::string::npos);
  ::unsetenv("RMTEST_SHARDS");
  ::unsetenv("RMTEST_BUDGET");
  ::unsetenv("RMTEST_LOCKORDER");
}

}  // namespace
}  // namespace robmon
