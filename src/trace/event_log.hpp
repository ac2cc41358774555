// Append-only scheduling-event log — the event half of the paper's history
// information database (Fig. 1).  The data-gathering routines append in real
// time; the periodic checker drains the segment recorded since the previous
// checking point ("most of the information can be removed after being used",
// Section 3.3).  Optional full retention supports offline FD-Rule validation
// and trace export.
//
// Ingestion structure (lock-free era): appends go to per-shard bounded MPSC
// rings (sync::MpscRing).  An appender claims a ring slot with one CAS,
// fills the record, and publishes it with a release store on the slot's turn
// word — no lock is ever taken on the hot path.  The shard an appender
// writes to is resolved once and cached per thread (one compare per append,
// no modulo), which keeps a hot appender on one ring and off every other
// core's cache lines.  The drain side consumes published slots in
// claimed-slot order and never blocks appenders: an unpublished slot (a
// producer preempted between claim and publish) merely ends the pass there;
// that slot and its successors surface in the next drain.
//
// Overflow contract: a ring made full by a stalled drain does NOT block or
// silently drop.  The appender spills to the shard's bounded, spinlocked
// overflow list; when that too is at capacity the event is dropped and
// counted in events_lost() — exact per-shard loss accounting, never a
// silent gap.  total_appended() counts accepted events only;
// total_appended() + events_lost() equals the number of append() calls.
// Episode tickets make sequence gaps tolerable to wait-for validation
// (see core/waitfor.hpp), and the trace codec carries the loss count
// (v5 `loss` line) so offline consumers can see ingestion was lossy.
//
// Sequence numbers are reserved from one global counter in *blocks* (one
// fetch_add per seq_block appends per shard); the shard's cursor packs
// (next seq, remaining) into one word refilled by CAS, so allocation is
// lock-free too.  Ordering contract:
//   * seqs are unique, and monotone in claim order within one shard —
//     hence per-thread monotone (a thread sticks to its shard);
//   * across shards the order is block-approximate, NOT the real-time
//     interleaving;
//   * drain() retires each shard's unused block remainder, so every event
//     whose append *begins* after a drain returns sorts after everything
//     that drain returned (an append racing the drain itself may keep a
//     pre-boundary seq and surface in the next drain — the checker-gate
//     discipline quiesces appenders first, which restores the strict
//     boundary);
//   * a single-shard log whose appends are externally serialized (the
//     HoareMonitor discipline: every append happens under the monitor's
//     internal lock) keeps the full total append order: the ring publishes
//     and drains in claimed-slot order, and serialized appends claim in
//     append order.  Algorithm-1's segment replay depends on that order,
//     which is why monitor logs are built with shards = 1.
// Because blocks may be retired with unused remainders (and dropped events
// consume seqs), seqs are not dense.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "sync/mpsc_ring.hpp"
#include "sync/spinlock.hpp"
#include "trace/event.hpp"

namespace robmon::trace {

class EventLog {
 public:
  /// Default shard count; chosen to keep false sharing low without wasting
  /// memory on mostly-idle monitors.
  static constexpr std::size_t kDefaultShards = 8;

  /// Default sequence-block size B: one fetch_add on the shared counter per
  /// B appends per shard.  1 reproduces the per-event allocation (dense
  /// seqs, real-time cross-shard order).  Clamped to 65535 (the packed
  /// cursor keeps the remaining count in 16 bits).
  static constexpr std::uint64_t kDefaultSeqBlock = 16;

  /// Default per-shard ring capacity (slots; rounded up to a power of
  /// two).  Sized so hundreds of single-shard monitor logs stay tens of
  /// KB each; sustained bursts past it spill to the overflow list.
  static constexpr std::size_t kDefaultRingCapacity = 1024;

  /// Default per-shard overflow-list bound (events).  0 = unbounded spill
  /// (never lose an event; memory grows while the drain is stalled).
  static constexpr std::size_t kDefaultOverflowCapacity = std::size_t{1} << 20;

  struct Options {
    bool retain_history = false;
    std::size_t shards = kDefaultShards;
    std::uint64_t seq_block = kDefaultSeqBlock;
    std::size_t ring_capacity = kDefaultRingCapacity;
    std::size_t overflow_capacity = kDefaultOverflowCapacity;
  };

  explicit EventLog(Options options);
  explicit EventLog(bool retain_history = false,
                    std::size_t shards = kDefaultShards,
                    std::uint64_t seq_block = kDefaultSeqBlock);

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Append one event; assigns and returns its sequence number.  Lock-free
  /// while the ring has space.  A dropped event (ring and overflow both
  /// full) still returns its claimed seq and is counted in events_lost(),
  /// never recorded.
  std::uint64_t append(EventRecord event);

  /// Remove and return every published event buffered since the last
  /// drain, merged into sequence order.  Never blocks appenders: events
  /// whose publish is still in flight surface in the next drain (with
  /// appenders quiesced — the checker-gate discipline — nothing is in
  /// flight and the drain is complete).  Retires unused sequence-block
  /// remainders, so appends that begin after this call sort after the
  /// returned segment.
  std::vector<EventRecord> drain();

  /// Number of accepted events currently buffered (not yet drained).
  std::size_t pending() const;

  /// Total events ever accepted (excludes dropped events).
  std::uint64_t total_appended() const;

  /// Total events dropped by the overflow contract (ring and bounded
  /// overflow list both full) — exact, per-shard accounted.
  std::uint64_t events_lost() const;

  /// When retention is on, every drained segment is also archived (and
  /// history() additionally includes still-pending events).
  void set_retention(bool retain);
  bool retention() const;

  /// Full archive in sequence order (requires retention; empty otherwise).
  /// Archived segments are shared snapshots: only the small pointer vector
  /// is copied under the archive lock, never the event data.
  std::vector<EventRecord> history() const;

  std::size_t shard_count() const { return shard_count_; }
  std::uint64_t seq_block() const { return seq_block_; }
  std::size_t ring_capacity() const { return ring_capacity_; }
  std::size_t overflow_capacity() const { return overflow_capacity_; }

 private:
  /// One append shard: `ring` takes the lock-free fast path, `overflow`
  /// (under mu) the bounded spill, `lost` the exact drop count.
  /// seq_cursor packs (next seq << 16 | remaining) — the shard's cached
  /// block of the global sequence counter, refilled by CAS.  appended
  /// counts accepted events.
  struct alignas(64) Shard {
    std::unique_ptr<sync::MpscRing<EventRecord>> ring;
    std::atomic<std::uint64_t> seq_cursor{0};
    std::atomic<std::uint64_t> appended{0};
    std::atomic<std::uint64_t> lost{0};
    mutable sync::SpinLock mu;
    std::vector<EventRecord> overflow;
  };

  using Segment = std::shared_ptr<const std::vector<EventRecord>>;

  Shard& shard_for_thread();
  /// Claim one sequence number from the shard's packed cursor, refilling
  /// from the global counter when the block is exhausted.  Lock-free; a
  /// refill CAS lost to a racing appender abandons its block (a seq gap,
  /// never a duplicate).
  std::uint64_t claim_seq(Shard& shard);
  /// Seq-sorted copy of every not-yet-drained event (published ring slots
  /// are peeked, not consumed; drain_mu_ must be held — the ring consumer
  /// side is single-threaded).
  std::vector<EventRecord> pending_snapshot() const;

  const std::size_t shard_count_;
  const std::uint64_t seq_block_;
  const std::size_t ring_capacity_;
  const std::size_t overflow_capacity_;
  /// Identifies this instance in the per-thread shard cache (address reuse
  /// after destruction must not resolve to a stale shard pointer).
  const std::uint64_t log_id_;
  std::unique_ptr<Shard[]> shards_;

  std::atomic<std::uint64_t> next_seq_{0};
  std::atomic<std::uint64_t> drained_{0};
  std::atomic<bool> retain_history_;

  /// Serializes drains (the rings' single-consumer requirement), and
  /// history() against drains (appends never take it).
  mutable std::mutex drain_mu_;

  mutable sync::SpinLock archive_mu_;
  std::vector<Segment> archive_segments_;
};

}  // namespace robmon::trace
