#include "trace/event_log.hpp"

#include <algorithm>
#include <mutex>
#include <utility>

namespace robmon::trace {

namespace {

bool seq_less(const EventRecord& a, const EventRecord& b) {
  return a.seq < b.seq;
}

std::uint64_t next_log_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// seq_cursor packing: high 48 bits = next seq, low 16 bits = remaining
/// block allowance.  remaining == 0 means "refill from the global counter".
constexpr std::uint64_t kRemainingBits = 16;
constexpr std::uint64_t kRemainingMask =
    (std::uint64_t{1} << kRemainingBits) - 1;

constexpr std::uint64_t pack_cursor(std::uint64_t next_seq,
                                    std::uint64_t remaining) {
  return (next_seq << kRemainingBits) | remaining;
}

}  // namespace

EventLog::EventLog(Options options)
    : shard_count_(options.shards == 0 ? 1 : options.shards),
      seq_block_(std::min<std::uint64_t>(
          options.seq_block == 0 ? 1 : options.seq_block, kRemainingMask)),
      ring_capacity_(options.ring_capacity),
      overflow_capacity_(options.overflow_capacity),
      log_id_(next_log_id()),
      shards_(std::make_unique<Shard[]>(shard_count_)),
      retain_history_(options.retain_history) {
  for (std::size_t i = 0; i < shard_count_; ++i) {
    shards_[i].ring =
        std::make_unique<sync::MpscRing<EventRecord>>(ring_capacity_);
  }
}

EventLog::EventLog(bool retain_history, std::size_t shards,
                   std::uint64_t seq_block)
    : EventLog(Options{.retain_history = retain_history,
                       .shards = shards,
                       .seq_block = seq_block}) {}

EventLog::Shard& EventLog::shard_for_thread() {
  // Per-thread cache of the last (log, shard) pair: the hot path is one
  // compare + deref.  Keyed by log_id_, not address, so a log constructed
  // at a destroyed log's address cannot resolve to a dangling shard.
  struct Cache {
    std::uint64_t log_id = 0;
    Shard* shard = nullptr;
  };
  thread_local Cache cache;
  if (cache.log_id == log_id_) return *cache.shard;
  static std::atomic<std::size_t> next_slot{0};
  thread_local const std::size_t slot =
      next_slot.fetch_add(1, std::memory_order_relaxed);
  cache.log_id = log_id_;
  cache.shard = &shards_[slot % shard_count_];
  return *cache.shard;
}

std::uint64_t EventLog::claim_seq(Shard& shard) {
  std::uint64_t packed = shard.seq_cursor.load(std::memory_order_relaxed);
  for (;;) {
    const std::uint64_t remaining = packed & kRemainingMask;
    if (remaining == 0) {
      // Block exhausted (or retired by a drain): draw a fresh block from
      // the global counter.  Losing the install CAS abandons the block —
      // a bounded seq gap, never a duplicate — and retries on the racing
      // appender's refill.
      const std::uint64_t base =
          next_seq_.fetch_add(seq_block_, std::memory_order_relaxed);
      if (shard.seq_cursor.compare_exchange_weak(
              packed, pack_cursor(base + 1, seq_block_ - 1),
              std::memory_order_relaxed)) {
        return base;
      }
      continue;
    }
    const std::uint64_t next = packed >> kRemainingBits;
    if (shard.seq_cursor.compare_exchange_weak(
            packed, pack_cursor(next + 1, remaining - 1),
            std::memory_order_relaxed)) {
      return next;
    }
  }
}

std::uint64_t EventLog::append(EventRecord event) {
  Shard& shard = shard_for_thread();
  event.seq = claim_seq(shard);
  if (shard.ring->try_push(event)) {
    shard.appended.fetch_add(1, std::memory_order_relaxed);
    return event.seq;
  }
  // Ring full (stalled or outpaced drain): bounded spill, then exact loss
  // accounting.  Never a silent drop.
  {
    std::lock_guard<sync::SpinLock> lock(shard.mu);
    if (overflow_capacity_ == 0 || shard.overflow.size() < overflow_capacity_) {
      shard.overflow.push_back(event);
      shard.appended.fetch_add(1, std::memory_order_relaxed);
      return event.seq;
    }
  }
  shard.lost.fetch_add(1, std::memory_order_relaxed);
  return event.seq;
}

std::vector<EventRecord> EventLog::drain() {
  std::lock_guard<std::mutex> drain_lock(drain_mu_);

  // Consume each shard's published prefix (claimed-slot order, never
  // blocking appenders), then collect its overflow spill.  Retiring the
  // shard's sequence block pins the drain boundary in seq space: every
  // append that begins after this drain draws a block past the global
  // counter, so it sorts after everything returned here.
  std::vector<EventRecord> merged;
  for (std::size_t i = 0; i < shard_count_; ++i) {
    Shard& shard = shards_[i];
    shard.ring->consume(
        [&merged](const EventRecord& event) { merged.push_back(event); });
    {
      std::lock_guard<sync::SpinLock> lock(shard.mu);
      if (!shard.overflow.empty()) {
        merged.insert(merged.end(), shard.overflow.begin(),
                      shard.overflow.end());
        shard.overflow.clear();
      }
    }
    shard.seq_cursor.store(0, std::memory_order_relaxed);
  }
  std::sort(merged.begin(), merged.end(), seq_less);

  drained_.fetch_add(merged.size(), std::memory_order_relaxed);
  if (retain_history_.load(std::memory_order_relaxed) && !merged.empty()) {
    auto segment = std::make_shared<const std::vector<EventRecord>>(merged);
    std::lock_guard<sync::SpinLock> lock(archive_mu_);
    archive_segments_.push_back(std::move(segment));
  }
  return merged;
}

std::size_t EventLog::pending() const {
  std::uint64_t appended = 0;
  for (std::size_t i = 0; i < shard_count_; ++i) {
    appended += shards_[i].appended.load(std::memory_order_relaxed);
  }
  const std::uint64_t drained = drained_.load(std::memory_order_relaxed);
  return appended >= drained ? static_cast<std::size_t>(appended - drained)
                             : 0;
}

std::uint64_t EventLog::total_appended() const {
  std::uint64_t appended = 0;
  for (std::size_t i = 0; i < shard_count_; ++i) {
    appended += shards_[i].appended.load(std::memory_order_relaxed);
  }
  return appended;
}

std::uint64_t EventLog::events_lost() const {
  std::uint64_t lost = 0;
  for (std::size_t i = 0; i < shard_count_; ++i) {
    lost += shards_[i].lost.load(std::memory_order_relaxed);
  }
  return lost;
}

void EventLog::set_retention(bool retain) {
  retain_history_.store(retain, std::memory_order_relaxed);
}

bool EventLog::retention() const {
  return retain_history_.load(std::memory_order_relaxed);
}

std::vector<EventRecord> EventLog::pending_snapshot() const {
  std::vector<EventRecord> out;
  for (std::size_t i = 0; i < shard_count_; ++i) {
    Shard& shard = shards_[i];
    shard.ring->peek(
        [&out](const EventRecord& event) { out.push_back(event); });
    std::lock_guard<sync::SpinLock> lock(shard.mu);
    out.insert(out.end(), shard.overflow.begin(), shard.overflow.end());
  }
  std::sort(out.begin(), out.end(), seq_less);
  return out;
}

std::vector<EventRecord> EventLog::history() const {
  if (!retention()) return {};

  // Excluding drains (drain_mu_) keeps "archived" and "pending" disjoint
  // and satisfies the rings' single-consumer-side requirement for peek;
  // appenders are never blocked by history readers.  Drain-boundary seq
  // monotonicity keeps the concatenation in sequence order.
  std::lock_guard<std::mutex> drain_lock(drain_mu_);
  std::vector<Segment> segments;
  {
    std::lock_guard<sync::SpinLock> lock(archive_mu_);
    segments = archive_segments_;
  }
  std::vector<EventRecord> pending_events = pending_snapshot();

  std::size_t total = pending_events.size();
  for (const Segment& segment : segments) total += segment->size();
  std::vector<EventRecord> out;
  out.reserve(total);
  for (const Segment& segment : segments) {
    out.insert(out.end(), segment->begin(), segment->end());
  }
  out.insert(out.end(), pending_events.begin(), pending_events.end());
  return out;
}

}  // namespace robmon::trace
