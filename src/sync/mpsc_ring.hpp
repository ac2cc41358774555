// Lock-free bounded MPSC ring buffer (cxxtrace-style slot claiming).
//
// Many producers claim slots with one compare_exchange on the claim cursor;
// each claimed slot is filled and then *published* with a release store on
// the slot's per-slot turn word (Vyukov's bounded-queue scheme).  The single
// consumer walks the published prefix in claimed-slot order and never blocks
// producers: an unpublished slot (a producer preempted between claim and
// publish) simply ends the current consume pass — the slot, and everything
// claimed after it, is picked up by a later pass.
//
// Concurrency contract:
//   * try_push may be called from any number of threads concurrently —
//     lock-free (a failed claim CAS means another producer made progress).
//   * consume is the consumer side: at most one thread at a time,
//     externally serialized (SyntheticMonitor holds apply_mu_).  Different
//     threads may act as the consumer at different times as long as the
//     serialization orders them (a mutex does).
//   * A full ring rejects the push (returns false) instead of overwriting
//     or spinning; the caller owns the overflow/loss policy.
//
// Slot turn protocol (capacity C, all values mod 2^64):
//   turn == pos        slot free for the producer claiming position pos
//   turn == pos + 1    slot published, ready for the consumer at pos
//   turn == pos + C    slot consumed, free for the producer at pos + C
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace robmon::sync {

template <typename T>
class MpscRing {
 public:
  /// Capacity is rounded up to a power of two, minimum 2.
  explicit MpscRing(std::size_t capacity)
      : capacity_(round_up_pow2(capacity < 2 ? 2 : capacity)),
        mask_(capacity_ - 1),
        slots_(std::make_unique<Slot[]>(capacity_)) {
    for (std::size_t i = 0; i < capacity_; ++i) {
      slots_[i].turn.store(i, std::memory_order_relaxed);
    }
  }

  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  /// Producer side: claim a slot, fill it, publish it.  Returns false when
  /// the ring is full (the slot at the claim cursor has not been consumed).
  bool try_push(const T& value) {
    std::uint64_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& slot = slots_[static_cast<std::size_t>(pos) & mask_];
      const std::uint64_t turn = slot.turn.load(std::memory_order_acquire);
      const std::int64_t diff =
          static_cast<std::int64_t>(turn) - static_cast<std::int64_t>(pos);
      if (diff == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          slot.value = value;
          slot.turn.store(pos + 1, std::memory_order_release);
          return true;
        }
        // CAS failure reloaded pos; retry with the new claim cursor.
      } else if (diff < 0) {
        return false;  // One full lap behind: ring is full.
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Consumer side: invoke `fn(value)` on up to `max` published slots in
  /// claimed order, freeing each for reuse.  Stops early at the first
  /// unpublished slot.  Returns the number consumed.
  template <typename Fn>
  std::size_t consume(Fn&& fn, std::size_t max = SIZE_MAX) {
    std::uint64_t pos = tail_.load(std::memory_order_relaxed);
    std::size_t consumed = 0;
    while (consumed < max) {
      Slot& slot = slots_[static_cast<std::size_t>(pos) & mask_];
      if (slot.turn.load(std::memory_order_acquire) != pos + 1) break;
      fn(std::as_const(slot.value));
      slot.turn.store(pos + capacity_, std::memory_order_release);
      ++pos;
      ++consumed;
    }
    tail_.store(pos, std::memory_order_relaxed);
    return consumed;
  }

  std::size_t capacity() const { return capacity_; }

  /// Claimed-minus-consumed estimate; exact when producers are quiesced.
  std::size_t size_estimate() const {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    return head >= tail ? static_cast<std::size_t>(head - tail) : 0;
  }

 private:
  /// Not padded per slot: adjacent-slot sharing costs a little contended
  /// throughput but keeps a 1k-slot ring of small records tens of KB, so
  /// hundreds of monitor-local rings stay cheap.  The cursors below do get
  /// their own lines — they are the truly hot shared words.
  struct Slot {
    std::atomic<std::uint64_t> turn{0};
    T value{};
  };

  static std::size_t round_up_pow2(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  const std::size_t capacity_;
  const std::size_t mask_;
  std::unique_ptr<Slot[]> slots_;
  /// Producer claim cursor and consumer cursor on separate cache lines:
  /// producers never touch tail_, the consumer never writes head_.
  alignas(64) std::atomic<std::uint64_t> head_{0};
  alignas(64) std::atomic<std::uint64_t> tail_{0};
};

}  // namespace robmon::sync
