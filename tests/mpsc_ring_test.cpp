#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "sync/mpsc_ring.hpp"

namespace robmon::sync {
namespace {

TEST(MpscRingTest, SingleThreadFifo) {
  MpscRing<int> ring(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ring.try_push(i));
  std::vector<int> out;
  EXPECT_EQ(ring.consume([&](int v) { out.push_back(v); }), 5u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(ring.consume([&](int) {}), 0u);
}

TEST(MpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(MpscRing<int>(0).capacity(), 2u);
  EXPECT_EQ(MpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(MpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(MpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(MpscRing<int>(1000).capacity(), 1024u);
}

TEST(MpscRingTest, FullRingRejectsPushUntilConsumed) {
  MpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));
  EXPECT_EQ(ring.size_estimate(), 4u);

  // Consuming frees every slot for reuse.
  EXPECT_EQ(ring.consume([](int) {}), 4u);
  EXPECT_EQ(ring.size_estimate(), 0u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(10 + i));
  EXPECT_FALSE(ring.try_push(99));
}

TEST(MpscRingTest, ConsumeMaxBoundsTheBatch) {
  MpscRing<int> ring(8);
  for (int i = 0; i < 6; ++i) ring.try_push(i);
  std::vector<int> out;
  EXPECT_EQ(ring.consume([&](int v) { out.push_back(v); }, 4), 4u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(ring.consume([&](int v) { out.push_back(v); }), 2u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(MpscRingTest, WrapsAroundManyLaps) {
  MpscRing<std::uint64_t> ring(4);
  std::uint64_t next_expected = 0;
  for (std::uint64_t lap = 0; lap < 1000; ++lap) {
    for (std::uint64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(ring.try_push(lap * 3 + i));
    }
    ASSERT_EQ(ring.consume([&](std::uint64_t v) {
                ASSERT_EQ(v, next_expected);
                ++next_expected;
              }),
              3u);
  }
  EXPECT_EQ(next_expected, 3000u);
}

// The MPSC contract under TSan: concurrent producers, one consumer, no
// element lost or duplicated, per-producer order preserved.
TEST(MpscRingTest, ConcurrentProducersSingleConsumerLossless) {
  constexpr std::uint64_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 20000;
  MpscRing<std::uint64_t> ring(256);

  std::atomic<bool> done{false};
  std::vector<std::uint64_t> consumed;
  consumed.reserve(kProducers * kPerProducer);
  std::thread consumer([&] {
    while (!done.load(std::memory_order_acquire)) {
      ring.consume([&](std::uint64_t v) { consumed.push_back(v); });
    }
    // Final sweep after every producer has finished.
    ring.consume([&](std::uint64_t v) { consumed.push_back(v); });
  });

  std::vector<std::thread> producers;
  for (std::uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        // Encode (producer, index) so the consumer can check order.
        while (!ring.try_push((p << 32) | i)) std::this_thread::yield();
      }
    });
  }
  for (auto& t : producers) t.join();
  done.store(true, std::memory_order_release);
  consumer.join();

  ASSERT_EQ(consumed.size(), kProducers * kPerProducer);
  std::vector<std::uint64_t> next(kProducers, 0);
  for (const std::uint64_t v : consumed) {
    const std::uint64_t p = v >> 32;
    const std::uint64_t i = v & 0xffffffffu;
    ASSERT_LT(p, kProducers);
    // Per-producer FIFO: each producer's elements arrive in push order.
    ASSERT_EQ(i, next[p]);
    ++next[p];
  }
  for (const std::uint64_t n : next) EXPECT_EQ(n, kPerProducer);
}

}  // namespace
}  // namespace robmon::sync
