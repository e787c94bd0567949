#include "p4lru/replay/spsc_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

namespace p4lru::replay {
namespace {

TEST(SpscQueue, CapacityRoundsUpToPowerOfTwo) {
    EXPECT_EQ(SpscQueue<int>(1).capacity(), 2u);
    EXPECT_EQ(SpscQueue<int>(5).capacity(), 8u);
    EXPECT_EQ(SpscQueue<int>(64).capacity(), 64u);
}

TEST(SpscQueue, FifoSingleThread) {
    SpscQueue<int> q(8);
    for (int i = 0; i < 8; ++i) q.push(i);
    int v = -1;
    EXPECT_FALSE(q.try_push(v));  // full
    for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(q.try_pop(v));
        EXPECT_EQ(v, i);
    }
    EXPECT_FALSE(q.try_pop(v));  // empty
}

TEST(SpscQueue, PopDrainsAfterClose) {
    SpscQueue<int> q(8);
    q.push(1);
    q.push(2);
    q.close();
    int v = 0;
    EXPECT_TRUE(q.pop(v));
    EXPECT_EQ(v, 1);
    EXPECT_TRUE(q.pop(v));
    EXPECT_EQ(v, 2);
    EXPECT_FALSE(q.pop(v));  // closed and empty
}

TEST(SpscQueue, TransfersEverythingAcrossThreads) {
    constexpr std::uint64_t kCount = 100'000;
    SpscQueue<std::uint64_t> q(32);
    std::uint64_t sum = 0;
    std::uint64_t received = 0;
    std::thread consumer([&] {
        std::uint64_t v = 0;
        while (q.pop(v)) {
            sum += v;
            ++received;
        }
    });
    for (std::uint64_t i = 1; i <= kCount; ++i) q.push(i);
    q.close();
    consumer.join();
    EXPECT_EQ(received, kCount);
    EXPECT_EQ(sum, kCount * (kCount + 1) / 2);
}

/// Full/empty boundary at the counter-wraparound seam: head_/tail_ are
/// free-running u64s and occupancy is their mod-2^64 difference, so fill →
/// drain cycles far past capacity() must keep reporting full and empty at
/// exactly the right occupancies.
TEST(SpscQueue, FullEmptyBoundaryHoldsAcrossManyWraps) {
    SpscQueue<int> q(4);
    ASSERT_EQ(q.capacity(), 4u);
    int v = 0;
    for (int cycle = 0; cycle < 1'000; ++cycle) {
        EXPECT_EQ(q.size_approx(), 0u);
        EXPECT_FALSE(q.try_pop(v)) << "cycle " << cycle << ": empty pops";
        for (int i = 0; i < 4; ++i) {
            int x = cycle * 4 + i;
            EXPECT_TRUE(q.try_push(x));
        }
        EXPECT_EQ(q.size_approx(), 4u);
        int rejected = -1;
        EXPECT_FALSE(q.try_push(rejected)) << "cycle " << cycle
                                           << ": full accepts";
        EXPECT_EQ(rejected, -1) << "failed push must leave the value intact";
        for (int i = 0; i < 4; ++i) {
            ASSERT_TRUE(q.try_pop(v));
            EXPECT_EQ(v, cycle * 4 + i) << "FIFO across the index wrap";
        }
    }
}

/// Partial-occupancy wraparound: keep one element resident while pushing and
/// popping, so the ring indices cross the wrap point at every alignment.
TEST(SpscQueue, FifoPreservedAtEveryWrapAlignment) {
    SpscQueue<int> q(4);
    int next_in = 0;
    int next_out = 0;
    q.push(next_in++);
    for (int step = 0; step < 500; ++step) {
        q.push(next_in++);
        int v = -1;
        ASSERT_TRUE(q.try_pop(v));
        EXPECT_EQ(v, next_out++);
    }
}

TEST(SpscQueue, TryPushForSucceedsImmediatelyWithRoom) {
    SpscQueue<int> q(4);
    int v = 7;
    EXPECT_TRUE(q.try_push_for(v, std::chrono::microseconds(0)));
    ASSERT_TRUE(q.try_pop(v));
    EXPECT_EQ(v, 7);
}

TEST(SpscQueue, TryPushForTimesOutAgainstFullRing) {
    SpscQueue<int> q(2);
    int a = 1, b = 2, c = 3;
    ASSERT_TRUE(q.try_push(a));
    ASSERT_TRUE(q.try_push(b));
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(q.try_push_for(c, std::chrono::microseconds(2'000)));
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    EXPECT_GE(elapsed, std::chrono::microseconds(2'000));
    EXPECT_EQ(c, 3) << "timed-out push must leave the value intact";
}

TEST(SpscQueue, TryPushForRecoversWhenConsumerResumes) {
    SpscQueue<int> q(2);
    int a = 1, b = 2, c = 3;
    ASSERT_TRUE(q.try_push(a));
    ASSERT_TRUE(q.try_push(b));
    std::thread consumer([&q] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        int v = 0;
        ASSERT_TRUE(q.try_pop(v));
    });
    // Generous deadline: the pop lands well inside it.
    EXPECT_TRUE(q.try_push_for(c, std::chrono::seconds(10)));
    consumer.join();
    int v = 0;
    ASSERT_TRUE(q.try_pop(v));
    EXPECT_EQ(v, 2);
    ASSERT_TRUE(q.try_pop(v));
    EXPECT_EQ(v, 3);
}

TEST(SpscQueue, MoveOnlyPayload) {
    SpscQueue<std::vector<int>> q(4);
    std::vector<int> batch(100);
    std::iota(batch.begin(), batch.end(), 0);
    q.push(std::move(batch));
    std::vector<int> out;
    ASSERT_TRUE(q.try_pop(out));
    ASSERT_EQ(out.size(), 100u);
    EXPECT_EQ(out[99], 99);
}

/// The recycling contract: try_pop leaves the consumer's old element in
/// the slot it emptied, and the producer's next successful push into that
/// slot hands it back.
TEST(SpscQueue, SuccessfulPushReturnsTheSlotsPreviousElement) {
    SpscQueue<int> q(2);
    int a = 1;
    int b = 2;
    ASSERT_TRUE(q.try_push(a));
    ASSERT_TRUE(q.try_push(b));
    EXPECT_EQ(a, 0) << "first lap: the slots held default-constructed ints";
    EXPECT_EQ(b, 0);
    int out = 10;  // what the consumer hands back through slot 0
    ASSERT_TRUE(q.try_pop(out));
    EXPECT_EQ(out, 1);
    out = 11;  // ... and through slot 1
    ASSERT_TRUE(q.try_pop(out));
    EXPECT_EQ(out, 2);
    int c = 3;
    ASSERT_TRUE(q.try_push(c));
    EXPECT_EQ(c, 10) << "slot 0 returns what its last pop left there";
    int d = 4;
    ASSERT_TRUE(q.try_push(d));
    EXPECT_EQ(d, 11) << "slot 1 returns what its last pop left there";
    ASSERT_TRUE(q.try_pop(out));
    EXPECT_EQ(out, 3) << "FIFO is unchanged by the swaps";
}

/// One lap of a vector payload round the ring and back, the way the replay
/// engine drives it: the consumer pops into the buffer it has just
/// applied, and the producer's push into that slot receives the very same
/// buffer (same data pointer, capacity intact), so refilling it allocates
/// nothing.
TEST(SpscQueue, VectorBufferComesBackWithCapacityAfterOneLap) {
    SpscQueue<std::vector<int>> q(2);
    std::vector<int> batch;
    batch.reserve(256);
    batch.assign(200, 7);
    const int* const buffer = batch.data();
    ASSERT_TRUE(q.try_push(batch));  // slot 0
    EXPECT_EQ(batch.capacity(), 0u) << "first lap hands back an empty slot";

    std::vector<int> applied;
    ASSERT_TRUE(q.try_pop(applied));  // slot 0 keeps the empty `applied`
    ASSERT_EQ(applied.size(), 200u);
    EXPECT_EQ(applied.data(), buffer) << "the pop must not copy the batch";

    std::vector<int> second(3, 1);
    ASSERT_TRUE(q.try_push(second));  // slot 1
    ASSERT_TRUE(q.try_pop(applied));  // slot 1 now holds the 200-op buffer
    EXPECT_EQ(applied, std::vector<int>(3, 1));

    std::vector<int> refill;
    ASSERT_TRUE(q.try_push(refill));  // slot 0: the empty vector from above
    EXPECT_TRUE(refill.empty());
    std::vector<int> recycled;
    ASSERT_TRUE(q.try_push(recycled));  // slot 1: the consumer's buffer
    EXPECT_EQ(recycled.data(), buffer);
    EXPECT_GE(recycled.capacity(), 256u) << "capacity survives the lap";
}

}  // namespace
}  // namespace p4lru::replay
