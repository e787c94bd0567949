#include "p4lru/replay/shard_plan.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "p4lru/replay/affinity.hpp"

namespace p4lru::replay {
namespace {

TEST(ShardPlan, RejectsZeroUnits) {
    EXPECT_THROW(ShardPlan::make(0, 4), std::invalid_argument);
}

TEST(ShardPlan, ClampsShardCount) {
    EXPECT_EQ(ShardPlan::make(8, 0).shards(), 1u);
    EXPECT_EQ(ShardPlan::make(8, 3).shards(), 3u);
    EXPECT_EQ(ShardPlan::make(8, 64).shards(), 8u);
}

TEST(ShardPlan, RangesPartitionTheUnitSpace) {
    for (const std::size_t units : {1u, 7u, 64u, 1000u, 65536u}) {
        for (const std::size_t shards : {1u, 2u, 3u, 8u, 13u}) {
            const auto plan = ShardPlan::make(units, shards);
            std::size_t covered = 0;
            std::size_t prev_end = 0;
            for (std::size_t s = 0; s < plan.shards(); ++s) {
                const auto [first, last] = plan.range(s);
                EXPECT_EQ(first, prev_end);
                EXPECT_LE(first, last);
                covered += last - first;
                prev_end = last;
            }
            EXPECT_EQ(prev_end, units);
            EXPECT_EQ(covered, units);
        }
    }
}

TEST(ShardPlan, OwnerMatchesRange) {
    const auto plan = ShardPlan::make(1000, 7);
    for (std::size_t s = 0; s < plan.shards(); ++s) {
        const auto [first, last] = plan.range(s);
        for (std::size_t b = first; b < last; ++b) {
            EXPECT_EQ(plan.owner(b), s) << "bucket " << b;
        }
    }
}

TEST(ShardPlan, DefaultShardsIsPositive) {
    EXPECT_GE(default_shards(), 1u);
}

#if defined(__linux__)
// The auto-mode decisions count the CPUs this process may run on, not the
// machine's: pinned to one CPU (as under `taskset -c 0`), replay must pick
// one shard and the inline path however many cores the host has.
TEST(ShardPlan, AutoModeFollowsTheAffinityMask) {
    cpu_set_t saved;
    ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
    int first = 0;
    while (!CPU_ISSET(first, &saved)) ++first;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    const std::size_t cpus = pinnable_cpus();
    const std::size_t shards = default_shards();
    const bool threaded = threads_profitable();
    ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
    EXPECT_EQ(cpus, 1u);
    EXPECT_EQ(shards, 1u);
    EXPECT_FALSE(threaded);
}
#endif

TEST(ShardPlan, TryMakeReportsZeroUnitsAsTypedError) {
    const auto bad = ShardPlan::try_make(0, 4);
    ASSERT_FALSE(bad.is_ok());
    EXPECT_EQ(bad.status().code(), ErrorCode::kInvalidArgument);

    const auto good = ShardPlan::try_make(16, 4);
    ASSERT_TRUE(good.is_ok());
    EXPECT_EQ(good.value().shards(), 4u);
}

TEST(ShardPlan, MoreShardsThanUnitsClampsAndStillPartitions) {
    for (const std::size_t units : {1u, 2u, 3u, 5u}) {
        const auto plan = ShardPlan::make(units, 64);
        EXPECT_EQ(plan.shards(), units);
        for (std::size_t s = 0; s < plan.shards(); ++s) {
            const auto [first, last] = plan.range(s);
            EXPECT_EQ(last - first, 1u) << "one unit per shard when clamped";
            EXPECT_EQ(plan.owner(first), s);
        }
    }
}

TEST(ShardPlan, SingleUnitSingleShardOwnsEverything) {
    const auto plan = ShardPlan::make(1, 1);
    EXPECT_EQ(plan.shards(), 1u);
    const auto [first, last] = plan.range(0);
    EXPECT_EQ(first, 0u);
    EXPECT_EQ(last, 1u);
    EXPECT_EQ(plan.owner(0), 0u);
}

/// Property sweep over awkward unit counts (primes, non-powers-of-two,
/// power-of-two±1): for every (units, shards) pair the ranges must cover
/// [0, units) exactly once (coverage + disjointness) and owner() must agree
/// with range() for every single bucket.
TEST(ShardPlan, PropertyCoverageDisjointnessOwnerAgreement) {
    const std::size_t unit_counts[] = {1,  2,  3,   5,   6,   7,  9,
                                       31, 33, 127, 129, 255, 257, 1013};
    const std::size_t shard_counts[] = {1, 2, 3, 4, 5, 7, 8, 16, 2000};
    for (const std::size_t units : unit_counts) {
        for (const std::size_t shards : shard_counts) {
            const auto plan = ShardPlan::make(units, shards);
            ASSERT_LE(plan.shards(), units);
            std::vector<int> owner_of(units, -1);
            for (std::size_t s = 0; s < plan.shards(); ++s) {
                const auto [first, last] = plan.range(s);
                for (std::size_t b = first; b < last; ++b) {
                    ASSERT_EQ(owner_of[b], -1)
                        << "unit " << b << " claimed twice (units=" << units
                        << " shards=" << shards << ")";
                    owner_of[b] = static_cast<int>(s);
                }
            }
            for (std::size_t b = 0; b < units; ++b) {
                ASSERT_NE(owner_of[b], -1)
                    << "unit " << b << " unowned (units=" << units
                    << " shards=" << shards << ")";
                ASSERT_EQ(plan.owner(b),
                          static_cast<std::size_t>(owner_of[b]))
                    << "owner/range disagree at bucket " << b;
            }
        }
    }
}

/// Non-power-of-two unit counts take the division path of owner();
/// powers of two take the shift path. Both must agree with a plain
/// floor(bucket * shards / units).
TEST(ShardPlan, OwnerMatchesExactFormulaOnBothPaths) {
    for (const std::size_t units : {1000u, 1024u}) {
        const auto plan = ShardPlan::make(units, 7);
        for (std::size_t b = 0; b < units; ++b) {
            const auto expect =
                static_cast<std::size_t>(
                    static_cast<unsigned long long>(b) * 7 / units);
            EXPECT_EQ(plan.owner(b), expect) << "units " << units;
        }
    }
}

}  // namespace
}  // namespace p4lru::replay
