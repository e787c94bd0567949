#include "p4lru/cache/similarity.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "../test_util.hpp"
#include "p4lru/cache/policy.hpp"
#include "p4lru/systems/lrutable/lrutable_target.hpp"
#include "p4lru/trace/trace_gen.hpp"

namespace p4lru::cache {
namespace {

TEST(SimilarityTracker, IdealLruScoresExactlyOne) {
    SimilarityTracker<std::uint32_t> t(100'000);
    IdealLruPolicy<std::uint32_t, std::uint32_t> lru(16);
    const auto keys = testutil::random_keys(20'000, 200, 42, 0.3);
    for (const auto k : keys) {
        const auto a = lru.access(k, k, 0);
        if (a.evicted) t.on_evict(a.evicted_key);
        t.on_access(k);
    }
    ASSERT_GT(t.evictions(), 100u);
    EXPECT_DOUBLE_EQ(t.similarity(), 1.0);
}

TEST(SimilarityTracker, EvictingTheNewestScoresOneOverN) {
    SimilarityTracker<std::uint32_t> t(100);
    for (std::uint32_t k = 1; k <= 10; ++k) t.on_access(k);
    // Evicting key 10 (the most recent of 10): rank 1 -> 1/10.
    t.on_evict(10);
    EXPECT_DOUBLE_EQ(t.similarity(), 0.1);
}

TEST(SimilarityTracker, EvictingTheOldestScoresOne) {
    SimilarityTracker<std::uint32_t> t(100);
    for (std::uint32_t k = 1; k <= 10; ++k) t.on_access(k);
    t.on_evict(1);
    EXPECT_DOUBLE_EQ(t.similarity(), 1.0);
}

TEST(SimilarityTracker, ReaccessMovesKeyToNewest) {
    SimilarityTracker<std::uint32_t> t(100);
    for (std::uint32_t k = 1; k <= 4; ++k) t.on_access(k);
    t.on_access(1);  // 1 becomes newest
    t.on_evict(1);   // rank 1 of 4 -> 0.25
    EXPECT_DOUBLE_EQ(t.similarity(), 0.25);
}

TEST(SimilarityTracker, EvictUnknownKeyThrows) {
    SimilarityTracker<std::uint32_t> t(10);
    t.on_access(1);
    EXPECT_THROW(t.on_evict(2), std::logic_error);
}

TEST(SimilarityTracker, RemoveDoesNotScore) {
    SimilarityTracker<std::uint32_t> t(10);
    t.on_access(1);
    t.on_access(2);
    t.on_remove(1);
    EXPECT_EQ(t.evictions(), 0u);
    EXPECT_EQ(t.cached(), 1u);
}

TEST(SimilarityTracker, ExceedingMaxAccessesThrows) {
    SimilarityTracker<std::uint32_t> t(3);
    t.on_access(1);
    t.on_access(2);
    t.on_access(3);  // exactly at the budget: fine
    EXPECT_THROW(t.on_access(4), std::logic_error);
}

// Brute-force cross-check of the Fenwick ranking on random workloads.
TEST(SimilarityTracker, MatchesBruteForceRanks) {
    const std::size_t ops = 5'000;
    SimilarityTracker<std::uint32_t> t(ops + 10);
    std::unordered_map<std::uint32_t, std::size_t> last;  // brute force
    std::size_t seq = 0;

    rng::Xoshiro256 rng(7);
    stats::Running brute_samples;
    for (std::size_t i = 0; i < ops; ++i) {
        const auto k =
            static_cast<std::uint32_t>(rng.between(1, 40));
        if (rng.chance(0.25) && last.contains(k)) {
            // brute-force rank: 1 + #entries newer than k
            std::size_t newer = 0;
            for (const auto& [key, s] : last) {
                newer += s > last.at(k) ? 1 : 0;
            }
            brute_samples.add(static_cast<double>(newer + 1) /
                              static_cast<double>(last.size()));
            t.on_evict(k);
            last.erase(k);
        } else {
            t.on_access(k);
            last[k] = ++seq;
        }
    }
    ASSERT_GT(t.evictions(), 100u);
    EXPECT_NEAR(t.similarity(), brute_samples.mean(), 1e-12);
}

// FIFO (insertion order, no recency update) must score below ideal LRU on a
// re-referencing stream: it evicts recently re-used entries.
TEST(SimilarityTracker, FifoScoresBelowLru) {
    SimilarityTracker<std::uint32_t> t(200'000);
    std::vector<std::uint32_t> fifo;  // front = oldest
    const std::size_t cap = 32;
    const auto keys = testutil::random_keys(30'000, 300, 9, 0.45);
    for (const auto k : keys) {
        const bool cached =
            std::find(fifo.begin(), fifo.end(), k) != fifo.end();
        if (!cached) {
            fifo.push_back(k);
            if (fifo.size() > cap) {
                t.on_evict(fifo.front());
                fifo.erase(fifo.begin());
            }
            t.on_access(k);
        } else {
            t.on_access(k);  // recency updated in tracker, not in FIFO order
        }
    }
    ASSERT_GT(t.evictions(), 500u);
    EXPECT_LT(t.similarity(), 0.95);
    EXPECT_GT(t.similarity(), 0.2);
}

// ---------------------------------------------------------------------------
// SimilarityTracked: the decorator inside a one-partition LruTable, scoring
// both the read-path placeholder inserts and the landed fills.

using systems::lrutable::LruTableConfig;
using systems::lrutable::LruTableTarget;
using systems::lrutable::VirtualAddress;
using Tracked = SimilarityTracked<VirtualAddress, std::uint32_t>;

std::vector<PacketRecord> nat_trace() {
    trace::TraceConfig tc;
    tc.total_packets = 30'000;
    return trace::generate_trace(tc);
}

struct TrackedRun {
    double similarity = 0.0;
    systems::lrutable::LruTableStats stats;
};

/// Replay `trace` through a one-partition LruTable whose policy is `inner`
/// wrapped in SimilarityTracked with an access budget of `budget`.
TrackedRun run_tracked(
    std::unique_ptr<ReplacementPolicy<VirtualAddress, std::uint32_t>> inner,
    std::size_t budget, const std::vector<PacketRecord>& trace, TimeNs dt) {
    auto tracked = std::make_unique<Tracked>(std::move(inner), budget);
    const Tracked* view = tracked.get();
    LruTableConfig cfg;
    cfg.slow_path_delay = dt;
    LruTableTarget nat(
        1, [&tracked](std::size_t) { return std::move(tracked); }, cfg);
    const auto stats = testutil::sequential_replay(
        nat, std::span<const PacketRecord>(trace));
    return {view->similarity(), stats};
}

std::unique_ptr<ReplacementPolicy<VirtualAddress, std::uint32_t>> p4lru3(
    std::size_t entries) {
    return std::make_unique<
        P4lruArrayPolicy<VirtualAddress, std::uint32_t, 3>>(entries, 0xA);
}

TEST(SimilarityTracked, IdealLruInsideLruTableScoresExactlyOne) {
    const auto trace = nat_trace();
    const auto run = run_tracked(
        std::make_unique<IdealLruPolicy<VirtualAddress, std::uint32_t>>(64),
        2 * trace.size(), trace, 40 * kMicrosecond);
    // Every miss inserts; beyond the 64 entries each one evicts.
    ASSERT_GT(run.stats.misses, 4 * 64u);
    EXPECT_EQ(run.similarity, 1.0);
}

TEST(SimilarityTracked, P4lru3InsideLruTableScoresBelowOne) {
    const auto trace = nat_trace();
    const auto run =
        run_tracked(p4lru3(600), 2 * trace.size(), trace, 10 * kMicrosecond);
    EXPECT_GT(run.similarity, 0.3);
    EXPECT_LE(run.similarity, 1.0);
}

TEST(SimilarityTracked, ExceedingTheAccessBudgetThrows) {
    const auto trace = nat_trace();
    EXPECT_THROW(run_tracked(p4lru3(30), 10, trace, 10 * kMicrosecond),
                 std::logic_error);
    EXPECT_THROW(Tracked(nullptr, 10), std::invalid_argument);
}

}  // namespace
}  // namespace p4lru::cache
