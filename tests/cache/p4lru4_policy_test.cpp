#include <gtest/gtest.h>

#include <set>

#include "../test_util.hpp"
#include "p4lru/cache/policy.hpp"

namespace p4lru::cache {
namespace {

using K = std::uint32_t;
using V = std::uint64_t;
using P4 = P4lru4ArrayPolicy<K, V>;

TEST(P4lru4Policy, BasicAccessAndFill) {
    P4 p(64, 1);
    const auto miss = p.access(5, 50, 0);
    EXPECT_FALSE(miss.hit);
    EXPECT_TRUE(miss.inserted);
    // Read-path hit keeps the stored value.
    const auto hit = p.access(5, 999, 1);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.value, 50u);
    // Write-path hit replaces.
    p.fill(5, 999, 2);
    EXPECT_EQ(p.peek(5), std::optional<V>(999));
    EXPECT_EQ(p.name(), "P4LRU4");
}

TEST(P4lru4Policy, CapacityNormalization) {
    EXPECT_EQ(P4(64, 1).capacity_entries(), 64u);
    EXPECT_EQ(P4(66, 1).capacity_entries(), 64u);  // 16 units x 4
}

TEST(P4lru4Policy, ForEachEnumeratesResidentEntries) {
    P4 p(64, 1);
    for (K k = 1; k <= 10; ++k) p.access(k, k * 3, k);
    std::set<K> seen;
    p.for_each([&](const K& k, const V& v) {
        EXPECT_EQ(v, k * 3ull);
        EXPECT_TRUE(seen.insert(k).second);
    });
    EXPECT_GE(seen.size(), 5u);
    for (const K k : seen) EXPECT_TRUE(p.peek(k).has_value());
}

TEST(P4lru4Policy, BucketLruEviction) {
    P4 p(4, 1);  // exactly one unit of 4
    for (K k = 1; k <= 4; ++k) p.access(k, k, 0);
    p.access(1, 1, 0);  // promote 1 -> LRU order: 1 4 3 2
    const auto a = p.fill(9, 9, 0);
    EXPECT_TRUE(a.evicted);
    EXPECT_EQ(a.evicted_key, 2u);
}

// Deeper buckets at equal memory: 4-entry units should not lose to 3-entry
// units on a recency-friendly stream.
TEST(P4lru4Policy, AtLeastAsGoodAsP4lru3AtEqualMemory) {
    const auto keys = testutil::random_keys(60'000, 3000, 5, 0.35);
    const auto run = [&](ReplacementPolicy<K, V>& p) {
        std::size_t hits = 0;
        for (const auto k : keys) hits += p.access(k, k, 0).hit ? 1 : 0;
        return static_cast<double>(hits) / keys.size();
    };
    P4lruArrayPolicy<K, V, 3> p3(1200, 3);
    P4 p4(1200, 3);
    EXPECT_GE(run(p4), run(p3) - 0.005);
}

}  // namespace
}  // namespace p4lru::cache
