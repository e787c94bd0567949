#include <gtest/gtest.h>

#include <memory>

#include "p4lru/systems/lruindex/db_server.hpp"
#include "p4lru/systems/lruindex/driver.hpp"
#include "p4lru/systems/lruindex/index_cache.hpp"

namespace p4lru::systems::lruindex {
namespace {

ServerCosts quick_costs() {
    ServerCosts c;
    return c;
}

TEST(DbServer, RejectsZeroItems) {
    EXPECT_THROW(DbServer(0, quick_costs()), std::invalid_argument);
}

TEST(DbServer, IndexLookupFindsEveryKey) {
    DbServer server(5'000, quick_costs());
    for (DbKey k = 0; k < 5'000; k += 97) {
        const auto r = server.serve(k, CacheHeader{});
        EXPECT_TRUE(r.valid) << k;
        EXPECT_TRUE(r.used_index) << k;
        EXPECT_EQ(r.addr, server.address_of(k)) << k;
    }
}

TEST(DbServer, MissingKeyIsInvalid) {
    DbServer server(100, quick_costs());
    const auto r = server.serve(100, CacheHeader{});
    EXPECT_FALSE(r.valid);
}

TEST(DbServer, CachedHeaderBypassesIndex) {
    DbServer server(1'000, quick_costs());
    CacheHeader hdr;
    hdr.cached_flag = 1;
    hdr.cached_index = server.address_of(42);
    const auto r = server.serve(42, hdr);
    EXPECT_TRUE(r.valid);
    EXPECT_FALSE(r.used_index);
    EXPECT_EQ(r.lock_time, 0u);
    // Bypass is strictly cheaper than the index walk.
    const auto walk = server.serve(42, CacheHeader{});
    EXPECT_LT(r.service_time, walk.service_time + walk.lock_time);
}

TEST(DbServer, BypassReturnsTheSameRecord) {
    DbServer server(1'000, quick_costs());
    CacheHeader hdr;
    hdr.cached_flag = 2;
    hdr.cached_index = server.address_of(7);
    const auto direct = server.serve(7, hdr);
    const auto indexed = server.serve(7, CacheHeader{});
    EXPECT_EQ(direct.record, indexed.record);
}

TEST(DbServer, StaleCachedIndexFallsBackToIndex) {
    DbServer server(100, quick_costs());
    CacheHeader hdr;
    hdr.cached_flag = 1;
    hdr.cached_index = 0xDEAD00;  // not a valid record address
    const auto r = server.serve(5, hdr);
    EXPECT_TRUE(r.used_index);
    EXPECT_TRUE(r.valid);
}

TEST(SeriesIndexCache, QueryReplyProtocol) {
    SeriesIndexCache cache(4, 64, 0x11);
    EXPECT_FALSE(cache.query(9).hit());
    cache.reply(9, 0x40, CacheHeader{}, 0);
    const auto hdr = cache.query(9);
    EXPECT_TRUE(hdr.hit());
    EXPECT_EQ(hdr.cached_flag, 1u);
    EXPECT_EQ(hdr.cached_index, 0x40u);
    // Promote path must not crash or duplicate.
    cache.reply(9, 0x40, hdr, 0);
    EXPECT_TRUE(cache.series().duplicate_free(9));
}

TEST(Driver, RejectsBadConfig) {
    DbServer server(100, quick_costs());
    DriverConfig cfg;
    cfg.threads = 0;
    EXPECT_THROW((void)run_driver(cfg, server, nullptr),
                 std::invalid_argument);
    cfg = DriverConfig{};
    cfg.use_cache = true;
    EXPECT_THROW((void)run_driver(cfg, server, nullptr),
                 std::invalid_argument);
}

DriverConfig small_driver(std::size_t threads, std::size_t queries,
                          std::uint64_t items) {
    DriverConfig cfg;
    cfg.threads = threads;
    cfg.queries = queries;
    cfg.workload.items = items;
    cfg.workload.seed = 5;
    return cfg;
}

TEST(Driver, CompletesAllQueriesCorrectly) {
    DbServer server(10'000, quick_costs());
    SeriesIndexCache cache(4, 256, 0x21);
    const auto r = run_driver(small_driver(4, 5'000, 10'000), server, &cache);
    EXPECT_EQ(r.queries, 5'000u);
    EXPECT_EQ(r.wrong_replies, 0u);
    EXPECT_GT(r.throughput_ktps, 0.0);
    EXPECT_GT(r.miss_rate, 0.0);
    EXPECT_LT(r.miss_rate, 1.0);
}

TEST(Driver, CacheBeatsNaiveThroughput) {
    DbServer server(50'000, quick_costs());
    SeriesIndexCache cache(4, 1u << 10, 0x31);
    auto cfg = small_driver(8, 20'000, 50'000);
    const auto cached = run_driver(cfg, server, &cache);
    cfg.use_cache = false;
    const auto naive = run_driver(cfg, server, nullptr);
    EXPECT_GT(cached.throughput_ktps, naive.throughput_ktps);
    EXPECT_LT(cached.avg_latency_us, naive.avg_latency_us);
}

TEST(Driver, ThroughputScalesWithThreads) {
    DbServer server(20'000, quick_costs());
    const auto at = [&](std::size_t threads) {
        SeriesIndexCache cache(2, 512, 0x41);
        return run_driver(small_driver(threads, 10'000, 20'000), server,
                          &cache)
            .throughput_ktps;
    };
    const double t1 = at(1);
    const double t4 = at(4);
    const double t8 = at(8);
    EXPECT_GT(t4, 2.0 * t1);
    EXPECT_GT(t8, t4);
    EXPECT_LT(t8, 9.0 * t1);  // sublinear due to the index latch
}

TEST(Driver, SkewMakesCachingEffective) {
    DbServer server(100'000, quick_costs());
    SeriesIndexCache cache(4, 1u << 10, 0x51);
    auto cfg = small_driver(4, 20'000, 100'000);
    cfg.workload.zipf_alpha = 0.99;
    const auto skewed = run_driver(cfg, server, &cache);
    // Cache entries = 4 * 1024 * 3 = 12288 of 100k items, but the hot keys
    // dominate: miss rate must be far below the uniform expectation.
    EXPECT_LT(skewed.miss_rate, 0.75);
}

TEST(Driver, SeriesCacheStaysDuplicateFreeUnderLoad) {
    DbServer server(5'000, quick_costs());
    SeriesIndexCache cache(3, 128, 0x61);
    (void)run_driver(small_driver(4, 10'000, 5'000), server, &cache);
    for (DbKey k = 0; k < 5'000; k += 13) {
        ASSERT_TRUE(cache.series().duplicate_free(k)) << k;
    }
}

TEST(PolicyIndexCache, RunsTheProtocolThroughAnyPolicy) {
    DbServer server(5'000, quick_costs());
    auto cache = std::make_unique<PolicyIndexCache>(
        std::make_unique<cache::IdealLruPolicy<DbKey,
                                               index::RecordAddress>>(2048));
    const auto r = run_driver(small_driver(2, 5'000, 5'000), server,
                              cache.get());
    EXPECT_EQ(r.wrong_replies, 0u);
    EXPECT_LT(r.miss_rate, 1.0);
}

}  // namespace
}  // namespace p4lru::systems::lruindex
