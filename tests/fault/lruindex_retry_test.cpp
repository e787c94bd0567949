// Driver retry-with-backoff against a fault-injected flaky db server: the
// closed loop must absorb transient refusals via retries, give up cleanly
// (counted, not wedged) on persistent ones, and — with no FlakyService
// attached — reproduce the fault-free report bit for bit.
#include <gtest/gtest.h>

#include <cstdint>

#include "p4lru/fault/fault_plan.hpp"
#include "p4lru/systems/lruindex/db_server.hpp"
#include "p4lru/systems/lruindex/driver.hpp"
#include "p4lru/systems/lruindex/index_cache.hpp"

namespace p4lru::systems::lruindex {
namespace {

DriverConfig base_config() {
    DriverConfig cfg;
    cfg.threads = 4;
    cfg.queries = 8'000;
    cfg.workload.items = 10'000;
    cfg.workload.seed = 5;
    return cfg;
}

TEST(DriverRetry, NoFlakyServiceMatchesLegacyDriverExactly) {
    DbServer server_a(10'000, ServerCosts{});
    SeriesIndexCache cache_a(4, 256, 0x21);
    const auto a = run_driver(base_config(), server_a, &cache_a);

    DbServer server_b(10'000, ServerCosts{});
    SeriesIndexCache cache_b(4, 256, 0x21);
    auto cfg = base_config();
    cfg.retry.max_attempts = 2;  // retry knobs are inert without a service
    const auto b = run_driver(cfg, server_b, &cache_b);

    EXPECT_EQ(a.queries, b.queries);
    EXPECT_EQ(a.wrong_replies, b.wrong_replies);
    EXPECT_EQ(a.retries, 0u);
    EXPECT_EQ(b.retries, 0u);
    EXPECT_DOUBLE_EQ(a.throughput_ktps, b.throughput_ktps);
    EXPECT_DOUBLE_EQ(a.avg_latency_us, b.avg_latency_us);
}

TEST(DriverRetry, TransientRefusalsAreRetriedToCompletion) {
    // Each incident fails 2 attempts; with 4 allowed attempts every query
    // eventually succeeds — zero failed queries, correctness intact.
    const fault::FlakyService flaky(/*seed=*/11, /*period=*/8, /*fails=*/2);
    DbServer server(10'000, ServerCosts{});
    SeriesIndexCache cache(4, 256, 0x21);
    auto cfg = base_config();
    cfg.flaky = &flaky;
    cfg.retry.max_attempts = 4;
    const auto r = run_driver(cfg, server, &cache);

    EXPECT_EQ(r.queries, cfg.queries);
    EXPECT_EQ(r.failed_queries, 0u);
    EXPECT_EQ(r.wrong_replies, 0u);
    EXPECT_GT(r.retries, 0u) << "~1/8 of queries should have needed retries";
    // Exactly 2 resends per incident.
    std::uint64_t incidents = 0;
    for (std::uint64_t seq = 0; seq < cfg.queries; ++seq) {
        if (flaky.is_incident(seq)) ++incidents;
    }
    EXPECT_EQ(r.retries, incidents * 2);
}

TEST(DriverRetry, PersistentRefusalsFailCleanlyWithoutWedging) {
    // Incidents fail 5 attempts but only 3 are allowed: those queries must
    // complete as failures — the closed loop still finishes every query.
    const fault::FlakyService flaky(/*seed=*/13, /*period=*/10, /*fails=*/5);
    DbServer server(10'000, ServerCosts{});
    SeriesIndexCache cache(4, 256, 0x21);
    auto cfg = base_config();
    cfg.flaky = &flaky;
    cfg.retry.max_attempts = 3;
    const auto r = run_driver(cfg, server, &cache);

    std::uint64_t incidents = 0;
    for (std::uint64_t seq = 0; seq < cfg.queries; ++seq) {
        if (flaky.is_incident(seq)) ++incidents;
    }
    EXPECT_GT(incidents, 0u);
    EXPECT_EQ(r.queries, cfg.queries) << "failed queries still complete";
    EXPECT_EQ(r.failed_queries, incidents);
    EXPECT_EQ(r.retries, incidents * 2) << "max_attempts-1 resends each";
    EXPECT_EQ(r.wrong_replies, 0u) << "failures are not wrong answers";
}

TEST(DriverRetry, BackoffShowsUpInLatency) {
    DbServer server_a(10'000, ServerCosts{});
    SeriesIndexCache cache_a(4, 256, 0x21);
    const auto clean = run_driver(base_config(), server_a, &cache_a);

    const fault::FlakyService flaky(17, 4, 2);
    DbServer server_b(10'000, ServerCosts{});
    SeriesIndexCache cache_b(4, 256, 0x21);
    auto cfg = base_config();
    cfg.flaky = &flaky;
    cfg.retry.backoff = 100 * kMicrosecond;
    const auto flaky_run = run_driver(cfg, server_b, &cache_b);

    EXPECT_GT(flaky_run.avg_latency_us, clean.avg_latency_us)
        << "retried queries pay their backoff in simulated time";
}

TEST(DriverRetry, BackoffSaturatesAtCeiling) {
    RetryConfig cfg;
    cfg.backoff = 20 * kMicrosecond;
    cfg.max_backoff = 10 * kMillisecond;

    // Pure doubling below the ceiling.
    EXPECT_EQ(retry_backoff(cfg, 0), 20 * kMicrosecond);
    EXPECT_EQ(retry_backoff(cfg, 1), 40 * kMicrosecond);
    EXPECT_EQ(retry_backoff(cfg, 2), 80 * kMicrosecond);
    EXPECT_EQ(retry_backoff(cfg, 8), 5'120 * kMicrosecond);

    // 20us << 9 = 10.24ms crosses the 10ms ceiling: clamped from there on,
    // monotone non-decreasing forever, never overflowing.  Attempt 63+
    // would shift past the width of TimeNs entirely — the old code's UB.
    TimeNs prev = 0;
    for (std::uint32_t attempt = 0; attempt < 80; ++attempt) {
        const TimeNs b = retry_backoff(cfg, attempt);
        EXPECT_GE(b, prev) << "attempt " << attempt;
        EXPECT_LE(b, cfg.max_backoff) << "attempt " << attempt;
        prev = b;
    }
    EXPECT_EQ(retry_backoff(cfg, 9), cfg.max_backoff);
    EXPECT_EQ(retry_backoff(cfg, 63), cfg.max_backoff);
    EXPECT_EQ(retry_backoff(cfg, 64), cfg.max_backoff);
    EXPECT_EQ(retry_backoff(cfg, 0xFFFFFFFFu), cfg.max_backoff);
}

TEST(DriverRetry, BackoffEdgeCases) {
    // Zero base: no delay, regardless of attempt.
    RetryConfig zero;
    zero.backoff = 0;
    EXPECT_EQ(retry_backoff(zero, 0), 0u);
    EXPECT_EQ(retry_backoff(zero, 70), 0u);

    // Base already at/above the ceiling: clamped immediately.
    RetryConfig high;
    high.backoff = 20 * kMillisecond;
    high.max_backoff = 10 * kMillisecond;
    EXPECT_EQ(retry_backoff(high, 0), high.max_backoff);

    // No explicit ceiling (<= 0): still saturates at the last representable
    // doubling instead of shifting into the sign bit.
    RetryConfig open;
    open.backoff = 20 * kMicrosecond;
    open.max_backoff = 0;
    constexpr TimeNs kMax = std::numeric_limits<TimeNs>::max();
    EXPECT_EQ(retry_backoff(open, 40), TimeNs{20'000} << 40);
    EXPECT_EQ(retry_backoff(open, 63), kMax);
    EXPECT_EQ(retry_backoff(open, 200), kMax);
    TimeNs prev = 0;
    for (std::uint32_t attempt = 0; attempt < 100; ++attempt) {
        const TimeNs b = retry_backoff(open, attempt);
        ASSERT_GE(b, prev) << "attempt " << attempt;
        ASSERT_GT(b, 0) << "overflowed at attempt " << attempt;
        prev = b;
    }
}

TEST(DriverRetry, DeepRetryLadderStaysFiniteUnderSaturation) {
    // A persistently refusing server with a deep attempt budget used to
    // push `backoff << k` into signed-overflow UB around k=38 and wreck
    // the simulated clock.  With the clamp the run completes with sane,
    // finite latency; under UBSan this is also the no-overflow witness.
    const fault::FlakyService flaky(/*seed=*/19, /*period=*/6, /*fails=*/80);
    DbServer server(10'000, ServerCosts{});
    SeriesIndexCache cache(4, 256, 0x21);
    auto cfg = base_config();
    cfg.queries = 2'000;
    cfg.flaky = &flaky;
    cfg.retry.max_attempts = 64;  // 63 resends: would shift far past 2^62
    const auto r = run_driver(cfg, server, &cache);

    EXPECT_EQ(r.queries, cfg.queries) << "closed loop wedged";
    EXPECT_GT(r.failed_queries, 0u);
    EXPECT_EQ(r.wrong_replies, 0u);
    EXPECT_GT(r.avg_latency_us, 0.0);
    // 63 resends clamped at 10ms each bounds an incident's tail under ~1s
    // of simulated time; an overflow would have produced garbage (negative
    // or astronomically large) latencies.
    EXPECT_LT(r.avg_latency_us, 2e6) << "latency sum corrupted by overflow";
}

TEST(DriverRetry, ZeroAttemptsRejected) {
    const fault::FlakyService flaky(1, 2, 1);
    DbServer server(100, ServerCosts{});
    SeriesIndexCache cache(2, 64, 0x21);
    auto cfg = base_config();
    cfg.flaky = &flaky;
    cfg.retry.max_attempts = 0;
    EXPECT_THROW((void)run_driver(cfg, server, &cache),
                 std::invalid_argument);
}

}  // namespace
}  // namespace p4lru::systems::lruindex
