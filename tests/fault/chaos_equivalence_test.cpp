// Chaos equivalence: the hardened replay engine must produce bit-identical
// statistics and final cache state to sequential replay even while workers
// are being stalled, delayed and starved of queue space — the watchdog /
// inline-drain takeover preserves per-unit arrival order, and this suite is
// that claim under test (ISSUE acceptance: chaos equivalence on Zipf and
// YCSB).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "p4lru/core/p4lru.hpp"
#include "p4lru/fault/fault_plan.hpp"
#include "p4lru/replay/replay.hpp"
#include "p4lru/trace/trace_gen.hpp"
#include "p4lru/trace/ycsb.hpp"
#include "../test_util.hpp"

namespace p4lru::replay {
namespace {

using FlowCache =
    core::ParallelCache<core::P4lru<FlowKey, std::uint32_t, 3>, FlowKey,
                        std::uint32_t>;
using KeyCache =
    core::ParallelCache<core::P4lru<std::uint64_t, std::uint64_t, 3>,
                        std::uint64_t, std::uint64_t>;

template <typename CacheA, typename CacheB>
void expect_same_contents(const CacheA& a, const CacheB& b) {
    ASSERT_EQ(a.unit_count(), b.unit_count());
    for (std::size_t u = 0; u < a.unit_count(); ++u) {
        const auto& ua = a.unit(u);
        const auto& ub = b.unit(u);
        ASSERT_EQ(ua.size(), ub.size()) << "unit " << u;
        for (std::size_t i = 1; i <= ua.size(); ++i) {
            EXPECT_EQ(ua.key_at(i), ub.key_at(i)) << "unit " << u;
            EXPECT_EQ(ua.value_at(i), ub.value_at(i)) << "unit " << u;
        }
    }
}

std::vector<ReplayOp<FlowKey, std::uint32_t>> zipf_ops() {
    trace::TraceConfig cfg;
    cfg.seed = 77;
    cfg.total_packets = 120'000;
    cfg.segments = 4;
    return ops_from_packets(trace::generate_trace(cfg));
}

std::vector<ReplayOp<std::uint64_t, std::uint64_t>> ycsb_ops() {
    trace::YcsbConfig cfg;
    cfg.seed = 99;
    cfg.items = 200'000;
    cfg.zipf_alpha = 0.9;
    trace::YcsbWorkload wl(cfg);
    std::vector<ReplayOp<std::uint64_t, std::uint64_t>> ops;
    ops.reserve(80'000);
    for (const auto& op : wl.generate(80'000)) {
        ops.push_back({op.key, op.key * 2 + 1});
    }
    return ops;
}

/// Chaos config: small batches + a tiny ring so a parked worker quickly
/// turns into dispatcher backpressure, and a fast watchdog so tests don't
/// dawdle.
ShardedConfig chaos_config(std::size_t shards) {
    ShardedConfig cfg;
    cfg.shards = shards;
    cfg.batch_ops = 64;
    cfg.queue_batches = 4;
    cfg.mode = Mode::kThreaded;
    cfg.robust.push_deadline_us = 100;
    cfg.robust.stall_timeout_us = 2'000;
    return cfg;
}

TEST(ChaosEquivalence, StalledWorkerIsDrainedInlineZipf) {
    const auto ops = zipf_ops();
    FlowCache seq_cache(1024, 0xC0);
    const auto seq = testutil::reference_replay(seq_cache, ops);

    fault::FaultPlan plan;
    plan.stall_worker(/*shard=*/0, /*at_batch=*/0);  // dead from the start
    plan.stall_worker(/*shard=*/2, /*at_batch=*/8);  // dies mid-run
    const fault::InjectedFaults faults(plan);

    FlowCache cache(1024, 0xC0);
    const auto rep = testutil::sharded_replay(
        CacheReplayTarget(cache), ops, chaos_config(4), faults);

    EXPECT_GE(rep.drained_inline, 1u);
    EXPECT_TRUE(rep.degraded());
    EXPECT_EQ(rep.stats, seq) << "degraded run must stay bit-identical";
    expect_same_contents(seq_cache, cache);
}

TEST(ChaosEquivalence, StalledWorkerIsDrainedInlineYcsb) {
    const auto ops = ycsb_ops();
    KeyCache seq_cache(2048, 0xF1);
    const auto seq = testutil::reference_replay(seq_cache, ops);

    fault::FaultPlan plan;
    plan.stall_worker(1, 0);
    const fault::InjectedFaults faults(plan);

    KeyCache cache(2048, 0xF1);
    const auto rep = testutil::sharded_replay(
        CacheReplayTarget(cache), ops, chaos_config(4), faults);

    EXPECT_GE(rep.drained_inline, 1u);
    EXPECT_EQ(rep.stats, seq);
    expect_same_contents(seq_cache, cache);
}

TEST(ChaosEquivalence, DelayedBatchesOnlySlowThingsDown) {
    const auto ops = zipf_ops();
    FlowCache seq_cache(1024, 0xD1);
    const auto seq = testutil::reference_replay(seq_cache, ops);

    fault::FaultPlan plan;
    for (std::uint64_t b = 0; b < 8; ++b) {
        plan.delay_batch(/*shard=*/b % 4, /*at_batch=*/b * 3, /*micros=*/300);
    }
    const fault::InjectedFaults faults(plan);

    FlowCache cache(1024, 0xD1);
    const auto rep = testutil::sharded_replay(
        CacheReplayTarget(cache), ops, chaos_config(4), faults);

    EXPECT_EQ(rep.stats, seq);
    expect_same_contents(seq_cache, cache);
}

TEST(ChaosEquivalence, EveryWorkerDeadStillCompletes) {
    const auto ops = zipf_ops();
    FlowCache seq_cache(512, 0xA7);
    const auto seq = testutil::reference_replay(seq_cache, ops);

    fault::FaultPlan plan;
    for (std::uint32_t s = 0; s < 4; ++s) plan.stall_worker(s, 0);
    const fault::InjectedFaults faults(plan);

    FlowCache cache(512, 0xA7);
    const auto rep = testutil::sharded_replay(
        CacheReplayTarget(cache), ops, chaos_config(4), faults);

    EXPECT_EQ(rep.stats, seq)
        << "with all workers parked the dispatcher runs the whole replay";
    expect_same_contents(seq_cache, cache);

    // Same plan with rings that hold every batch (120,000 ops / 64 = 1,875
    // < 2,048): no push ever waits, so the dispatcher never notices the
    // parked workers and the post-join sweep must apply every queued batch.
    auto roomy = chaos_config(4);
    roomy.queue_batches = 2'048;
    FlowCache swept(512, 0xA7);
    const auto rep_swept = testutil::sharded_replay(
        CacheReplayTarget(swept), ops, roomy, faults);
    EXPECT_EQ(rep_swept.backpressure_waits, 0u);
    EXPECT_EQ(rep_swept.abandoned_workers, 0u);
    EXPECT_EQ(rep_swept.drained_inline, 4u) << "post-join sweep missed a shard";
    EXPECT_EQ(rep_swept.stats, seq);
    expect_same_contents(seq_cache, swept);
}

TEST(ChaosEquivalence, WatchdogAbandonsWorkerStalledMidSleep) {
    const auto ops = zipf_ops();
    FlowCache seq_cache(1024, 0xB3);
    const auto seq = testutil::reference_replay(seq_cache, ops);

    // A sleep far past the stall timeout wedges the worker while the tiny
    // ring fills: the watchdog must abandon it and finish its shard inline.
    fault::FaultPlan plan;
    plan.delay_batch(/*shard=*/0, /*at_batch=*/2, /*micros=*/50'000);
    const fault::InjectedFaults faults(plan);

    FlowCache cache(1024, 0xB3);
    auto cfg = chaos_config(4);
    cfg.robust.stall_timeout_us = 1'000;
    const auto rep =
        testutil::sharded_replay(CacheReplayTarget(cache), ops, cfg, faults);

    EXPECT_GE(rep.abandoned_workers, 1u);
    EXPECT_GE(rep.drained_inline, 1u);
    // The park-ack wait is backoff sleeps now, not a busy spin, and the
    // slept time is accounted: the worker was mid-50ms-sleep when the
    // watchdog abandoned it, so the dispatcher must have waited.
    EXPECT_GT(rep.park_wait_us, 0u);
    EXPECT_EQ(rep.stats, seq);
    expect_same_contents(seq_cache, cache);
}

TEST(ChaosEquivalence, SeededChaosPlansStayEquivalent) {
    const auto ops = zipf_ops();
    FlowCache seq_cache(1024, 0x5C);
    const auto seq = testutil::reference_replay(seq_cache, ops);

    fault::ChaosSpec spec;
    spec.shards = 4;
    spec.batches = 16;
    spec.stalls = 1;
    spec.delays = 3;
    spec.max_delay_us = 500;

    for (const std::uint64_t seed : {1ull, 7ull, 1234ull}) {
        const auto plan = fault::FaultPlan::chaos(seed, spec);
        const fault::InjectedFaults faults(plan);
        FlowCache cache(1024, 0x5C);
        const auto rep = testutil::sharded_replay(
            CacheReplayTarget(cache), ops, chaos_config(4), faults);
        EXPECT_EQ(rep.stats, seq) << "chaos seed " << seed;
        expect_same_contents(seq_cache, cache);
    }
}

TEST(ChaosEquivalence, NoFaultsRunReportsHealthy) {
    const auto ops = zipf_ops();
    FlowCache cache(1024, 0xE2);
    auto cfg = chaos_config(4);
    // Generous watchdog so a descheduled-but-healthy worker on a loaded CI
    // box is never mistaken for a dead one.
    cfg.robust.stall_timeout_us = 500'000;
    const auto rep =
        testutil::sharded_replay(CacheReplayTarget(cache), ops, cfg);
    EXPECT_EQ(rep.abandoned_workers, 0u);
    EXPECT_FALSE(rep.degraded());
}

}  // namespace
}  // namespace p4lru::replay
