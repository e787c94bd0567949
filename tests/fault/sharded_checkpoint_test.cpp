// Sharded checkpoint/resume property test (ISSUE 4 acceptance): for random
// (shard count, batch size, checkpoint cadence, kill point) over Zipf and
// YCSB traces, resuming from a disk-round-tripped checkpoint must land on
// statistics and final plane bytes bit-identical to an uninterrupted per-op
// reference replay — on both storage layouts, with the
// resume free to pick a different shard count / batch size than the
// interrupted run, and including runs whose workers were parked by faults
// or abandoned by the watchdog mid-checkpoint.
#include "p4lru/replay/target_checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "p4lru/core/p4lru.hpp"
#include "p4lru/fault/fault_plan.hpp"
#include "p4lru/trace/trace_gen.hpp"
#include "p4lru/trace/ycsb.hpp"
#include "../test_util.hpp"

namespace p4lru::replay {
namespace {

using Checkpoint = TargetCheckpoint<ReplayStats>;

using FlowCache =
    core::ParallelCache<core::P4lru<FlowKey, std::uint32_t, 3>, FlowKey,
                        std::uint32_t>;
using AosFlowCache =
    core::AosParallelCache<core::P4lru<FlowKey, std::uint32_t, 3>, FlowKey,
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
    cfg.seed = 31;
    cfg.total_packets = 60'000;
    cfg.segments = 4;
    return ops_from_packets(trace::generate_trace(cfg));
}

std::vector<ReplayOp<std::uint64_t, std::uint64_t>> ycsb_ops() {
    trace::YcsbConfig cfg;
    cfg.seed = 41;
    cfg.items = 100'000;
    cfg.zipf_alpha = 0.9;
    trace::YcsbWorkload wl(cfg);
    std::vector<ReplayOp<std::uint64_t, std::uint64_t>> ops;
    ops.reserve(50'000);
    for (const auto& op : wl.generate(50'000)) {
        ops.push_back({op.key, op.key * 2 + 1});
    }
    return ops;
}

/// Checkpointed engine run of `ops` over `cache`, collecting every emitted
/// checkpoint into `cps`.
template <typename Cache, typename Op, typename Faults = fault::NoFaults>
ShardedReport checkpointed(Cache& cache, const std::vector<Op>& ops,
                           const ShardedConfig& cfg,
                           std::uint64_t every_batches,
                           std::vector<Checkpoint>& cps,
                           const Faults& faults = {}) {
    CacheReplayTarget target(cache);
    SpanOpSource source{std::span<const Op>(ops)};
    return replay_target_checkpointed_stream(
               target, source, cfg, every_batches,
               [&](Checkpoint&& cp) { cps.push_back(std::move(cp)); },
               faults)
        .value();
}

/// One randomized trial: sharded replay with checkpoint emission at a
/// random cadence, kill at a random emitted checkpoint, round-trip it
/// through disk, resume on a fresh cache with freshly-randomized replay
/// geometry, and demand bit-exactness against the sequential reference.
/// `chaos` layers worker faults (a self-parking worker and a sleep long
/// enough for the watchdog) on top of the checkpointed run.
template <typename Cache, typename Key, typename Value>
void run_trial(const Cache& ref, const ReplayStats& seq,
               const std::vector<ReplayOp<Key, Value>>& ops,
               std::size_t units, std::uint32_t cache_seed,
               std::mt19937_64& rng, bool chaos) {
    ShardedConfig cfg;
    cfg.shards = 2 + static_cast<std::size_t>(rng() % 5);
    cfg.batch_ops = std::size_t{32} << (rng() % 3);
    cfg.queue_batches = chaos ? 4 : 16;
    cfg.mode = Mode::kThreaded;
    if (chaos) {
        cfg.robust.push_deadline_us = 100;
        cfg.robust.stall_timeout_us = 2'000;
    }
    const std::uint64_t cadence = 1 + rng() % 8;

    fault::FaultPlan plan;
    if (chaos) {
        plan.stall_worker(static_cast<std::uint32_t>(rng() % cfg.shards),
                          rng() % 4);
        plan.delay_batch(static_cast<std::uint32_t>(rng() % cfg.shards),
                         rng() % 8, /*micros=*/20'000);
    }
    const fault::InjectedFaults faults(plan);

    std::vector<Checkpoint> cps;
    Cache first(units, cache_seed);
    const auto rep = checkpointed(first, ops, cfg, cadence, cps, faults);
    ASSERT_EQ(rep.stats, seq) << "checkpointed run diverged";
    expect_same_contents(ref, first);
    ASSERT_FALSE(cps.empty()) << "no checkpoint emitted";
    if (chaos) {
        EXPECT_TRUE(rep.degraded()) << "chaos trial ran clean";
    }

    // Kill point: any emitted checkpoint, through the on-disk format.
    const auto& cp = cps[rng() % cps.size()];
    EXPECT_EQ(cp.stats.ops, cp.cursor)
        << "cut statistics must cover exactly the op prefix";
    testutil::ScopedTempDir tmp{"p4lru_prop_ckpt"};
    const std::string path = tmp.file("cut.ckpt");
    ASSERT_TRUE(write_target_checkpoint(path, cp).is_ok());
    auto rd = read_target_checkpoint_checked<ReplayStats>(path);
    ASSERT_TRUE(rd.is_ok()) << rd.status().to_string();

    ShardedConfig rcfg;
    rcfg.shards = 2 + static_cast<std::size_t>(rng() % 5);
    rcfg.batch_ops = std::size_t{32} << (rng() % 3);
    rcfg.mode = Mode::kThreaded;
    Cache resumed(units, cache_seed);
    const auto res = testutil::resume_replay(
        CacheReplayTarget(resumed), ops, rd.value(), rcfg);
    ASSERT_TRUE(res.is_ok()) << res.status().to_string();
    EXPECT_EQ(res.value().stats, seq) << "resumed run diverged";
    // Degradation telemetry carried through the kill: the resumed report
    // must include everything the interrupted run had already accumulated
    // at the cut (the resume leg can only add to it).
    EXPECT_GE(res.value().backpressure_waits, cp.backpressure_waits);
    EXPECT_GE(res.value().park_wait_us, cp.park_wait_us);
    EXPECT_GE(res.value().drained_inline, cp.drained_inline);
    EXPECT_GE(res.value().abandoned_workers, cp.abandoned_workers);
    expect_same_contents(ref, resumed);

    std::vector<std::byte> want, got;
    ref.storage().save_planes(want);
    resumed.storage().save_planes(got);
    EXPECT_EQ(want, got) << "final plane bytes differ";
}

template <typename Cache, typename Key, typename Value>
void run_property(const std::vector<ReplayOp<Key, Value>>& ops,
                  std::size_t units, std::uint32_t cache_seed,
                  std::uint64_t rng_seed, int trials, bool chaos) {
    Cache ref(units, cache_seed);
    const auto seq = testutil::reference_replay(ref, ops);
    std::mt19937_64 rng(rng_seed);
    for (int t = 0; t < trials; ++t) {
        SCOPED_TRACE("trial " + std::to_string(t));
        run_trial(ref, seq, ops, units, cache_seed, rng, chaos);
        if (::testing::Test::HasFatalFailure()) return;
    }
}

TEST(ShardedCheckpoint, DiskRoundTripResumesBitIdenticalZipfSoa) {
    run_property<FlowCache>(zipf_ops(), 1024, 0x33, 1001, 5, false);
}

TEST(ShardedCheckpoint, DiskRoundTripResumesBitIdenticalZipfAos) {
    run_property<AosFlowCache>(zipf_ops(), 1024, 0x33, 1002, 5, false);
}

TEST(ShardedCheckpoint, DiskRoundTripResumesBitIdenticalYcsb) {
    run_property<KeyCache>(ycsb_ops(), 2048, 0x44, 1003, 5, false);
}

TEST(ShardedCheckpoint, SurvivesParkedAndAbandonedWorkersZipf) {
    run_property<FlowCache>(zipf_ops(), 1024, 0x33, 2001, 4, true);
}

TEST(ShardedCheckpoint, SurvivesParkedAndAbandonedWorkersYcsb) {
    run_property<KeyCache>(ycsb_ops(), 2048, 0x44, 2002, 4, true);
}

TEST(ShardedCheckpoint, InlineModeEmitsPerBlockCheckpoints) {
    const auto ops = zipf_ops();
    FlowCache ref(1024, 0x55);
    const auto seq = testutil::reference_replay(ref, ops);

    ShardedConfig cfg;
    cfg.shards = 4;
    cfg.batch_ops = 256;
    cfg.mode = Mode::kInline;
    std::vector<Checkpoint> cps;
    FlowCache cache(1024, 0x55);
    const auto rep = checkpointed(cache, ops, cfg, /*every_batches=*/16, cps);
    EXPECT_EQ(rep.stats, seq);
    ASSERT_FALSE(cps.empty());
    for (const auto& cp : cps) {
        EXPECT_EQ(cp.stats.ops, cp.cursor);
        ASSERT_EQ(cp.shard_stats.size(), 1u);
        EXPECT_EQ(cp.shard_stats[0], cp.stats);
    }

    FlowCache resumed(1024, 0x55);
    const auto res = testutil::resume_replay(
        CacheReplayTarget(resumed), ops, cps[cps.size() / 2], cfg);
    ASSERT_TRUE(res.is_ok()) << res.status().to_string();
    EXPECT_EQ(res.value().stats, seq);
    expect_same_contents(ref, resumed);
}

/// A drained-inline shard must not break the cut invariant: kill one worker
/// from batch 0, checkpoint mid-run, resume — the checkpoint's shard split
/// accounts the dispatcher-drained ops to the dead worker's shard.
TEST(ShardedCheckpoint, CheckpointAfterInlineDrainStaysConsistent) {
    const auto ops = zipf_ops();
    FlowCache ref(1024, 0x66);
    const auto seq = testutil::reference_replay(ref, ops);

    ShardedConfig cfg;
    cfg.shards = 4;
    cfg.batch_ops = 64;
    cfg.queue_batches = 4;
    cfg.mode = Mode::kThreaded;
    cfg.robust.push_deadline_us = 100;
    cfg.robust.stall_timeout_us = 2'000;

    fault::FaultPlan plan;
    plan.stall_worker(/*shard=*/1, /*at_batch=*/0);
    const fault::InjectedFaults faults(plan);

    std::vector<Checkpoint> cps;
    FlowCache cache(1024, 0x66);
    const auto rep =
        checkpointed(cache, ops, cfg, /*every_batches=*/32, cps, faults);
    EXPECT_GE(rep.drained_inline, 1u);
    EXPECT_EQ(rep.stats, seq);
    ASSERT_FALSE(cps.empty());

    for (const auto& cp : cps) {
        ReplayStats sum;
        for (const auto& s : cp.shard_stats) sum.merge(s);
        EXPECT_EQ(sum, cp.stats);
        EXPECT_EQ(cp.stats.ops, cp.cursor);
    }

    FlowCache resumed(1024, 0x66);
    const auto res = testutil::resume_replay(
        CacheReplayTarget(resumed), ops, cps.back(), cfg);
    ASSERT_TRUE(res.is_ok()) << res.status().to_string();
    EXPECT_EQ(res.value().stats, seq);
    expect_same_contents(ref, resumed);
}

/// Regression: degradation telemetry must survive a kill-and-resume.  A
/// deterministic fault plan (a worker parked from its first batch plus a
/// 20ms batch delay) guarantees the last checkpoint carries nonzero
/// telemetry; resuming fault-free must produce a report that still includes
/// those counts — i.e. the resume merges the saved telemetry instead of
/// restarting it from zero.
TEST(ShardedCheckpoint, TelemetryCarriedAcrossKillAndResume) {
    const auto ops = zipf_ops();
    FlowCache ref(1024, 0x77);
    const auto seq = testutil::reference_replay(ref, ops);

    ShardedConfig cfg;
    cfg.shards = 4;
    cfg.batch_ops = 64;
    cfg.queue_batches = 4;
    cfg.mode = Mode::kThreaded;
    cfg.robust.push_deadline_us = 100;
    cfg.robust.stall_timeout_us = 2'000;

    fault::FaultPlan plan;
    plan.stall_worker(/*shard=*/1, /*at_batch=*/0);
    plan.delay_batch(/*shard=*/2, /*at_batch=*/2, /*micros=*/20'000);
    const fault::InjectedFaults faults(plan);

    std::vector<Checkpoint> cps;
    FlowCache cache(1024, 0x77);
    const auto rep =
        checkpointed(cache, ops, cfg, /*every_batches=*/32, cps, faults);
    EXPECT_EQ(rep.stats, seq);
    EXPECT_TRUE(rep.degraded());
    ASSERT_FALSE(cps.empty());

    // Telemetry in checkpoints is cumulative, so the last one carries the
    // most; the plan above must have degraded the run well before it.
    const Checkpoint& cp = cps.back();
    ASSERT_GE(cp.abandoned_workers + cp.drained_inline, 1u)
        << "fault plan failed to degrade the run before the kill point";

    // Resume fault-free with default robustness: the resume leg adds no
    // degradation of its own, so the carried telemetry must show through.
    ShardedConfig rcfg;
    rcfg.shards = 3;
    rcfg.batch_ops = 128;
    rcfg.mode = Mode::kThreaded;
    FlowCache resumed(1024, 0x77);
    const auto res =
        testutil::resume_replay(CacheReplayTarget(resumed), ops, cp, rcfg);
    ASSERT_TRUE(res.is_ok()) << res.status().to_string();
    EXPECT_EQ(res.value().stats, seq);
    EXPECT_GE(res.value().backpressure_waits, cp.backpressure_waits);
    EXPECT_GE(res.value().park_wait_us, cp.park_wait_us);
    EXPECT_GE(res.value().drained_inline, cp.drained_inline);
    EXPECT_GE(res.value().abandoned_workers, cp.abandoned_workers);
    EXPECT_TRUE(res.value().degraded())
        << "carried telemetry lost across resume";
    expect_same_contents(ref, resumed);
}

}  // namespace
}  // namespace p4lru::replay
