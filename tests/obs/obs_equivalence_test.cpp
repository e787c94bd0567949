// Observability must be free when off and inert when on (ISSUE 9
// acceptance): a sharded replay with a Registry attached must produce a
// ShardedReport bit-identical to the same run without one — instruments
// count, they never steer — and the counts themselves must reconcile with
// the report and the target statistics exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "p4lru/core/p4lru.hpp"
#include "p4lru/obs/metrics.hpp"
#include "p4lru/replay/replay.hpp"
#include "p4lru/systems/lruindex/db_server.hpp"
#include "p4lru/systems/lruindex/lruindex_target.hpp"
#include "p4lru/trace/trace_gen.hpp"
#include "../test_util.hpp"

namespace p4lru::replay {
namespace {

using FlowCache =
    core::ParallelCache<core::P4lru<FlowKey, std::uint32_t, 3>, FlowKey,
                        std::uint32_t>;

std::vector<ReplayOp<FlowKey, std::uint32_t>> zipf_ops() {
    trace::TraceConfig cfg;
    cfg.seed = 47;
    cfg.total_packets = 40'000;
    cfg.segments = 4;
    return ops_from_packets(trace::generate_trace(cfg));
}

void check_report_equal(const ShardedReport& a, const ShardedReport& b) {
    EXPECT_EQ(a.stats, b.stats);
    EXPECT_EQ(a.shards, b.shards);
    EXPECT_EQ(a.threaded, b.threaded);
    EXPECT_EQ(a.backpressure_waits, b.backpressure_waits);
    EXPECT_EQ(a.drained_inline, b.drained_inline);
    EXPECT_EQ(a.abandoned_workers, b.abandoned_workers);
}

/// No push can ever wait, so the degradation counters are deterministic
/// (zero) and may be compared across runs.
void expect_no_degradation(const ShardedReport& r) {
    EXPECT_EQ(r.backpressure_waits, 0u);
    EXPECT_EQ(r.drained_inline, 0u);
    EXPECT_EQ(r.abandoned_workers, 0u);
}

void check_obs_equivalence(Mode mode) {
    const auto ops = zipf_ops();
    ShardedConfig cfg;
    cfg.shards = 4;
    cfg.batch_ops = 128;
    // A ring that holds every batch (40,000 ops / 128 = 313 < 512): pushes
    // never hit the 500us deadline, whatever the scheduler does.
    cfg.queue_batches = 512;
    cfg.mode = mode;

    FlowCache off_cache(1024, 0x91);
    const auto off =
        testutil::sharded_replay(CacheReplayTarget(off_cache), ops, cfg);

    obs::Registry reg;
    cfg.metrics = &reg;
    FlowCache on_cache(1024, 0x91);
    const auto on =
        testutil::sharded_replay(CacheReplayTarget(on_cache), ops, cfg);

    // Obs-on is bit-identical to obs-off: statistics, report shape, and
    // the final plane bytes.
    check_report_equal(on, off);
    expect_no_degradation(off);
    expect_no_degradation(on);
    std::vector<std::byte> want, got;
    off_cache.storage().save_planes(want);
    on_cache.storage().save_planes(got);
    EXPECT_EQ(want, got);

    // And the instruments reconcile exactly: one batch-apply histogram
    // sample per counted batch, every op accounted for.
    const obs::Snapshot snap = reg.snapshot();
    const std::uint64_t* batches = snap.counter("replay_batches_applied");
    const obs::HistogramSnapshot* lat =
        snap.histogram("replay_batch_apply_ns");
    ASSERT_NE(batches, nullptr);
    ASSERT_NE(lat, nullptr);
    EXPECT_GT(*batches, 0u);
    EXPECT_EQ(lat->count, *batches);
    ASSERT_NE(snap.gauge("replay_shard0_queue_depth"), nullptr)
        << "per-shard depth gauges not registered";
}

TEST(ObsReplayEquivalence, InlineModeBitIdenticalWithMetricsAttached) {
    check_obs_equivalence(Mode::kInline);
}

TEST(ObsReplayEquivalence, ThreadedModeBitIdenticalWithMetricsAttached) {
    check_obs_equivalence(Mode::kThreaded);
}

TEST(ObsReplayEquivalence, NullRegistryIsTheDefaultAndHarmless) {
    const auto ops = zipf_ops();
    ShardedConfig cfg;
    cfg.shards = 2;
    cfg.mode = Mode::kInline;
    ASSERT_EQ(cfg.metrics, nullptr) << "obs must be opt-in";
    FlowCache cache(1024, 0x91);
    const auto rep =
        testutil::sharded_replay(CacheReplayTarget(cache), ops, cfg);
    EXPECT_GT(rep.stats.ops, 0u);
}

TEST(ObsReplayEquivalence, LruIndexTargetCountersMatchStatsExactly) {
    using namespace p4lru::systems::lruindex;
    const DbServer server(10'000, ServerCosts{});
    LruIndexTarget::Config tcfg;
    tcfg.partitions = 4;
    tcfg.units_per_level = 32;

    trace::YcsbConfig wl;
    wl.items = 10'000;
    wl.seed = 9;
    const auto ops = make_index_ops(wl, 5'000);

    obs::Registry reg;
    LruIndexTarget target(server, tcfg);
    target.set_metrics(&reg);
    const auto stats = testutil::sequential_replay(target, ops);

    const obs::Snapshot snap = reg.snapshot();
    ASSERT_NE(snap.counter("lruindex_hits"), nullptr);
    ASSERT_NE(snap.counter("lruindex_misses"), nullptr);
    EXPECT_EQ(*snap.counter("lruindex_hits"), stats.hits);
    EXPECT_EQ(*snap.counter("lruindex_misses"), stats.misses);
    EXPECT_EQ(*snap.counter("lruindex_hits") +
                  *snap.counter("lruindex_misses"),
              stats.ops);

    // Detaching stops the flow; the stats themselves are unaffected.
    target.set_metrics(nullptr);
    LruIndexTarget target2(server, tcfg);
    const auto stats2 = testutil::sequential_replay(target2, ops);
    EXPECT_EQ(stats2, stats);
    EXPECT_EQ(*reg.snapshot().counter("lruindex_hits"), stats.hits)
        << "detached target kept counting";
}

}  // namespace
}  // namespace p4lru::replay
