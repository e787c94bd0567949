// The migration property suite (DESIGN.md §11): every system replay target
// — LruMon, LruTable, LruIndex — produces bit-identical statistics AND
// bit-identical final state images across
//
//   * sequential replay,
//   * inline-batched sharded replay,
//   * threaded-sharded replay over random shard geometry,
//   * a mid-stream kill-and-resume through the generic target checkpoint
//     (in-memory and via the on-disk "P4LRUTGC" round trip), and
//   * threaded replay under injected worker stalls / batch delays.
//
// The properties hold because each target partitions its state into
// disjoint units routed by content hash, the engine preserves per-unit
// arrival order in every mode, and the statistics are integer sums (plus
// min/max timestamps) that merge losslessly.  State images are compared as
// byte vectors: save_state() is the strongest observable the targets have.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "p4lru/cache/policy.hpp"
#include "p4lru/fault/fault_plan.hpp"
#include "p4lru/replay/op_source.hpp"
#include "p4lru/replay/replay_target.hpp"
#include "p4lru/replay/target_checkpoint.hpp"
#include "p4lru/systems/lruindex/lruindex_target.hpp"
#include "p4lru/systems/lrumon/lrumon_target.hpp"
#include "p4lru/systems/lrutable/lrutable_target.hpp"
#include "p4lru/trace/trace_gen.hpp"
#include "p4lru/trace/trace_io.hpp"
#include "p4lru/trace/trace_source.hpp"
#include "p4lru/trace/ycsb.hpp"
#include "../test_util.hpp"

namespace p4lru {
namespace {

using replay::Mode;
using replay::ShardedConfig;

// ---------------------------------------------------------------------------
// Fixtures: small-but-nontrivial op streams and target factories.

std::vector<PacketRecord> zipf_trace(std::uint64_t seed,
                                     std::size_t packets = 40'000) {
    trace::TraceConfig cfg;
    cfg.seed = seed;
    cfg.total_packets = packets;
    cfg.segments = 4;
    return trace::generate_trace(cfg);
}

systems::lrumon::LruMonTarget make_lrumon(std::size_t partitions = 8) {
    using namespace systems::lrumon;
    LruMonConfig cfg;
    cfg.threshold = 400;  // low enough that elephants exist at this scale
    return LruMonTarget(
        partitions,
        [](std::size_t p) {
            FilterConfig fc;
            fc.cm_width = 1u << 12;
            fc.cm_depth = 2;
            fc.seed = 0x70EEE + p;
            return std::make_unique<CmFilter>(fc);
        },
        [](std::size_t p) {
            return std::make_unique<cache::P4lruArrayPolicy<
                std::uint32_t, FlowLen, 3, core::AddMerge>>(
                96, static_cast<std::uint32_t>(0xF11 + p * 0x9E37u));
        },
        cfg);
}

systems::lrutable::LruTableTarget make_lrutable(std::size_t partitions = 6) {
    using namespace systems::lrutable;
    return LruTableTarget(
        partitions,
        [](std::size_t p) {
            return std::make_unique<cache::P4lruArrayPolicy<
                VirtualAddress, std::uint32_t, 3>>(
                120, static_cast<std::uint32_t>(0xAB + p * 0x5bd1u));
        },
        LruTableConfig{});
}

const systems::lruindex::DbServer& shared_db_server() {
    static const systems::lruindex::DbServer server(
        20'000, systems::lruindex::ServerCosts{});
    return server;
}

systems::lruindex::LruIndexTarget make_lruindex(
    const fault::FlakyService* flaky = nullptr) {
    systems::lruindex::LruIndexTarget::Config cfg;
    cfg.partitions = 5;
    cfg.levels = 3;
    cfg.units_per_level = 24;
    cfg.flaky = flaky;
    return systems::lruindex::LruIndexTarget(shared_db_server(), cfg);
}

std::vector<systems::lruindex::LruIndexOp> ycsb_ops(
    std::size_t count = 30'000) {
    trace::YcsbConfig cfg;
    cfg.items = 20'000;
    cfg.zipf_alpha = 0.9;
    return systems::lruindex::make_index_ops(cfg, count);
}

template <typename Target>
std::vector<std::byte> state_of(const Target& t) {
    std::vector<std::byte> out;
    t.save_state(out);
    return out;
}

// ---------------------------------------------------------------------------
// Property 1: sequential == inline == threaded, over random shard geometry.

template <typename Make, typename Op>
void check_mode_equivalence(Make make, const std::vector<Op>& ops,
                            std::uint32_t geometry_seed) {
    auto seq_target = make();
    using Target = decltype(seq_target);
    using Stats = typename Target::Stats;
    const Stats seq = testutil::sequential_replay(seq_target, ops);
    const std::vector<std::byte> seq_state = state_of(seq_target);
    ASSERT_FALSE(seq_state.empty());

    std::mt19937 rng(geometry_seed);
    for (int trial = 0; trial < 6; ++trial) {
        ShardedConfig cfg;
        cfg.shards = 1 + rng() % 6;
        cfg.batch_ops = std::size_t{16} << (rng() % 5);
        cfg.queue_batches = 4 + rng() % 12;
        cfg.mode = trial % 2 == 0 ? Mode::kInline : Mode::kThreaded;
        auto t = make();
        const auto rep = testutil::sharded_replay(t, ops, cfg);
        EXPECT_EQ(rep.stats, seq)
            << "diverged at shards=" << cfg.shards
            << " batch=" << cfg.batch_ops << " mode="
            << (cfg.mode == Mode::kInline ? "inline" : "threaded");
        EXPECT_EQ(state_of(t), seq_state)
            << "state image diverged at shards=" << cfg.shards;
    }
}

TEST(SystemEngineEquivalence, LruMonModesAgree) {
    check_mode_equivalence([] { return make_lrumon(); }, zipf_trace(11),
                           0xA1);
}

TEST(SystemEngineEquivalence, LruTableModesAgree) {
    check_mode_equivalence([] { return make_lrutable(); }, zipf_trace(23),
                           0xB2);
}

TEST(SystemEngineEquivalence, LruIndexModesAgree) {
    check_mode_equivalence([] { return make_lruindex(); }, ycsb_ops(), 0xC3);
}

// ---------------------------------------------------------------------------
// Property 2: a mid-stream kill-and-resume — fresh target, restored from a
// checkpoint, replaying the suffix under a *different* geometry — converges
// to the straight run, in memory and through the on-disk round trip.

template <typename Make, typename Op>
void check_kill_and_resume(Make make, const std::vector<Op>& ops,
                           const std::string& disk_tag) {
    auto seq_target = make();
    using Target = decltype(seq_target);
    using Stats = typename Target::Stats;
    const Stats seq = testutil::sequential_replay(seq_target, ops);
    const std::vector<std::byte> seq_state = state_of(seq_target);

    // Checkpointed run: capture cuts every 8 delivered batches.
    auto live = make();
    std::vector<replay::TargetCheckpoint<Stats>> cps;
    auto sink = [&cps](replay::TargetCheckpoint<Stats>&& cp) {
        cps.push_back(std::move(cp));
    };
    ShardedConfig run_cfg;
    run_cfg.shards = 3;
    run_cfg.batch_ops = 64;
    run_cfg.mode = Mode::kThreaded;
    replay::SpanOpSource source{std::span<const Op>(ops)};
    const auto full = replay::replay_target_checkpointed_stream(
        live, source, run_cfg, 8, sink);
    ASSERT_TRUE(full.is_ok()) << full.status().to_string();
    EXPECT_EQ(full.value().stats, seq) << "checkpointed run diverged";
    ASSERT_FALSE(cps.empty());
    const auto& cp = cps[cps.size() / 2];
    ASSERT_GT(cp.cursor, 0u);
    ASSERT_LT(cp.cursor, ops.size());

    // "Kill": the live target is abandoned; a fresh one resumes the suffix
    // under a different shard count, batch size and mode.
    ShardedConfig resume_cfg;
    resume_cfg.shards = 5;
    resume_cfg.batch_ops = 32;
    resume_cfg.mode = Mode::kInline;
    auto resumed = make();
    const auto res = testutil::resume_replay(resumed, ops, cp, resume_cfg);
    ASSERT_TRUE(res.is_ok()) << res.status().to_string();
    EXPECT_EQ(res.value().stats, seq) << "resumed run diverged";
    EXPECT_EQ(state_of(resumed), seq_state) << "resumed state diverged";
    // The resumed report must carry the cut's degradation telemetry — it
    // reads as one uninterrupted run, never restarting counters from zero.
    EXPECT_GE(res.value().backpressure_waits, cp.backpressure_waits);
    EXPECT_GE(res.value().park_wait_us, cp.park_wait_us);
    EXPECT_GE(res.value().drained_inline, cp.drained_inline);
    EXPECT_GE(res.value().abandoned_workers, cp.abandoned_workers);

    // Disk round trip of the same cut.
    testutil::ScopedTempDir tmp{"p4lru_tgc_" + disk_tag};
    const std::string path = tmp.file("cut.tgc");
    ASSERT_TRUE(replay::write_target_checkpoint(path, cp).is_ok());
    const auto rd = replay::read_target_checkpoint_checked<Stats>(path);
    ASSERT_TRUE(rd.is_ok()) << rd.status().to_string();
    auto from_disk = make();
    resume_cfg.mode = Mode::kThreaded;
    const auto res2 =
        testutil::resume_replay(from_disk, ops, rd.value(), resume_cfg);
    ASSERT_TRUE(res2.is_ok()) << res2.status().to_string();
    EXPECT_EQ(res2.value().stats, seq) << "disk-resumed run diverged";
    EXPECT_EQ(state_of(from_disk), seq_state)
        << "disk-resumed state diverged";
    EXPECT_GE(res2.value().backpressure_waits, rd.value().backpressure_waits);
    EXPECT_GE(res2.value().park_wait_us, rd.value().park_wait_us);
    EXPECT_GE(res2.value().drained_inline, rd.value().drained_inline);
    EXPECT_GE(res2.value().abandoned_workers, rd.value().abandoned_workers);
}

TEST(SystemEngineEquivalence, LruMonKillAndResume) {
    check_kill_and_resume([] { return make_lrumon(); }, zipf_trace(31),
                          "lrumon");
}

TEST(SystemEngineEquivalence, LruTableKillAndResume) {
    check_kill_and_resume([] { return make_lrutable(); }, zipf_trace(37),
                          "lrutable");
}

TEST(SystemEngineEquivalence, LruIndexKillAndResume) {
    check_kill_and_resume([] { return make_lruindex(); }, ycsb_ops(),
                          "lruindex");
}

// ---------------------------------------------------------------------------
// Property 3: injected worker stalls and batch delays change *when* work
// happens, never what — threaded replay under a misbehaving worker still
// matches the sequential baseline, and the degradation ladder engaged.

template <typename Make, typename Op>
void check_stall_equivalence(Make make, const std::vector<Op>& ops) {
    auto seq_target = make();
    using Target = decltype(seq_target);
    using Stats = typename Target::Stats;
    const Stats seq = testutil::sequential_replay(seq_target, ops);
    const std::vector<std::byte> seq_state = state_of(seq_target);

    fault::FaultPlan plan;
    plan.stall_worker(0, 2).delay_batch(1, 3, 120).delay_batch(2, 1, 60);
    const fault::InjectedFaults faults(plan);
    ShardedConfig cfg;
    cfg.shards = 4;
    cfg.batch_ops = 32;
    cfg.mode = Mode::kThreaded;
    auto t = make();
    const auto rep = testutil::sharded_replay(t, ops, cfg, faults);
    EXPECT_EQ(rep.stats, seq) << "stalled run diverged";
    EXPECT_EQ(state_of(t), seq_state) << "stalled state diverged";
    // The stalled worker must actually have been worked around.
    EXPECT_GT(rep.drained_inline + rep.abandoned_workers, 0u);
}

TEST(SystemEngineEquivalence, LruMonWorkerStallsAreInvisible) {
    check_stall_equivalence([] { return make_lrumon(); }, zipf_trace(41));
}

TEST(SystemEngineEquivalence, LruTableWorkerStallsAreInvisible) {
    check_stall_equivalence([] { return make_lrutable(); }, zipf_trace(43));
}

TEST(SystemEngineEquivalence, LruIndexWorkerStallsAreInvisible) {
    check_stall_equivalence([] { return make_lruindex(); }, ycsb_ops());
}

// ---------------------------------------------------------------------------
// Property 4: data faults (op corruption) run on single-owner paths;
// a corrupted key re-routes deterministically, so two inline geometries
// still agree with each other.

TEST(SystemEngineEquivalence, LruMonOpCorruptionIsGeometryInvariant) {
    const auto ops = zipf_trace(47, 20'000);
    fault::FaultPlan plan;
    plan.corrupt_op(500, 0xDEADBEEF).corrupt_op(7'000, 0x42);
    const fault::InjectedFaults faults(plan);

    auto run = [&](std::size_t shards) {
        auto t = make_lrumon();
        ShardedConfig cfg;
        cfg.shards = shards;
        cfg.batch_ops = 48;
        cfg.mode = Mode::kInline;
        const auto rep = testutil::sharded_replay(t, ops, cfg, faults);
        return std::pair{rep.stats, state_of(t)};
    };
    const auto [s1, st1] = run(1);
    const auto [s4, st4] = run(4);
    EXPECT_EQ(s1, s4);
    EXPECT_EQ(st1, st4);

    // And the corruption was not a no-op: the fault-free run differs.
    auto clean = make_lrumon();
    const auto clean_stats = testutil::sequential_replay(clean, ops);
    EXPECT_NE(state_of(clean), st1);
    (void)clean_stats;
}

// ---------------------------------------------------------------------------
// Property 5: a flaky DB server is content-addressed through op.seq, so
// retries and failures are identical in every engine mode.

TEST(SystemEngineEquivalence, LruIndexFlakyServerIsModeInvariant) {
    const auto ops = ycsb_ops(20'000);
    const fault::FlakyService flaky(0xF1A6, 257, 2);

    auto seq_target = make_lruindex(&flaky);
    const auto seq = testutil::sequential_replay(seq_target, ops);
    EXPECT_GT(seq.retries, 0u);
    EXPECT_EQ(seq.wrong_replies, 0u);

    ShardedConfig cfg;
    cfg.shards = 4;
    cfg.batch_ops = 64;
    cfg.mode = Mode::kThreaded;
    auto t = make_lruindex(&flaky);
    const auto rep = testutil::sharded_replay(t, ops, cfg);
    EXPECT_EQ(rep.stats, seq);
    EXPECT_EQ(state_of(t), state_of(seq_target));

    // Exhausting max_attempts completes queries as failures.
    const fault::FlakyService stubborn(0xF1A6, 101, 64);
    auto f = make_lruindex(&stubborn);
    const auto failed = testutil::sequential_replay(f, ops);
    EXPECT_GT(failed.failed_queries, 0u);
}

// ---------------------------------------------------------------------------
// Reports derive from merged statistics only — equal stats, equal reports.

TEST(SystemEngineEquivalence, ReportsDeriveFromMergedStats) {
    const auto trace = zipf_trace(53, 20'000);
    auto a = make_lrumon();
    auto b = make_lrumon();
    const auto sa = testutil::sequential_replay(a, trace);
    ShardedConfig cfg;
    cfg.shards = 3;
    cfg.mode = Mode::kThreaded;
    const auto rb = testutil::sharded_replay(b, trace, cfg);
    ASSERT_EQ(sa, rb.stats);
    const auto ra = a.report(sa);
    const auto rbb = b.report(rb.stats);
    EXPECT_EQ(ra.uploads, rbb.uploads);
    EXPECT_EQ(ra.measured_bytes, rbb.measured_bytes);
    EXPECT_EQ(ra.max_flow_error, rbb.max_flow_error);
    EXPECT_EQ(ra.overestimated_flows, rbb.overestimated_flows);
    EXPECT_EQ(ra.total_bytes, rbb.total_bytes);
    EXPECT_EQ(ra.total_error_rate, rbb.total_error_rate);
    EXPECT_EQ(ra.upload_kpps, rbb.upload_kpps);
}

// ---------------------------------------------------------------------------
// Property 6: the engine is source-agnostic (DESIGN.md §14).  Pulling the
// same on-disk trace through VectorSource, MmapSource, or ChunkedFileSource
// (chunk sized so batches straddle chunk boundaries) yields bit-identical
// stats and state images in every engine mode — and a kill-and-resume may
// switch sources between the cut and the resume without a trace.

enum class SourceKind { kVector, kMmap, kChunked };

constexpr SourceKind kAllSources[] = {SourceKind::kVector, SourceKind::kMmap,
                                      SourceKind::kChunked};

const char* source_label(SourceKind k) {
    switch (k) {
        case SourceKind::kVector: return "vector";
        case SourceKind::kMmap: return "mmap";
        case SourceKind::kChunked: return "chunked";
    }
    return "?";
}

std::unique_ptr<trace::TraceSource> open_source(
    SourceKind kind, const std::string& path,
    const std::vector<PacketRecord>& trace) {
    switch (kind) {
        case SourceKind::kVector:
            return std::make_unique<trace::VectorSource>(
                std::span<const PacketRecord>(trace));
        case SourceKind::kMmap: {
            auto src = trace::MmapSource::open(path);
            if (!src.is_ok()) {
                ADD_FAILURE() << "mmap open: " << src.status().to_string();
                return nullptr;
            }
            return std::move(src).value();
        }
        case SourceKind::kChunked: {
            trace::ChunkedSourceOptions opts;
            opts.chunk_records = 777;  // no batch size divides it: stitching
            auto src = trace::ChunkedFileSource::open(path, opts);
            if (!src.is_ok()) {
                ADD_FAILURE() << "chunked open: " << src.status().to_string();
                return nullptr;
            }
            return std::move(src).value();
        }
    }
    return nullptr;
}

template <typename Make>
void check_source_equivalence(Make make, const std::string& disk_tag) {
    const auto trace = zipf_trace(61, 30'000);
    testutil::ScopedTempDir tmp{"p4lru_src_equiv_" + disk_tag};
    const std::string path = tmp.file("trace.bin");
    trace::write_trace(path, trace);

    // Oracle: in-memory sequential replay over the raw span.
    auto ref_target = make();
    const auto ref = testutil::sequential_replay(ref_target, trace);
    const std::vector<std::byte> ref_state = state_of(ref_target);

    ShardedConfig inline_cfg;
    inline_cfg.shards = 4;
    inline_cfg.batch_ops = 96;
    inline_cfg.mode = Mode::kInline;
    ShardedConfig threaded_cfg;
    threaded_cfg.shards = 3;
    threaded_cfg.batch_ops = 64;
    threaded_cfg.mode = Mode::kThreaded;

    for (const SourceKind kind : kAllSources) {
        auto src = open_source(kind, path, trace);
        ASSERT_NE(src, nullptr);
        replay::PacketTraceOpSource ops(*src);

        auto seq = make();
        const auto seq_run =
            replay::replay_target_sequential_stream(seq, ops);
        ASSERT_TRUE(seq_run.is_ok())
            << source_label(kind) << ": " << seq_run.status().to_string();
        EXPECT_EQ(seq_run.value(), ref)
            << source_label(kind) << " sequential diverged";
        EXPECT_EQ(state_of(seq), ref_state)
            << source_label(kind) << " sequential state diverged";

        ASSERT_TRUE(src->seek(0).is_ok());
        auto inl = make();
        const auto inl_run =
            replay::replay_target_sharded_stream(inl, ops, inline_cfg);
        ASSERT_TRUE(inl_run.is_ok())
            << source_label(kind) << ": " << inl_run.status().to_string();
        EXPECT_EQ(inl_run.value().stats, ref)
            << source_label(kind) << " inline diverged";
        EXPECT_EQ(state_of(inl), ref_state)
            << source_label(kind) << " inline state diverged";

        ASSERT_TRUE(src->seek(0).is_ok());
        auto thr = make();
        const auto thr_run =
            replay::replay_target_sharded_stream(thr, ops, threaded_cfg);
        ASSERT_TRUE(thr_run.is_ok())
            << source_label(kind) << ": " << thr_run.status().to_string();
        EXPECT_EQ(thr_run.value().stats, ref)
            << source_label(kind) << " threaded diverged";
        EXPECT_EQ(state_of(thr), ref_state)
            << source_label(kind) << " threaded state diverged";
    }
}

TEST(SystemEngineEquivalence, LruMonTraceSourcesAgree) {
    check_source_equivalence([] { return make_lrumon(); }, "lrumon");
}

TEST(SystemEngineEquivalence, LruTableTraceSourcesAgree) {
    check_source_equivalence([] { return make_lrutable(); }, "lrutable");
}

TEST(SystemEngineEquivalence, KillAndResumeMaySwitchTraceSources) {
    const auto trace = zipf_trace(67, 30'000);
    testutil::ScopedTempDir tmp{"p4lru_src_resume"};
    const std::string path = tmp.file("trace.bin");
    trace::write_trace(path, trace);

    auto ref_target = make_lrumon();
    using Target = decltype(ref_target);
    using Stats = typename Target::Stats;
    const Stats ref = testutil::sequential_replay(ref_target, trace);
    const std::vector<std::byte> ref_state = state_of(ref_target);

    // Checkpointed run over the background-reader source: cuts every 8
    // delivered batches, cursors are op indices into the stream.
    auto chunked = open_source(SourceKind::kChunked, path, trace);
    ASSERT_NE(chunked, nullptr);
    replay::PacketTraceOpSource ops(*chunked);
    std::vector<replay::TargetCheckpoint<Stats>> cps;
    auto sink = [&cps](replay::TargetCheckpoint<Stats>&& cp) {
        cps.push_back(std::move(cp));
    };
    ShardedConfig run_cfg;
    run_cfg.shards = 3;
    run_cfg.batch_ops = 64;
    run_cfg.mode = Mode::kThreaded;
    auto live = make_lrumon();
    const auto full = replay::replay_target_checkpointed_stream(
        live, ops, run_cfg, 8, sink);
    ASSERT_TRUE(full.is_ok()) << full.status().to_string();
    EXPECT_EQ(full.value().stats, ref) << "checkpointed chunked run diverged";
    ASSERT_FALSE(cps.empty());
    const auto& cp = cps[cps.size() / 2];
    ASSERT_GT(cp.cursor, 0u);
    ASSERT_LT(cp.cursor, trace.size());

    // Resume the suffix through every source kind under a different
    // geometry: the cut must not remember which source produced it.
    ShardedConfig resume_cfg;
    resume_cfg.shards = 5;
    resume_cfg.batch_ops = 32;
    resume_cfg.mode = Mode::kInline;
    for (const SourceKind kind : kAllSources) {
        auto src = open_source(kind, path, trace);
        ASSERT_NE(src, nullptr);
        replay::PacketTraceOpSource resume_ops(*src);
        auto resumed = make_lrumon();
        const auto res = replay::resume_target_checkpointed_stream(
            resumed, resume_ops, cp, resume_cfg, /*every_batches=*/0,
            [](auto&&) {});
        ASSERT_TRUE(res.is_ok())
            << source_label(kind) << ": " << res.status().to_string();
        EXPECT_EQ(res.value().stats, ref)
            << source_label(kind) << " resume diverged";
        EXPECT_EQ(state_of(resumed), ref_state)
            << source_label(kind) << " resume state diverged";
    }
}

}  // namespace
}  // namespace p4lru
