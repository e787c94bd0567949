// Standalone ThreadSanitizer smoke for the sharded replay engine: force the
// threaded path with more workers than cores and aggressive queue churn,
// then check the merged statistics against sequential replay. Built as its
// own binary (replay_tsan_smoke) so a `cmake -DP4LRU_SANITIZE=thread` build
// has a minimal, fast race-detector target; it also runs in plain builds as
// a cheap determinism check.
//
// A second set of rounds runs with checkpoint emission on a tight cadence,
// putting the snapshot quiesce protocol (snap_req/snap_ack/snap_release
// epochs, dispatcher plane reads while workers are parked) under the race
// detector.
//
// The degraded rounds run a FaultPlan through the threaded engine: one
// worker parked from batch 0, one parked mid-run, and one batch delay long
// enough for the watchdog to abandon its worker.  The first round puts the
// `parked` release/acquire hand-off and the dispatcher take-over under the
// race detector during delivery; the second repeats it with a checkpoint
// every 2 delivered batches, so take-overs also happen inside a quiesce.
//
// A further set drives a *system* ReplayTarget (LruMonTarget: per-partition
// sketch + policy + analyzer) through the same threaded engine, so the
// generic-target worker loop — batch apply into partition-owned hash maps,
// merged statistics, canonical state snapshots — is also raced.
//
// A final round runs the crash-recovery supervisor over the threaded
// engine: an injected mid-run crash stops the dispatch loop cooperatively
// (stop_requested polling while workers are parked at a quiesce), the
// durable store installs generations from the dispatcher thread, and the
// retry re-enters the whole threaded machinery — racing the supervisor's
// stop/restart seams that the plain rounds never reach.
//
// The obs rounds put the metrics plane itself under the race detector: an
// N-thread registry hammer (striped counters/histograms + get-or-create
// races) with a live background sampler reading snapshots concurrently,
// and one fully instrumented threaded replay whose report must stay
// bit-identical to the uninstrumented rounds.
//
// The streamed-source rounds feed the threaded engine from a
// ChunkedFileSource: every op crosses two thread boundaries (background
// reader -> consumer over the chunk SPSC queue, then dispatcher -> shard
// workers), so the trace-ingestion handoff races with the engine's own.
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "p4lru/core/p4lru.hpp"
#include "p4lru/fault/fault_plan.hpp"
#include "p4lru/obs/metrics.hpp"
#include "p4lru/obs/sampler.hpp"
#include "p4lru/replay/durable_store.hpp"
#include "p4lru/replay/op_source.hpp"
#include "p4lru/replay/replay.hpp"
#include "p4lru/replay/supervisor.hpp"
#include "p4lru/replay/target_checkpoint.hpp"
#include "p4lru/systems/lrumon/lrumon_target.hpp"
#include "p4lru/trace/trace_gen.hpp"
#include "p4lru/trace/trace_io.hpp"
#include "p4lru/trace/trace_source.hpp"
#include "../test_util.hpp"

int main() {
    using namespace p4lru;
    using Cache = core::ParallelCache<core::P4lru<FlowKey, std::uint32_t, 3>,
                                      FlowKey, std::uint32_t>;

    trace::TraceConfig tcfg;
    tcfg.seed = 13;
    tcfg.total_packets = 100'000;
    tcfg.segments = 4;
    const auto trace = trace::generate_trace(tcfg);
    const auto ops = replay::ops_from_packets(trace);
    const auto span =
        std::span<const replay::ReplayOp<FlowKey, std::uint32_t>>(ops);

    Cache seq_cache(1024, 0x7A);
    const auto seq = testutil::reference_replay(seq_cache, span);

    replay::ShardedConfig cfg;
    cfg.shards = 8;
    cfg.batch_ops = 32;
    cfg.queue_batches = 4;
    cfg.mode = replay::Mode::kThreaded;

    for (int round = 0; round < 5; ++round) {
        // Alternate eager and deferred-init rounds: the deferred ones also
        // exercise the per-worker first-touch writes under the race detector
        // (each worker initializes its own disjoint slab sub-range).
        Cache cache = (round % 2 == 0)
                          ? Cache(1024, 0x7A)
                          : Cache(1024, 0x7A, core::defer_init);
        const auto rep = testutil::sharded_replay(
            replay::CacheReplayTarget(cache), span, cfg);
        if (!(rep.stats == seq) || !cache.materialized()) {
            std::fprintf(stderr,
                         "round %d: sharded stats diverge from sequential "
                         "(ops %llu/%llu hits %llu/%llu)\n",
                         round,
                         static_cast<unsigned long long>(rep.stats.ops),
                         static_cast<unsigned long long>(seq.ops),
                         static_cast<unsigned long long>(rep.stats.hits),
                         static_cast<unsigned long long>(seq.hits));
            return 1;
        }
    }
    std::size_t snapshots = 0;
    for (int round = 0; round < 3; ++round) {
        Cache cache(1024, 0x7A);
        replay::CacheReplayTarget target(cache);
        replay::SpanOpSource source(span);
        std::vector<replay::TargetCheckpoint<replay::ReplayStats>> cps;
        const auto rep =
            replay::replay_target_checkpointed_stream(
                target, source, cfg, /*every_batches=*/64,
                [&](replay::TargetCheckpoint<replay::ReplayStats>&& cp) {
                    cps.push_back(std::move(cp));
                })
                .value();
        snapshots += cps.size();
        if (!(rep.stats == seq) || cps.empty()) {
            std::fprintf(stderr,
                         "checkpointed round %d: diverged (ops %llu/%llu, "
                         "%zu checkpoints)\n",
                         round,
                         static_cast<unsigned long long>(rep.stats.ops),
                         static_cast<unsigned long long>(seq.ops),
                         cps.size());
            return 1;
        }
    }

    // --- degraded rounds (the degradation ladder) -------------------------
    fault::FaultPlan degrade_plan;
    degrade_plan.stall_worker(/*shard=*/0, /*at_batch=*/0)
        .stall_worker(/*shard=*/5, /*at_batch=*/40)
        .delay_batch(/*shard=*/3, /*at_batch=*/2, /*micros=*/50'000);
    const fault::InjectedFaults degrade_faults(degrade_plan);
    replay::ShardedConfig dcfg = cfg;
    dcfg.robust.push_deadline_us = 100;
    dcfg.robust.stall_timeout_us = 2'000;
    std::size_t degraded_cuts = 0;
    for (int round = 0; round < 2; ++round) {
        Cache cache(1024, 0x7A);
        replay::CacheReplayTarget target(cache);
        replay::SpanOpSource source(span);
        bool cuts_consistent = true;
        const auto rep =
            round == 0
                ? replay::replay_target_sharded_stream(target, source, dcfg,
                                                       degrade_faults)
                : replay::replay_target_checkpointed_stream(
                      target, source, dcfg, /*every_batches=*/2,
                      [&](replay::TargetCheckpoint<replay::ReplayStats>&& cp) {
                          cuts_consistent &= cp.stats.ops == cp.cursor;
                          ++degraded_cuts;
                      },
                      degrade_faults);
        if (!rep.is_ok()) {
            std::fprintf(stderr, "degraded round %d: %s\n", round,
                         rep.status().to_string().c_str());
            return 1;
        }
        // Three shards taken over, at least one of them after an abandon.
        const auto& r = rep.value();
        if (!(r.stats == seq) || r.abandoned_workers == 0 ||
            r.drained_inline < 3 || !cuts_consistent) {
            std::fprintf(stderr,
                         "degraded round %d: stats %s, abandoned %llu, "
                         "drained %llu, cuts %s\n",
                         round, r.stats == seq ? "match" : "DIVERGE",
                         static_cast<unsigned long long>(r.abandoned_workers),
                         static_cast<unsigned long long>(r.drained_inline),
                         cuts_consistent ? "consistent" : "INCONSISTENT");
            return 1;
        }
    }

    // --- system-target rounds (generic engine path) ----------------------
    using systems::lrumon::LruMonTarget;
    const auto make_target = [] {
        systems::lrumon::LruMonConfig mcfg;
        mcfg.threshold = 400;
        return LruMonTarget(
            6,
            [](std::size_t p) {
                systems::lrumon::FilterConfig fcfg;
                fcfg.cm_width = 1u << 10;
                fcfg.seed = 0x70EEE + p;
                return systems::lrumon::make_filter(
                    systems::lrumon::FilterKind::kCm, fcfg);
            },
            [](std::size_t p) -> LruMonTarget::PolicyPtr {
                return std::make_unique<cache::P4lruArrayPolicy<
                    std::uint32_t, systems::lrumon::FlowLen, 3,
                    core::AddMerge>>(
                    96, 0xF11 + static_cast<std::uint32_t>(p) * 0x9E37u);
            },
            mcfg);
    };
    const auto pkt_span = std::span<const PacketRecord>(trace);
    LruMonTarget seq_target = make_target();
    const auto seq_sys = testutil::sequential_replay(seq_target, pkt_span);
    std::vector<std::byte> seq_image;
    seq_target.save_state(seq_image);
    for (int round = 0; round < 3; ++round) {
        LruMonTarget target = make_target();
        const auto rep = testutil::sharded_replay(target, pkt_span, cfg);
        std::vector<std::byte> image;
        target.save_state(image);
        if (!(rep.stats == seq_sys) || image != seq_image) {
            std::fprintf(stderr,
                         "system round %d: threaded LruMonTarget diverged "
                         "from sequential (ops %llu/%llu, uploads %llu/%llu, "
                         "state %zu/%zu bytes)\n",
                         round,
                         static_cast<unsigned long long>(rep.stats.ops),
                         static_cast<unsigned long long>(seq_sys.ops),
                         static_cast<unsigned long long>(rep.stats.uploads),
                         static_cast<unsigned long long>(seq_sys.uploads),
                         image.size(), seq_image.size());
            return 1;
        }
    }

    // --- supervised crash-recovery round (threaded engine) ----------------
    testutil::ScopedTempDir scratch{"p4lru_tsan"};
    replay::DurableStoreConfig store_cfg;
    store_cfg.retain = 3;
    store_cfg.sync = false;
    replay::DurableStore store(scratch.file("store"), store_cfg);
    fault::FaultPlan crash_plan;
    crash_plan.crash(3, fault::CrashPoint::kTornInstall, /*section=*/2)
        .crash(7, fault::CrashPoint::kBeforeRename);
    std::deque<Cache> lives;
    auto factory = [&lives] {
        lives.emplace_back(1024, 0x7A);
        return replay::CacheReplayTarget<Cache, FlowKey, std::uint32_t>(
            lives.back());
    };
    replay::SupervisorConfig sup;
    sup.every_batches = 32;
    sup.max_attempts = 4;
    const auto sv = replay::run_supervised(factory, span, cfg, store, sup,
                                           crash_plan);
    if (!sv.is_ok() || !(sv.value().report.stats == seq) ||
        sv.value().crashes != 2) {
        std::fprintf(
            stderr,
            "supervised round: %s (crashes %zu/2)\n",
            sv.is_ok() ? "stats diverge from sequential"
                       : sv.status().to_string().c_str(),
            sv.is_ok() ? sv.value().crashes : 0);
        return 1;
    }

    // --- obs rounds (metrics plane under the race detector) ---------------
    // Registry hammer: writer threads on shared instruments + get-or-create
    // races, while a background sampler snapshots concurrently.
    std::uint64_t hammer_total = 0;
    {
        obs::Registry reg;
        obs::SamplerConfig samp_cfg;
        samp_cfg.period_ms = 1;
        obs::Sampler sampler(reg, samp_cfg);
        obs::Counter* shared_c = reg.counter("tsan_shared");
        obs::Histogram* shared_h = reg.histogram("tsan_shared");
        constexpr std::size_t kThreads = 8;
        constexpr std::uint64_t kIters = 50'000;
        std::vector<std::thread> pool;
        for (std::size_t t = 0; t < kThreads; ++t) {
            pool.emplace_back([&, t] {
                obs::Gauge* g = reg.gauge("tsan_g" + std::to_string(t));
                for (std::uint64_t i = 0; i < kIters; ++i) {
                    shared_c->add(1);
                    shared_h->record(i);
                    g->set(static_cast<std::int64_t>(i));
                    if (i % 4096 == 0) {
                        reg.counter("tsan_late_" + std::to_string(i % 3))
                            ->add(1);
                    }
                }
            });
        }
        for (auto& th : pool) th.join();
        sampler.stop();
        hammer_total = shared_c->value();
        if (hammer_total != kThreads * kIters ||
            shared_h->snapshot().count != kThreads * kIters) {
            std::fprintf(stderr,
                         "obs hammer: merged totals inexact (%llu/%llu)\n",
                         static_cast<unsigned long long>(hammer_total),
                         static_cast<unsigned long long>(kThreads * kIters));
            return 1;
        }
    }

    // Instrumented threaded replay: the engine's metric writes (dispatcher
    // gauges, worker-side batch timings) race-free and report-inert.
    {
        obs::Registry reg;
        replay::ShardedConfig ocfg = cfg;
        ocfg.metrics = &reg;
        Cache cache(1024, 0x7A);
        const auto rep = testutil::sharded_replay(
            replay::CacheReplayTarget(cache), span, ocfg);
        if (!(rep.stats == seq)) {
            std::fprintf(
                stderr,
                "obs round: instrumented stats diverge from sequential "
                "(ops %llu/%llu)\n",
                static_cast<unsigned long long>(rep.stats.ops),
                static_cast<unsigned long long>(seq.ops));
            return 1;
        }
        const auto snap = reg.snapshot();
        const std::uint64_t* batches =
            snap.counter("replay_batches_applied");
        if (batches == nullptr || *batches == 0) {
            std::fprintf(stderr,
                         "obs round: engine published no batch metrics\n");
            return 1;
        }
    }

    // --- streamed-source rounds (chunked reader under the race detector) --
    {
        const std::string trace_path = scratch.file("trace.bin");
        trace::write_trace(trace_path, trace);
        for (int round = 0; round < 3; ++round) {
            trace::ChunkedSourceOptions sopts;
            // Chunk sizes that never divide the batch size: most batches
            // straddle a chunk boundary and go through the stitch buffer.
            sopts.chunk_records = 1'000 + 513 * static_cast<std::size_t>(round);
            auto src = trace::ChunkedFileSource::open(trace_path, sopts);
            if (!src.is_ok()) {
                std::fprintf(stderr, "streamed round %d: open: %s\n", round,
                             src.status().to_string().c_str());
                return 1;
            }
            auto stream = replay::packet_op_source(*src.value());
            Cache cache(1024, 0x7A);
            replay::CacheReplayTarget target(cache);
            const auto rep =
                replay::replay_target_sharded_stream(target, stream, cfg);
            if (!rep.is_ok() || !(rep.value().stats == seq)) {
                std::fprintf(
                    stderr,
                    "streamed round %d: chunked-source threaded replay %s "
                    "(ops %llu/%llu)\n",
                    round,
                    rep.is_ok() ? "diverged from sequential"
                                : rep.status().to_string().c_str(),
                    static_cast<unsigned long long>(
                        rep.is_ok() ? rep.value().stats.ops : 0),
                    static_cast<unsigned long long>(seq.ops));
                return 1;
            }
        }
    }

    std::printf(
        "replay_tsan_smoke: 5 threaded rounds (eager + first-touch) + 3 "
        "checkpointed rounds (%zu quiesce snapshots) + 2 degraded rounds "
        "(%zu quiesce snapshots) + 3 system-target "
        "rounds (LruMonTarget, %llu uploads, %zu-byte canonical state) + 1 "
        "supervised crash-recovery round (%zu attempts, %llu installs) + "
        "obs rounds (%llu hammered adds exact, instrumented replay inert) + "
        "3 streamed chunked-source rounds, 8 shards, stats identical to "
        "sequential (%llu ops, %llu hits, %llu evictions)\n",
        snapshots, degraded_cuts,
        static_cast<unsigned long long>(seq_sys.uploads),
        seq_image.size(), sv.value().attempts,
        static_cast<unsigned long long>(sv.value().installs),
        static_cast<unsigned long long>(hammer_total),
        static_cast<unsigned long long>(seq.ops),
        static_cast<unsigned long long>(seq.hits),
        static_cast<unsigned long long>(seq.evictions));
    return 0;
}
