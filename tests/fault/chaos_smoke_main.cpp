// Standalone chaos smoke for the hardened replay engine: 10 random
// fault-plan seeds (stalls + delays against tiny rings), each checked for
// bit-identical statistics and contents against sequential replay.  Every
// seed is printed before its round, so a failure names the exact FaultPlan
// to replay (`P4LRU_CHAOS_SEEDS=<s1>,<s2>,...` re-runs chosen seeds).
// Built as its own binary (fault_chaos_smoke) so CI can run it nightly-style
// with fresh entropy while the gtest suite stays deterministic.
//
// Each seed runs three rounds: the plain chaos-equivalence round, a
// kill-and-resume round — the same faulted replay with periodic checkpoint
// emission, killed at a seed-chosen checkpoint, persisted to disk, read
// back, and resumed on a fresh cache — and a supervised crash-recovery
// round: the replay driven through a DurableStore-backed supervisor with
// three deterministic crashes (torn temp, torn install, lost rename)
// injected mid-stream, which must restart from the newest valid generation
// each time and still finish bit-identical to sequential.  A fourth,
// streamed round replays the same trace through a ChunkedFileSource whose
// background reader is faulted (short reads, EINTR storms, stalls) on top
// of the engine chaos plan.
//
// The supervised round runs fully instrumented (obs/metrics.hpp): one
// Registry wired through supervisor, engine and durable store, sampled on a
// cadence into <store-dir>/metrics.jsonl; after the run every record must
// re-parse with the library's own reader and the final snapshot's
// supervisor counters must equal the SupervisedReport.
//
// All disk traffic stays inside a per-run mkdtemp scratch directory, so
// parallel smoke invocations never collide.  Set P4LRU_CHAOS_STORE_DIR to
// keep each seed's generational store (under <dir>/seed-<seed>) after
// exit — CI points the p4lru_ckpt and p4lru_metrics CLI smokes at those
// remains.
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "p4lru/core/p4lru.hpp"
#include "p4lru/fault/fault_plan.hpp"
#include "p4lru/obs/exposition.hpp"
#include "p4lru/obs/metrics.hpp"
#include "p4lru/obs/sampler.hpp"
#include "p4lru/replay/durable_store.hpp"
#include "p4lru/replay/op_source.hpp"
#include "p4lru/replay/replay.hpp"
#include "p4lru/replay/supervisor.hpp"
#include "p4lru/replay/target_checkpoint.hpp"
#include "p4lru/trace/trace_gen.hpp"
#include "p4lru/trace/trace_io.hpp"
#include "p4lru/trace/trace_source.hpp"
#include "../test_util.hpp"

namespace {

std::vector<std::uint64_t> pick_seeds() {
    if (const char* env = std::getenv("P4LRU_CHAOS_SEEDS")) {
        std::vector<std::uint64_t> seeds;
        const char* p = env;
        while (*p != '\0') {
            char* end = nullptr;
            const auto v = std::strtoull(p, &end, 10);
            if (end == p) break;
            seeds.push_back(v);
            p = (*end == ',') ? end + 1 : end;
        }
        if (!seeds.empty()) return seeds;
    }
    std::random_device rd;
    std::vector<std::uint64_t> seeds(10);
    for (auto& s : seeds) {
        s = (static_cast<std::uint64_t>(rd()) << 32) | rd();
    }
    return seeds;
}

}  // namespace

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
    cfg.shards = 4;
    cfg.batch_ops = 64;
    cfg.queue_batches = 4;
    cfg.mode = replay::Mode::kThreaded;
    cfg.robust.push_deadline_us = 100;
    cfg.robust.stall_timeout_us = 2'000;

    fault::ChaosSpec spec;
    spec.shards = 4;
    spec.batches = 32;
    spec.stalls = 2;
    spec.delays = 4;
    spec.max_delay_us = 500;

    testutil::ScopedTempDir scratch{"p4lru_chaos"};
    const char* store_env = std::getenv("P4LRU_CHAOS_STORE_DIR");
    const std::string store_base = store_env != nullptr ? store_env : "";

    // On-disk copy of the trace for the streamed I/O-fault rounds: each
    // seed replays it through a ChunkedFileSource whose reader is fed
    // seed-chosen short reads, EINTR storms and stalls on top of the
    // engine's own chaos plan.
    const std::string trace_path = scratch.file("trace.bin");
    trace::write_trace(trace_path, trace);

    const auto seeds = pick_seeds();
    std::size_t degraded_rounds = 0;
    std::size_t crashes_survived = 0;
    for (const auto seed : seeds) {
        std::printf("chaos seed %llu ... ",
                    static_cast<unsigned long long>(seed));
        std::fflush(stdout);
        const auto plan = fault::FaultPlan::chaos(seed, spec);
        const fault::InjectedFaults faults(plan);
        Cache cache(1024, 0x7A);
        const auto rep = testutil::sharded_replay(
            replay::CacheReplayTarget(cache), span, cfg, faults);
        if (!(rep.stats == seq)) {
            std::fprintf(
                stderr,
                "\nchaos seed %llu: stats diverge from sequential "
                "(ops %llu/%llu hits %llu/%llu); re-run with "
                "P4LRU_CHAOS_SEEDS=%llu\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(rep.stats.ops),
                static_cast<unsigned long long>(seq.ops),
                static_cast<unsigned long long>(rep.stats.hits),
                static_cast<unsigned long long>(seq.hits),
                static_cast<unsigned long long>(seed));
            return 1;
        }
        if (rep.degraded()) ++degraded_rounds;

        // Kill-and-resume round: same fault plan, but with periodic
        // checkpoint emission.  Kill at a seed-chosen checkpoint, push it
        // through the disk format, resume on a fresh cache, and demand the
        // sequential statistics and plane bytes again.
        using Checkpoint = replay::TargetCheckpoint<replay::ReplayStats>;
        std::vector<Checkpoint> cps;
        Cache ck_cache(1024, 0x7A);
        replay::CacheReplayTarget ck_target(ck_cache);
        replay::SpanOpSource ck_source(span);
        const auto ck_rep =
            replay::replay_target_checkpointed_stream(
                ck_target, ck_source, cfg, /*every_batches=*/64 + seed % 96,
                [&](Checkpoint&& cp) { cps.push_back(std::move(cp)); },
                faults)
                .value();
        if (!(ck_rep.stats == seq) || cps.empty()) {
            std::fprintf(stderr,
                         "\nchaos seed %llu: checkpointed run diverged "
                         "(ops %llu/%llu, %zu checkpoints); re-run with "
                         "P4LRU_CHAOS_SEEDS=%llu\n",
                         static_cast<unsigned long long>(seed),
                         static_cast<unsigned long long>(ck_rep.stats.ops),
                         static_cast<unsigned long long>(seq.ops), cps.size(),
                         static_cast<unsigned long long>(seed));
            return 1;
        }
        const auto& cp = cps[seed % cps.size()];
        const auto path = scratch.file("p4lru_chaos_ckpt_" +
                                       std::to_string(seed) + ".bin");
        if (const auto st = replay::write_target_checkpoint(path, cp);
            !st.is_ok()) {
            std::fprintf(stderr,
                         "\nchaos seed %llu: write_target_checkpoint: %s\n",
                         static_cast<unsigned long long>(seed),
                         st.to_string().c_str());
            return 1;
        }
        auto rd =
            replay::read_target_checkpoint_checked<replay::ReplayStats>(path);
        if (!rd.is_ok()) {
            std::fprintf(stderr,
                         "\nchaos seed %llu: read_target_checkpoint_checked: "
                         "%s\n",
                         static_cast<unsigned long long>(seed),
                         rd.status().to_string().c_str());
            return 1;
        }
        Cache resumed(1024, 0x7A);
        replay::CacheReplayTarget resumed_target(resumed);
        replay::SpanOpSource resume_source(span);
        const auto res = replay::resume_target_checkpointed_stream(
            resumed_target, resume_source, rd.value(), cfg,
            /*every_batches=*/0, [](auto&&) {}, faults);
        if (!res.is_ok() || !(res.value().stats == seq)) {
            std::fprintf(
                stderr,
                "\nchaos seed %llu: resume from disk checkpoint at cursor "
                "%llu diverged (%s); re-run with P4LRU_CHAOS_SEEDS=%llu\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(cp.cursor),
                res.is_ok() ? "stats mismatch"
                            : res.status().to_string().c_str(),
                static_cast<unsigned long long>(seed));
            return 1;
        }
        std::vector<std::byte> want, got;
        seq_cache.materialize();
        resumed.materialize();
        seq_cache.storage().save_planes(want);
        resumed.storage().save_planes(got);
        if (want != got) {
            std::fprintf(stderr,
                         "\nchaos seed %llu: resumed plane bytes differ from "
                         "sequential; re-run with P4LRU_CHAOS_SEEDS=%llu\n",
                         static_cast<unsigned long long>(seed),
                         static_cast<unsigned long long>(seed));
            return 1;
        }

        // Supervised crash-recovery round: same ops, same engine faults,
        // but driven through the durable store with three deterministic
        // crashes.  Every crash abandons the run's in-memory cache; the
        // supervisor must restore from the newest valid generation and the
        // final stats + plane bytes must still be bit-identical.
        const std::string store_dir =
            store_base.empty()
                ? scratch.file("store-" + std::to_string(seed))
                : store_base + "/seed-" + std::to_string(seed);
        if (!store_base.empty()) {
            std::error_code ec;
            std::filesystem::create_directories(store_base, ec);
        }
        // The supervised round runs fully instrumented: one Registry wired
        // through the supervisor, the replay engine and the durable store,
        // with a background sampler appending snapshots to the store
        // directory (CI later re-reads the JSONL with p4lru_metrics).
        obs::Registry reg;
        replay::DurableStoreConfig store_cfg;
        store_cfg.retain = 3;
        store_cfg.sync = false;  // smoke: correctness, not disk endurance
        store_cfg.metrics = &reg;
        replay::DurableStore store(store_dir, store_cfg);
        replay::ShardedConfig sup_cfg = cfg;
        sup_cfg.metrics = &reg;

        constexpr std::array kPoints = {fault::CrashPoint::kTornTemp,
                                        fault::CrashPoint::kTornInstall,
                                        fault::CrashPoint::kBeforeRename};
        fault::FaultPlan crash_plan;
        std::uint64_t at = 1 + seed % 3;
        for (std::size_t i = 0; i < kPoints.size(); ++i) {
            crash_plan.crash(at, kPoints[(seed + i) % kPoints.size()],
                             /*section=*/(seed >> i) % 3);
            at += 2 + (seed >> (8 + 4 * i)) % 4;
        }

        std::deque<Cache> lives;  // one cache per supervisor attempt
        auto factory = [&lives] {
            lives.emplace_back(1024, 0x7A);
            return replay::CacheReplayTarget<Cache, FlowKey, std::uint32_t>(
                lives.back());
        };
        replay::SupervisorConfig sup;
        sup.every_batches = 16 + seed % 17;
        sup.max_attempts = 8;
        sup.metrics = &reg;
        obs::SamplerConfig samp_cfg;
        samp_cfg.period_ms = 20;
        samp_cfg.jsonl_path = store_dir + "/metrics.jsonl";
        {
            // The store creates its directory lazily on first install; the
            // sampler appends from construction, so make it now.
            std::error_code ec;
            std::filesystem::create_directories(store_dir, ec);
        }
        obs::Sampler sampler(reg, samp_cfg);
        const auto sv = replay::run_supervised(factory, span, sup_cfg, store,
                                               sup, crash_plan, faults);
        sampler.stop();  // final snapshot carries the run's totals
        if (!sv.is_ok() || !(sv.value().report.stats == seq)) {
            std::fprintf(
                stderr,
                "\nchaos seed %llu: supervised run %s; re-run with "
                "P4LRU_CHAOS_SEEDS=%llu\n",
                static_cast<unsigned long long>(seed),
                sv.is_ok() ? "stats diverge from sequential"
                           : sv.status().to_string().c_str(),
                static_cast<unsigned long long>(seed));
            return 1;
        }
        if (sv.value().crashes != kPoints.size() ||
            sv.value().resumed_from_gen == 0) {
            std::fprintf(
                stderr,
                "\nchaos seed %llu: supervisor survived %zu/%zu crashes, "
                "resumed from gen %llu — crash plan did not exercise "
                "recovery; re-run with P4LRU_CHAOS_SEEDS=%llu\n",
                static_cast<unsigned long long>(seed), sv.value().crashes,
                kPoints.size(),
                static_cast<unsigned long long>(sv.value().resumed_from_gen),
                static_cast<unsigned long long>(seed));
            return 1;
        }
        Cache& survivor = lives.back();
        survivor.materialize();
        got.clear();
        survivor.storage().save_planes(got);
        if (want != got) {
            std::fprintf(stderr,
                         "\nchaos seed %llu: supervised plane bytes differ "
                         "from sequential; re-run with "
                         "P4LRU_CHAOS_SEEDS=%llu\n",
                         static_cast<unsigned long long>(seed),
                         static_cast<unsigned long long>(seed));
            return 1;
        }
        crashes_survived += sv.value().crashes;

        // Observability self-check: every JSONL record the sampler wrote
        // must parse with the library's own reader, and the final
        // snapshot's supervisor counters must equal the SupervisedReport —
        // the metrics plane and the report plane never disagree.
        {
            std::FILE* mf = std::fopen(samp_cfg.jsonl_path.c_str(), "rb");
            if (mf == nullptr) {
                std::fprintf(stderr,
                             "\nchaos seed %llu: sampler wrote no JSONL at "
                             "%s\n",
                             static_cast<unsigned long long>(seed),
                             samp_cfg.jsonl_path.c_str());
                return 1;
            }
            std::string text;
            char buf[1 << 14];
            std::size_t n = 0;
            while ((n = std::fread(buf, 1, sizeof(buf), mf)) > 0) {
                text.append(buf, n);
            }
            std::fclose(mf);
            obs::Snapshot last;
            std::size_t records = 0, start = 0;
            while (start < text.size()) {
                std::size_t nl = text.find('\n', start);
                if (nl == std::string::npos) nl = text.size();
                if (nl > start) {
                    const auto parsed = obs::parse_snapshot_json(
                        std::string_view(text).substr(start, nl - start));
                    if (!parsed.is_ok()) {
                        std::fprintf(
                            stderr,
                            "\nchaos seed %llu: metrics JSONL record %zu "
                            "unparseable: %s\n",
                            static_cast<unsigned long long>(seed), records,
                            parsed.status().to_string().c_str());
                        return 1;
                    }
                    last = parsed.value();
                    ++records;
                }
                start = nl + 1;
            }
            const std::uint64_t* mc = last.counter("supervisor_crashes");
            const std::uint64_t* ma = last.counter("supervisor_attempts");
            const std::uint64_t* mi = last.counter("supervisor_installs");
            if (records == 0 || mc == nullptr || ma == nullptr ||
                mi == nullptr || *mc != sv.value().crashes ||
                *ma != sv.value().attempts || *mi != sv.value().installs) {
                std::fprintf(
                    stderr,
                    "\nchaos seed %llu: metrics disagree with the "
                    "SupervisedReport (crashes %llu/%zu attempts %llu/%zu "
                    "installs %llu/%llu over %zu records)\n",
                    static_cast<unsigned long long>(seed),
                    static_cast<unsigned long long>(mc ? *mc : 0),
                    sv.value().crashes,
                    static_cast<unsigned long long>(ma ? *ma : 0),
                    sv.value().attempts,
                    static_cast<unsigned long long>(mi ? *mi : 0),
                    static_cast<unsigned long long>(sv.value().installs),
                    records);
                return 1;
            }
        }

        // Streamed I/O-fault round: the same engine chaos plan, but the ops
        // now arrive through a chunked background reader whose freads are
        // themselves faulted with seed-chosen short reads, EINTR storms and
        // stalls.  Neither layer's misbehavior may move one bit of the
        // statistics — and the obs counters must prove the faults fired.
        {
            trace::ChunkedSourceOptions sopts;
            sopts.chunk_records = 4'096 + seed % 4'099;
            fault::FaultPlan io_plan;
            io_plan.short_read(seed % 8)
                .eintr_read((seed >> 4) % 8, 1 + seed % 3)
                .slow_reader((seed >> 8) % 8, 50 + seed % 200);
            sopts.faults = &io_plan;
            obs::Registry io_reg;
            sopts.metrics = &io_reg;
            auto src = trace::ChunkedFileSource::open(trace_path, sopts);
            if (!src.is_ok()) {
                std::fprintf(stderr,
                             "\nchaos seed %llu: chunked open: %s\n",
                             static_cast<unsigned long long>(seed),
                             src.status().to_string().c_str());
                return 1;
            }
            auto stream = replay::packet_op_source(*src.value());
            Cache io_cache(1024, 0x7A);
            replay::CacheReplayTarget io_target(io_cache);
            const auto io_rep = replay::replay_target_sharded_stream(
                io_target, stream, cfg, faults);
            if (!io_rep.is_ok() || !(io_rep.value().stats == seq)) {
                std::fprintf(
                    stderr,
                    "\nchaos seed %llu: streamed I/O-fault round %s "
                    "(ops %llu/%llu); re-run with P4LRU_CHAOS_SEEDS=%llu\n",
                    static_cast<unsigned long long>(seed),
                    io_rep.is_ok() ? "diverged from sequential"
                                   : io_rep.status().to_string().c_str(),
                    static_cast<unsigned long long>(
                        io_rep.is_ok() ? io_rep.value().stats.ops : 0),
                    static_cast<unsigned long long>(seq.ops),
                    static_cast<unsigned long long>(seed));
                return 1;
            }
            const auto io_snap = io_reg.snapshot();
            const std::uint64_t* shorts =
                io_snap.counter("trace_reader_short_reads");
            const std::uint64_t* eintrs =
                io_snap.counter("trace_reader_eintr_retries");
            if (shorts == nullptr || *shorts == 0 || eintrs == nullptr ||
                *eintrs == 0) {
                std::fprintf(
                    stderr,
                    "\nchaos seed %llu: injected reader faults never fired "
                    "(short_reads=%llu eintr_retries=%llu)\n",
                    static_cast<unsigned long long>(seed),
                    static_cast<unsigned long long>(shorts ? *shorts : 0),
                    static_cast<unsigned long long>(eintrs ? *eintrs : 0));
                return 1;
            }
        }

        std::printf(
            "ok (drained_inline=%llu abandoned=%llu waits=%llu; resumed from "
            "checkpoint %zu/%zu at cursor %llu; supervised: %zu attempts, "
            "%zu crashes, %llu installs, gen %llu restored)\n",
            static_cast<unsigned long long>(rep.drained_inline),
            static_cast<unsigned long long>(rep.abandoned_workers),
            static_cast<unsigned long long>(rep.backpressure_waits),
            static_cast<std::size_t>(seed % cps.size()) + 1, cps.size(),
            static_cast<unsigned long long>(cp.cursor),
            sv.value().attempts, sv.value().crashes,
            static_cast<unsigned long long>(sv.value().installs),
            static_cast<unsigned long long>(sv.value().resumed_from_gen));
    }
    std::printf(
        "fault_chaos_smoke: %zu seeds, %zu degraded rounds, %zu injected "
        "crashes survived, all bit-identical to sequential incl. "
        "disk-checkpoint resume, supervised crash recovery and streamed "
        "I/O-fault replay (%llu ops, %llu hits)\n",
        seeds.size(), degraded_rounds, crashes_survived,
        static_cast<unsigned long long>(seq.ops),
        static_cast<unsigned long long>(seq.hits));
    return 0;
}
