// Micro-benchmarks (google-benchmark): per-operation cost of every layer —
// the behavioural P4LRU unit, the arithmetic-encoded units, the full
// pipeline-model program (orders of magnitude slower: it interprets each
// stage, which is the point — it is a checker, not a fast path), the policy
// implementations, and the sketches.
//
// After the google-benchmark suite (skippable with P4LRU_SKIP_GBENCH=1), the
// trace-replay throughput harness runs: the default 1.2M-packet trace through
// a paper-scale parallel array, sequential vs sharded per worker count, and
// writes the machine-readable baseline BENCH_micro_ops.json (path override:
// P4LRU_BENCH_JSON).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <span>
#include <tuple>
#include <vector>

#include "bench_common.hpp"
#include "p4lru/cache/policy.hpp"
#include "p4lru/common/random.hpp"
#include "p4lru/core/p4lru.hpp"
#include "p4lru/core/p4lru_encoded.hpp"
#include "p4lru/core/parallel_array.hpp"
#include "p4lru/core/simd/scan_kernels.hpp"
#include "p4lru/obs/metrics.hpp"
#include "p4lru/pipeline/p4lru3_program.hpp"
#include "p4lru/replay/op_source.hpp"
#include "p4lru/replay/replay.hpp"
#include "p4lru/replay/target_checkpoint.hpp"
#include "p4lru/sketch/countmin.hpp"
#include "p4lru/sketch/towersketch.hpp"
#include "p4lru/trace/trace_io.hpp"
#include "p4lru/trace/trace_source.hpp"

namespace {

using namespace p4lru;

std::vector<std::uint32_t> keys(std::size_t n, std::uint32_t universe) {
    rng::Xoshiro256 rng(42);
    std::vector<std::uint32_t> out(n);
    for (auto& k : out) {
        k = static_cast<std::uint32_t>(rng.between(1, universe));
    }
    return out;
}

void BM_P4lru3Behavioural(benchmark::State& state) {
    core::P4lru<std::uint32_t, std::uint32_t, 3> unit;
    const auto ks = keys(4096, 64);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(unit.update(ks[i++ & 4095], 1));
    }
}
BENCHMARK(BM_P4lru3Behavioural);

void BM_P4lru3Encoded(benchmark::State& state) {
    core::P4lru3Encoded<std::uint32_t, std::uint32_t> unit;
    const auto ks = keys(4096, 64);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(unit.update(ks[i++ & 4095], 1));
    }
}
BENCHMARK(BM_P4lru3Encoded);

void BM_P4lru2Encoded(benchmark::State& state) {
    core::P4lru2Encoded<std::uint32_t, std::uint32_t> unit;
    const auto ks = keys(4096, 64);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(unit.update(ks[i++ & 4095], 1));
    }
}
BENCHMARK(BM_P4lru2Encoded);

// Default storage (the SoA slab for behavioural units).
void BM_ParallelArrayUpdate(benchmark::State& state) {
    core::ParallelCache<core::P4lru<std::uint32_t, std::uint32_t, 3>,
                        std::uint32_t, std::uint32_t>
        array(static_cast<std::size_t>(state.range(0)), 7);
    const auto ks = keys(4096, 1u << 20);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(array.update(ks[i++ & 4095], 1));
    }
}
BENCHMARK(BM_ParallelArrayUpdate)->Arg(1 << 10)->Arg(1 << 16);

// Same array pinned to the AoS reference layout — the head-to-head for the
// layout split.
void BM_ParallelArrayUpdateAos(benchmark::State& state) {
    core::AosParallelCache<core::P4lru<std::uint32_t, std::uint32_t, 3>,
                           std::uint32_t, std::uint32_t>
        array(static_cast<std::size_t>(state.range(0)), 7);
    const auto ks = keys(4096, 1u << 20);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(array.update(ks[i++ & 4095], 1));
    }
}
BENCHMARK(BM_ParallelArrayUpdateAos)->Arg(1 << 10)->Arg(1 << 16);

void BM_PipelineProgramUpdate(benchmark::State& state) {
    pipeline::P4lru3PipelineCache cache(1u << 10, 7,
                                        pipeline::ValueMode::kReadCache);
    const auto ks = keys(4096, 1u << 16);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.update(ks[i++ & 4095], 1));
    }
}
BENCHMARK(BM_PipelineProgramUpdate);

void BM_IdealLruAccess(benchmark::State& state) {
    cache::IdealLruPolicy<std::uint32_t, std::uint32_t> lru(
        static_cast<std::size_t>(state.range(0)));
    const auto ks = keys(4096, 1u << 16);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(lru.access(ks[i++ & 4095], 1, 0));
    }
}
BENCHMARK(BM_IdealLruAccess)->Arg(1 << 10)->Arg(1 << 16);

void BM_TimeoutPolicyAccess(benchmark::State& state) {
    cache::TimeoutPolicy<std::uint32_t, std::uint32_t> p(1 << 14, 7,
                                                         kMillisecond);
    const auto ks = keys(4096, 1u << 16);
    std::size_t i = 0;
    TimeNs now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(p.access(ks[i++ & 4095], 1, now));
        now += 100;
    }
}
BENCHMARK(BM_TimeoutPolicyAccess);

void BM_TowerSketchAdd(benchmark::State& state) {
    sketch::TowerSketch<std::uint32_t> tower(
        {{1u << 16, 8}, {1u << 15, 16}}, 7);
    const auto ks = keys(4096, 1u << 20);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tower.add_and_estimate(ks[i++ & 4095], 64));
    }
}
BENCHMARK(BM_TowerSketchAdd);

void BM_CountMinAdd(benchmark::State& state) {
    sketch::CountMin<std::uint32_t> cm(1u << 16, 2, 7);
    const auto ks = keys(4096, 1u << 20);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cm.add_and_estimate(ks[i++ & 4095], 64));
    }
}
BENCHMARK(BM_CountMinAdd);

void BM_Crc32FlowKey(benchmark::State& state) {
    FlowKey f;
    f.src_ip = 0x0A000001;
    f.dst_ip = 0xC0A80001;
    f.src_port = 1234;
    f.dst_port = 443;
    f.proto = 6;
    const hash::FlowHasher h(7, 1u << 16);
    for (auto _ : state) {
        benchmark::DoNotOptimize(h.slot(f));
        f.src_port++;
    }
}
BENCHMARK(BM_Crc32FlowKey);

// ---------------------------------------------------------------------------
// Trace-replay throughput: both storage layouts (AoS reference vs SoA slab),
// sequential vs sharded engine, on the default bench trace. Aggregate
// statistics must be identical across every series of both layouts (the
// engine's and the slab's bit-equivalence guarantees, asserted at full
// scale).

using ReplayOp = replay::ReplayOp<FlowKey, std::uint32_t>;
using ReplaySpan = std::span<const ReplayOp>;

/// Per-op sequential replay: every op routed and applied on its own
/// (replay_target_sequential_stream over the cache's target).
template <typename Cache>
replay::ReplayStats replay_per_op(Cache& cache, ReplaySpan span) {
    replay::CacheReplayTarget target(cache);
    replay::SpanOpSource<ReplayOp> source(span);
    return replay::replay_target_sequential_stream(target, source).value();
}

/// The engine over the cache's target: sharded per `cfg`.
template <typename Cache>
replay::ShardedReport replay_engine(Cache& cache, ReplaySpan span,
                                    const replay::ShardedConfig& cfg) {
    replay::CacheReplayTarget target(cache);
    replay::SpanOpSource<ReplayOp> source(span);
    return replay::replay_target_sharded_stream(target, source, cfg).value();
}

/// Batched sequential replay: the engine inline on one shard — hashing
/// hoisted per 256-op block, each op's unit prefetched ahead of its update.
template <typename Cache>
replay::ShardedReport replay_batched(Cache& cache, ReplaySpan span,
                                     std::uint64_t scrub_every = 0) {
    replay::ShardedConfig cfg;
    cfg.shards = 1;
    cfg.mode = replay::Mode::kInline;
    cfg.robust.scrub_every = scrub_every;
    return replay_engine(cache, span, cfg);
}

/// Scan kernel the next replay run will execute (override-aware).
const char* active_kernel_name() {
    return core::simd::kernel_name(core::simd::active_kernel());
}

/// Sequential (per-op and batched) + sharded{1,2,4,8} series for one cache
/// layout.  Each series runs kReps times on a fresh cache; best wall time
/// is reported (standard throughput practice — the floor is the signal).
/// On a machine with one usable hardware thread the multi-worker sweep is
/// skipped: those rows would measure queue overhead of an inline fallback,
/// not parallel speedup, and have historically been mistaken for the
/// latter.  Returns the layout's best per-op sequential wall time;
/// *stats_out receives the sequential stats.
template <typename Cache>
double run_layout_series(ReplaySpan span, std::size_t units,
                         ConsoleTable& table,
                         std::vector<bench::ReplayJsonSeries>& json,
                         replay::ReplayStats* stats_out) {
    const char* layout = Cache::storage_type::layout_name();
    const char* kernel = active_kernel_name();
    constexpr int kReps = 3;

    // Warmup: touch the trace and code paths once, off the clock.
    {
        Cache warm(units, 0xE1);
        (void)replay_per_op(
            warm, span.subspan(0, std::min<std::size_t>(span.size(),
                                                        100'000)));
    }

    replay::ReplayStats seq_stats;
    double seq_seconds = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
        Cache cache(units, 0xE1);
        bench::StopWatch w;
        const auto s = replay_per_op(cache, span);
        const double secs = w.seconds();
        if (rep == 0 || secs < seq_seconds) seq_seconds = secs;
        seq_stats = s;
    }
    {
        const stats::Throughput tp{seq_stats.ops, seq_seconds};
        table.add_row({"sequential", layout, "1", "sequential", kernel,
                       "per_op", ConsoleTable::num(seq_seconds, 3),
                       ConsoleTable::num(tp.mops(), 2), "1.00",
                       bench::pct(seq_stats.hit_rate())});
        json.push_back({"sequential", layout, 0, "sequential", kernel,
                        "per_op", seq_seconds, tp.mops(), seq_stats.ops,
                        seq_stats.hits, seq_stats.misses,
                        seq_stats.evictions});
    }

    // Batched sequential: same op order, hashing hoisted per 256-op block
    // with each op's unit prefetched ahead of its update.
    double batched_seconds = 0.0;
    replay::ReplayStats batched_stats;
    for (int rep = 0; rep < kReps; ++rep) {
        Cache cache(units, 0xE1);
        bench::StopWatch w;
        batched_stats = replay_batched(cache, span).stats;
        const double secs = w.seconds();
        if (rep == 0 || secs < batched_seconds) batched_seconds = secs;
    }
    {
        const stats::Throughput tp{batched_stats.ops, batched_seconds};
        table.add_row({"sequential", layout, "1", "sequential", kernel,
                       "batched", ConsoleTable::num(batched_seconds, 3),
                       ConsoleTable::num(tp.mops(), 2),
                       ConsoleTable::num(seq_seconds / batched_seconds, 2),
                       bench::pct(batched_stats.hit_rate())});
        json.push_back({"sequential", layout, 0, "sequential", kernel,
                        "batched", batched_seconds, tp.mops(),
                        batched_stats.ops, batched_stats.hits,
                        batched_stats.misses, batched_stats.evictions});
        if (!(batched_stats == seq_stats)) {
            std::fprintf(stderr,
                         "layout %s: batched stats DIVERGED (BUG)\n", layout);
        }
    }

    bool all_identical = true;
    const std::size_t hw = bench::usable_hardware_threads();
    for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
        if (workers > 1 && hw <= 1) continue;  // see function comment
        replay::ShardedConfig cfg;
        cfg.shards = workers;
        double best = 0.0;
        replay::ShardedReport last;
        for (int rep = 0; rep < kReps; ++rep) {
            Cache cache(units, 0xE1);
            bench::StopWatch w;
            last = replay_engine(cache, span, cfg);
            const double secs = w.seconds();
            if (rep == 0 || secs < best) best = secs;
            all_identical = all_identical && last.stats == seq_stats;
        }
        const stats::Throughput tp{last.stats.ops, best};
        const char* mode = last.threaded ? "threaded" : "inline";
        table.add_row({"sharded", layout, std::to_string(last.shards), mode,
                       kernel, "batched", ConsoleTable::num(best, 3),
                       ConsoleTable::num(tp.mops(), 2),
                       ConsoleTable::num(seq_seconds / best, 2),
                       bench::pct(last.stats.hit_rate())});
        json.push_back({"sharded", layout, last.shards, mode, kernel,
                        "batched", best, tp.mops(), last.stats.ops,
                        last.stats.hits, last.stats.misses,
                        last.stats.evictions});
    }
    if (hw <= 1) {
        std::printf("layout %s: 1 usable hardware thread — multi-worker "
                    "sharded sweep skipped\n",
                    layout);
    }

    if (!all_identical) {
        std::fprintf(stderr, "layout %s: sharded stats DIVERGED (BUG)\n",
                     layout);
    }
    *stats_out = seq_stats;
    return seq_seconds;
}

/// Scan-kernel head-to-head on the SoA layout: forced scalar vs the
/// dispatched SIMD kernel, each via the per-op and the batched sequential
/// path.  All four cells replay the same trace; stats must be identical
/// (the kernels are bit-equivalent — only the wall time may move).
template <typename Cache>
void run_kernel_series(ReplaySpan span, std::size_t units,
                       ConsoleTable& table,
                       std::vector<bench::ReplayJsonSeries>& json) {
    const char* layout = Cache::storage_type::layout_name();
    constexpr int kReps = 3;

    replay::ReplayStats first_stats;
    bool have_first = false;
    bool identical = true;
    for (const bool force_scalar : {true, false}) {
        if (force_scalar &&
            !core::simd::set_kernel_override(core::simd::ScanKernel::kScalar))
            continue;
        if (!force_scalar) core::simd::clear_kernel_override();
        const char* kernel = active_kernel_name();
        for (const bool batched : {false, true}) {
            double best = 0.0;
            replay::ReplayStats s;
            for (int rep = 0; rep < kReps; ++rep) {
                Cache cache(units, 0xE1);
                bench::StopWatch w;
                s = batched ? replay_batched(cache, span).stats
                            : replay_per_op(cache, span);
                const double secs = w.seconds();
                if (rep == 0 || secs < best) best = secs;
            }
            if (!have_first) {
                first_stats = s;
                have_first = true;
            }
            identical = identical && s == first_stats;
            const stats::Throughput tp{s.ops, best};
            const char* path = batched ? "batched" : "per_op";
            table.add_row({"kernel", layout, "1", "sequential", kernel, path,
                           ConsoleTable::num(best, 3),
                           ConsoleTable::num(tp.mops(), 2), "-",
                           bench::pct(s.hit_rate())});
            json.push_back({"kernel", layout, 0, "sequential", kernel, path,
                            best, tp.mops(), s.ops, s.hits, s.misses,
                            s.evictions});
        }
    }
    core::simd::clear_kernel_override();
    std::printf("kernel series (%s layout): scalar vs %s stats %s\n", layout,
                core::simd::kernel_name(core::simd::dispatched_kernel()),
                identical ? "IDENTICAL" : "DIVERGED (BUG)");
}

/// Integrity-scrubber overhead: batched sequential replay with the scrubber
/// off vs on a 64k-op cadence, same trace and units as the main series.
/// The stats must be identical (a clean cache scrubs to zero findings); the
/// wall-time delta is the price of periodically revalidating every meta
/// word.
template <typename Cache>
void run_scrubber_series(ReplaySpan span, std::size_t units,
                         ConsoleTable& table,
                         std::vector<bench::ReplayJsonSeries>& json) {
    const char* layout = Cache::storage_type::layout_name();
    constexpr int kReps = 3;
    constexpr std::uint64_t kScrubEvery = 1u << 16;

    double off_seconds = 0.0;
    replay::ReplayStats off_stats;
    for (int rep = 0; rep < kReps; ++rep) {
        Cache cache(units, 0xE1);
        bench::StopWatch w;
        off_stats = replay_batched(cache, span).stats;
        const double secs = w.seconds();
        if (rep == 0 || secs < off_seconds) off_seconds = secs;
    }

    double on_seconds = 0.0;
    replay::ShardedReport on_result;
    for (int rep = 0; rep < kReps; ++rep) {
        Cache cache(units, 0xE1);
        bench::StopWatch w;
        on_result = replay_batched(cache, span, kScrubEvery);
        const double secs = w.seconds();
        if (rep == 0 || secs < on_seconds) on_seconds = secs;
    }

    for (const auto& [mode, secs, s] :
         {std::tuple{"scrub_off", off_seconds, off_stats},
          std::tuple{"scrub_on", on_seconds, on_result.stats}}) {
        const stats::Throughput tp{s.ops, secs};
        table.add_row({"scrubber", layout, "1", mode, active_kernel_name(),
                       "batched", ConsoleTable::num(secs, 3),
                       ConsoleTable::num(tp.mops(), 2),
                       ConsoleTable::num(off_seconds / secs, 2),
                       bench::pct(s.hit_rate())});
        json.push_back({"scrubber", layout, 0, mode, active_kernel_name(),
                        "batched", secs, tp.mops(), s.ops, s.hits, s.misses,
                        s.evictions});
    }

    std::printf("scrubber (every %llu ops, %s layout): %.2f%% overhead, "
                "%llu units scanned, %llu corrupt, stats %s\n",
                static_cast<unsigned long long>(kScrubEvery), layout,
                (on_seconds / off_seconds - 1.0) * 100.0,
                static_cast<unsigned long long>(on_result.scrub.scanned),
                static_cast<unsigned long long>(on_result.scrub.corrupt),
                on_result.stats == off_stats ? "IDENTICAL"
                                             : "DIVERGED (BUG)");
}

/// Checkpoint-quiesce overhead: threaded sharded replay with checkpointing
/// off vs on (snapshot every kEveryBatches delivered batches).  Each emit
/// quiesces all workers at a batch boundary and copies the full plane image
/// plus per-shard stats; the wall-time delta prices that pause, and the
/// stats must stay bit-identical to the uncheckpointed run.
template <typename Cache>
void run_checkpoint_series(ReplaySpan span, std::size_t units,
                           ConsoleTable& table,
                           std::vector<bench::ReplayJsonSeries>& json) {
    const char* layout = Cache::storage_type::layout_name();
    constexpr int kReps = 3;
    constexpr std::uint64_t kEveryBatches = 256;

    replay::ShardedConfig cfg;
    cfg.shards = 4;

    double off_seconds = 0.0;
    replay::ShardedReport off_rep;
    for (int rep = 0; rep < kReps; ++rep) {
        Cache cache(units, 0xE1);
        bench::StopWatch w;
        off_rep = replay_engine(cache, span, cfg);
        const double secs = w.seconds();
        if (rep == 0 || secs < off_seconds) off_seconds = secs;
    }

    double on_seconds = 0.0;
    replay::ShardedReport on_rep;
    std::size_t emitted = 0;
    for (int rep = 0; rep < kReps; ++rep) {
        Cache cache(units, 0xE1);
        replay::CacheReplayTarget target(cache);
        replay::SpanOpSource<ReplayOp> source(span);
        emitted = 0;
        bench::StopWatch w;
        on_rep = replay::replay_target_checkpointed_stream(
                     target, source, cfg, kEveryBatches,
                     [&](replay::TargetCheckpoint<replay::ReplayStats>&& cp) {
                         ++emitted;
                         benchmark::DoNotOptimize(cp.state.data());
                     })
                     .value();
        const double secs = w.seconds();
        if (rep == 0 || secs < on_seconds) on_seconds = secs;
    }

    for (const auto& [mode, secs, s] :
         {std::tuple{"ckpt_off", off_seconds, off_rep.stats},
          std::tuple{"ckpt_on", on_seconds, on_rep.stats}}) {
        const stats::Throughput tp{s.ops, secs};
        table.add_row({"checkpoint", layout, std::to_string(cfg.shards),
                       mode, active_kernel_name(), "batched",
                       ConsoleTable::num(secs, 3),
                       ConsoleTable::num(tp.mops(), 2),
                       ConsoleTable::num(off_seconds / secs, 2),
                       bench::pct(s.hit_rate())});
        json.push_back({"checkpoint", layout, cfg.shards, mode,
                        active_kernel_name(), "batched", secs, tp.mops(),
                        s.ops, s.hits, s.misses, s.evictions});
    }

    std::printf("checkpoint (every %llu batches, %s layout, %zu shards): "
                "%zu snapshots, %.2f%% overhead, stats %s\n",
                static_cast<unsigned long long>(kEveryBatches), layout,
                cfg.shards, emitted,
                (on_seconds / off_seconds - 1.0) * 100.0,
                on_rep.stats == off_rep.stats ? "IDENTICAL"
                                              : "DIVERGED (BUG)");
}

/// Observability overhead: the same sharded replay with no Registry (the
/// default — obs entirely compiled around via null-pointer guards) vs with
/// a live Registry attached (batch-apply timing, per-shard depth gauges,
/// degradation counters).  The acceptance bar is twofold: obs-off is the
/// pre-obs engine bit for bit, and obs-on prices its fetch_adds explicitly
/// in the committed JSON.
template <typename Cache>
void run_obs_series(ReplaySpan span, std::size_t units, ConsoleTable& table,
                    std::vector<bench::ReplayJsonSeries>& json) {
    const char* layout = Cache::storage_type::layout_name();
    constexpr int kReps = 3;

    replay::ShardedConfig cfg;
    cfg.shards = 4;

    double off_seconds = 0.0;
    replay::ShardedReport off_rep;
    for (int rep = 0; rep < kReps; ++rep) {
        Cache cache(units, 0xF2);
        bench::StopWatch w;
        off_rep = replay_engine(cache, span, cfg);
        const double secs = w.seconds();
        if (rep == 0 || secs < off_seconds) off_seconds = secs;
    }

    double on_seconds = 0.0;
    replay::ShardedReport on_rep;
    obs::Registry reg;
    cfg.metrics = &reg;
    for (int rep = 0; rep < kReps; ++rep) {
        Cache cache(units, 0xF2);
        bench::StopWatch w;
        on_rep = replay_engine(cache, span, cfg);
        const double secs = w.seconds();
        if (rep == 0 || secs < on_seconds) on_seconds = secs;
    }

    for (const auto& [mode, secs, s] :
         {std::tuple{"obs_off", off_seconds, off_rep.stats},
          std::tuple{"obs_on", on_seconds, on_rep.stats}}) {
        const stats::Throughput tp{s.ops, secs};
        table.add_row({"obs", layout, std::to_string(cfg.shards), mode,
                       active_kernel_name(), "batched",
                       ConsoleTable::num(secs, 3),
                       ConsoleTable::num(tp.mops(), 2),
                       ConsoleTable::num(off_seconds / secs, 2),
                       bench::pct(s.hit_rate())});
        json.push_back({"obs", layout, cfg.shards, mode,
                        active_kernel_name(), "batched", secs, tp.mops(),
                        s.ops, s.hits, s.misses, s.evictions});
    }

    const auto snap = reg.snapshot();
    const std::uint64_t* batches = snap.counter("replay_batches_applied");
    std::printf("obs (%s layout, %zu shards): %.2f%% overhead, "
                "%llu batches instrumented, stats %s\n",
                layout, cfg.shards,
                (on_seconds / off_seconds - 1.0) * 100.0,
                static_cast<unsigned long long>(batches ? *batches : 0),
                on_rep.stats == off_rep.stats ? "IDENTICAL"
                                              : "DIVERGED (BUG)");
}

/// Trace-source axis: the same replay pulled through each TraceSource — the
/// in-memory vector, the mmap'd file, the chunked background reader — via
/// the streaming engine, sequential and 4-way threaded.  Prices the
/// ingestion paths against each other; the stats must be bit-identical in
/// every cell (the sources yield the same record stream by contract), so
/// only wall time may move.
template <typename Cache>
void run_source_series(const std::vector<PacketRecord>& trace,
                       const std::string& trace_path, std::size_t units,
                       ConsoleTable& table,
                       std::vector<bench::ReplayJsonSeries>& json) {
    const char* layout = Cache::storage_type::layout_name();
    const char* kernel = active_kernel_name();
    constexpr int kReps = 3;

    const auto open_source =
        [&](const char* which) -> std::unique_ptr<trace::TraceSource> {
        if (std::strcmp(which, "vector") == 0) {
            return std::make_unique<trace::VectorSource>(
                std::span<const PacketRecord>(trace));
        }
        if (std::strcmp(which, "mmap") == 0) {
            return trace::MmapSource::open(trace_path).value();
        }
        trace::ChunkedSourceOptions opts;
        opts.chunk_records = 1u << 16;
        return trace::ChunkedFileSource::open(trace_path, opts).value();
    };

    replay::ShardedConfig cfg;
    cfg.shards = 4;
    cfg.mode = replay::Mode::kThreaded;

    replay::ReplayStats first_stats;
    bool have_first = false;
    bool identical = true;
    double vector_seq_seconds = 0.0;
    for (const char* source : {"vector", "mmap", "chunked"}) {
        double seq_best = 0.0;
        replay::ReplayStats s;
        for (int rep = 0; rep < kReps; ++rep) {
            auto src = open_source(source);
            auto stream = replay::packet_op_source(*src);
            Cache cache(units, 0xE1);
            replay::CacheReplayTarget target(cache);
            bench::StopWatch w;
            s = replay::replay_target_sequential_stream(target, stream)
                    .value();
            const double secs = w.seconds();
            if (rep == 0 || secs < seq_best) seq_best = secs;
        }
        if (!have_first) {
            first_stats = s;
            have_first = true;
            vector_seq_seconds = seq_best;
        }
        identical = identical && s == first_stats;
        {
            const stats::Throughput tp{s.ops, seq_best};
            table.add_row({"trace_source", layout, "1", source, kernel,
                           "seq_stream", ConsoleTable::num(seq_best, 3),
                           ConsoleTable::num(tp.mops(), 2),
                           ConsoleTable::num(vector_seq_seconds / seq_best, 2),
                           bench::pct(s.hit_rate())});
            json.push_back({"trace_source", layout, 0, source, kernel,
                            "seq_stream", seq_best, tp.mops(), s.ops, s.hits,
                            s.misses, s.evictions});
        }

        double shard_best = 0.0;
        replay::ShardedReport rep_out;
        for (int rep = 0; rep < kReps; ++rep) {
            auto src = open_source(source);
            auto stream = replay::packet_op_source(*src);
            Cache cache(units, 0xE1);
            replay::CacheReplayTarget target(cache);
            bench::StopWatch w;
            rep_out = replay::replay_target_sharded_stream(target, stream,
                                                           cfg)
                          .value();
            const double secs = w.seconds();
            if (rep == 0 || secs < shard_best) shard_best = secs;
        }
        identical = identical && rep_out.stats == first_stats;
        {
            const stats::Throughput tp{rep_out.stats.ops, shard_best};
            table.add_row({"trace_source", layout, std::to_string(cfg.shards),
                           source, kernel, "shard_stream",
                           ConsoleTable::num(shard_best, 3),
                           ConsoleTable::num(tp.mops(), 2),
                           ConsoleTable::num(vector_seq_seconds / shard_best,
                                             2),
                           bench::pct(rep_out.stats.hit_rate())});
            json.push_back({"trace_source", layout, cfg.shards, source,
                            kernel, "shard_stream", shard_best, tp.mops(),
                            rep_out.stats.ops, rep_out.stats.hits,
                            rep_out.stats.misses, rep_out.stats.evictions});
        }
    }
    std::printf("trace sources (%s layout): vector vs mmap vs chunked stats "
                "%s\n",
                layout, identical ? "IDENTICAL" : "DIVERGED (BUG)");
}

void run_replay_throughput() {
    using Unit = core::P4lru<FlowKey, std::uint32_t, 3>;
    using SoaCache = core::ParallelCache<Unit, FlowKey, std::uint32_t>;
    using AosCache = core::AosParallelCache<Unit, FlowKey, std::uint32_t>;
    static_assert(std::is_same_v<SoaCache::storage_type,
                                 core::SoaSlab<FlowKey, std::uint32_t, 3>>);

    const std::size_t units = bench::scaled(1u << 16);
    const auto trace = bench::make_trace(60, 42);
    const auto ops = replay::ops_from_packets(trace);
    const ReplaySpan span(ops);

    std::vector<bench::ReplayJsonSeries> json;
    ConsoleTable table({"series", "layout", "workers", "mode", "kernel",
                        "path", "wall s", "Mops/s", "speedup", "hit %"});

    std::printf("scan kernel: %s dispatched (sse2=%d avx2=%d neon=%d), "
                "%zu usable hardware threads\n",
                core::simd::kernel_name(core::simd::dispatched_kernel()),
                core::simd::cpu_features().sse2,
                core::simd::cpu_features().avx2,
                core::simd::cpu_features().neon,
                bench::usable_hardware_threads());

    replay::ReplayStats aos_stats, soa_stats;
    const double aos_seconds =
        run_layout_series<AosCache>(span, units, table, json, &aos_stats);
    const double soa_seconds =
        run_layout_series<SoaCache>(span, units, table, json, &soa_stats);
    run_kernel_series<SoaCache>(span, units, table, json);
    run_scrubber_series<SoaCache>(span, units, table, json);
    run_checkpoint_series<SoaCache>(span, units, table, json);
    run_obs_series<SoaCache>(span, units, table, json);
    {
        // The file-backed sources need the trace on disk in P4LRUTRC form.
        const std::string trace_path =
            (std::filesystem::temp_directory_path() / "p4lru_bench_trace.bin")
                .string();
        trace::write_trace(trace_path, trace);
        run_source_series<SoaCache>(trace, trace_path, units, table, json);
        std::error_code ec;
        std::filesystem::remove(trace_path, ec);
    }

    table.print("Replay throughput: AoS reference vs SoA slab, sequential "
                "vs sharded (" +
                std::to_string(span.size()) + " packets, " +
                std::to_string(units) + " units)");
    const bool layouts_identical = aos_stats == soa_stats;
    std::printf("aggregate hit/miss/eviction counts %s across layouts\n",
                layouts_identical ? "IDENTICAL" : "DIVERGED (BUG)");
    std::printf("single-thread soa/aos replay speedup: %.2fx\n",
                aos_seconds / soa_seconds);

    const char* path = std::getenv("P4LRU_BENCH_JSON");
    const std::string out = path ? path : "BENCH_micro_ops.json";
    if (bench::write_replay_json(out, span.size(), units, bench::scale(),
                                 json)) {
        std::printf("wrote %s\n", out.c_str());
    } else {
        std::fprintf(stderr, "failed to write %s\n", out.c_str());
    }
}

}  // namespace

int main(int argc, char** argv) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    const char* skip = std::getenv("P4LRU_SKIP_GBENCH");
    if (!(skip && skip[0] == '1')) {
        benchmark::RunSpecifiedBenchmarks();
    }
    benchmark::Shutdown();
    run_replay_throughput();
    return 0;
}
