// Standalone bounded-memory smoke for streaming trace ingestion
// (trace_source.hpp / op_source.hpp): writes a trace to disk in bounded
// slices — the full record vector is never materialized — then replays it
// through a ChunkedFileSource sequentially, threaded-sharded, and across a
// mid-stream kill-and-resume, demanding bit-identical statistics and plane
// bytes throughout.  Peak RSS is reported (and optionally enforced) so CI
// can run the replay under a hard `ulimit -v` far below the trace size:
// resident memory stays O(chunk x queue depth), not O(trace).
//
// Knobs (environment):
//   P4LRU_LARGE_TRACE_RECORDS   total records          (default 1'000'000)
//   P4LRU_LARGE_TRACE_CHUNK     reader chunk records   (default 32'768)
//   P4LRU_LARGE_TRACE_FILE      trace path; reused if it already holds the
//                               requested count (default: fresh temp dir)
//   P4LRU_LARGE_TRACE_MAX_RSS_KB  fail if ru_maxrss exceeds this
//   P4LRU_LARGE_TRACE_SKIP_VECTOR disable the in-memory VectorSource
//                               cross-check (set under tight memory caps)
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "p4lru/core/p4lru.hpp"
#include "p4lru/replay/op_source.hpp"
#include "p4lru/replay/replay.hpp"
#include "p4lru/replay/target_checkpoint.hpp"
#include "p4lru/trace/trace_gen.hpp"
#include "p4lru/trace/trace_io.hpp"
#include "p4lru/trace/trace_source.hpp"
#include "../test_util.hpp"

namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
    const char* v = std::getenv(name);
    if (v == nullptr || *v == '\0') return fallback;
    return std::strtoull(v, nullptr, 10);
}

/// Write a `total`-record P4LRUTRC file slice by slice: generation and
/// encoding both stay O(slice), so the writer obeys the same memory bound
/// the replay is about to be held to.
bool write_sliced_trace(const std::string& path, std::uint64_t total) {
    using namespace p4lru;
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
        return false;
    }
    std::uint8_t hdr[trace::kTraceHeaderBytes];
    std::memcpy(hdr, "P4LRUTRC", 8);
    const std::uint32_t version = 1;
    for (int i = 0; i < 4; ++i) {
        hdr[8 + i] = static_cast<std::uint8_t>(version >> (8 * i));
    }
    for (int i = 0; i < 8; ++i) {
        hdr[12 + i] = static_cast<std::uint8_t>(total >> (8 * i));
    }
    bool ok = std::fwrite(hdr, 1, sizeof(hdr), f) == sizeof(hdr);
    constexpr std::uint64_t kSliceRecords = 1u << 18;  // ~8 MiB in memory
    std::vector<std::uint8_t> raw;
    std::uint64_t written = 0;
    std::uint64_t slice_no = 0;
    while (ok && written < total) {
        const std::uint64_t quota = std::min(kSliceRecords, total - written);
        trace::TraceConfig cfg;
        cfg.seed = 0xBEEF + slice_no++;
        cfg.total_packets = static_cast<std::size_t>(quota);
        cfg.segments = 1;
        auto slice = trace::generate_trace(cfg);
        if (slice.size() > quota) slice.resize(quota);
        raw.resize(slice.size() * trace::kTraceRecordBytes);
        for (std::size_t i = 0; i < slice.size(); ++i) {
            trace::encode_trace_record(slice[i],
                                       raw.data() +
                                           i * trace::kTraceRecordBytes);
        }
        ok = std::fwrite(raw.data(), 1, raw.size(), f) == raw.size();
        written += slice.size();
    }
    ok = std::fclose(f) == 0 && ok;
    if (!ok) std::fprintf(stderr, "short write to %s\n", path.c_str());
    return ok;
}

long peak_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
    struct rusage ru {};
    if (getrusage(RUSAGE_SELF, &ru) == 0) {
#if defined(__APPLE__)
        return static_cast<long>(ru.ru_maxrss / 1024);  // bytes on macOS
#else
        return ru.ru_maxrss;  // KiB on Linux
#endif
    }
#endif
    return -1;
}

}  // namespace

int main() {
    using namespace p4lru;
    using Cache = core::ParallelCache<core::P4lru<FlowKey, std::uint32_t, 3>,
                                      FlowKey, std::uint32_t>;

    const std::uint64_t records =
        std::max<std::uint64_t>(env_u64("P4LRU_LARGE_TRACE_RECORDS",
                                        1'000'000),
                                1'000);
    const std::size_t chunk = static_cast<std::size_t>(
        env_u64("P4LRU_LARGE_TRACE_CHUNK", 32'768));

    testutil::ScopedTempDir scratch{"p4lru_large_trace"};
    const char* file_env = std::getenv("P4LRU_LARGE_TRACE_FILE");
    const std::string path =
        file_env != nullptr && *file_env != '\0' ? file_env
                                                 : scratch.file("trace.bin");

    // Reuse a pre-generated file only if it already promises the requested
    // count — lets CI split generation (uncapped) from replay (capped).
    // The probe opens the chunked source (header read only): an MmapSource
    // probe would map the whole file, which is exactly what a tight
    // address-space cap forbids.
    bool have_file = false;
    if (file_env != nullptr) {
        trace::ChunkedSourceOptions probe_opts;
        probe_opts.chunk_records = 1;
        if (auto probe = trace::ChunkedFileSource::open(path, probe_opts);
            probe.is_ok()) {
            have_file = probe.value()->size() == records;
        }
    }
    if (!have_file && !write_sliced_trace(path, records)) return 1;

    trace::ChunkedSourceOptions sopts;
    sopts.chunk_records = chunk;
    const auto open_chunked = [&]() {
        auto src = trace::ChunkedFileSource::open(path, sopts);
        if (!src.is_ok()) {
            std::fprintf(stderr, "chunked open: %s\n",
                         src.status().to_string().c_str());
        }
        return src;
    };

    // Sequential streamed reference: cache.update per op, in stream order.
    const auto stream_reference = [](Cache& cache, auto& stream)
        -> Expected<replay::ReplayStats> {
        replay::ReplayStats stats;
        for (;;) {
            auto pulled = stream.next_batch(replay::kSequentialPullOps);
            if (!pulled.is_ok()) return pulled.status();
            if (pulled.value().empty()) return stats;
            for (const auto& op : pulled.value()) {
                stats.tally(cache.update(op.key, op.value));
            }
        }
    };
    auto seq_src = open_chunked();
    if (!seq_src.is_ok()) return 1;
    auto seq_stream = replay::packet_op_source(*seq_src.value());
    Cache seq_cache(1024, 0x7A);
    const auto seq_run = stream_reference(seq_cache, seq_stream);
    if (!seq_run.is_ok()) {
        std::fprintf(stderr, "sequential stream: %s\n",
                     seq_run.status().to_string().c_str());
        return 1;
    }
    const auto seq = seq_run.value();
    if (seq.ops != records) {
        std::fprintf(stderr, "sequential stream saw %llu of %llu ops\n",
                     static_cast<unsigned long long>(seq.ops),
                     static_cast<unsigned long long>(records));
        return 1;
    }
    std::vector<std::byte> want;
    seq_cache.materialize();
    seq_cache.storage().save_planes(want);

    // Threaded-sharded streamed replay of the same file.
    replay::ShardedConfig cfg;
    cfg.shards = 4;
    cfg.batch_ops = 512;
    cfg.mode = replay::Mode::kThreaded;
    auto thr_src = open_chunked();
    if (!thr_src.is_ok()) return 1;
    auto thr_stream = replay::packet_op_source(*thr_src.value());
    Cache thr_cache(1024, 0x7A);
    replay::CacheReplayTarget thr_target(thr_cache);
    const auto thr_run =
        replay::replay_target_sharded_stream(thr_target, thr_stream, cfg);
    if (!thr_run.is_ok() || !(thr_run.value().stats == seq)) {
        std::fprintf(stderr, "threaded stream %s (ops %llu/%llu)\n",
                     thr_run.is_ok() ? "diverged from sequential"
                                     : thr_run.status().to_string().c_str(),
                     static_cast<unsigned long long>(
                         thr_run.is_ok() ? thr_run.value().stats.ops : 0),
                     static_cast<unsigned long long>(seq.ops));
        return 1;
    }
    std::vector<std::byte> got;
    thr_cache.materialize();
    thr_cache.storage().save_planes(got);
    if (got != want) {
        std::fprintf(stderr, "threaded plane bytes differ from sequential\n");
        return 1;
    }

    // Kill-and-resume: checkpointed threaded run, cut in the middle, fresh
    // cache resumed from a fresh source — the resume seeks, it never
    // re-reads the prefix.
    auto ck_src = open_chunked();
    if (!ck_src.is_ok()) return 1;
    auto ck_stream = replay::packet_op_source(*ck_src.value());
    Cache ck_cache(1024, 0x7A);
    replay::CacheReplayTarget ck_target(ck_cache);
    using Checkpoint = replay::TargetCheckpoint<replay::ReplayStats>;
    std::vector<Checkpoint> cps;
    // Cadence scaled so ~8 cuts land whatever the trace size; a fixed
    // cadence emits none at all on small smoke runs.
    const std::uint64_t every_batches =
        std::max<std::uint64_t>(1, records / (cfg.batch_ops * 8));
    const auto ck_run = replay::replay_target_checkpointed_stream(
        ck_target, ck_stream, cfg, every_batches,
        [&](Checkpoint&& cp) { cps.push_back(std::move(cp)); });
    if (!ck_run.is_ok() || !(ck_run.value().stats == seq) || cps.empty()) {
        std::fprintf(stderr, "checkpointed stream %s (%zu checkpoints)\n",
                     ck_run.is_ok() ? "diverged from sequential"
                                    : ck_run.status().to_string().c_str(),
                     cps.size());
        return 1;
    }
    const auto& cp = cps[cps.size() / 2];
    auto res_src = open_chunked();
    if (!res_src.is_ok()) return 1;
    auto res_stream = replay::packet_op_source(*res_src.value());
    Cache res_cache(1024, 0x7A);
    replay::CacheReplayTarget res_target(res_cache);
    const auto res = replay::resume_target_checkpointed_stream(
        res_target, res_stream, cp, cfg, /*every_batches=*/0, [](auto&&) {});
    if (!res.is_ok() || !(res.value().stats == seq)) {
        std::fprintf(stderr,
                     "resume from cursor %llu %s\n",
                     static_cast<unsigned long long>(cp.cursor),
                     res.is_ok() ? "diverged from sequential"
                                 : res.status().to_string().c_str());
        return 1;
    }
    got.clear();
    res_cache.materialize();
    res_cache.storage().save_planes(got);
    if (got != want) {
        std::fprintf(stderr, "resumed plane bytes differ from sequential\n");
        return 1;
    }

    // Optional in-memory cross-check: VectorSource over the whole file must
    // agree with the streamed runs.  Skipped under tight memory caps, where
    // materializing the trace is exactly what must not happen.
    if (std::getenv("P4LRU_LARGE_TRACE_SKIP_VECTOR") == nullptr) {
        auto whole = trace::read_trace_checked(path);
        if (!whole.is_ok()) {
            std::fprintf(stderr, "read_trace_checked: %s\n",
                         whole.status().to_string().c_str());
            return 1;
        }
        trace::VectorSource vec(std::move(whole).value());
        auto vec_stream = replay::packet_op_source(vec);
        Cache vec_cache(1024, 0x7A);
        const auto vec_run = stream_reference(vec_cache, vec_stream);
        if (!vec_run.is_ok() || !(vec_run.value() == seq)) {
            std::fprintf(stderr, "VectorSource replay diverged\n");
            return 1;
        }
    }

    const long rss_kb = peak_rss_kb();
    const std::uint64_t cap_kb = env_u64("P4LRU_LARGE_TRACE_MAX_RSS_KB", 0);
    if (cap_kb != 0 && rss_kb > 0 &&
        static_cast<std::uint64_t>(rss_kb) > cap_kb) {
        std::fprintf(stderr,
                     "peak RSS %ld KiB exceeds the %llu KiB cap — streaming "
                     "replay is not memory-bounded\n",
                     rss_kb, static_cast<unsigned long long>(cap_kb));
        return 1;
    }

    std::printf(
        "large_trace_smoke: %llu records (%.1f MiB on disk), chunk %zu "
        "records, sequential + threaded + kill-and-resume streamed replays "
        "bit-identical (%llu ops, %llu hits, %llu evictions), peak RSS "
        "%ld KiB\n",
        static_cast<unsigned long long>(records),
        static_cast<double>(trace::kTraceHeaderBytes +
                            records * trace::kTraceRecordBytes) /
            (1024.0 * 1024.0),
        sopts.chunk_records, static_cast<unsigned long long>(seq.ops),
        static_cast<unsigned long long>(seq.hits),
        static_cast<unsigned long long>(seq.evictions), rss_kb);
    return 0;
}
