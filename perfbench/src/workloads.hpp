// The benchmark's four workloads: how each input file is generated, opened
// and replayed, and how each workload's own layers are traced.
//
// Every workload drives a ReplayTarget through the target-generic engine
// entry points, so the benchmark exercises the surface the engine keeps:
//   cache-caida    bare P4LRU3 ParallelCache, 2^16 units, CAIDA_60-like
//                  trace from MmapSource.  Hit-heavy: per-op overhead
//                  (decode, route hash, dispatch) dominates.
//   cache-churn    the same cache at 2^19 units (far beyond L2), a low-skew
//                  trace from ChunkedFileSource.  Miss- and eviction-heavy:
//                  unit cache-line misses dominate.
//   lruindex-ycsb  LruIndexTarget over a 10^6-item B+-tree DbServer, YCSB
//                  Zipf 0.9 queries from memory.  Worker-side apply
//                  dominates; the trace layer does no work.
//   lrumon-caida   LruMonTarget (TowerSketch filter + AddMerge P4LRU3) over
//                  the cache-caida file.  The sketch filter dominates.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "p4lru/core/parallel_array.hpp"
#include "p4lru/fault/status.hpp"
#include "p4lru/obs/metrics.hpp"
#include "p4lru/replay/op_source.hpp"
#include "p4lru/replay/replay.hpp"
#include "p4lru/systems/lruindex/db_server.hpp"
#include "p4lru/systems/lruindex/lruindex_target.hpp"
#include "p4lru/systems/lrumon/lrumon_target.hpp"
#include "p4lru/trace/trace_source.hpp"
#include "span_trace.hpp"

namespace perfbench {

using p4lru::Expected;
using p4lru::Status;

/// Per-layer metric values of a traced run, by metric name.
using LayerValues = std::map<std::string, double>;

/// Counts ops attempted and failed by the correctness gate, and what
/// tripped it.
struct Gate {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> trips;

    void pass(std::uint64_t ops) { attempted += ops; }
    void fail(std::uint64_t ops, const std::string& why) {
        attempted += ops;
        failed += ops;
        if (trips.size() < 16 &&
            std::find(trips.begin(), trips.end(), why) == trips.end()) {
            trips.push_back(why);
        }
    }
};

/// Timings of one set-up: total, and the parts the traced run reports as
/// per-layer metrics.
struct SetupTimes {
    double total_s = 0;
    double materialize_s = 0;  ///< cache plane materialization
    double build_s = 0;        ///< B+-tree DbServer build
};

// -- input files ----------------------------------------------------------

/// Generate the input of `kind` for `seed` at `path`: "caida" and "churn"
/// are P4LRUTRC packet traces, "ycsb" a query file.  `ops` = 0 selects the
/// full size.
[[nodiscard]] Status generate_input(const std::string& kind,
                                    std::uint64_t seed, std::size_t ops,
                                    const std::string& path);

/// Read a query file written by generate_input("ycsb", ...), validating its
/// header against the file size.
[[nodiscard]] Expected<std::vector<p4lru::systems::lruindex::LruIndexOp>>
read_queries(const std::string& path);

/// Read the whole file once so the replay starts from the page cache.
void preread(const std::string& path);

enum class FileKind { kMmap, kChunked };

/// An opened trace file exposed as the op stream a target consumes.
template <typename Adapter>
struct FileOps {
    explicit FileOps(std::unique_ptr<p4lru::trace::TraceSource> f)
        : file(std::move(f)), ops(*file) {}
    std::unique_ptr<p4lru::trace::TraceSource> file;
    Adapter ops;
};

[[nodiscard]] Expected<std::unique_ptr<p4lru::trace::TraceSource>>
open_trace(const std::string& path, FileKind kind, p4lru::obs::Registry* reg);

// -- workloads --------------------------------------------------------------

/// A target built in place, behind a stable address.
template <typename T>
struct Owned {
    template <typename... Args>
    explicit Owned(Args&&... args) : target(std::forward<Args>(args)...) {}
    T target;
};

/// Bare P4LRU3 cache (cache-caida, cache-churn).
class CacheWorkload {
  public:
    using Cache = p4lru::core::ParallelCache<
        p4lru::core::P4lru<p4lru::FlowKey, std::uint32_t, 3>, p4lru::FlowKey,
        std::uint32_t>;
    using Target =
        p4lru::replay::CacheReplayTarget<Cache, p4lru::FlowKey, std::uint32_t>;
    using Stats = p4lru::replay::ReplayStats;
    using Ops = FileOps<p4lru::replay::PacketOpSource>;

    struct Box {
        explicit Box(std::size_t units)
            : cache(units, kHashSeed, p4lru::core::defer_init),
              target(cache) {}
        Cache cache;
        Target target;
    };

    CacheWorkload(std::string path, FileKind kind, std::size_t units)
        : path_(std::move(path)), kind_(kind), units_(units) {}

    [[nodiscard]] const char* source_kind() const {
        return kind_ == FileKind::kMmap ? "mmap" : "chunked";
    }
    [[nodiscard]] std::size_t reader_threads() const {
        return kind_ == FileKind::kChunked ? 1 : 0;
    }
    [[nodiscard]] const std::string& path() const { return path_; }

    [[nodiscard]] Expected<SetupTimes> setup();
    [[nodiscard]] std::unique_ptr<Box> make_target(p4lru::obs::Registry*);
    [[nodiscard]] Expected<std::unique_ptr<Ops>> open_ops(
        p4lru::obs::Registry* reg);

    [[nodiscard]] static std::uint64_t ops(const Stats& s) { return s.ops; }
    [[nodiscard]] static double slow_path_share(const Stats& s);
    [[nodiscard]] static std::string describe(const Stats& s);
    [[nodiscard]] std::string invalid(const Stats&) const { return {}; }

    /// Per-op Cache::update under every available scan kernel, plus the
    /// hit-position and eviction shares of the dispatched kernel.
    void trace_components(SpanTrace& t, LayerValues& out, const Stats& ref,
                          Gate& gate);

  private:
    static constexpr std::uint32_t kHashSeed = 7;
    std::string path_;
    FileKind kind_;
    std::size_t units_;
};

/// LruIndex query acceleration (lruindex-ycsb).
class LruIndexWorkload {
  public:
    using Target = p4lru::systems::lruindex::LruIndexTarget;
    using Stats = p4lru::systems::lruindex::LruIndexStats;
    using Op = p4lru::systems::lruindex::LruIndexOp;
    struct Ops {
        explicit Ops(std::span<const Op> q) : ops(q) {}
        p4lru::replay::SpanOpSource<Op> ops;
    };
    using Box = Owned<Target>;

    explicit LruIndexWorkload(std::string path) : path_(std::move(path)) {}

    [[nodiscard]] const char* source_kind() const { return "span"; }
    [[nodiscard]] std::size_t reader_threads() const { return 0; }
    [[nodiscard]] const std::string& path() const { return path_; }

    [[nodiscard]] Expected<SetupTimes> setup();
    [[nodiscard]] std::unique_ptr<Box> make_target(p4lru::obs::Registry* reg);
    [[nodiscard]] Expected<std::unique_ptr<Ops>> open_ops(
        p4lru::obs::Registry*);

    [[nodiscard]] static std::uint64_t ops(const Stats& s) { return s.ops; }
    [[nodiscard]] static double slow_path_share(const Stats& s);
    [[nodiscard]] static std::string describe(const Stats& s);
    [[nodiscard]] std::string invalid(const Stats& s) const;

    /// Query pass, B+-tree serve (hit and miss apart) and reply pass, called
    /// per op from the benchmark on every 32nd block of 256 queries.
    void trace_components(SpanTrace& t, LayerValues& out, const Stats& ref,
                          Gate& gate);

  private:
    [[nodiscard]] Target::Config config() const;

    std::string path_;
    std::vector<Op> queries_;
    std::unique_ptr<p4lru::systems::lruindex::DbServer> server_;
};

/// LruMon telemetry (lrumon-caida).
class LruMonWorkload {
  public:
    using Target = p4lru::systems::lrumon::LruMonTarget;
    using Stats = p4lru::systems::lrumon::LruMonStats;
    using Ops = FileOps<p4lru::replay::PacketTraceOpSource>;
    using Box = Owned<Target>;

    explicit LruMonWorkload(std::string path) : path_(std::move(path)) {}

    [[nodiscard]] const char* source_kind() const { return "mmap"; }
    [[nodiscard]] std::size_t reader_threads() const { return 0; }
    [[nodiscard]] const std::string& path() const { return path_; }

    [[nodiscard]] Expected<SetupTimes> setup();
    [[nodiscard]] std::unique_ptr<Box> make_target(p4lru::obs::Registry* reg);
    [[nodiscard]] Expected<std::unique_ptr<Ops>> open_ops(
        p4lru::obs::Registry* reg);

    [[nodiscard]] static std::uint64_t ops(const Stats& s) { return s.ops; }
    [[nodiscard]] static double slow_path_share(const Stats& s);
    [[nodiscard]] static std::string describe(const Stats& s);
    [[nodiscard]] std::string invalid(const Stats&) const { return {}; }

    /// Sketch filter, cache policy and analyzer of each partition, called
    /// from the benchmark block by block in the target's per-partition
    /// order.
    void trace_components(SpanTrace& t, LayerValues& out, const Stats& ref,
                          Gate& gate);

  private:
    std::string path_;
};

}  // namespace perfbench
