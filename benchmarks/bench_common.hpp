// Shared plumbing for the figure-reproduction benches.
//
// Every bench binary regenerates one table/figure of the paper's evaluation
// (Section 4) and prints the same rows/series. Scale: the paper replays
// 2.6e7-packet CAIDA traces against 2^16-2^17-unit cache arrays; these
// benches default to ~10x smaller traces and correspondingly smaller arrays
// so the whole suite finishes in minutes on a laptop. Set P4LRU_SCALE (e.g.
// 2.0) to grow packet counts and cache sizes proportionally.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "p4lru/cache/policy.hpp"
#include "p4lru/common/table.hpp"
#include "p4lru/common/types.hpp"
#include "p4lru/replay/affinity.hpp"
#include "p4lru/replay/replay.hpp"
#include "p4lru/trace/trace_gen.hpp"

namespace p4lru::bench {

/// Global scale knob from the environment (default 1.0).
inline double scale() {
    if (const char* s = std::getenv("P4LRU_SCALE")) {
        const double v = std::atof(s);
        if (v > 0) return v;
    }
    return 1.0;
}

/// `base` grown or shrunk by scale(), never below 1: a size that truncates
/// to 0 would build a zero-unit cache, an empty trace or an empty database.
inline std::size_t scaled(std::size_t base) {
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(base) * scale()));
}

/// Default trace size (paper: 2.6e7; here ~1.2e6 per run at scale 1).
inline std::size_t default_packets() { return scaled(1'200'000); }

/// Make a CAIDA_n-like trace.
inline std::vector<PacketRecord> make_trace(std::size_t segments,
                                            std::uint64_t seed = 1,
                                            std::size_t packets = 0) {
    trace::TraceConfig cfg;
    cfg.seed = seed;
    cfg.total_packets = packets ? packets : default_packets();
    cfg.segments = segments;
    return trace::generate_trace(cfg);
}

/// The concurrency sweep of the testbed figures (CAIDA_1 .. CAIDA_60).
inline std::vector<std::size_t> concurrency_sweep() {
    return {1, 10, 20, 30, 40, 50, 60};
}

/// Policy factory for the comparative benches. Key/Value/Merge are template
/// parameters so the same list serves LruTable (FlowKey -> address,
/// replace) and LruMon (fingerprint -> bytes, accumulate).
template <typename Key, typename Value, typename Merge = core::ReplaceMerge>
struct PolicyFactory {
    using Ptr = std::unique_ptr<cache::ReplacementPolicy<Key, Value>>;

    static Ptr p4lru1(std::size_t entries, std::uint32_t seed) {
        return std::make_unique<cache::P4lruArrayPolicy<Key, Value, 1, Merge>>(
            entries, seed);
    }
    static Ptr p4lru2(std::size_t entries, std::uint32_t seed) {
        return std::make_unique<cache::P4lruArrayPolicy<Key, Value, 2, Merge>>(
            entries, seed);
    }
    static Ptr p4lru3(std::size_t entries, std::uint32_t seed) {
        return std::make_unique<cache::P4lruArrayPolicy<Key, Value, 3, Merge>>(
            entries, seed);
    }
    static Ptr ideal(std::size_t entries) {
        return std::make_unique<cache::IdealLruPolicy<Key, Value, Merge>>(
            entries);
    }
    static Ptr timeout(std::size_t entries, std::uint32_t seed, TimeNs t) {
        return std::make_unique<cache::TimeoutPolicy<Key, Value, Merge>>(
            entries, seed, t);
    }
    static Ptr elastic(std::size_t entries, std::uint32_t seed) {
        return std::make_unique<cache::ElasticPolicy<Key, Value, Merge>>(
            entries, seed);
    }
    static Ptr coco(std::size_t entries, std::uint32_t seed) {
        return std::make_unique<cache::CocoPolicy<Key, Value, Merge>>(entries,
                                                                      seed);
    }
};

/// Percent formatting helper.
inline std::string pct(double v) { return ConsoleTable::num(v * 100.0, 2); }

/// Monotonic wall-clock stopwatch.
class StopWatch {
  public:
    StopWatch() : start_(std::chrono::steady_clock::now()) {}
    [[nodiscard]] double seconds() const {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

/// One independent, deterministic figure-series evaluation: replays a trace
/// against one policy configuration and yields a scalar (e.g. miss rate).
using SeriesJob = std::function<double()>;

/// The number of hardware threads the process can actually use — the
/// affinity-mask-aware count, not hardware_concurrency() (which ignores
/// taskset/cgroup masks and may return 0).  It sizes run_series' pool.
inline std::size_t usable_hardware_threads() {
    return replay::pinnable_cpus();
}

/// Evaluate all jobs, concurrently when the machine has spare cores (each
/// job owns its policy/system instance and fixed seeds, so results are
/// deterministic and land at the job's index). Single-core machines run
/// inline — thread overhead would only slow the suite down.
inline std::vector<double> run_series(const std::vector<SeriesJob>& jobs) {
    std::vector<double> results(jobs.size());
    const std::size_t workers =
        std::min(jobs.size(), usable_hardware_threads());
    if (workers <= 1) {
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            results[i] = jobs[i]();
        }
    } else {
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (std::size_t t = 0; t < workers; ++t) {
            pool.emplace_back([&] {
                while (true) {
                    const std::size_t i =
                        next.fetch_add(1, std::memory_order_relaxed);
                    if (i >= jobs.size()) return;
                    results[i] = jobs[i]();
                }
            });
        }
        for (auto& th : pool) th.join();
    }
    return results;
}

/// One sequential replay of an in-memory op sequence through `target`,
/// returning the statistics its report() takes.  The figures that sweep
/// policies or parameters on a one-partition system use this.
template <typename Target>
typename Target::Stats sequential_stats(
    Target& target, const std::vector<typename Target::Op>& ops) {
    replay::SpanOpSource<typename Target::Op> source(
        std::span<const typename Target::Op>(ops.data(), ops.size()));
    return replay::replay_target_sequential_stream(target, source).value();
}

}  // namespace p4lru::bench
