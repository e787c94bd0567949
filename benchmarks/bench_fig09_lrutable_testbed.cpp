// Figure 9 — LruTable testbed experiment.
//   (a) fast-path miss rate vs traffic concurrency (CAIDA_1 .. CAIDA_60)
//   (b) added latency vs concurrency
// Series: P4LRU3 (the system) and Baseline (hash-table cache = P4LRU1),
// exactly the comparison of the paper's testbed run.
//
// Every figure point is one sequential replay of an LruTableTarget
// (bench::sequential_stats).  Replay throughput is perfbench's to measure.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "p4lru/systems/lrutable/lrutable_target.hpp"

using namespace p4lru;
using namespace p4lru::bench;
using namespace p4lru::systems::lrutable;

namespace {

using Factory = PolicyFactory<VirtualAddress, std::uint32_t>;

// The target partitions the gateway by mix64(dst_ip) % G; both series run
// with the same geometry so the P4LRU3-vs-Baseline comparison is
// apples-to-apples.
constexpr std::size_t kPartitions = 8;

/// Split `total` cache entries across the partitions, each slice seeded
/// distinctly.  `make` is one of the Factory::p4lruN constructors.
template <typename Make>
LruTableTarget::PolicyFactory slices(std::size_t total, std::uint32_t seed,
                                     Make make) {
    const std::size_t per = std::max<std::size_t>(total / kPartitions, 3);
    return [per, seed, make](std::size_t p) {
        return make(per, seed + static_cast<std::uint32_t>(p) * 0x9E37u);
    };
}

LruTableReport run(const std::vector<PacketRecord>& trace,
                   const LruTableTarget::PolicyFactory& policies) {
    LruTableConfig cfg;
    cfg.slow_path_delay = 40 * kMicrosecond;  // control-plane RTT
    LruTableTarget target(kPartitions, policies, cfg);
    return target.report(sequential_stats(target, trace));
}

}  // namespace

int main() {
    // Cache sized like the paper relative to the trace: the array holds
    // roughly the peak flow concurrency of the busiest trace.
    const std::size_t entries = scaled(3 * (1u << 12));

    ConsoleTable a({"trace", "max concurrent flows", "P4LRU3 miss %",
                    "Baseline miss %", "improvement x"});
    ConsoleTable b({"trace", "max concurrent flows", "P4LRU3 latency us",
                    "Baseline latency us", "improvement x"});

    for (const std::size_t n : concurrency_sweep()) {
        const auto trace = make_trace(n, /*seed=*/40 + n);
        const auto stats = trace::compute_stats(trace);
        const auto p3 = run(trace, slices(entries, 0x91, Factory::p4lru3));
        const auto p1 = run(trace, slices(entries, 0x91, Factory::p4lru1));
        const std::string tag = "CAIDA" + std::to_string(n);

        a.add_row({tag, std::to_string(stats.max_concurrent),
                   pct(p3.miss_rate), pct(p1.miss_rate),
                   ConsoleTable::num(p1.miss_rate / p3.miss_rate, 2)});
        b.add_row({tag, std::to_string(stats.max_concurrent),
                   ConsoleTable::num(p3.avg_added_latency_us, 3),
                   ConsoleTable::num(p1.avg_added_latency_us, 3),
                   ConsoleTable::num(
                       p1.avg_added_latency_us / p3.avg_added_latency_us, 2)});
    }

    a.print("Figure 9(a): LruTable miss rate vs concurrency");
    b.print("Figure 9(b): LruTable added latency vs concurrency");

    std::printf(
        "\nPaper shape: miss rate rises with concurrency; P4LRU3 roughly\n"
        "halves the baseline miss rate (paper: 1.4-2.7%% vs 3.0-5.1%%, up\n"
        "to 2.14x) and cuts added latency up to 1.35x.\n");
    return 0;
}
