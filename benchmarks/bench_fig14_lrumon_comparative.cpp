// Figure 14 — LruMon comparative experiment (Section 4.2.1): elephant-packet
// cache miss rate under each replacement policy (write-cache semantics:
// hits accumulate byte counts).
//   (a) miss rate vs cache memory
//   (b) miss rate vs filter threshold
//
// Cells are independent deterministic replays, evaluated via
// bench::run_series (parallel on multicore machines).  Replay throughput is
// perfbench's to measure.
#include <cstdio>

#include "bench_common.hpp"
#include "p4lru/systems/lrumon/lrumon_target.hpp"

using namespace p4lru;
using namespace p4lru::bench;
using namespace p4lru::systems::lrumon;

namespace {

using Factory = PolicyFactory<std::uint32_t, FlowLen, core::AddMerge>;

double miss_rate(const std::vector<PacketRecord>& trace, Factory::Ptr policy,
                 std::uint32_t threshold) {
    FilterConfig fcfg;
    fcfg.reset_period = 10 * kMillisecond;
    LruMonConfig cfg;
    cfg.threshold = threshold;
    cfg.track_ground_truth = false;
    LruMonTarget sys(
        1,
        [&fcfg](std::size_t) {
            return make_filter(FilterKind::kTower, fcfg);
        },
        [&policy](std::size_t) { return std::move(policy); }, cfg);
    return sys.report(sequential_stats(sys, trace)).cache_miss_rate;
}

double tuned_timeout_miss(const std::vector<PacketRecord>& trace,
                          std::size_t entries, std::uint32_t threshold) {
    double best = 1.0;
    for (const TimeNs t :
         {3 * kMillisecond, 10 * kMillisecond, 30 * kMillisecond,
          100 * kMillisecond}) {
        best = std::min(
            best,
            miss_rate(trace, Factory::timeout(entries, 0xA7, t), threshold));
    }
    return best;
}

/// The five policy columns of one row (P4LRU3, Timeout, Elastic, Coco,
/// LRU_IDEAL), as independent jobs.
std::vector<SeriesJob> row_jobs(const std::vector<PacketRecord>& trace,
                                std::size_t entries,
                                std::uint32_t threshold) {
    return {
        [&trace, entries, threshold] {
            return miss_rate(trace, Factory::p4lru3(entries, 0xA7),
                             threshold);
        },
        [&trace, entries, threshold] {
            return tuned_timeout_miss(trace, entries, threshold);
        },
        [&trace, entries, threshold] {
            return miss_rate(trace, Factory::elastic(entries, 0xA7),
                             threshold);
        },
        [&trace, entries, threshold] {
            return miss_rate(trace, Factory::coco(entries, 0xA7),
                             threshold);
        },
        [&trace, entries, threshold] {
            return miss_rate(trace, Factory::ideal(entries), threshold);
        },
    };
}

}  // namespace

int main() {
    const auto trace = make_trace(60, 140);
    const std::size_t base_entries = scaled(3 * (1u << 8));

    // --- (a) miss rate vs memory ------------------------------------------
    {
        const std::vector<double> mults = {0.5, 1.0, 2.0, 4.0, 8.0};
        std::vector<SeriesJob> jobs;
        std::vector<std::size_t> row_entries;
        for (const double mult : mults) {
            const auto entries =
                static_cast<std::size_t>(base_entries * mult);
            row_entries.push_back(entries);
            const auto row = row_jobs(trace, entries, 1500);
            jobs.insert(jobs.end(), row.begin(), row.end());
        }
        const auto res = run_series(jobs);

        ConsoleTable t({"entries", "P4LRU3 %", "Timeout %", "Elastic %",
                        "Coco %", "LRU_IDEAL %"});
        for (std::size_t r = 0; r < mults.size(); ++r) {
            t.add_row({std::to_string(row_entries[r]),
                       pct(res[r * 5 + 0]), pct(res[r * 5 + 1]),
                       pct(res[r * 5 + 2]), pct(res[r * 5 + 3]),
                       pct(res[r * 5 + 4])});
        }
        t.print("Figure 14(a): LruMon cache miss rate vs memory");
    }

    // --- (b) miss rate vs filter threshold --------------------------------
    {
        const std::vector<std::uint32_t> thresholds = {500u, 1000u, 1500u,
                                                       3000u, 6000u};
        std::vector<SeriesJob> jobs;
        for (const std::uint32_t thr : thresholds) {
            const auto row = row_jobs(trace, base_entries, thr);
            jobs.insert(jobs.end(), row.begin(), row.end());
        }
        const auto res = run_series(jobs);

        ConsoleTable t({"threshold B", "P4LRU3 %", "Timeout %", "Elastic %",
                        "Coco %", "LRU_IDEAL %"});
        for (std::size_t r = 0; r < thresholds.size(); ++r) {
            t.add_row({std::to_string(thresholds[r]),
                       pct(res[r * 5 + 0]), pct(res[r * 5 + 1]),
                       pct(res[r * 5 + 2]), pct(res[r * 5 + 3]),
                       pct(res[r * 5 + 4])});
        }
        t.print("Figure 14(b): LruMon cache miss rate vs filter threshold");
    }

    std::printf(
        "\nPaper shape: Coco ~ Elastic > Timeout > P4LRU3; reductions up to\n"
        "35.2/31.7/8.0%% in (a) and 36.0/31.2/8.1%% in (b).\n");
    return 0;
}
