// Figure 12 — LruTable comparative experiment (simulation, CAIDA_60
// rescaled to one second, Section 4.2.1).
//   (a) cache miss rate vs cache memory, policies: P4LRU3, Timeout (tuned),
//       Elastic, Coco (+ LRU_IDEAL reference)
//   (b) cache miss rate vs slow-path latency dT
//
// Every (row, policy) cell is an independent deterministic replay, so the
// cells are evaluated through bench::run_series — concurrently when the
// machine has spare cores.  Replay throughput is perfbench's to measure.
#include <cstdio>

#include "bench_common.hpp"
#include "p4lru/systems/lrutable/lrutable_target.hpp"

using namespace p4lru;
using namespace p4lru::bench;
using namespace p4lru::systems::lrutable;

namespace {

using Factory = PolicyFactory<VirtualAddress, std::uint32_t>;

double miss_rate(const std::vector<PacketRecord>& trace, Factory::Ptr policy,
                 TimeNs dt) {
    LruTableConfig cfg;
    cfg.slow_path_delay = dt;
    LruTableTarget sys(
        1, [&policy](std::size_t) { return std::move(policy); }, cfg);
    return sys.report(sequential_stats(sys, trace)).miss_rate;
}

/// The paper "meticulously adjusted" the timeout threshold; reproduce that
/// by trying several thresholds and keeping the best.
double tuned_timeout_miss(const std::vector<PacketRecord>& trace,
                          std::size_t entries, TimeNs dt) {
    double best = 1.0;
    for (const TimeNs t :
         {10 * kMillisecond, 30 * kMillisecond, 100 * kMillisecond,
          300 * kMillisecond}) {
        best = std::min(best,
                        miss_rate(trace, Factory::timeout(entries, 0xE1, t),
                                  dt));
    }
    return best;
}

/// The five policy columns of one figure row (P4LRU3, Timeout, Elastic,
/// Coco, LRU_IDEAL), as independent jobs.
std::vector<SeriesJob> row_jobs(const std::vector<PacketRecord>& trace,
                                std::size_t entries, TimeNs dt) {
    return {
        [&trace, entries, dt] {
            return miss_rate(trace, Factory::p4lru3(entries, 0xE1), dt);
        },
        [&trace, entries, dt] {
            return tuned_timeout_miss(trace, entries, dt);
        },
        [&trace, entries, dt] {
            return miss_rate(trace, Factory::elastic(entries, 0xE1), dt);
        },
        [&trace, entries, dt] {
            return miss_rate(trace, Factory::coco(entries, 0xE1), dt);
        },
        [&trace, entries, dt] {
            return miss_rate(trace, Factory::ideal(entries), dt);
        },
    };
}

}  // namespace

int main() {
    const auto trace = make_trace(60, 120);
    const TimeNs base_dt = 40 * kMicrosecond;
    const std::size_t base_entries = scaled(3 * (1u << 11));

    // --- (a) miss rate vs memory ------------------------------------------
    {
        const std::vector<double> mults = {0.25, 0.5, 1.0, 2.0, 4.0};
        std::vector<SeriesJob> jobs;
        std::vector<std::size_t> row_entries;
        for (const double mult : mults) {
            const auto entries =
                static_cast<std::size_t>(base_entries * mult);
            row_entries.push_back(entries);
            const auto row = row_jobs(trace, entries, base_dt);
            jobs.insert(jobs.end(), row.begin(), row.end());
        }
        const auto res = run_series(jobs);

        ConsoleTable t({"entries", "P4LRU3 %", "Timeout %", "Elastic %",
                        "Coco %", "LRU_IDEAL %", "vs Coco", "vs Elastic",
                        "vs Timeout"});
        for (std::size_t r = 0; r < mults.size(); ++r) {
            const double p3 = res[r * 5 + 0];
            const double to = res[r * 5 + 1];
            const double el = res[r * 5 + 2];
            const double co = res[r * 5 + 3];
            const double id = res[r * 5 + 4];
            t.add_row({std::to_string(row_entries[r]), pct(p3), pct(to),
                       pct(el), pct(co), pct(id), pct(1.0 - p3 / co),
                       pct(1.0 - p3 / el), pct(1.0 - p3 / to)});
        }
        t.print(
            "Figure 12(a): LruTable miss rate vs memory (reduction columns "
            "= paper's 'up to 26.8/20.8/12.7%')");
    }

    // --- (b) miss rate vs slow-path latency dT ----------------------------
    {
        const std::vector<TimeNs> dts = {10 * kMicrosecond, 40 * kMicrosecond,
                                         160 * kMicrosecond,
                                         640 * kMicrosecond,
                                         2560 * kMicrosecond};
        std::vector<SeriesJob> jobs;
        for (const TimeNs dt : dts) {
            const auto row = row_jobs(trace, base_entries, dt);
            jobs.insert(jobs.end(), row.begin(), row.end());
        }
        const auto res = run_series(jobs);

        ConsoleTable t({"dT us", "P4LRU3 %", "Timeout %", "Elastic %",
                        "Coco %", "LRU_IDEAL %"});
        for (std::size_t r = 0; r < dts.size(); ++r) {
            t.add_row({std::to_string(dts[r] / 1000),
                       pct(res[r * 5 + 0]), pct(res[r * 5 + 1]),
                       pct(res[r * 5 + 2]), pct(res[r * 5 + 3]),
                       pct(res[r * 5 + 4])});
        }
        t.print("Figure 12(b): LruTable miss rate vs slow-path latency");
    }

    std::printf(
        "\nPaper shape: Coco ~ Elastic > Timeout > P4LRU3 ~ LRU_IDEAL; the\n"
        "P4LRU3 reductions peak at 26.8%% (vs Coco), 20.8%% (vs Elastic),\n"
        "12.7%% (vs Timeout) in (a) and 18.4/17.3/9.3%% in (b).\n");
    return 0;
}
