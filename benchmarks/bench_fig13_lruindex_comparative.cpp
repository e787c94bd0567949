// Figure 13 — LruIndex comparative experiment (Section 4.2.1): the same
// query/reply protocol driven over each replacement policy.
//   (a) cache miss rate vs cache memory
//   (b) cache miss rate vs query latency dT of the database server
//
// Every cell drives its own closed-loop simulation against a shared
// read-only DbServer (serve() is const), so cells are evaluated via
// bench::run_series — concurrently on multicore machines.
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "p4lru/systems/lruindex/db_server.hpp"
#include "p4lru/systems/lruindex/driver.hpp"
#include "p4lru/systems/lruindex/index_cache.hpp"

using namespace p4lru;
using namespace p4lru::bench;
using namespace p4lru::systems::lruindex;

namespace {

using Factory = PolicyFactory<DbKey, index::RecordAddress>;

double miss_rate(DbServer& server, std::unique_ptr<IndexCache> cache,
                 std::size_t queries) {
    DriverConfig cfg;
    cfg.threads = 8;
    cfg.queries = queries;
    cfg.workload.items = server.items();
    cfg.workload.zipf_alpha = 0.9;
    cfg.workload.seed = 130;
    const auto r = run_driver(cfg, server, cache.get());
    return r.miss_rate;
}

std::unique_ptr<IndexCache> wrap(Factory::Ptr policy) {
    return std::make_unique<PolicyIndexCache>(std::move(policy));
}

double tuned_timeout_miss(DbServer& server, std::size_t entries,
                          std::size_t queries) {
    double best = 1.0;
    for (const TimeNs t :
         {3 * kMillisecond, 10 * kMillisecond, 30 * kMillisecond,
          100 * kMillisecond}) {
        best = std::min(
            best, miss_rate(server, wrap(Factory::timeout(entries, 0xF1, t)),
                            queries));
    }
    return best;
}

/// The five policy columns of one row (P4LRU3, Timeout, Elastic, Coco,
/// LRU_IDEAL). `seed` salts the policy hashes (the original bench used 0xF1
/// for (a) and 0xF2 for (b)).
std::vector<SeriesJob> row_jobs(DbServer& server, std::size_t entries,
                                std::size_t queries, std::uint32_t seed) {
    return {
        [&server, entries, queries, seed] {
            // The paper's LruIndex uses the series connection; 4 levels.
            auto p3 = std::make_unique<SeriesIndexCache>(
                4, std::max<std::size_t>(1, entries / 12), seed);
            return miss_rate(server, std::move(p3), queries);
        },
        [&server, entries, queries] {
            return tuned_timeout_miss(server, entries, queries);
        },
        [&server, entries, queries, seed] {
            return miss_rate(server, wrap(Factory::elastic(entries, seed)),
                             queries);
        },
        [&server, entries, queries, seed] {
            return miss_rate(server, wrap(Factory::coco(entries, seed)),
                             queries);
        },
        [&server, entries, queries] {
            return miss_rate(server, wrap(Factory::ideal(entries)), queries);
        },
    };
}

}  // namespace

int main() {
    const std::uint64_t items = scaled(200'000);
    const std::size_t queries = scaled(100'000);
    const std::size_t base_entries = scaled(3 * (1u << 12));

    // --- (a) miss rate vs memory ------------------------------------------
    {
        DbServer server(items, ServerCosts{});
        const std::vector<double> mults = {0.5, 1.0, 2.0, 4.0};
        std::vector<SeriesJob> jobs;
        std::vector<std::size_t> row_entries;
        for (const double mult : mults) {
            const auto entries =
                static_cast<std::size_t>(base_entries * mult);
            row_entries.push_back(entries);
            const auto row = row_jobs(server, entries, queries, 0xF1);
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
        t.print("Figure 13(a): LruIndex miss rate vs memory");
    }

    // --- (b) miss rate vs server query latency dT --------------------------
    {
        const std::vector<TimeNs> hops = {1'000u, 3'000u, 9'000u, 27'000u};
        // One shared server per hop cost, alive for the whole section.
        std::vector<std::unique_ptr<DbServer>> servers;
        for (const TimeNs hop : hops) {
            ServerCosts costs;
            costs.per_index_hop = hop;
            servers.push_back(std::make_unique<DbServer>(items, costs));
        }
        std::vector<SeriesJob> jobs;
        for (const auto& server : servers) {
            const auto row = row_jobs(*server, base_entries, queries, 0xF2);
            jobs.insert(jobs.end(), row.begin(), row.end());
        }
        const auto res = run_series(jobs);

        ConsoleTable t({"dT us (index cost)", "P4LRU3 %", "Timeout %",
                        "Elastic %", "Coco %", "LRU_IDEAL %"});
        for (std::size_t r = 0; r < hops.size(); ++r) {
            // dT ~ tree-height (4) hops per indexed query.
            t.add_row({std::to_string(hops[r] * 4 / 1000),
                       pct(res[r * 5 + 0]), pct(res[r * 5 + 1]),
                       pct(res[r * 5 + 2]), pct(res[r * 5 + 3]),
                       pct(res[r * 5 + 4])});
        }
        t.print("Figure 13(b): LruIndex miss rate vs query latency");
    }

    std::printf(
        "\nPaper shape: Coco > Elastic > Timeout > P4LRU3; P4LRU3 cuts the\n"
        "miss rate by up to 33.3/23.6/10.4%% in (a) and 23.7/19.0/9.8%% in\n"
        "(b). Gains are smaller than LruTable's because YCSB keys have\n"
        "weaker temporal locality.\n");
    return 0;
}
