// perfbench: trace-file-to-report replay benchmark of the P4LRU library.
//
//   perfbench gen --kind caida|churn|ycsb --seed N --out PATH [--ops N]
//       Write the input of one workload family for one seed.
//   perfbench run --workload W --seed N --input PATH --seconds S
//                 --trace 0|1 [--trace-out PATH] [--wrong-reference]
//       Replay the input and print the host block, the per-mode table (or,
//       with --trace 1, the per-layer cost table) and, as the last line,
//       one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// perfbench/run.py builds this program, generates inputs and runs it; see
// perfbench/README.md.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "host.hpp"
#include "p4lru/obs/metrics.hpp"
#include "runner.hpp"

namespace perfbench {

const char* mode_name(PassMode m) {
    switch (m) {
        case PassMode::kInline: return "inline";
        case PassMode::kSharded: return "sharded";
        case PassMode::kCkpt: return "ckpt";
        case PassMode::kObs: return "obs";
        case PassMode::kSharded2: return "sharded (repeat)";
    }
    return "?";
}

Summary summarize(std::vector<double> v) {
    Summary s;
    s.n = v.size();
    if (v.empty()) return s;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size();
    s.median = m % 2 ? v[m / 2] : (v[m / 2 - 1] + v[m / 2]) / 2;
    if (m < 2) {
        s.q1 = s.q3 = s.median;
        return s;
    }
    // statistics.quantiles(v, n=4), method='exclusive'.
    const auto q = [&](std::size_t i) {
        const std::size_t mm = m + 1;
        std::size_t j = i * mm / 4;
        j = std::clamp<std::size_t>(j, 1, m - 1);
        const double delta = static_cast<double>(i * mm) -
                             static_cast<double>(j * 4);
        return (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
    };
    s.q1 = q(1);
    s.q3 = q(3);
    return s;
}

void print_summary_row(const char* name, const Summary& s, const char* unit) {
    std::printf("%-22s %12.4f %12.4f %12.4f %6zu  %s\n", name, s.median, s.q1,
                s.q3, s.n, unit);
}

const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
    static const std::vector<std::pair<std::string, std::string>> kUnits = {
        {"trace.next_batch_ns", "ns"},
        {"trace.reader_stalls", "count"},
        {"common.route_ns", "ns"},
        {"core.apply_ns", "ns"},
        {"core.update_ns.scalar", "ns"},
        {"core.update_ns.sse2", "ns"},
        {"core.update_ns.avx2", "ns"},
        {"core.hit_pos1_share", "fraction"},
        {"core.hit_pos2_share", "fraction"},
        {"core.hit_pos3_share", "fraction"},
        {"core.evictions_per_op", "fraction"},
        {"core.materialize_s", "s"},
        {"replay.inline_overhead_ns", "ns"},
        {"replay.tracing_overhead_ns", "ns"},
        {"replay.spsc_batch_ns", "ns"},
        {"replay.worker_busy_share", "fraction"},
        {"replay.backpressure_waits", "count"},
        {"replay.shard_skew", "ratio"},
        {"replay.ckpt.serialize_ns", "ns"},
        {"replay.ckpt.image_mib", "MiB"},
        {"sketch.filter_ns", "ns"},
        {"systems.lrumon.policy_ns", "ns"},
        {"systems.lrumon.filtered_share", "fraction"},
        {"systems.lrumon.uploads_per_elephant", "fraction"},
        {"systems.lruindex.query_ns", "ns"},
        {"index.serve_ns.hit", "ns"},
        {"index.serve_ns.miss", "ns"},
        {"systems.lruindex.reply_ns", "ns"},
        {"index.build_s", "s"},
        {"obs.counter_add_ns", "ns"},
        {"obs.counter_add_ns.contended", "ns"},
        {"obs.histogram_record_ns", "ns"},
        {"obs.histogram_record_ns.contended", "ns"},
    };
    return kUnits;
}

namespace {

/// Span name -> per-layer metric (ns per call) for every traced layer.
const std::map<std::string, std::string>& span_metrics() {
    static const std::map<std::string, std::string> kMap = {
        {"trace.next_batch", "trace.next_batch_ns"},
        {"common.route", "common.route_ns"},
        {"core.apply", "core.apply_ns"},
        {"core.update.scalar", "core.update_ns.scalar"},
        {"core.update.sse2", "core.update_ns.sse2"},
        {"core.update.avx2", "core.update_ns.avx2"},
        {"replay.spsc_batch", "replay.spsc_batch_ns"},
        {"sketch.filter", "sketch.filter_ns"},
        {"systems.lrumon.policy", "systems.lrumon.policy_ns"},
        {"systems.lruindex.query", "systems.lruindex.query_ns"},
        {"index.serve.hit", "index.serve_ns.hit"},
        {"index.serve.miss", "index.serve_ns.miss"},
        {"systems.lruindex.reply", "systems.lruindex.reply_ns"},
        {"obs.counter_add", "obs.counter_add_ns"},
        {"obs.counter_add.contended", "obs.counter_add_ns.contended"},
        {"obs.histogram_record", "obs.histogram_record_ns"},
        {"obs.histogram_record.contended",
         "obs.histogram_record_ns.contended"},
    };
    return kMap;
}

template <typename Fn>
void contended(std::size_t threads, Fn fn) {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) pool.emplace_back(fn);
    for (auto& th : pool) th.join();
}

}  // namespace

void obs_layers(SpanTrace& t, std::size_t workers) {
    constexpr std::uint64_t kOps = 2'000'000;
    p4lru::obs::Registry reg;
    p4lru::obs::Counter* c = reg.counter("bench_counter");
    p4lru::obs::Histogram* h = reg.histogram("bench_histogram");
    {
        ScopedSpan sp(t, "obs.counter_add", kOps);
        for (std::uint64_t i = 0; i < kOps; ++i) c->add(1);
    }
    {
        ScopedSpan sp(t, "obs.histogram_record", kOps);
        for (std::uint64_t i = 0; i < kOps; ++i) h->record(i & 1023);
    }
    // Contended: `workers` threads on one instrument, as the engine's shard
    // workers share replay_batch_apply_ns; ns per call per thread.
    {
        ScopedSpan sp(t, "obs.counter_add.contended", kOps);
        contended(workers, [c] {
            for (std::uint64_t i = 0; i < kOps; ++i) c->add(1);
        });
    }
    {
        ScopedSpan sp(t, "obs.histogram_record.contended", kOps);
        contended(workers, [h] {
            for (std::uint64_t i = 0; i < kOps; ++i) h->record(i & 1023);
        });
    }
}

void report_layers(const SpanTrace& t, double inline_ns, double traced_ns,
                   std::uint64_t ops, LayerValues& values) {
    const auto times = t.self_times();
    std::map<std::string, SpanTrace::LayerTime> by;
    for (const auto& l : times) by[l.name] = l;
    const auto per_call = [&](const std::string& name) {
        const auto it = by.find(name);
        if (it == by.end() || it->second.items == 0) return 0.0;
        return it->second.self_ns / static_cast<double>(it->second.items);
    };
    for (const auto& [span, metric] : span_metrics()) {
        if (by.count(span)) values[metric] = per_call(span);
    }

    const auto share = [&](double ns_per_op) {
        return inline_ns > 0 ? 100.0 * ns_per_op / inline_ns : 0.0;
    };
    // ns per stream op: a layer's self time over the stream ops its pass
    // covered.  Inline-path layers run once per op in every traced pass;
    // the LruIndex split covers only its sampled queries.
    const auto items = [&](const std::string& span) {
        const auto it = by.find(span);
        return it == by.end() ? 0.0 : static_cast<double>(it->second.items);
    };
    const auto row = [&](const char* label, const std::string& span,
                         double base_ops) {
        const auto it = by.find(span);
        if (it == by.end() || base_ops <= 0) return 0.0;
        const double per_op = it->second.self_ns / base_ops;
        std::printf("  %-34s %10llu %10.2f %10.2f %8.1f%%\n", label,
                    static_cast<unsigned long long>(it->second.items),
                    per_call(span), per_op, share(per_op));
        return per_op;
    };

    std::printf("\nper-layer cost (self time; share of the untraced inline "
                "wall of %.2f ns/op)\n",
                inline_ns);
    std::printf("  %-34s %10s %10s %10s %9s\n", "layer", "calls", "ns/call",
                "ns/op", "share");
    const double n = static_cast<double>(ops);
    const double sampled = items("systems.lruindex.query");
    double sum = 0;
    for (const char* s : {"trace.next_batch", "common.route", "core.apply"}) {
        sum += row(s, s, items(s));
    }
    if (by.count("sketch.filter") || by.count("systems.lruindex.query")) {
        std::printf("  core.apply split, from a separate pass calling the "
                    "layers directly:\n");
    }
    row("  sketch.filter", "sketch.filter", n);
    row("  systems.lrumon.policy", "systems.lrumon.policy", n);
    row("  systems.lrumon.analyzer", "systems.lrumon.analyzer", n);
    row("  systems.lruindex.query", "systems.lruindex.query", sampled);
    row("  index.serve.hit", "index.serve.hit", sampled);
    row("  index.serve.miss", "index.serve.miss", sampled);
    row("  systems.lruindex.reply", "systems.lruindex.reply", sampled);
    const double remainder = inline_ns - sum;
    const double overhead = traced_ns - inline_ns;
    values["replay.inline_overhead_ns"] = remainder;
    values["replay.tracing_overhead_ns"] = overhead;
    std::printf("  %-34s %10s %10s %10.2f %8.1f%%\n", "sum of inline layers",
                "", "", sum, share(sum));
    std::printf("  %-34s %10s %10s %10.2f %8.1f%%\n",
                "unaccounted remainder (engine)", "", "", remainder,
                share(remainder));
    std::printf("  %-34s %10s %10s %10.2f %8.1f%%\n", "untraced inline wall",
                "", "", inline_ns, 100.0);
    std::printf("  %-34s %10s %10s %10.2f %8.1f%%\n",
                "traced inline wall", "", "", traced_ns, share(traced_ns));
    std::printf("  %-34s %10s %10s %10.2f %8.1f%%\n", "tracing overhead", "",
                "", overhead, share(overhead));
    if (remainder < 0) {
        std::printf("  (remainder < 0: the spans inflate the traced layers by "
                    "more than the engine's own overhead)\n");
    }
    std::printf("  off the inline path (ns per call):\n");
    for (const char* s :
         {"core.update.scalar", "core.update.sse2", "core.update.avx2",
          "replay.spsc_batch", "obs.counter_add", "obs.counter_add.contended",
          "obs.histogram_record", "obs.histogram_record.contended"}) {
        if (by.count(s)) {
            std::printf("  %-34s %10llu %10.2f\n", s,
                        static_cast<unsigned long long>(by[s].items),
                        per_call(s));
        }
    }
    std::printf("  %-34s %10s %10.0f  (%.2f MiB image)\n",
                "replay.ckpt.serialize", "",
                values["replay.ckpt.serialize_ns"],
                values["replay.ckpt.image_mib"]);
}

}  // namespace perfbench

namespace {

using namespace perfbench;

void usage() {
    std::fprintf(stderr,
                 "usage: perfbench gen --kind K --seed N --out PATH [--ops N]\n"
                 "       perfbench run --workload W --seed N --input PATH "
                 "--seconds S --trace 0|1 [--trace-out PATH] "
                 "[--wrong-reference]\n");
}

void print_result(const RunResult& r) {
    const bool correct = r.gate.failed == 0 && r.gate.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(
                    r.gate.attempted ? r.gate.attempted : 1),
                static_cast<unsigned long long>(r.gate.failed));
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric& m = r.metrics[i];
        const double v = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
    }
    std::printf("}}\n");
}

template <typename W>
RunResult dispatch(W& w, const RunArgs& a, const HostInfo& host) {
    return a.traced ? run_traced(w, a, host) : run_untraced(w, a, host);
}

int cmd_gen(const std::map<std::string, std::string>& opt) {
    if (!opt.count("kind") || !opt.count("seed") || !opt.count("out")) {
        usage();
        return 2;
    }
    const std::size_t ops =
        opt.count("ops") ? std::strtoull(opt.at("ops").c_str(), nullptr, 10)
                         : 0;
    const Status st = generate_input(
        opt.at("kind"), std::strtoull(opt.at("seed").c_str(), nullptr, 10),
        ops, opt.at("out"));
    if (!st.is_ok()) {
        std::fprintf(stderr, "gen: %s\n", st.to_string().c_str());
        return 1;
    }
    return 0;
}

int cmd_run(const std::map<std::string, std::string>& opt) {
    for (const char* k : {"workload", "seed", "input", "seconds", "trace"}) {
        if (!opt.count(k)) {
            usage();
            return 2;
        }
    }
    if (const std::string bad = refused_env(); !bad.empty()) {
        std::fprintf(stderr,
                     "refusing to run: %s is set and would change the "
                     "program being measured\n",
                     bad.c_str());
        return 2;
    }
    RunArgs a;
    a.workload = opt.at("workload");
    a.seed = std::strtoull(opt.at("seed").c_str(), nullptr, 10);
    a.seconds = std::strtod(opt.at("seconds").c_str(), nullptr);
    a.traced = opt.at("trace") == "1";
    a.wrong_reference = opt.count("wrong-reference") != 0;
    if (opt.count("trace-out")) a.trace_out = opt.at("trace-out");
    const std::string& input = opt.at("input");

    const HostInfo host = probe_host();
    print_host(host);
    RunResult r;
    if (a.workload == "cache-caida") {
        CacheWorkload w(input, FileKind::kMmap, 1u << 16);
        r = dispatch(w, a, host);
    } else if (a.workload == "cache-churn") {
        CacheWorkload w(input, FileKind::kChunked, 1u << 19);
        r = dispatch(w, a, host);
    } else if (a.workload == "lruindex-ycsb") {
        LruIndexWorkload w(input);
        r = dispatch(w, a, host);
    } else if (a.workload == "lrumon-caida") {
        LruMonWorkload w(input);
        r = dispatch(w, a, host);
    } else {
        std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
        return 2;
    }
    std::printf("\ncorrectness gate: %llu ops attempted, %llu failed\n",
                static_cast<unsigned long long>(r.gate.attempted),
                static_cast<unsigned long long>(r.gate.failed));
    for (const auto& why : r.gate.trips) {
        std::printf("gate tripped: %s\n", why.c_str());
    }
    print_result(r);
    std::fflush(stdout);
    return r.gate.failed == 0 && r.gate.attempted > 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        usage();
        return 2;
    }
    std::map<std::string, std::string> opt;
    for (int i = 2; i < argc; ++i) {
        if (std::strncmp(argv[i], "--", 2) != 0) {
            usage();
            return 2;
        }
        const std::string key = argv[i] + 2;
        if (key == "wrong-reference") {
            opt[key] = "1";
        } else if (i + 1 < argc) {
            opt[key] = argv[++i];
        } else {
            usage();
            return 2;
        }
    }
    const std::string cmd = argv[1];
    if (cmd == "gen") return cmd_gen(opt);
    if (cmd == "run") return cmd_run(opt);
    usage();
    return 2;
}
