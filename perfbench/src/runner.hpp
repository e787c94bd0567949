// The measurement loop shared by every workload.
//
// Untraced run: set up several times (median = setup_s), replay once
// sequentially as the correctness reference, warm every mode up once, then
// interleave timed full-stream passes of each engine mode until the time
// budget is spent.  Every pass is checked against the reference.
//
// Traced run: the same set-up and reference, then untraced inline passes
// (the wall-time baseline) alternating with span-traced re-enactments of
// the inline replay, then the benchmark's own span-wrapped calls into each
// remaining layer, reduced to the per-layer cost table.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "host.hpp"
#include "p4lru/obs/metrics.hpp"
#include "p4lru/replay/replay.hpp"
#include "p4lru/replay/shard_plan.hpp"
#include "p4lru/replay/spsc_queue.hpp"
#include "p4lru/replay/target_checkpoint.hpp"
#include "span_trace.hpp"
#include "workloads.hpp"

namespace perfbench {

struct RunArgs {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool traced = false;
    bool wrong_reference = false;  ///< perturb the reference (gate self-test)
    std::string trace_out;         ///< trace-event JSON path (traced run)
};

/// A metric of the final result line.
struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

struct RunResult {
    Gate gate;
    std::vector<Metric> metrics;
};

/// Engine modes the untraced run times.  kSharded2 repeats kSharded in the
/// same process: the pair is the noise floor printed beside the results.
enum class PassMode { kInline, kSharded, kCkpt, kObs, kSharded2 };

[[nodiscard]] const char* mode_name(PassMode m);

/// Median and quartiles (Python statistics.quantiles, exclusive method).
struct Summary {
    double median = 0, q1 = 0, q3 = 0;
    std::size_t n = 0;
};
[[nodiscard]] Summary summarize(std::vector<double> v);

namespace detail {

using Clock = std::chrono::steady_clock;

inline double secs(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

/// Side outputs of one timed pass, read by the traced run.
template <typename Stats>
struct PassInfo {
    double seconds = 0;
    p4lru::replay::BasicShardedReport<Stats> report{};
    std::vector<double> serialize_ns;  ///< per checkpoint image
    std::uint64_t image_bytes = 0;
    p4lru::obs::Snapshot snapshot;     ///< kObs passes
};

}  // namespace detail

/// Usable worker count: one core for the dispatcher and one per reader
/// thread of the source, the rest for shard workers.
[[nodiscard]] inline std::size_t worker_count(std::size_t cores,
                                              std::size_t readers) {
    const std::size_t reserved = 1 + readers;
    return cores > reserved ? cores - reserved : 1;
}

/// One full-stream pass of `mode` on a fresh target and source, checked
/// against `ref`.  Returns false (and charges the gate) on failure.
template <typename W>
bool run_pass(W& w, PassMode mode, const typename W::Stats& ref,
              std::size_t workers, Gate& gate,
              detail::PassInfo<typename W::Stats>& info) {
    using Stats = typename W::Stats;
    const std::uint64_t n = W::ops(ref);
    std::unique_ptr<p4lru::obs::Registry> reg;
    if (mode == PassMode::kObs) {
        reg = std::make_unique<p4lru::obs::Registry>();
    }
    auto box = w.make_target(reg.get());
    auto opened = w.open_ops(reg.get());
    if (!opened.is_ok()) {
        gate.fail(n, std::string(mode_name(mode)) + ": source open failed: " +
                         opened.status().to_string());
        return false;
    }
    auto& ops = opened.value()->ops;
    p4lru::replay::ShardedConfig cfg;
    cfg.shards = workers;
    cfg.mode = mode == PassMode::kInline ? p4lru::replay::Mode::kInline
                                         : p4lru::replay::Mode::kAuto;
    cfg.metrics = reg.get();

    Expected<p4lru::replay::BasicShardedReport<Stats>> rep =
        p4lru::Status(p4lru::ErrorCode::kInvalidArgument, "not run");
    const auto t0 = detail::Clock::now();
    if (mode == PassMode::kCkpt) {
        const std::uint64_t every = std::max<std::uint64_t>(
            1, n / std::max<std::size_t>(cfg.batch_ops, 1) / 10);
        std::vector<std::byte> last_image;
        auto sink = [&](p4lru::replay::TargetCheckpoint<Stats>&& cp) {
            const auto s0 = detail::Clock::now();
            auto img = p4lru::replay::serialize_target_checkpoint(cp);
            info.serialize_ns.push_back(
                std::chrono::duration<double, std::nano>(
                    detail::Clock::now() - s0)
                    .count());
            info.image_bytes = img.bytes.size();
            last_image = std::move(img.bytes);
        };
        rep = p4lru::replay::replay_target_checkpointed_stream(
            box->target, ops, cfg, every, sink);
    } else {
        rep = p4lru::replay::replay_target_sharded_stream(box->target, ops,
                                                          cfg);
    }
    info.seconds = detail::secs(t0, detail::Clock::now());
    if (reg) info.snapshot = reg->snapshot();

    if (!rep.is_ok()) {
        gate.fail(n, std::string(mode_name(mode)) +
                         ": replay failed: " + rep.status().to_string());
        return false;
    }
    info.report = rep.value();
    const Stats& got = info.report.stats;
    if (!(got == ref)) {
        gate.fail(n, std::string(mode_name(mode)) +
                         ": stats differ from sequential reference: got " +
                         W::describe(got) + ", want " + W::describe(ref));
        return false;
    }
    if (const std::string bad = w.invalid(got); !bad.empty()) {
        gate.fail(n, std::string(mode_name(mode)) + ": " + bad);
        return false;
    }
    gate.pass(n);
    return true;
}

/// Sequential reference over a fresh target and source.
template <typename W>
bool reference(W& w, typename W::Stats& ref, Gate& gate) {
    auto box = w.make_target(nullptr);
    auto opened = w.open_ops(nullptr);
    if (!opened.is_ok()) {
        gate.fail(1, "reference: source open failed: " +
                         opened.status().to_string());
        return false;
    }
    auto got = p4lru::replay::replay_target_sequential_stream(
        box->target, opened.value()->ops);
    if (!got.is_ok()) {
        gate.fail(1, "reference: sequential replay failed: " +
                         got.status().to_string());
        return false;
    }
    ref = got.value();
    if (W::ops(ref) == 0) {
        gate.fail(1, "reference: empty input");
        return false;
    }
    if (const std::string bad = w.invalid(ref); !bad.empty()) {
        gate.fail(W::ops(ref), "reference: " + bad);
        return false;
    }
    gate.pass(W::ops(ref));
    return true;
}

/// Median over repeated set-ups: at least five, and more until
/// `min_seconds` have been spent, so millisecond set-ups get a steady median.
template <typename W>
bool timed_setup(W& w, double min_seconds, Gate& gate, SetupTimes& med) {
    std::vector<double> total, mat, build;
    const auto start = detail::Clock::now();
    for (int i = 0; i < 101; ++i) {
        if (i >= 5 &&
            detail::secs(start, detail::Clock::now()) >= min_seconds) {
            break;
        }
        auto t = w.setup();
        if (!t.is_ok()) {
            gate.fail(1, "setup: " + t.status().to_string());
            return false;
        }
        total.push_back(t.value().total_s);
        mat.push_back(t.value().materialize_s);
        build.push_back(t.value().build_s);
    }
    med.total_s = summarize(total).median;
    med.materialize_s = summarize(mat).median;
    med.build_s = summarize(build).median;
    return true;
}

void print_summary_row(const char* name, const Summary& s, const char* unit);

template <typename W>
RunResult run_untraced(W& w, const RunArgs& a, const HostInfo& host) {
    using Stats = typename W::Stats;
    RunResult out;
    Gate& gate = out.gate;
    const std::size_t workers = worker_count(host.usable_cores,
                                             w.reader_threads());
    std::printf("workload: %s  seed: %llu  source: %s  shard workers: %zu\n",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                w.source_kind(), workers);

    SetupTimes setup;
    Stats ref{};
    if (!timed_setup(w, 0.3, gate, setup) || !reference(w, ref, gate)) {
        return out;
    }
    if (a.wrong_reference) ++ref.hits;
    const std::uint64_t n = W::ops(ref);
    std::printf("reference: %s\n", W::describe(ref).c_str());

    // Warm-up: page cache first, then one discarded pass per mode.
    preread(w.path());
    const PassMode modes[] = {PassMode::kInline, PassMode::kSharded,
                              PassMode::kCkpt, PassMode::kObs,
                              PassMode::kSharded2};
    detail::PassInfo<Stats> info;
    for (const PassMode m : modes) {
        if (m == PassMode::kSharded2) continue;
        run_pass(w, m, ref, workers, gate, info);
    }

    std::vector<double> mops[5];
    bool threaded = false;
    const auto start = detail::Clock::now();
    for (int round = 0; round < 200; ++round) {
        if (round >= 3 &&
            detail::secs(start, detail::Clock::now()) >= a.seconds) {
            break;
        }
        for (const PassMode m : modes) {
            detail::PassInfo<Stats> pi;
            if (run_pass(w, m, ref, workers, gate, pi)) {
                mops[static_cast<int>(m)].push_back(
                    static_cast<double>(n) / pi.seconds / 1e6);
                if (m == PassMode::kSharded) threaded = pi.report.threaded;
            }
        }
    }

    Summary sum[5];
    for (const PassMode m : modes) {
        sum[static_cast<int>(m)] = summarize(mops[static_cast<int>(m)]);
    }
    std::printf("\n%-22s %12s %12s %12s %6s\n", "mode", "median", "q1", "q3",
                "n");
    for (const PassMode m : modes) {
        print_summary_row(mode_name(m), sum[static_cast<int>(m)], "Mops/s");
    }
    for (const PassMode m : modes) {
        std::printf("passes %s:", mode_name(m));
        for (const double v : mops[static_cast<int>(m)]) {
            std::printf(" %.3f", v);
        }
        std::printf("\n");
    }
    std::printf("kAuto picked the %s path with %zu shard workers\n",
                threaded ? "threaded" : "inline", workers);
    const Summary& a1 = sum[static_cast<int>(PassMode::kSharded)];
    const Summary& a2 = sum[static_cast<int>(PassMode::kSharded2)];
    std::printf(
        "noise floor: sharded read %.4f and %.4f Mops/s in one process "
        "(%+.2f%%)\n",
        a1.median, a2.median,
        a1.median > 0 ? 100.0 * (a2.median - a1.median) / a1.median : 0.0);

    out.metrics = {
        {"setup_s", setup.total_s, "s"},
        {"inline_mops", sum[static_cast<int>(PassMode::kInline)].median,
         "Mops/s"},
        {"sharded_mops", a1.median, "Mops/s"},
        {"ckpt_mops", sum[static_cast<int>(PassMode::kCkpt)].median,
         "Mops/s"},
        {"obs_mops", sum[static_cast<int>(PassMode::kObs)].median, "Mops/s"},
        {"slow_path_share", W::slow_path_share(ref), "fraction"},
        {"peak_rss_mib", peak_rss_mib(), "MiB"},
    };
    return out;
}

/// The per-layer metric names of the traced run, with their units, in the
/// order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
layer_metric_units();

/// Print the cost table and turn the span reduction into layer metrics.
void report_layers(const SpanTrace& t, double inline_ns, double traced_ns,
                   std::uint64_t ops, LayerValues& values);

template <typename Target>
void spsc_batch_layer(SpanTrace& t, const std::vector<typename Target::Routed>&
                                        batch) {
    using Batch = std::vector<typename Target::Routed>;
    constexpr std::size_t kBatches = 20000;
    p4lru::replay::SpscQueue<Batch> q(64);
    ScopedSpan span(t, "replay.spsc_batch", kBatches);
    std::thread consumer([&q] {
        Batch got;
        std::size_t seen = 0;
        while (seen < kBatches) {
            if (q.try_pop(got)) {
                ++seen;
            } else {
                std::this_thread::yield();
            }
        }
    });
    for (std::size_t i = 0; i < kBatches; ++i) {
        Batch b(batch);  // the dispatcher hands over a fresh batch per push
        while (!q.try_push(b)) std::this_thread::yield();
    }
    consumer.join();
}

void obs_layers(SpanTrace& t, std::size_t workers);

/// The engine's inline replay re-enacted from the benchmark: pull, route
/// (with the unit prefetch the engine makes beside it) and apply in blocks
/// of the engine's batch size, one span per layer call.  Returns the pass's
/// wall seconds, or 0 when it failed the gate.  Keeps one full routed batch
/// in `sample` for the queue measurement.
template <typename W>
double traced_inline_pass(W& w, SpanTrace& t, const typename W::Stats& ref,
                          Gate& gate,
                          std::vector<typename W::Target::Routed>& sample) {
    using Routed = typename W::Target::Routed;
    constexpr std::size_t kBatch = 256;
    const std::uint64_t n = W::ops(ref);
    auto box = w.make_target(nullptr);
    auto opened = w.open_ops(nullptr);
    if (!opened.is_ok()) {
        gate.fail(n, "traced: source open failed: " +
                         opened.status().to_string());
        return 0;
    }
    auto& ops = opened.value()->ops;
    auto& target = box->target;
    std::vector<Routed> block;
    block.reserve(kBatch);
    typename W::Stats st{};
    bool failed = false;
    const auto t0 = detail::Clock::now();
    const auto root = t.begin("replay.traced_inline", n);
    for (;;) {
        const auto blk = t.begin("replay.block");
        const auto pull = t.begin("trace.next_batch");
        auto pulled = ops.next_batch(kBatch);
        t.end(pull);
        if (!pulled.is_ok() || pulled.value().empty()) {
            failed = !pulled.is_ok();
            t.end(blk);
            break;
        }
        const auto chunk = pulled.value();
        t.set_items(pull, chunk.size());
        t.set_items(blk, chunk.size());
        block.clear();
        {
            ScopedSpan sp(t, "common.route", chunk.size());
            for (const auto& op : chunk) {
                block.push_back(target.route(op));
                target.prefetch_unit(block.back().bucket);
            }
        }
        {
            ScopedSpan sp(t, "core.apply", chunk.size());
            target.apply_batch(std::span<const Routed>(block), st);
        }
        if (sample.empty() && block.size() == kBatch) sample = block;
        t.end(blk);
    }
    t.end(root);
    const double secs = detail::secs(t0, detail::Clock::now());
    if (failed || !(st == ref)) {
        gate.fail(n, "traced inline: stats " + W::describe(st) +
                         " != reference " + W::describe(ref));
        return 0;
    }
    gate.pass(n);
    return secs;
}

template <typename W>
RunResult run_traced(W& w, const RunArgs& a, const HostInfo& host) {
    using Stats = typename W::Stats;
    using Target = typename W::Target;
    RunResult out;
    Gate& gate = out.gate;
    const std::size_t workers = worker_count(host.usable_cores,
                                             w.reader_threads());
    std::printf("workload: %s  seed: %llu  source: %s  shard workers: %zu "
                "(traced run)\n",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                w.source_kind(), workers);
    SetupTimes setup;
    Stats ref{};
    if (!timed_setup(w, 0.3, gate, setup) || !reference(w, ref, gate)) {
        return out;
    }
    if (a.wrong_reference) ++ref.hits;
    const std::uint64_t n = W::ops(ref);
    preread(w.path());

    const auto run_id = static_cast<std::uint64_t>(
        detail::Clock::now().time_since_epoch().count());
    SpanTrace t(run_id);
    LayerValues values;

    // Untraced and traced inline passes alternate, after one warm-up, so
    // both see the same machine; the layer costs are means over the traced
    // passes, the walls medians.
    std::vector<double> inline_ns, traced_ns;
    std::vector<typename Target::Routed> sample_batch;
    detail::PassInfo<Stats> warm;
    run_pass(w, PassMode::kInline, ref, workers, gate, warm);
    for (int i = 0; i < 3; ++i) {
        detail::PassInfo<Stats> pi;
        if (run_pass(w, PassMode::kInline, ref, workers, gate, pi)) {
            inline_ns.push_back(pi.seconds * 1e9 / static_cast<double>(n));
        }
        const double s = traced_inline_pass(w, t, ref, gate, sample_batch);
        if (s > 0) traced_ns.push_back(s * 1e9 / static_cast<double>(n));
    }

    w.trace_components(t, values, ref, gate);
    if (!sample_batch.empty()) spsc_batch_layer<Target>(t, sample_batch);

    // Engine-side layers through the public report and obs snapshot.
    {
        detail::PassInfo<Stats> pi;
        if (run_pass(w, PassMode::kObs, ref, workers, gate, pi)) {
            const auto* h = pi.snapshot.histogram("replay_batch_apply_ns");
            const double busy = h != nullptr ? static_cast<double>(h->sum)
                                             : 0.0;
            const std::size_t used = pi.report.threaded ? pi.report.shards : 1;
            values["replay.worker_busy_share"] =
                busy / (static_cast<double>(used) * pi.seconds * 1e9);
            values["replay.backpressure_waits"] =
                static_cast<double>(pi.report.backpressure_waits);
            const auto* stalls = pi.snapshot.counter("trace_reader_stalls");
            values["trace.reader_stalls"] =
                stalls != nullptr ? static_cast<double>(*stalls) : 0.0;
        }
        detail::PassInfo<Stats> ck;
        if (run_pass(w, PassMode::kCkpt, ref, workers, gate, ck)) {
            values["replay.ckpt.serialize_ns"] =
                summarize(ck.serialize_ns).median;
            values["replay.ckpt.image_mib"] =
                static_cast<double>(ck.image_bytes) / (1024.0 * 1024.0);
        }
    }

    // Shard skew: max/mean ops per ShardPlan owner over the whole stream.
    {
        auto box = w.make_target(nullptr);
        auto opened = w.open_ops(nullptr);
        if (opened.is_ok()) {
            auto& ops = opened.value()->ops;
            const auto plan = p4lru::replay::ShardPlan::make(
                box->target.unit_count(), workers);
            std::vector<std::uint64_t> per(plan.shards());
            for (;;) {
                auto pulled = ops.next_batch(4096);
                if (!pulled.is_ok() || pulled.value().empty()) break;
                for (const auto& op : pulled.value()) {
                    ++per[plan.owner(box->target.route(op).bucket)];
                }
            }
            const double mx = static_cast<double>(
                *std::max_element(per.begin(), per.end()));
            values["replay.shard_skew"] =
                mx * static_cast<double>(per.size()) / static_cast<double>(n);
        }
    }
    obs_layers(t, workers);

    values["core.materialize_s"] = setup.materialize_s;
    values["index.build_s"] = setup.build_s;
    report_layers(t, summarize(inline_ns).median,
                  summarize(traced_ns).median, n, values);

    if (!a.trace_out.empty()) {
        if (t.write_trace_events(a.trace_out)) {
            std::printf("trace events: %zu spans -> %s\n", t.size(),
                        a.trace_out.c_str());
        } else {
            gate.fail(1, "cannot write trace events to " + a.trace_out);
        }
    }
    for (const auto& [name, unit] : layer_metric_units()) {
        const auto it = values.find(name);
        out.metrics.push_back(
            {name, it == values.end() ? 0.0 : it->second, unit});
    }
    return out;
}

}  // namespace perfbench
