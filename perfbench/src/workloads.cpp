#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "p4lru/cache/policy.hpp"
#include "p4lru/common/hash.hpp"
#include "p4lru/core/simd/scan_kernels.hpp"
#include "p4lru/systems/lrumon/analyzer.hpp"
#include "p4lru/systems/lrumon/tower_filter.hpp"
#include "p4lru/trace/trace_gen.hpp"
#include "p4lru/trace/trace_io.hpp"
#include "p4lru/trace/ycsb.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Full-size inputs.  The packet trace is a CAIDA_60-like trace (60
// independent flow populations back to back); the churn trace has a light
// flow-size tail (Pareto alpha 3), so most flows are short and the cache
// keeps replacing.
constexpr std::size_t kCaidaPackets = 2'000'000;
constexpr std::size_t kCaidaSegments = 60;
constexpr std::size_t kChurnPackets = 8'000'000;
constexpr double kChurnAlpha = 3.0;
constexpr std::size_t kYcsbQueries = 1'000'000;
constexpr std::uint64_t kDbItems = 1'000'000;
constexpr double kYcsbZipf = 0.9;

// LruIndex geometry: 8 partitions x 4 series levels x 2^13 units.
constexpr std::size_t kIndexPartitions = 8;
constexpr std::size_t kIndexLevels = 4;
constexpr std::size_t kIndexUnits = 1u << 13;

// LruMon geometry: 8 partitions, TowerSketch filter budget split evenly, a
// 2^17-unit AddMerge P4LRU3 cache split evenly, threshold 1500 B.
constexpr std::size_t kMonPartitions = 8;
constexpr std::size_t kMonCacheUnits = 1u << 17;
constexpr std::uint32_t kMonThreshold = 1500;

constexpr char kQueryMagic[8] = {'P', '4', 'L', 'B', 'Q', 'R', 'Y', '1'};
constexpr std::size_t kQueryHeaderBytes = 16;  // magic + u64 count

void put_u64(std::uint8_t* p, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
std::uint64_t get_u64(const std::uint8_t* p) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

Status write_queries(const std::string& path, std::uint64_t seed,
                     std::size_t count) {
    p4lru::trace::YcsbConfig cfg;
    cfg.seed = seed;
    cfg.items = kDbItems;
    cfg.zipf_alpha = kYcsbZipf;
    const auto ops = p4lru::systems::lruindex::make_index_ops(cfg, count);
    std::vector<std::uint8_t> buf(kQueryHeaderBytes + 8 * ops.size());
    std::memcpy(buf.data(), kQueryMagic, sizeof(kQueryMagic));
    put_u64(buf.data() + 8, ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
        put_u64(buf.data() + kQueryHeaderBytes + 8 * i, ops[i].key);
    }
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return p4lru::io_error_errno("cannot create", path);
    const bool ok = std::fwrite(buf.data(), 1, buf.size(), f) == buf.size();
    if (std::fclose(f) != 0 || !ok) {
        return p4lru::io_error_errno("short write to", path);
    }
    return Status::ok();
}

}  // namespace

// -- input files ----------------------------------------------------------

Status generate_input(const std::string& kind, std::uint64_t seed,
                      std::size_t ops, const std::string& path) {
    if (kind == "ycsb") {
        return write_queries(path, seed, ops ? ops : kYcsbQueries);
    }
    p4lru::trace::TraceConfig cfg;
    cfg.seed = seed;
    if (kind == "caida") {
        cfg.total_packets = ops ? ops : kCaidaPackets;
        cfg.segments = kCaidaSegments;
    } else if (kind == "churn") {
        cfg.total_packets = ops ? ops : kChurnPackets;
        cfg.pareto_alpha = kChurnAlpha;
    } else {
        return Status(p4lru::ErrorCode::kInvalidArgument,
                      "unknown input kind '" + kind + "'");
    }
    try {
        p4lru::trace::write_trace(path, p4lru::trace::generate_trace(cfg));
    } catch (const std::exception& e) {
        return p4lru::io_error(e.what());
    }
    return Status::ok();
}

Expected<std::vector<p4lru::systems::lruindex::LruIndexOp>> read_queries(
    const std::string& path) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    if (ec) return p4lru::io_error("cannot stat '" + path + "'");
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return p4lru::io_error_errno("cannot open", path);
    std::vector<std::uint8_t> buf(size);
    const bool read_ok = std::fread(buf.data(), 1, size, f) == size;
    std::fclose(f);
    if (!read_ok) return p4lru::io_error_errno("short read of", path);
    if (size < kQueryHeaderBytes ||
        std::memcmp(buf.data(), kQueryMagic, sizeof(kQueryMagic)) != 0) {
        return p4lru::corrupt("bad query file magic in '" + path + "'", 0);
    }
    const std::uint64_t count = get_u64(buf.data() + 8);
    if (count != (size - kQueryHeaderBytes) / 8 ||
        (size - kQueryHeaderBytes) % 8 != 0) {
        return p4lru::corrupt("query count does not match size of '" + path +
                                  "'",
                              8);
    }
    std::vector<p4lru::systems::lruindex::LruIndexOp> ops(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        ops[i] = {i, get_u64(buf.data() + kQueryHeaderBytes + 8 * i)};
    }
    return ops;
}

void preread(const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return;
    std::vector<char> buf(1u << 20);
    while (std::fread(buf.data(), 1, buf.size(), f) == buf.size()) {
    }
    std::fclose(f);
}

Expected<std::unique_ptr<p4lru::trace::TraceSource>> open_trace(
    const std::string& path, FileKind kind, p4lru::obs::Registry* reg) {
    if (kind == FileKind::kMmap) {
        p4lru::trace::MmapSourceOptions o;
        o.metrics = reg;
        auto s = p4lru::trace::MmapSource::open(path, o);
        if (!s.is_ok()) return s.status();
        return std::unique_ptr<p4lru::trace::TraceSource>(
            std::move(s).value());
    }
    p4lru::trace::ChunkedSourceOptions o;
    o.metrics = reg;
    auto s = p4lru::trace::ChunkedFileSource::open(path, o);
    if (!s.is_ok()) return s.status();
    return std::unique_ptr<p4lru::trace::TraceSource>(std::move(s).value());
}

// -- bare cache -------------------------------------------------------------

Expected<SetupTimes> CacheWorkload::setup() {
    SetupTimes t;
    const auto t0 = Clock::now();
    auto ops = open_ops(nullptr);
    if (!ops.is_ok()) return ops.status();
    Box box(units_);
    const auto t1 = Clock::now();
    box.target.materialize();
    t.materialize_s = since(t1);
    t.total_s = since(t0);
    return t;
}

std::unique_ptr<CacheWorkload::Box> CacheWorkload::make_target(
    p4lru::obs::Registry*) {
    auto box = std::make_unique<Box>(units_);
    box->target.materialize();
    return box;
}

Expected<std::unique_ptr<CacheWorkload::Ops>> CacheWorkload::open_ops(
    p4lru::obs::Registry* reg) {
    auto src = open_trace(path_, kind_, reg);
    if (!src.is_ok()) return src.status();
    return std::make_unique<Ops>(std::move(src).value());
}

double CacheWorkload::slow_path_share(const Stats& s) {
    return s.ops ? static_cast<double>(s.misses) / static_cast<double>(s.ops)
                 : 0.0;
}

std::string CacheWorkload::describe(const Stats& s) {
    return "ops=" + std::to_string(s.ops) + " hits=" + std::to_string(s.hits) +
           " misses=" + std::to_string(s.misses) +
           " evictions=" + std::to_string(s.evictions);
}

void CacheWorkload::trace_components(SpanTrace& t, LayerValues& out,
                                     const Stats& ref, Gate& gate) {
    namespace simd = p4lru::core::simd;
    struct KernelSpan {
        simd::ScanKernel kernel;
        const char* span;
    };
    static constexpr std::array<KernelSpan, 3> kKernels{{
        {simd::ScanKernel::kScalar, "core.update.scalar"},
        {simd::ScanKernel::kSse2, "core.update.sse2"},
        {simd::ScanKernel::kAvx2, "core.update.avx2"},
    }};
    const auto dispatched = simd::dispatched_kernel();
    for (const auto& k : kKernels) {
        if (!simd::kernel_available(k.kernel) ||
            !simd::set_kernel_override(k.kernel)) {
            continue;
        }
        Cache cache(units_, kHashSeed);
        auto ops = open_ops(nullptr);
        if (!ops.is_ok()) {
            gate.fail(ref.ops, "source: " + ops.status().to_string());
            continue;
        }
        auto& src = ops.value()->ops;
        Stats s;
        std::array<std::uint64_t, 4> pos{};
        const auto root = t.begin("core.update_pass");
        for (;;) {
            auto pulled = src.next_batch(4096);
            if (!pulled.is_ok() || pulled.value().empty()) break;
            const auto chunk = pulled.value();
            ScopedSpan span(t, k.span, chunk.size());
            for (const auto& op : chunk) {
                const auto r = cache.update(op.key, op.value);
                s.tally(r);
                if (r.hit && r.hit_pos < pos.size()) ++pos[r.hit_pos];
            }
        }
        t.end(root);
        if (!(s == ref)) {
            gate.fail(ref.ops, std::string("kernel ") +
                                   simd::kernel_name(k.kernel) +
                                   ": per-op update stats " + describe(s) +
                                   " != reference " + describe(ref));
        } else {
            gate.pass(ref.ops);
        }
        if (k.kernel == dispatched && s.ops != 0) {
            const double hits = static_cast<double>(s.hits ? s.hits : 1);
            out["core.hit_pos1_share"] = static_cast<double>(pos[1]) / hits;
            out["core.hit_pos2_share"] = static_cast<double>(pos[2]) / hits;
            out["core.hit_pos3_share"] = static_cast<double>(pos[3]) / hits;
            out["core.evictions_per_op"] =
                static_cast<double>(s.evictions) /
                static_cast<double>(s.ops);
        }
    }
    simd::clear_kernel_override();
}

// -- LruIndex ---------------------------------------------------------------

LruIndexWorkload::Target::Config LruIndexWorkload::config() const {
    Target::Config cfg;
    cfg.partitions = kIndexPartitions;
    cfg.levels = kIndexLevels;
    cfg.units_per_level = kIndexUnits;
    return cfg;
}

Expected<SetupTimes> LruIndexWorkload::setup() {
    SetupTimes t;
    server_.reset();
    const auto t0 = Clock::now();
    auto q = read_queries(path_);
    if (!q.is_ok()) return q.status();
    queries_ = std::move(q).value();
    const auto t1 = Clock::now();
    server_ = std::make_unique<p4lru::systems::lruindex::DbServer>(
        kDbItems, p4lru::systems::lruindex::ServerCosts{});
    t.build_s = since(t1);
    Target target(*server_, config());
    t.total_s = since(t0);
    return t;
}

std::unique_ptr<LruIndexWorkload::Box> LruIndexWorkload::make_target(
    p4lru::obs::Registry* reg) {
    auto box = std::make_unique<Box>(*server_, config());
    box->target.set_metrics(reg);
    return box;
}

Expected<std::unique_ptr<LruIndexWorkload::Ops>> LruIndexWorkload::open_ops(
    p4lru::obs::Registry*) {
    return std::make_unique<Ops>(std::span<const Op>(queries_));
}

double LruIndexWorkload::slow_path_share(const Stats& s) {
    return s.ops ? static_cast<double>(s.misses) / static_cast<double>(s.ops)
                 : 0.0;
}

std::string LruIndexWorkload::describe(const Stats& s) {
    return "ops=" + std::to_string(s.ops) + " hits=" + std::to_string(s.hits) +
           " misses=" + std::to_string(s.misses) +
           " failed_queries=" + std::to_string(s.failed_queries) +
           " wrong_replies=" + std::to_string(s.wrong_replies);
}

std::string LruIndexWorkload::invalid(const Stats& s) const {
    if (s.wrong_replies != 0 || s.failed_queries != 0) {
        return "lruindex: wrong_replies=" + std::to_string(s.wrong_replies) +
               " failed_queries=" + std::to_string(s.failed_queries);
    }
    return {};
}

void LruIndexWorkload::trace_components(SpanTrace& t, LayerValues& /*out*/,
                                        const Stats& ref, Gate& gate) {
    using p4lru::systems::lruindex::SeriesIndexCache;
    constexpr std::size_t kBlock = 256;
    constexpr std::size_t kSampleEvery = 32;
    const Target::Config cfg = config();
    std::vector<SeriesIndexCache> parts;
    parts.reserve(cfg.partitions);
    for (std::size_t p = 0; p < cfg.partitions; ++p) {
        parts.emplace_back(cfg.levels, cfg.units_per_level,
                           cfg.seed + static_cast<std::uint32_t>(p) * 0x5bd1u);
        auto& series = parts.back().series();
        for (std::size_t i = 0; i < series.level_count(); ++i) {
            series.level(i).materialize();
        }
    }
    Stats s;
    const auto root = t.begin("systems.lruindex.components", queries_.size());
    for (std::size_t base = 0; base < queries_.size(); base += kBlock) {
        const std::size_t n = std::min(kBlock, queries_.size() - base);
        const bool sampled = (base / kBlock) % kSampleEvery == 0;
        for (std::size_t i = base; i < base + n; ++i) {
            const auto key = queries_[i].key;
            auto& cache =
                parts[p4lru::hash::mix64(key) % parts.size()];
            p4lru::systems::lruindex::CacheHeader hdr;
            p4lru::systems::lruindex::ServeResult res;
            if (sampled) {
                {
                    ScopedSpan sp(t, "systems.lruindex.query", 1);
                    hdr = cache.query(key);
                }
                {
                    ScopedSpan sp(t,
                                  hdr.hit() ? "index.serve.hit"
                                            : "index.serve.miss",
                                  1);
                    res = server_->serve(key, hdr);
                }
                {
                    ScopedSpan sp(t, "systems.lruindex.reply", 1);
                    cache.reply(key, res.addr, hdr, 0);
                }
            } else {
                hdr = cache.query(key);
                res = server_->serve(key, hdr);
                cache.reply(key, res.addr, hdr, 0);
            }
            ++s.ops;
            ++(hdr.hit() ? s.hits : s.misses);
            if (!res.valid || res.addr != server_->address_of(key)) {
                ++s.wrong_replies;
            }
        }
    }
    t.end(root);
    if (s.ops != ref.ops || s.hits != ref.hits || s.misses != ref.misses ||
        s.wrong_replies != 0) {
        gate.fail(ref.ops, "lruindex components: " + describe(s) +
                               " != reference " + describe(ref));
    } else {
        gate.pass(ref.ops);
    }
}

// -- LruMon -------------------------------------------------------------------

namespace {

using MonPolicy =
    p4lru::cache::P4lruArrayPolicy<std::uint32_t, p4lru::systems::lrumon::FlowLen,
                                   3, p4lru::core::AddMerge>;

std::unique_ptr<p4lru::systems::lrumon::FlowFilter> mon_filter(std::size_t p) {
    p4lru::systems::lrumon::FilterConfig f;
    f.tower_width1 = (1u << 20) / kMonPartitions;
    f.tower_width2 = (1u << 19) / kMonPartitions;
    f.seed = 0x70EEE + p * 0x9E3779B9ull;
    return p4lru::systems::lrumon::make_filter(
        p4lru::systems::lrumon::FilterKind::kTower, f);
}

LruMonWorkload::Target::PolicyPtr mon_policy(std::size_t p) {
    return std::make_unique<MonPolicy>(3 * kMonCacheUnits / kMonPartitions,
                                       0xD1 + static_cast<std::uint32_t>(p) *
                                                  0x9E37u);
}

p4lru::systems::lrumon::LruMonConfig mon_config() {
    p4lru::systems::lrumon::LruMonConfig cfg;
    cfg.threshold = kMonThreshold;
    cfg.track_ground_truth = false;  // uploads are the measured output
    return cfg;
}

}  // namespace

Expected<SetupTimes> LruMonWorkload::setup() {
    SetupTimes t;
    const auto t0 = Clock::now();
    auto ops = open_ops(nullptr);
    if (!ops.is_ok()) return ops.status();
    Target target(kMonPartitions, mon_filter, mon_policy, mon_config());
    t.total_s = since(t0);
    return t;
}

std::unique_ptr<LruMonWorkload::Box> LruMonWorkload::make_target(
    p4lru::obs::Registry* reg) {
    auto box = std::make_unique<Box>(kMonPartitions, mon_filter, mon_policy,
                                     mon_config());
    box->target.set_metrics(reg);
    return box;
}

Expected<std::unique_ptr<LruMonWorkload::Ops>> LruMonWorkload::open_ops(
    p4lru::obs::Registry* reg) {
    auto src = open_trace(path_, FileKind::kMmap, reg);
    if (!src.is_ok()) return src.status();
    return std::make_unique<Ops>(std::move(src).value());
}

double LruMonWorkload::slow_path_share(const Stats& s) {
    return s.ops ? static_cast<double>(s.uploads) / static_cast<double>(s.ops)
                 : 0.0;
}

std::string LruMonWorkload::describe(const Stats& s) {
    return "ops=" + std::to_string(s.ops) +
           " filtered=" + std::to_string(s.filtered) +
           " elephants=" + std::to_string(s.elephants) +
           " hits=" + std::to_string(s.hits) +
           " uploads=" + std::to_string(s.uploads);
}

void LruMonWorkload::trace_components(SpanTrace& t, LayerValues& out,
                                      const Stats& ref, Gate& gate) {
    constexpr std::size_t kBlock = 256;
    std::vector<std::unique_ptr<p4lru::systems::lrumon::FlowFilter>> filters;
    std::vector<Target::PolicyPtr> policies;
    std::vector<p4lru::systems::lrumon::Analyzer> analyzers(kMonPartitions);
    for (std::size_t p = 0; p < kMonPartitions; ++p) {
        filters.push_back(mon_filter(p));
        policies.push_back(mon_policy(p));
    }
    auto opened = open_ops(nullptr);
    if (!opened.is_ok()) {
        gate.fail(ref.ops, "source: " + opened.status().to_string());
        return;
    }
    auto& src = opened.value()->ops;
    const std::uint32_t threshold = mon_config().threshold;

    struct Row {
        std::uint32_t part = 0;
        std::uint32_t fp = 0;
        bool elephant = false;
        p4lru::cache::Access<std::uint32_t, p4lru::systems::lrumon::FlowLen>
            access{};
    };
    std::vector<Row> rows(kBlock);
    Stats s;
    const auto root = t.begin("systems.lrumon.components", src.size());
    for (;;) {
        auto pulled = src.next_batch(kBlock);
        if (!pulled.is_ok() || pulled.value().empty()) break;
        const auto chunk = pulled.value();
        const std::size_t n = chunk.size();
        for (std::size_t i = 0; i < n; ++i) {
            rows[i].fp = p4lru::hash::fingerprint32(chunk[i].flow);
            rows[i].part =
                static_cast<std::uint32_t>(rows[i].fp % kMonPartitions);
        }
        // Each partition's filter, policy and analyzer see their calls in
        // stream order; the filter never reads the policy, so filtering a
        // block before filling it keeps every component's call sequence
        // identical to the target's per-op apply.
        std::uint64_t elephants = 0;
        {
            ScopedSpan sp(t, "sketch.filter", n);
            for (std::size_t i = 0; i < n; ++i) {
                const auto est = filters[rows[i].part]->add_and_estimate(
                    rows[i].fp, chunk[i].len, chunk[i].ts);
                rows[i].elephant = est >= threshold;
                elephants += rows[i].elephant ? 1 : 0;
            }
        }
        std::uint64_t uploads = 0;
        {
            ScopedSpan sp(t, "systems.lrumon.policy", elephants);
            for (std::size_t i = 0; i < n; ++i) {
                if (!rows[i].elephant) continue;
                rows[i].access = policies[rows[i].part]->fill(
                    rows[i].fp, chunk[i].len, chunk[i].ts);
                uploads += rows[i].access.hit ? 0 : 1;
            }
        }
        {
            ScopedSpan sp(t, "systems.lrumon.analyzer", uploads);
            for (std::size_t i = 0; i < n; ++i) {
                const auto& r = rows[i];
                if (!r.elephant || r.access.hit) continue;
                auto& an = analyzers[r.part];
                if (r.access.inserted) {
                    an.on_upload(
                        chunk[i].flow, r.fp,
                        r.access.evicted ? r.access.evicted_key : 0,
                        r.access.evicted ? r.access.evicted_value : 0);
                } else {
                    an.on_upload(chunk[i].flow, r.fp, r.fp, chunk[i].len);
                }
            }
        }
        s.ops += n;
        s.elephants += elephants;
        s.filtered += n - elephants;
        s.uploads += uploads;
        s.hits += elephants - uploads;
    }
    t.end(root);
    if (s.ops != ref.ops || s.filtered != ref.filtered ||
        s.elephants != ref.elephants || s.hits != ref.hits ||
        s.uploads != ref.uploads) {
        gate.fail(ref.ops, "lrumon components: " + describe(s) +
                               " != reference " + describe(ref));
    } else {
        gate.pass(ref.ops);
    }
    if (s.ops != 0) {
        out["systems.lrumon.filtered_share"] =
            static_cast<double>(s.filtered) / static_cast<double>(s.ops);
    }
    if (s.elephants != 0) {
        out["systems.lrumon.uploads_per_elephant"] =
            static_cast<double>(s.uploads) / static_cast<double>(s.elephants);
    }
}

}  // namespace perfbench
