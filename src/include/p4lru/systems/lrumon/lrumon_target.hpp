// LruMon as a ReplayTarget (DESIGN.md §11): the telemetry system partitioned
// into `partitions` disjoint slices so the sharded replay engine can drive it
// in every mode — sequential, inline-batched, threaded-sharded, checkpointed
// — with bit-identical reports.
//
// Partitioning: a packet belongs to partition fingerprint32(flow) % G, and a
// partition owns an independent filter + cache-policy + analyzer triple.
// Every per-op effect (filter estimate, cache fill, upload) depends only on
// the owning partition's history, so per-shard statistics over disjoint
// partition sets merge losslessly — the mergeability invariant.  One
// partition is the paper's monolithic monitor; G > 1 is a *different*
// (deterministic) system: G sketches see G disjoint substreams, so
// equivalence claims are across engine modes of the same target, never
// across targets of different geometry.
//
// Report determinism: LruMonStats carries only integer sums and min/max
// timestamps; LruMonReport's derived rates are computed from the merged
// integers, and the error accounting credits still-cached entries through a
// non-destructive overlay (u64 sums and maxes, both order-independent), so
// hash-map iteration order — which checkpoint restore perturbs — can never
// leak into a report.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "p4lru/cache/policy.hpp"
#include "p4lru/common/byte_io.hpp"
#include "p4lru/common/hash.hpp"
#include "p4lru/common/types.hpp"
#include "p4lru/core/unit_storage.hpp"
#include "p4lru/obs/metrics.hpp"
#include "p4lru/replay/replay_target.hpp"
#include "p4lru/systems/lrumon/analyzer.hpp"
#include "p4lru/systems/lrumon/lrumon.hpp"
#include "p4lru/systems/lrumon/tower_filter.hpp"

namespace p4lru::systems::lrumon {

/// A packet routed to its owning partition; the fingerprint is hashed once.
struct LruMonRouted {
    std::uint32_t bucket = 0;  ///< owning partition
    std::uint32_t fp = 0;      ///< fingerprint32(pkt.flow)
    PacketRecord pkt{};
};

/// Mergeable integer statistics of a LruMon replay (trivially copyable for
/// the raw-record checkpoint format).  Timestamps merge as min/max so the
/// trace duration survives any shard geometry.
struct LruMonStats {
    std::uint64_t ops = 0;  ///< packets applied
    std::uint64_t filtered = 0;
    std::uint64_t elephants = 0;
    std::uint64_t hits = 0;
    std::uint64_t uploads = 0;
    TimeNs first_ts = std::numeric_limits<TimeNs>::max();
    TimeNs last_ts = 0;

    void merge(const LruMonStats& o) noexcept {
        ops += o.ops;
        filtered += o.filtered;
        elephants += o.elephants;
        hits += o.hits;
        uploads += o.uploads;
        first_ts = std::min(first_ts, o.first_ts);
        last_ts = std::max(last_ts, o.last_ts);
    }

    friend bool operator==(const LruMonStats&, const LruMonStats&) = default;
};

class LruMonTarget {
  public:
    using Op = PacketRecord;
    using Routed = LruMonRouted;
    using Stats = LruMonStats;
    using PolicyPtr =
        std::unique_ptr<cache::ReplacementPolicy<std::uint32_t, FlowLen>>;

    /// Per-partition component factories: called once per partition with its
    /// index so each slice gets an independent (distinctly seeded) instance.
    using FilterFactory =
        std::function<std::unique_ptr<FlowFilter>(std::size_t)>;
    using PolicyFactory = std::function<PolicyPtr(std::size_t)>;

    LruMonTarget(std::size_t partitions, const FilterFactory& make_filter,
                 const PolicyFactory& make_policy, LruMonConfig cfg = {})
        : cfg_(cfg) {
        if (partitions == 0) {
            throw std::invalid_argument("LruMonTarget: zero partitions");
        }
        parts_.reserve(partitions);
        for (std::size_t p = 0; p < partitions; ++p) {
            Partition part;
            part.filter = make_filter(p);
            part.policy = make_policy(p);
            if (!part.filter || !part.policy) {
                throw std::invalid_argument(
                    "LruMonTarget: factory returned null");
            }
            parts_.push_back(std::move(part));
        }
    }

    /// Attach live metrics (obs/metrics.hpp): counters
    /// lrumon_filtered/elephants/hits/uploads.  Null detaches (the default,
    /// zero overhead).
    void set_metrics(obs::Registry* reg) {
        m_ = {};
        if (reg == nullptr) return;
        m_.filtered = reg->counter("lrumon_filtered");
        m_.elephants = reg->counter("lrumon_elephants");
        m_.hits = reg->counter("lrumon_hits");
        m_.uploads = reg->counter("lrumon_uploads");
    }

    // -- routing ----------------------------------------------------------
    [[nodiscard]] std::size_t unit_count() const noexcept {
        return parts_.size();
    }

    [[nodiscard]] Routed route(const Op& op) const {
        const std::uint32_t fp = hash::fingerprint32(op.flow);
        return Routed{
            static_cast<std::uint32_t>(fp % parts_.size()), fp, op};
    }

    // -- apply ------------------------------------------------------------
    void apply_batch(std::span<const Routed> batch, Stats& s) {
        for (const auto& r : batch) apply_one(r, s);
    }

    void prefetch_unit(std::uint32_t) const noexcept {}
    void prefetch_batch(std::span<const Routed>) const noexcept {}

    // -- first-touch plane (eagerly built) --------------------------------
    [[nodiscard]] bool materialized() const noexcept { return true; }
    void materialize() noexcept {}
    void first_touch_range(std::size_t, std::size_t) noexcept {}
    void mark_materialized() noexcept {}

    // -- integrity plane (the sketch/policy components own no raw planes
    //    with embedded integrity metadata; nothing to scan) ---------------
    [[nodiscard]] core::ScrubReport scrub(std::size_t, std::size_t) noexcept {
        return {};
    }
    [[nodiscard]] core::ScrubReport scrub_all() noexcept { return {}; }

    // -- snapshot plane ---------------------------------------------------
    [[nodiscard]] static constexpr std::uint32_t state_id() noexcept {
        return 0x4C4D6F6Eu;  // "LMon"
    }
    [[nodiscard]] static constexpr std::uint64_t state_fingerprint() noexcept {
        return hash::mix64(0x4C52554D4F4E0000ull ^ sizeof(Stats));
    }

    void save_state(std::vector<std::byte>& out) const {
        io::ByteWriter w(out);
        w.u64(parts_.size());
        for (const auto& p : parts_) {
            p.filter->save_state(w);
            std::vector<std::byte> pol;
            const bool ok = p.policy->save_state(pol);
            w.u8(ok ? 1 : 0);
            w.u64(pol.size());
            w.bytes(pol.data(), pol.size());
            p.analyzer.save_state(w);
            // Sorted for a canonical image (see Analyzer::save_state).
            std::vector<std::pair<FlowKey, std::uint64_t>> rows(
                p.true_bytes.begin(), p.true_bytes.end());
            std::sort(rows.begin(), rows.end(),
                      [](const auto& a, const auto& b) {
                          return a.first.bytes() < b.first.bytes();
                      });
            w.u64(rows.size());
            for (const auto& [flow, bytes] : rows) {
                w.pod(flow);
                w.u64(bytes);
            }
        }
    }

    [[nodiscard]] bool load_state(std::span<const std::byte> in) {
        io::ByteReader r(in);
        std::uint64_t n = 0;
        if (!r.u64(n) || n != parts_.size()) return false;
        for (auto& p : parts_) {
            if (!p.filter->load_state(r)) return false;
            std::uint8_t has_policy = 0;
            if (!r.u8(has_policy)) return false;
            // A policy without state serialization cannot be restored.
            if (!has_policy) return false;
            std::span<const std::byte> pol;
            if (!r.sub(pol)) return false;
            if (!p.policy->load_state(pol)) return false;
            if (!p.analyzer.load_state(r)) return false;
            std::uint64_t flows = 0;
            if (!r.u64(flows)) return false;
            p.true_bytes.clear();
            for (std::uint64_t i = 0; i < flows; ++i) {
                FlowKey flow{};
                std::uint64_t bytes = 0;
                if (!r.pod(flow) || !r.u64(bytes)) return false;
                p.true_bytes.emplace(flow, bytes);
            }
        }
        return r.done();
    }

    // -- fault hooks ------------------------------------------------------
    template <typename Faults>
    void inject_op_faults(const Faults& faults, std::uint64_t idx,
                          Op& op) const {
        faults.mutate_key(idx, op.flow);
    }
    template <typename Faults>
    void inject_storage_faults(const Faults&, std::uint64_t) const noexcept {
        // Partition components expose no raw storage planes to corrupt.
    }

    // -- reporting --------------------------------------------------------
    /// Build the figure-11 report from engine-merged statistics.  Pure: the
    /// teardown flush is computed as an overlay (still-cached entries
    /// credited to their flows through the analyzer's fp table) instead of
    /// mutating the analyzer, so report-after-checkpoint-resume equals
    /// report-after-straight-run bit for bit.
    [[nodiscard]] LruMonReport report(const Stats& s) const {
        LruMonReport r;
        r.packets = s.ops;
        r.filtered_packets = s.filtered;
        r.elephant_packets = s.elephants;
        r.cache_hits = s.hits;
        r.uploads = s.uploads;
        const double secs =
            (s.ops != 0 && s.last_ts > s.first_ts)
                ? static_cast<double>(s.last_ts - s.first_ts) / 1e9
                : 1.0;
        r.upload_kpps = static_cast<double>(r.uploads) / secs / 1e3;
        r.cache_miss_rate =
            s.elephants == 0
                ? 0.0
                : static_cast<double>(s.elephants - s.hits) /
                      static_cast<double>(s.elephants);
        if (!cfg_.track_ground_truth) return r;
        for (const auto& p : parts_) {
            std::unordered_map<FlowKey, std::uint64_t> residual;
            p.policy->for_each(
                [&](const std::uint32_t& fp, const FlowLen& len) {
                    if (const FlowKey* flow = p.analyzer.flow_of(fp)) {
                        residual[*flow] += len;
                    }
                });
            for (const auto& [flow, bytes] : p.true_bytes) {
                r.total_bytes += bytes;
                std::uint64_t measured = p.analyzer.measured_bytes(flow);
                if (const auto it = residual.find(flow);
                    it != residual.end()) {
                    measured += it->second;
                }
                if (measured > bytes) {
                    ++r.overestimated_flows;
                } else {
                    r.max_flow_error =
                        std::max(r.max_flow_error, bytes - measured);
                }
                r.measured_bytes += std::min(measured, bytes);
            }
        }
        r.total_error_rate =
            r.total_bytes == 0
                ? 0.0
                : static_cast<double>(r.total_bytes - r.measured_bytes) /
                      static_cast<double>(r.total_bytes);
        return r;
    }

    [[nodiscard]] const Analyzer& analyzer(std::size_t p) const {
        return parts_.at(p).analyzer;
    }

  private:
    struct Partition {
        std::unique_ptr<FlowFilter> filter;
        PolicyPtr policy;
        Analyzer analyzer;
        std::unordered_map<FlowKey, std::uint64_t> true_bytes;
    };

    void apply_one(const Routed& r, Stats& s) {
        Partition& p = parts_[r.bucket];
        ++s.ops;
        s.first_ts = std::min(s.first_ts, r.pkt.ts);
        s.last_ts = std::max(s.last_ts, r.pkt.ts);
        if (cfg_.track_ground_truth) p.true_bytes[r.pkt.flow] += r.pkt.len;
        const std::uint64_t est =
            p.filter->add_and_estimate(r.fp, r.pkt.len, r.pkt.ts);
        if (est < cfg_.threshold) {
            ++s.filtered;
            if (m_.filtered != nullptr) m_.filtered->add(1);
            return;
        }
        ++s.elephants;
        if (m_.elephants != nullptr) m_.elephants->add(1);
        const auto a = p.policy->fill(r.fp, r.pkt.len, r.pkt.ts);
        if (a.hit) {
            ++s.hits;
            if (m_.hits != nullptr) m_.hits->add(1);
            return;
        }
        ++s.uploads;
        if (m_.uploads != nullptr) m_.uploads->add(1);
        if (a.inserted) {
            p.analyzer.on_upload(r.pkt.flow, r.fp,
                                 a.evicted ? a.evicted_key : 0,
                                 a.evicted ? a.evicted_value : 0);
        } else {
            p.analyzer.on_upload(r.pkt.flow, r.fp, r.fp, r.pkt.len);
        }
    }

    struct ObsHooks {
        obs::Counter* filtered = nullptr;
        obs::Counter* elephants = nullptr;
        obs::Counter* hits = nullptr;
        obs::Counter* uploads = nullptr;
    };

    LruMonConfig cfg_;
    std::vector<Partition> parts_;
    ObsHooks m_{};
};

static_assert(replay::ReplayTarget<LruMonTarget>);

}  // namespace p4lru::systems::lrumon
