// LruTable as a ReplayTarget (DESIGN.md §11): the NAT gateway partitioned by
// virtual address so the sharded replay engine can drive it in every mode
// with bit-identical reports.
//
// Partitioning: packet -> partition mix64(dst_ip) % G; a partition owns an
// independent translation-cache policy and its own pending-fill queue.  The
// slow path of a miss becomes visible `slow_path_delay` later *within the
// same partition* (fills drain against the partition's own packet clock), so
// every effect depends only on the owning partition's history and per-shard
// statistics merge losslessly.  The NAT mapping itself is a pure function
// (NatTable::lookup), shared read-only across partitions.
//
// Latency is accumulated as an integer nanosecond sum (not a running float
// mean) so merging shard statistics is exact and order-free; the report
// derives the average from the merged integers.
//
// LRU similarity (Section 4.2) is measured by wrapping the policy in
// cache::SimilarityTracked; it is defined over one global access order, so
// it is meaningful for a one-partition target only.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "p4lru/cache/policy.hpp"
#include "p4lru/common/byte_io.hpp"
#include "p4lru/common/hash.hpp"
#include "p4lru/common/types.hpp"
#include "p4lru/core/unit_storage.hpp"
#include "p4lru/obs/metrics.hpp"
#include "p4lru/replay/replay_target.hpp"
#include "p4lru/systems/lrutable/lrutable.hpp"

namespace p4lru::systems::lrutable {

/// An in-flight control-plane fill owned by one partition.
struct TargetPendingFill {
    TimeNs ready_at = 0;
    VirtualAddress va = 0;
    std::uint32_t real_address = 0;
};

/// A packet routed to the partition owning its virtual address.
struct LruTableRouted {
    std::uint32_t bucket = 0;
    VirtualAddress va = 0;
    TimeNs ts = 0;
};

/// Mergeable integer statistics of a LruTable replay (trivially copyable
/// for the raw-record checkpoint format).
struct LruTableStats {
    std::uint64_t ops = 0;  ///< packets applied
    std::uint64_t fast_path = 0;
    std::uint64_t placeholder_hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t added_latency_ns = 0;  ///< integer sum, merge-exact

    void merge(const LruTableStats& o) noexcept {
        ops += o.ops;
        fast_path += o.fast_path;
        placeholder_hits += o.placeholder_hits;
        misses += o.misses;
        added_latency_ns += o.added_latency_ns;
    }

    friend bool operator==(const LruTableStats&,
                           const LruTableStats&) = default;
};

class LruTableTarget {
  public:
    using Op = PacketRecord;
    using Routed = LruTableRouted;
    using Stats = LruTableStats;
    using Policy = cache::ReplacementPolicy<VirtualAddress, std::uint32_t>;
    using PolicyFactory =
        std::function<std::unique_ptr<Policy>(std::size_t)>;

    LruTableTarget(std::size_t partitions, const PolicyFactory& make_policy,
                   LruTableConfig cfg = {})
        : cfg_(cfg) {
        if (partitions == 0) {
            throw std::invalid_argument("LruTableTarget: zero partitions");
        }
        parts_.reserve(partitions);
        for (std::size_t p = 0; p < partitions; ++p) {
            Partition part;
            part.policy = make_policy(p);
            if (!part.policy) {
                throw std::invalid_argument(
                    "LruTableTarget: factory returned null");
            }
            parts_.push_back(std::move(part));
        }
    }

    /// Attach live metrics (obs/metrics.hpp): counters
    /// lrutable_fast_path/placeholder_hits/misses/pending_fills and per-op
    /// latency histograms lrutable_fast_path_ns / lrutable_slow_path_ns
    /// around the policy access.  Null detaches (the default — zero
    /// overhead, no clock reads).  Call before handing the target to the
    /// engine; instruments are striped-atomic, so threaded shards may
    /// hammer them concurrently.
    void set_metrics(obs::Registry* reg) {
        m_ = {};
        if (reg == nullptr) return;
        m_.fast = reg->counter("lrutable_fast_path");
        m_.placeholder = reg->counter("lrutable_placeholder_hits");
        m_.miss = reg->counter("lrutable_misses");
        m_.pending = reg->counter("lrutable_pending_fills");
        m_.fast_ns = reg->histogram("lrutable_fast_path_ns");
        m_.slow_ns = reg->histogram("lrutable_slow_path_ns");
    }

    // -- routing ----------------------------------------------------------
    [[nodiscard]] std::size_t unit_count() const noexcept {
        return parts_.size();
    }

    [[nodiscard]] Routed route(const Op& op) const {
        const VirtualAddress va = op.flow.dst_ip;
        return Routed{
            static_cast<std::uint32_t>(hash::mix64(va) % parts_.size()), va,
            op.ts};
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

    // -- integrity plane --------------------------------------------------
    [[nodiscard]] core::ScrubReport scrub(std::size_t, std::size_t) noexcept {
        return {};
    }
    [[nodiscard]] core::ScrubReport scrub_all() noexcept { return {}; }

    // -- snapshot plane ---------------------------------------------------
    [[nodiscard]] static constexpr std::uint32_t state_id() noexcept {
        return 0x4C546162u;  // "LTab"
    }
    [[nodiscard]] static constexpr std::uint64_t state_fingerprint() noexcept {
        return hash::mix64(0x4C52555441420000ull ^ sizeof(Stats));
    }

    void save_state(std::vector<std::byte>& out) const {
        io::ByteWriter w(out);
        w.u64(parts_.size());
        for (const auto& p : parts_) {
            std::vector<std::byte> pol;
            const bool ok = p.policy->save_state(pol);
            w.u8(ok ? 1 : 0);
            w.u64(pol.size());
            w.bytes(pol.data(), pol.size());
            w.u64(p.pending.size());
            for (const auto& f : p.pending) {
                w.u64(f.ready_at);
                w.u32(f.va);
                w.u32(f.real_address);
            }
        }
    }

    [[nodiscard]] bool load_state(std::span<const std::byte> in) {
        io::ByteReader r(in);
        std::uint64_t n = 0;
        if (!r.u64(n) || n != parts_.size()) return false;
        for (auto& p : parts_) {
            std::uint8_t has_policy = 0;
            if (!r.u8(has_policy)) return false;
            if (!has_policy) return false;
            std::span<const std::byte> pol;
            if (!r.sub(pol)) return false;
            if (!p.policy->load_state(pol)) return false;
            std::uint64_t fills = 0;
            if (!r.u64(fills)) return false;
            p.pending.clear();
            for (std::uint64_t i = 0; i < fills; ++i) {
                TargetPendingFill f;
                if (!r.u64(f.ready_at) || !r.u32(f.va) ||
                    !r.u32(f.real_address)) {
                    return false;
                }
                p.pending.push_back(f);
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
    void inject_storage_faults(const Faults&, std::uint64_t) const noexcept {}

    // -- reporting --------------------------------------------------------
    /// Build the figure-9 report from engine-merged statistics.
    [[nodiscard]] LruTableReport report(const Stats& s) const {
        LruTableReport r;
        r.packets = s.ops;
        r.fast_path = s.fast_path;
        r.placeholder_hits = s.placeholder_hits;
        r.misses = s.misses;
        r.avg_added_latency_us =
            s.ops == 0 ? 0.0
                       : static_cast<double>(s.added_latency_ns) / 1000.0 /
                             static_cast<double>(s.ops);
        r.miss_rate =
            s.ops == 0
                ? 0.0
                : static_cast<double>(s.placeholder_hits + s.misses) /
                      static_cast<double>(s.ops);
        return r;
    }

  private:
    struct Partition {
        std::unique_ptr<Policy> policy;
        std::deque<TargetPendingFill> pending;
    };

    void apply_fills(Partition& p, TimeNs now) {
        while (!p.pending.empty() && p.pending.front().ready_at <= now) {
            const TargetPendingFill f = p.pending.front();
            p.pending.pop_front();
            (void)p.policy->fill(f.va, f.real_address, f.ready_at);
        }
    }

    void apply_one(const Routed& r, Stats& s) {
        Partition& p = parts_[r.bucket];
        apply_fills(p, r.ts);
        ++s.ops;
        // Per-op timing only when a registry is attached (one branch, no
        // clock reads otherwise); the observed value covers the policy
        // access — the path whose fast/slow split the paper's LRU
        // promotion protects.
        const bool observe = m_.fast_ns != nullptr;
        std::chrono::steady_clock::time_point t0;
        if (observe) t0 = std::chrono::steady_clock::now();
        const auto a = p.policy->access(r.va, kPlaceholder, r.ts);
        const bool fast = a.hit && a.value != kPlaceholder;
        if (observe) {
            const auto ns = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
            (fast ? m_.fast_ns : m_.slow_ns)->record(ns);
        }
        TimeNs added = 0;
        if (fast) {
            ++s.fast_path;
            if (m_.fast != nullptr) m_.fast->add(1);
        } else if (a.hit) {
            ++s.placeholder_hits;
            if (m_.placeholder != nullptr) m_.placeholder->add(1);
            added = cfg_.slow_path_delay;
        } else {
            ++s.misses;
            if (m_.miss != nullptr) m_.miss->add(1);
            added = cfg_.slow_path_delay;
            if (a.inserted) {
                p.pending.push_back(TargetPendingFill{
                    r.ts + cfg_.slow_path_delay, r.va, nat_.lookup(r.va)});
                if (m_.pending != nullptr) m_.pending->add(1);
            }
        }
        s.added_latency_ns += added;
    }

    struct ObsHooks {
        obs::Counter* fast = nullptr;
        obs::Counter* placeholder = nullptr;
        obs::Counter* miss = nullptr;
        obs::Counter* pending = nullptr;
        obs::Histogram* fast_ns = nullptr;
        obs::Histogram* slow_ns = nullptr;
    };

    LruTableConfig cfg_;
    NatTable nat_;
    std::vector<Partition> parts_;
    ObsHooks m_{};
};

static_assert(replay::ReplayTarget<LruTableTarget>);

}  // namespace p4lru::systems::lrutable
