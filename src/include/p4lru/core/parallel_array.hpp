// Parallel connection technique (Section 1.2 / 3.1):
// a hash-indexed array of small P4LRU units yields arbitrary total capacity
// while each bucket keeps strict LRU order among its 2-3 entries.
//
// ParallelCache is a thin policy layer: it owns the seeded bucket hash and
// routes every operation to a UnitStorage (unit_storage.hpp), which owns the
// memory layout.  The storage defaults to the flat SoA slab (soa_slab.hpp)
// for behavioural P4lru units and to the per-unit AoS reference layout for
// everything else; consumers can pin either explicitly.  Each public entry
// point hashes exactly once and hands the bucket through the *_at variants —
// callers that already know the bucket (the replay dispatcher, the policy
// layer's update-then-read sequences) use those directly and never re-hash.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "p4lru/common/hash.hpp"
#include "p4lru/core/p4lru.hpp"
#include "p4lru/core/soa_slab.hpp"
#include "p4lru/core/unit_storage.hpp"

namespace p4lru::core {

/// Map a key of any supported type onto a bucket through a seeded hasher.
/// FlowKeys use CRC32 over the packed 13-byte layout (as the P4 programs do);
/// integral keys use CRC32 over their little-endian bytes.
template <typename Key>
[[nodiscard]] std::size_t bucket_of(const hash::FlowHasher& h, const Key& k) {
    if constexpr (std::is_same_v<Key, FlowKey>) {
        return h.slot(k);
    } else if constexpr (sizeof(Key) <= 4) {
        static_assert(std::integral<Key>, "bucket_of: unsupported key type");
        return h.slot_u32(static_cast<std::uint32_t>(k));
    } else {
        static_assert(std::integral<Key>, "bucket_of: unsupported key type");
        return h.slot_u64(static_cast<std::uint64_t>(k));
    }
}

/// An op carrying its key, value and precomputed bucket (the replay
/// dispatcher's RoutedOp).
template <typename Op, typename Key, typename Value>
concept RoutedOpFor = requires(const Op& o) {
    { o.key } -> std::convertible_to<const Key&>;
    { o.value } -> std::convertible_to<const Value&>;
    { o.bucket } -> std::convertible_to<std::size_t>;
};

/// How many ops ahead the batched update path prefetches each op's unit.
/// At ~50 Mops per core an op retires in ~20 ns while a DRAM miss costs
/// ~80-100 ns, so the line must be requested at least 4-5 ops early; 8 adds
/// margin without pushing the prefetch so far ahead that a 256-op batch's
/// lines start evicting each other before use.
inline constexpr std::size_t kBatchPrefetchDistance = 8;

/// An array of `Unit` caches (P4lru, P4lru3Encoded, ...) indexed by one
/// configured hash function, mirroring the paper's P[1..2^16] arrays.  The
/// unit array lives in `Storage` (a UnitStorage model); `Unit` names the
/// per-bucket semantics and, for AoS storage, the element type.
template <typename Unit, typename Key, typename Value,
          typename Storage = default_storage_t<Unit, Key, Value>>
    requires UnitStorage<Storage> &&
             std::same_as<typename Storage::key_type, Key> &&
             std::same_as<typename Storage::value_type, Value>
class ParallelCache {
  public:
    using Result = UpdateResult<Key, Value>;
    using key_type = Key;
    using value_type = Value;
    using unit_type = Unit;
    using storage_type = Storage;

    /// \param units number of cache units (buckets); must be > 0.
    /// \param seed  per-array hash salt, making multiple arrays independent.
    ParallelCache(std::size_t units, std::uint32_t seed)
        : storage_(checked(units)), hasher_(seed, units) {}

    /// Deferred-initialization variant: the storage allocates its planes but
    /// leaves them untouched; the sharded replay engine (or the caller)
    /// must cover [0, units) with first_touch_range and mark_materialized
    /// before any cache operation.  See soa_slab.hpp.
    ParallelCache(std::size_t units, std::uint32_t seed, defer_init_t)
        : storage_(checked(units), defer_init), hasher_(seed, units) {}

    /// Insert/update through the owning unit (Algorithm 1 within a bucket).
    Result update(const Key& k, const Value& v) {
        return storage_.update_at(bucket(k), k, v);
    }

    /// Per-call merge overload (read pass vs write pass).
    template <typename MergeFn>
    Result update(const Key& k, const Value& v, MergeFn&& merge) {
        return storage_.update_at(bucket(k), k, v,
                                  std::forward<MergeFn>(merge));
    }

    /// Update through a bucket the caller already computed via bucket(k).
    /// The replay engine routes packets to shards by bucket and must not pay
    /// the hash twice. Precondition: b == bucket(k) and b < unit_count().
    Result update_at(std::size_t b, const Key& k, const Value& v) {
        return storage_.update_at(b, k, v);
    }

    template <typename MergeFn>
    Result update_at(std::size_t b, const Key& k, const Value& v,
                     MergeFn&& merge) {
        return storage_.update_at(b, k, v, std::forward<MergeFn>(merge));
    }

    /// Batched update over ops whose buckets were already computed (the
    /// replay dispatcher routes by bucket and must not pay the hash twice).
    /// Ops are applied strictly in span order while each op's unit is
    /// prefetched kBatchPrefetchDistance ops ahead, so the unit array's
    /// random-access latency overlaps earlier updates instead of stalling
    /// each one.  `sink` is invoked per op, in op order, as
    /// sink(i, b, result) with i the op's index in the span and b its
    /// bucket.  Because only the prefetch runs ahead, two ops on the same
    /// bucket within a batch see each other exactly as they would per-op:
    /// the Result stream is bit-identical to calling update() per op.
    /// Precondition: op.bucket == bucket(op.key) for each op.
    template <RoutedOpFor<Key, Value> Op, typename Sink>
    void update_routed_batch(std::span<const Op> ops, Sink&& sink) {
        const std::size_t n = ops.size();
        for (std::size_t i = 0; i < std::min(kBatchPrefetchDistance, n);
             ++i) {
            prefetch_unit(ops[i].bucket);
        }
        for (std::size_t i = 0; i < n; ++i) {
            if (i + kBatchPrefetchDistance < n) {
                prefetch_unit(ops[i + kBatchPrefetchDistance].bucket);
            }
            sink(i, static_cast<std::size_t>(ops[i].bucket),
                 storage_.update_at(static_cast<std::size_t>(ops[i].bucket),
                                    ops[i].key, ops[i].value));
        }
    }

    /// Hint the unit owning bucket b into cache (write intent). The replay
    /// engine issues these one batch ahead to overlap the random-access
    /// latency of the unit array with useful work.  Per-plane for the slab.
    void prefetch_unit(std::size_t b) const noexcept { storage_.prefetch(b); }

    /// Read-only lookup.
    [[nodiscard]] std::optional<Value> find(const Key& k) const {
        return storage_.find_at(bucket(k), k);
    }

    /// Lookup through a precomputed bucket (b == bucket(k)).
    [[nodiscard]] std::optional<Value> find_at(std::size_t b,
                                               const Key& k) const {
        return storage_.find_at(b, k);
    }

    [[nodiscard]] bool contains(const Key& k) const {
        return find(k).has_value();
    }

    /// Promote k to most-recent in its unit, merging v. False if absent.
    bool touch(const Key& k, const Value& v) {
        return storage_.touch_at(bucket(k), k, v);
    }

    bool touch_at(std::size_t b, const Key& k, const Value& v) {
        return storage_.touch_at(b, k, v);
    }

    /// Insert as least-recently-used in the owning unit (series protocol).
    std::optional<std::pair<Key, Value>> insert_lru(const Key& k,
                                                    const Value& v) {
        return storage_.insert_lru_at(bucket(k), k, v);
    }

    std::optional<std::pair<Key, Value>> insert_lru_at(std::size_t b,
                                                       const Key& k,
                                                       const Value& v) {
        return storage_.insert_lru_at(b, k, v);
    }

    [[nodiscard]] std::size_t bucket(const Key& k) const {
        return bucket_of(hasher_, k);
    }

    [[nodiscard]] std::size_t unit_count() const noexcept {
        return storage_.unit_count();
    }
    [[nodiscard]] std::size_t capacity() const noexcept {
        return unit_count() * Storage::unit_capacity();
    }

    /// Per-unit inspection handle: a `const Unit&` on AoS storage, a
    /// lightweight view with the same key_at/value_at/size vocabulary on the
    /// slab.
    [[nodiscard]] decltype(auto) unit(std::size_t i) const {
        return storage_.unit(i);
    }

    [[nodiscard]] std::uint32_t seed() const noexcept {
        return hasher_.seed();
    }

    /// Total occupied entries across all units (O(units); for tests/metrics).
    [[nodiscard]] std::size_t size() const {
        std::size_t n = 0;
        for (std::size_t b = 0; b < unit_count(); ++b) {
            n += storage_.size_at(b);
        }
        return n;
    }

    // -- first-touch protocol (forwarded to the storage) -----------------

    [[nodiscard]] bool materialized() const noexcept {
        return storage_.materialized();
    }
    /// First-touch the planes of units [lo, hi) from the calling thread.
    void first_touch_range(std::size_t lo, std::size_t hi) {
        storage_.first_touch(lo, hi);
    }
    void mark_materialized() noexcept { storage_.mark_materialized(); }
    /// Initialize everything from the calling thread if still deferred.
    void materialize() {
        if (!storage_.materialized()) {
            storage_.first_touch(0, unit_count());
            storage_.mark_materialized();
        }
    }

    // -- integrity (forwarded to the storage) ----------------------------

    /// Validate-and-repair the state words of units [lo, hi); see
    /// SoaSlab::scrub_range.  AoS storage reports a clean scan by
    /// construction.
    ScrubReport scrub(std::size_t lo, std::size_t hi) noexcept {
        return storage_.scrub_range(lo, hi);
    }
    ScrubReport scrub_all() noexcept { return scrub(0, unit_count()); }

    [[nodiscard]] const Storage& storage() const noexcept { return storage_; }
    [[nodiscard]] Storage& storage() noexcept { return storage_; }

  private:
    static std::size_t checked(std::size_t units) {
        if (units == 0) {
            throw std::invalid_argument("ParallelCache: zero units");
        }
        return units;
    }

    Storage storage_;
    hash::FlowHasher hasher_;
};

/// The array-of-structs reference configuration, spelled out (equivalence
/// tests and the AoS-vs-SoA benchmark series pin it explicitly).
template <typename Unit, typename Key, typename Value>
using AosParallelCache =
    ParallelCache<Unit, Key, Value, AosStorage<Unit, Key, Value>>;

}  // namespace p4lru::core
