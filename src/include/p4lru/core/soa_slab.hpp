// SoaSlab: the parallel connection as one flat struct-of-arrays slab.
//
// The paper's P[1..2^16] array of tiny N-entry LRU units is a natural
// struct-of-arrays: keys are scanned every packet, exactly one value slot is
// touched, and the cache state is a few bits.  Instead of a vector of unit
// objects (AosStorage), the slab stores three cache-line-aligned planes:
//
//   key plane    Key[units * N]   - unit u's N stage lanes at [u*N, u*N+N),
//                                   contiguous so the Step-1 scan is one
//                                   branch-free compare-mask over the lanes;
//   value plane  Value[units * N] - val[] never moves (the paper's fixed
//                                   value registers); one slot written per op;
//   meta plane   MetaWord[units]  - the S_lru permutation packed 2 bits per
//                                   position plus the occupancy count.  For
//                                   N <= 3 (the paper's deployments) this is
//                                   a single byte per unit.
//
// Observable behaviour is bit-identical to AosStorage over behavioural
// P4lru units: same UpdateResult stream, same key order, same value slots
// (tests/core/soa_slab_test.cpp proves it property-style).  The scan is
// written mask-first — compare all N lanes unconditionally, AND with the
// occupancy mask, count trailing zeros — so the compiler can vectorize the
// lane compares; the only data-dependent branch ahead of it is the
// MRU-hit fast path (lane 0 matches, rotation and state transition are both
// identities), which dominates on skewed traffic and predicts well.
//
// The planes support deferred initialization (core::defer_init): the slab
// allocates without touching memory and the sharded replay engine
// first-touches each shard's sub-range from the worker thread that will own
// it, placing pages NUMA-locally on multi-node machines.
#pragma once

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "p4lru/common/types.hpp"
#include "p4lru/core/simd/scan_kernels.hpp"  // detail::lane_eq + scan dispatch
#include "p4lru/core/unit_storage.hpp"

namespace p4lru::core {

/// Struct-of-arrays storage for an array of behavioural P4LRU_N units.
///
/// \tparam Key    trivially copyable key (FlowKey, fingerprints, DB keys).
/// \tparam Value  trivially copyable value.
/// \tparam N      entries per unit, 1..4 (the packed permutation uses 2 bits
///                per position; the paper deploys N = 2 and N = 3).
/// \tparam Merge  default hit-merge, as in P4lru.
template <typename Key, typename Value, std::size_t N,
          typename Merge = ReplaceMerge>
    requires std::equality_comparable<Key> && (N >= 1 && N <= 4) &&
             std::is_trivially_copyable_v<Key> &&
             std::is_trivially_copyable_v<Value> &&
             std::is_trivially_destructible_v<Key> &&
             std::is_trivially_destructible_v<Value>
class SoaSlab {
  public:
    using key_type = Key;
    using value_type = Value;
    using Result = UpdateResult<Key, Value>;
    /// Packed per-unit metadata: bits [0, 2N) hold the S_lru bottom row
    /// (field j = S(j+1) - 1), bits [2N, ..) the occupancy count.  One byte
    /// per unit for N <= 3, two for N = 4.
    using MetaWord = std::conditional_t<(N <= 3), std::uint8_t, std::uint16_t>;

    static constexpr unsigned kPermBits = 2u * N;
    static constexpr unsigned kPermMask = (1u << kPermBits) - 1u;

    /// Key rows are padded to a power-of-two lane count so a row whose key
    /// size is a power of two never straddles a cache line (a 3-lane FlowKey
    /// row is 48 bytes; at stride 3 three rows in four cross a line
    /// boundary, at stride 4 each row is exactly one line).  Only the key
    /// plane pays the padding: the whole row is scanned every op, while the
    /// value plane sees a single-slot access and the meta plane a single
    /// word.  Lanes >= N are never read.
    static constexpr std::size_t kKeyStride = std::bit_ceil(N);

    explicit SoaSlab(std::size_t units)
        : units_(units),
          keys_(alloc_plane<Key>(units * kKeyStride)),
          vals_(alloc_plane<Value>(units * N)),
          meta_(alloc_plane<MetaWord>(units)) {
        first_touch(0, units_);
        materialized_ = true;
    }

    /// Allocate the planes without touching them; the owner must cover
    /// [0, unit_count()) with first_touch calls (from the threads that will
    /// own each range) and then mark_materialized() before any other use.
    SoaSlab(std::size_t units, defer_init_t)
        : units_(units),
          keys_(alloc_plane<Key>(units * kKeyStride)),
          vals_(alloc_plane<Value>(units * N)),
          meta_(alloc_plane<MetaWord>(units)) {}

    [[nodiscard]] static constexpr std::size_t unit_capacity() noexcept {
        return N;
    }
    [[nodiscard]] static constexpr const char* layout_name() noexcept {
        return "soa";
    }
    [[nodiscard]] static constexpr std::uint32_t layout_id() noexcept {
        return kSoaLayoutId;
    }
    /// Plane geometry: three flat planes whose shapes are fixed by the key /
    /// value / meta element sizes, the lane count and the padded key stride.
    [[nodiscard]] static constexpr std::uint64_t plane_fingerprint() noexcept {
        return plane_fingerprint_mix({kSoaLayoutId, sizeof(Key), sizeof(Value),
                                      N, kKeyStride, sizeof(MetaWord)});
    }

    [[nodiscard]] std::size_t unit_count() const noexcept { return units_; }

    // -- packed-state codec (public: the property suite cross-checks it
    //    against LruState<N>) -------------------------------------------

    /// Identity permutation, occupancy 0.
    [[nodiscard]] static constexpr MetaWord identity_meta() noexcept {
        unsigned m = 0;
        for (std::size_t j = 0; j < N; ++j) {
            m |= static_cast<unsigned>(j) << (2 * j);
        }
        return static_cast<MetaWord>(m);
    }

    /// Step-2 transition after the key matched 1-based position i (i = N on
    /// a miss): right-rotate the first i permutation fields.
    [[nodiscard]] static constexpr MetaWord apply_hit(MetaWord m,
                                                      std::size_t i) noexcept {
        unsigned s = m & kPermMask;
        const unsigned shift = 2u * static_cast<unsigned>(i - 1);
        const unsigned head = (s >> shift) & 3u;
        const unsigned low = (1u << (shift + 2u)) - 1u;
        s = (s & ~low) | (((s << 2u) & low) & ~3u) | head;
        return static_cast<MetaWord>((m & ~kPermMask) | s);
    }

    /// S(j): value slot owned by 1-based key position j.
    [[nodiscard]] static constexpr std::size_t slot_of(MetaWord m,
                                                       std::size_t j) noexcept {
        return ((m >> (2u * (j - 1))) & 3u) + 1u;
    }

    /// Occupied-prefix length encoded in the meta word.
    [[nodiscard]] static constexpr std::size_t occupancy(MetaWord m) noexcept {
        return m >> kPermBits;
    }

    /// A meta word is a legal LruState encoding iff its N 2-bit fields are a
    /// permutation of {0..N-1} and the occupancy does not exceed N.  (An
    /// occupancy flip that stays within [0, N] is undetectable — the word is
    /// still a legal encoding of *some* unit; see DESIGN.md §10.)
    [[nodiscard]] static constexpr bool meta_valid(MetaWord m) noexcept {
        if (occupancy(m) > N) return false;
        unsigned seen = 0;
        for (std::size_t j = 1; j <= N; ++j) {
            const std::size_t slot = slot_of(m, j);  // 1-based, raw field + 1
            if (slot > N) return false;
            seen |= 1u << (slot - 1);
        }
        return seen == (1u << N) - 1u;
    }

    // -- bucket-addressed operations (mirror P4lru bit-for-bit) ----------

    Result update_at(std::size_t b, const Key& k, const Value& v) {
        return update_at(b, k, v, merge_);
    }

    /// Algorithm 1 on unit b.  Scan: compare every lane, mask to the
    /// occupied prefix, take the first match; then one prefix rotation of
    /// the key row, one packed-state rotation, one value-slot access.
    template <typename MergeFn>
    Result update_at(std::size_t b, const Key& k, const Value& v,
                     MergeFn&& merge) {
        Key* row = keys_.get() + b * kKeyStride;
        Value* vrow = vals_.get() + b * N;
#if defined(__GNUC__) || defined(__clang__)
        // The value-slot address depends on the meta load; prefetching the
        // row base breaks that dependency chain.
        __builtin_prefetch(vrow, 1, 3);
#endif
        MetaWord m = meta_[b];
        const std::size_t sz = occupancy(m);

        Result r;
        // Hit at the MRU position: the rotation and the state transition are
        // both identities, so only the value slot is touched.  On skewed
        // traffic this is the dominant case and the branch predicts well;
        // checking lane 0 alone skips the full-row compare.  (`&`, not `&&`:
        // lane 0 is initialized even when empty, and one branch beats two.)
        if (static_cast<unsigned>(sz != 0) &
            static_cast<unsigned>(detail::lane_eq(row[0], k))) {
            r.hit = true;
            r.hit_pos = 1;
            Value* slot = vrow + (m & 3u);
            *slot = merge(*slot, v);
            return r;
        }
        const unsigned mask = match_mask(row, k) & ((1u << sz) - 1u);
        std::size_t i;
        if (mask != 0) {
            const auto p = static_cast<std::size_t>(std::countr_zero(mask));
            rotate_in(row, p, k);
            i = p + 1;
            r.hit = true;
            r.hit_pos = i;
        } else if (sz < N) {
            rotate_in(row, sz, k);
            m = static_cast<MetaWord>(m + (1u << kPermBits));
            i = sz + 1;
            r.hit_pos = i;
        } else {
            r.evicted_key = row[N - 1];
            rotate_in(row, N - 1, k);
            i = N;
            r.hit_pos = N;
            r.evicted = true;
        }

        m = apply_hit(m, i);
        meta_[b] = m;
        Value* slot = vrow + (m & 3u);  // val[S(1)]
        if (r.hit) {
            *slot = merge(*slot, v);
        } else if (r.evicted) {
            r.evicted_value = *slot;
            *slot = v;
        } else {
            *slot = v;
        }
        return r;
    }

    [[nodiscard]] std::optional<Value> find_at(std::size_t b,
                                               const Key& k) const {
        const Key* row = keys_.get() + b * kKeyStride;
        const MetaWord m = meta_[b];
        const std::size_t sz = occupancy(m);
        if (static_cast<unsigned>(sz != 0) &
            static_cast<unsigned>(detail::lane_eq(row[0], k))) {
            return vals_[b * N + (m & 3u)];  // MRU fast path
        }
        const unsigned mask = match_mask(row, k) & ((1u << sz) - 1u);
        if (mask == 0) return std::nullopt;
        const auto p = static_cast<std::size_t>(std::countr_zero(mask));
        return vals_[b * N + slot_of(m, p + 1) - 1];
    }

    /// Promote an existing key to most-recent, merging v with the default
    /// merge; false (and no mutation) if absent.  Matches P4lru::touch,
    /// whose miss path undoes its speculative rotation.
    bool touch_at(std::size_t b, const Key& k, const Value& v) {
        Key* row = keys_.get() + b * kKeyStride;
        MetaWord m = meta_[b];
        const std::size_t sz = occupancy(m);
        if (static_cast<unsigned>(sz != 0) &
            static_cast<unsigned>(detail::lane_eq(row[0], k))) {
            // Already most-recent: rotation and state transition are
            // identities, only the value merge happens.
            Value* slot = vals_.get() + b * N + (m & 3u);
            *slot = merge_(*slot, v);
            return true;
        }
        const unsigned mask = match_mask(row, k) & ((1u << sz) - 1u);
        if (mask == 0) return false;
        const auto p = static_cast<std::size_t>(std::countr_zero(mask));
        rotate_in(row, p, k);
        m = apply_hit(m, p + 1);
        meta_[b] = m;
        Value* slot = vals_.get() + b * N + (m & 3u);
        *slot = merge_(*slot, v);
        return true;
    }

    /// Insert <k, v> as the least-recent entry of unit b, state untouched
    /// (series-connection downstream insert).  Returns the displaced pair.
    std::optional<std::pair<Key, Value>> insert_lru_at(std::size_t b,
                                                       const Key& k,
                                                       const Value& v) {
        Key* row = keys_.get() + b * kKeyStride;
        MetaWord m = meta_[b];
        const std::size_t sz = occupancy(m);
        const unsigned mask = match_mask(row, k) & ((1u << sz) - 1u);
        if (mask != 0) {
            const auto p = static_cast<std::size_t>(std::countr_zero(mask));
            vals_[b * N + slot_of(m, p + 1) - 1] = v;
            return std::nullopt;
        }
        if (sz < N) {
            row[sz] = k;
            meta_[b] = static_cast<MetaWord>(m + (1u << kPermBits));
            vals_[b * N + slot_of(m, sz + 1) - 1] = v;
            return std::nullopt;
        }
        const std::size_t slot = slot_of(m, N);
        auto displaced = std::make_pair(row[N - 1], vals_[b * N + slot - 1]);
        row[N - 1] = k;
        vals_[b * N + slot - 1] = v;
        return displaced;
    }

    [[nodiscard]] std::size_t size_at(std::size_t b) const {
        return occupancy(meta_[b]);
    }

    /// Per-plane prefetch (write intent): the key row — both lines when the
    /// row straddles one — the value row, and the unit's meta word.
    void prefetch(std::size_t b) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
        const char* kp = reinterpret_cast<const char*>(keys_.get() + b * kKeyStride);
        __builtin_prefetch(kp, 1, 2);
        if constexpr (N * sizeof(Key) > 64) {
            __builtin_prefetch(kp + 64, 1, 2);
        }
        __builtin_prefetch(vals_.get() + b * N, 1, 2);
        __builtin_prefetch(meta_.get() + b, 1, 2);
#else
        (void)b;
#endif
    }

    // -- integrity: scrubbing and fault hooks ----------------------------

    /// Validate units [lo, hi) against the legal LruState encodings and
    /// repair every corrupt word in place: the permutation resets to
    /// identity (an MRU-reset — the current key order is re-adopted as the
    /// recency order and each position re-owns its same-index value slot)
    /// and the occupancy is kept when still plausible, clamped to N when its
    /// bits rotted out of range.  The repaired unit serves traffic again
    /// immediately; subsequent hit/miss accounting for its keys may differ
    /// from a corruption-free history, which is the graceful degradation the
    /// caller opted into by continuing past corruption.
    ScrubReport scrub_range(std::size_t lo, std::size_t hi) noexcept {
        ScrubReport r;
        for (std::size_t b = lo; b < hi; ++b) {
            ++r.scanned;
            const MetaWord m = meta_[b];
            if (meta_valid(m)) continue;
            ++r.corrupt;
            const auto occ =
                static_cast<unsigned>(std::min(occupancy(m), N));
            meta_[b] =
                static_cast<MetaWord>(identity_meta() | (occ << kPermBits));
            ++r.repaired;
        }
        return r;
    }

    /// Fault-injection hooks (tests and the fault subsystem only): XOR a
    /// mask into the raw planes, simulating a bit-flip in switch SRAM.
    void corrupt_meta_at(std::size_t b, unsigned xor_mask) noexcept {
        meta_[b] = static_cast<MetaWord>(meta_[b] ^ xor_mask);
    }
    void corrupt_key_at(std::size_t b, std::size_t byte_offset,
                        std::uint8_t xor_mask) noexcept {
        auto* row = reinterpret_cast<unsigned char*>(keys_.get() +
                                                     b * kKeyStride);
        row[byte_offset % (N * sizeof(Key))] ^= xor_mask;
    }

    // -- checkpoint ------------------------------------------------------

    /// Snapshot the three planes (keys, values, meta, concatenated in that
    /// order) as raw bytes.  With the op cursor this is a complete resume
    /// point: restoring and replaying the remaining ops is bit-identical to
    /// an uninterrupted run (replay/target_checkpoint.hpp).  `out` is
    /// replaced; the planes are appended to it with insert, so the image is
    /// written once rather than zero-filled first and then overwritten.
    void save_planes(std::vector<std::byte>& out) const {
        const std::size_t kb = units_ * kKeyStride * sizeof(Key);
        const std::size_t vb = units_ * N * sizeof(Value);
        const std::size_t mb = units_ * sizeof(MetaWord);
        const auto append = [&out](const void* plane, std::size_t bytes) {
            const auto* b = static_cast<const std::byte*>(plane);
            out.insert(out.end(), b, b + bytes);
        };
        out.clear();
        out.reserve(kb + vb + mb);
        append(keys_.get(), kb);
        append(vals_.get(), vb);
        append(meta_.get(), mb);
    }

    /// Restore planes saved by save_planes on a slab of the same geometry;
    /// false (and no mutation) on a size mismatch.  The slab is materialized
    /// afterwards — the restore is itself a full first touch.
    [[nodiscard]] bool load_planes(std::span<const std::byte> in) {
        const std::size_t kb = units_ * kKeyStride * sizeof(Key);
        const std::size_t vb = units_ * N * sizeof(Value);
        const std::size_t mb = units_ * sizeof(MetaWord);
        if (in.size() != kb + vb + mb) return false;
        std::memcpy(keys_.get(), in.data(), kb);
        std::memcpy(vals_.get(), in.data() + kb, vb);
        std::memcpy(meta_.get(), in.data() + kb + vb, mb);
        materialized_ = true;
        return true;
    }

    // -- first-touch protocol --------------------------------------------

    [[nodiscard]] bool materialized() const noexcept { return materialized_; }

    /// Initialize (and thereby fault in) the planes of units [lo, hi).  On a
    /// deferred slab the calling thread performs the first write to those
    /// pages, so a first-touch NUMA policy places them on its node.  No-op
    /// once materialized — live contents are never re-zeroed.  Disjoint
    /// ranges may be touched concurrently (the replay workers do).
    void first_touch(std::size_t lo, std::size_t hi) {
        if (materialized_) return;
        for (std::size_t i = lo * kKeyStride; i < hi * kKeyStride; ++i) keys_[i] = Key{};
        for (std::size_t i = lo * N; i < hi * N; ++i) vals_[i] = Value{};
        for (std::size_t b = lo; b < hi; ++b) meta_[b] = identity_meta();
    }

    /// Declare first-touch coverage complete.  Call once, after every range
    /// of a deferred slab has been touched and the touching threads joined.
    void mark_materialized() noexcept { materialized_ = true; }

    // -- per-unit inspection ---------------------------------------------

    /// Read-only view of one unit with the P4lru accessor vocabulary
    /// (key_at / value_at / size), so storage-generic code and tests can
    /// enumerate entries without knowing the layout.
    class UnitView {
      public:
        UnitView(const SoaSlab* slab, std::size_t b) : slab_(slab), b_(b) {}

        [[nodiscard]] std::size_t size() const { return slab_->size_at(b_); }
        [[nodiscard]] static constexpr std::size_t capacity() noexcept {
            return N;
        }
        [[nodiscard]] bool full() const { return size() == N; }

        /// Key at 1-based LRU position (1 = most recent).
        [[nodiscard]] const Key& key_at(std::size_t i) const {
            return slab_->keys_[b_ * kKeyStride + i - 1];
        }
        /// Value owned by the key at 1-based position i.
        [[nodiscard]] const Value& value_at(std::size_t i) const {
            return slab_->vals_[b_ * N + slot_of(slab_->meta_[b_], i) - 1];
        }

        [[nodiscard]] std::optional<Value> find(const Key& k) const {
            return slab_->find_at(b_, k);
        }
        [[nodiscard]] bool contains(const Key& k) const {
            return find(k).has_value();
        }

      private:
        const SoaSlab* slab_;
        std::size_t b_;
    };

    [[nodiscard]] UnitView unit(std::size_t b) const {
        return UnitView(this, b);
    }

    /// Raw packed meta word of unit b (codec tests).
    [[nodiscard]] MetaWord meta_at(std::size_t b) const { return meta_[b]; }

  private:
    static constexpr std::size_t kPlaneAlign = 64;

    template <typename T>
    struct PlaneDeleter {
        void operator()(T* p) const noexcept {
            ::operator delete(static_cast<void*>(p),
                              std::align_val_t{kPlaneAlign});
        }
    };
    template <typename T>
    using Plane = std::unique_ptr<T[], PlaneDeleter<T>>;

    template <typename T>
    static Plane<T> alloc_plane(std::size_t n) {
        return Plane<T>(static_cast<T*>(::operator new(
            (n ? n : 1) * sizeof(T), std::align_val_t{kPlaneAlign})));
    }

    /// Bit j set iff lane j equals k.  Every lane is compared (no early
    /// exit); callers mask with the occupancy.  Multi-lane rows go through
    /// the runtime-dispatched scan kernel (core/simd/scan_kernels.hpp) —
    /// explicit SSE2/AVX2/NEON where available, the reference scalar loop
    /// otherwise or under P4LRU_FORCE_SCALAR.  A single-lane row is one
    /// compare; calling through a function pointer would only add overhead.
    [[nodiscard]] static unsigned match_mask(const Key* row,
                                             const Key& k) noexcept {
        if constexpr (kKeyStride == 1) {
            return static_cast<unsigned>(detail::lane_eq(row[0], k));
        } else {
            return simd::ScanDispatch<Key, kKeyStride, N>::run(row, k);
        }
    }

    /// row[1..m] = row[0..m-1], row[0] = k — the Step-1 key rotation.
    static void rotate_in(Key* row, std::size_t m, const Key& k) noexcept {
        for (std::size_t j = m; j > 0; --j) row[j] = row[j - 1];
        row[0] = k;
    }

    std::size_t units_;
    Plane<Key> keys_;
    Plane<Value> vals_;
    Plane<MetaWord> meta_;
    bool materialized_ = false;
    [[no_unique_address]] Merge merge_{};
};

static_assert(UnitStorage<SoaSlab<std::uint32_t, std::uint32_t, 3>>);

/// Make the slab the default storage for every behavioural P4lru unit it can
/// hold; encoded units, N > 4 and non-trivially-copyable keys stay on the
/// AoS reference layout.
template <typename Key, typename Value, std::size_t N, typename Merge>
    requires(N <= 4 && std::is_trivially_copyable_v<Key> &&
             std::is_trivially_copyable_v<Value> &&
             std::is_trivially_destructible_v<Key> &&
             std::is_trivially_destructible_v<Value>)
struct default_storage<P4lru<Key, Value, N, Merge>, Key, Value> {
    using type = SoaSlab<Key, Value, N, Merge>;
};

}  // namespace p4lru::core
