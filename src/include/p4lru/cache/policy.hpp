// Uniform cache-policy interface and every replacement policy evaluated in
// the paper's comparative experiments (Figures 12-14), plus two extensions.
//
//   UnitArrayPolicy      - parallel-connected P4LRU units, spelled
//                          P4lruArrayPolicy<N> (N=1 is the paper's
//                          "Baseline" hash-table cache, N=3 the
//                          contribution) and P4lru4ArrayPolicy (encoded)
//   TimeoutPolicy       - BeauCoup-style last-access-timestamp replacement
//   ElasticPolicy        - Elastic-sketch vote-based replacement
//   CocoPolicy           - CocoSketch probabilistic replacement
//   IdealLruPolicy       - the unconstrained strict-LRU upper bound
//   LfuPolicy            - per-bucket frequency aging (extension)
//   ClockPolicy          - CLOCK second-chance approximation (extension,
//                          what MemC3 uses; its scanning hand is exactly
//                          what a pipeline cannot provide)
//
// Two entry points mirror the two ways packets touch a data plane cache:
//   access(k, v, now) - read path: a hit keeps the stored value;
//   fill(k, v, now)   - write path: a hit merges v in (Merge template
//                       parameter: ReplaceMerge for refills, AddMerge for
//                       LruMon byte counters).
// Both insert on a miss, per the policy's replacement rule.
//
// All policies expose entry-count-normalized capacity so the comparative
// benches sweep them at equal memory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "p4lru/common/hash.hpp"
#include "p4lru/common/random.hpp"
#include "p4lru/common/types.hpp"
#include "p4lru/core/parallel_array.hpp"
#include "p4lru/core/p4lru.hpp"
#include "p4lru/core/p4lru4.hpp"

namespace p4lru::cache {

/// Result of one access (lookup-and-update) against a policy.
template <typename Key, typename Value>
struct Access {
    bool hit = false;       ///< key was cached before the access
    bool inserted = false;  ///< key is cached after the access
    bool evicted = false;   ///< a different key was displaced
    Key evicted_key{};
    Value evicted_value{};
    Value value{};          ///< value associated with k after the access
};

/// Type-erased replacement policy; the comparative benches drive every
/// competitor through this interface.
template <typename Key, typename Value>
class ReplacementPolicy {
  public:
    virtual ~ReplacementPolicy() = default;

    /// Read-path packet for key k; v is only used if the policy inserts.
    virtual Access<Key, Value> access(const Key& k, const Value& v,
                                      TimeNs now) = 0;

    /// Write-path packet: a hit merges v into the stored value.
    virtual Access<Key, Value> fill(const Key& k, const Value& v,
                                    TimeNs now) = 0;

    /// Non-mutating lookup.
    [[nodiscard]] virtual std::optional<Value> peek(const Key& k) const = 0;

    /// Enumerate every cached entry (teardown flush in LruMon, tests).
    virtual void for_each(
        const std::function<void(const Key&, const Value&)>& fn) const = 0;

    /// Total key-value entries the policy can hold (memory normalization).
    [[nodiscard]] virtual std::size_t capacity_entries() const = 0;

    [[nodiscard]] virtual std::string name() const = 0;

    /// Serialize the policy's full mutable state into `out` (appending),
    /// for the checkpoint snapshot plane of the system replay targets.
    /// Returns false when the policy does not support snapshotting (the
    /// default); array-backed policies save their storage plane image.
    [[nodiscard]] virtual bool save_state(
        std::vector<std::byte>& /*out*/) const {
        return false;
    }

    /// Restore state written by save_state() on an identically-configured
    /// policy; false when unsupported or the image does not fit.
    [[nodiscard]] virtual bool load_state(std::span<const std::byte> /*in*/) {
        return false;
    }
};

/// Parallel-connected array of `Unit` caches (Section 1.2):
/// capacity_entries = units * Unit::capacity().
template <typename Unit, typename Key, typename Value,
          typename Merge = core::ReplaceMerge>
class UnitArrayPolicy final : public ReplacementPolicy<Key, Value> {
  public:
    UnitArrayPolicy(std::size_t total_entries, std::uint32_t seed)
        : array_(std::max<std::size_t>(1, total_entries / Unit::capacity()),
                 seed) {}

    Access<Key, Value> access(const Key& k, const Value& v,
                              TimeNs /*now*/) override {
        const std::size_t b = array_.bucket(k);
        return convert(b, k, array_.update_at(b, k, v, core::KeepMerge{}));
    }

    Access<Key, Value> fill(const Key& k, const Value& v,
                            TimeNs /*now*/) override {
        const std::size_t b = array_.bucket(k);
        return convert(b, k, array_.update_at(b, k, v, Merge{}));
    }

    std::optional<Value> peek(const Key& k) const override {
        return array_.find(k);
    }

    std::size_t capacity_entries() const override { return array_.capacity(); }

    std::string name() const override {
        return "P4LRU" + std::to_string(Unit::capacity());
    }

    void for_each(const std::function<void(const Key&, const Value&)>& fn)
        const override {
        for (std::size_t u = 0; u < array_.unit_count(); ++u) {
            const auto& unit = array_.unit(u);
            if constexpr (requires(const Unit& x) { x.raw_key(0); }) {
                // Encoded units store keys in raw slots with Key{} as the
                // empty sentinel; find() resolves each value through the
                // unit's state.
                for (std::size_t i = 0; i < Unit::capacity(); ++i) {
                    const Key& key = unit.raw_key(i);
                    if (key == Key{}) continue;
                    if (const auto value = unit.find(key)) fn(key, *value);
                }
            } else {
                for (std::size_t i = 1; i <= unit.size(); ++i) {
                    fn(unit.key_at(i), unit.value_at(i));
                }
            }
        }
    }

    bool save_state(std::vector<std::byte>& out) const override {
        std::vector<std::byte> planes;
        array_.storage().save_planes(planes);
        out.insert(out.end(), planes.begin(), planes.end());
        return true;
    }

    bool load_state(std::span<const std::byte> in) override {
        return array_.storage().load_planes(in);
    }

  private:
    /// The bucket is computed once per access/fill and threaded through to
    /// the post-update readback, so each packet pays exactly one hash.
    Access<Key, Value> convert(std::size_t b, const Key& k,
                               const core::UpdateResult<Key, Value>& r) {
        Access<Key, Value> a;
        a.hit = r.hit;
        a.inserted = true;
        a.evicted = r.evicted;
        a.evicted_key = r.evicted_key;
        a.evicted_value = r.evicted_value;
        a.value = array_.find_at(b, k).value_or(Value{});
        return a;
    }

    core::ParallelCache<Unit, Key, Value> array_;
};

/// Parallel-connected P4LRU_N (N=1 is the paper's "Baseline" hash-table
/// cache, N=3 the contribution).
template <typename Key, typename Value, std::size_t N,
          typename Merge = core::ReplaceMerge>
using P4lruArrayPolicy =
    UnitArrayPolicy<core::P4lru<Key, Value, N>, Key, Value, Merge>;

/// Parallel-connected encoded P4LRU4 (the Section-2.3.3 construction).
template <typename Key, typename Value, typename Merge = core::ReplaceMerge>
using P4lru4ArrayPolicy =
    UnitArrayPolicy<core::P4lru4Encoded<Key, Value, Merge>, Key, Value,
                    Merge>;

/// Timeout policy: a hash table whose occupant is only replaced once its
/// last-access timestamp is older than `timeout`. The paper notes the
/// threshold needs careful tuning; the benches sweep it.
template <typename Key, typename Value, typename Merge = core::ReplaceMerge>
class TimeoutPolicy final : public ReplacementPolicy<Key, Value> {
  public:
    TimeoutPolicy(std::size_t total_entries, std::uint32_t seed,
                  TimeNs timeout)
        : buckets_(std::max<std::size_t>(1, total_entries)),
          hasher_(seed, buckets_.size()),
          timeout_(timeout) {}

    Access<Key, Value> access(const Key& k, const Value& v,
                              TimeNs now) override {
        return run(k, v, now, /*write_hit=*/false);
    }
    Access<Key, Value> fill(const Key& k, const Value& v,
                            TimeNs now) override {
        return run(k, v, now, /*write_hit=*/true);
    }

    std::optional<Value> peek(const Key& k) const override {
        const auto& b = buckets_[core::bucket_of(hasher_, k)];
        if (b.occupied && b.key == k) return b.value;
        return std::nullopt;
    }

    std::size_t capacity_entries() const override { return buckets_.size(); }
    std::string name() const override { return "Timeout"; }

    void for_each(const std::function<void(const Key&, const Value&)>& fn)
        const override {
        for (const auto& b : buckets_) {
            if (b.occupied) fn(b.key, b.value);
        }
    }


  private:
    Access<Key, Value> run(const Key& k, const Value& v, TimeNs now,
                           bool write_hit) {
        auto& b = buckets_[core::bucket_of(hasher_, k)];
        Access<Key, Value> a;
        if (b.occupied && b.key == k) {
            a.hit = true;
            a.inserted = true;
            if (write_hit) b.value = Merge{}(b.value, v);
            b.last = now;
            a.value = b.value;
            return a;
        }
        if (b.occupied && now - b.last <= timeout_) {
            return a;  // miss, occupant retained, newcomer dropped
        }
        if (b.occupied) {
            a.evicted = true;
            a.evicted_key = b.key;
            a.evicted_value = b.value;
        }
        b = {true, k, v, now};
        a.inserted = true;
        a.value = v;
        return a;
    }

    struct Bucket {
        bool occupied = false;
        Key key{};
        Value value{};
        TimeNs last = 0;
    };
    std::vector<Bucket> buckets_;
    hash::FlowHasher hasher_;
    TimeNs timeout_;
};

/// Elastic-sketch replacement: each bucket keeps the resident's positive
/// votes and the colliders' negative votes; the resident is ousted when
/// negative >= lambda * positive (lambda = 8 in the Elastic paper).
template <typename Key, typename Value, typename Merge = core::ReplaceMerge>
class ElasticPolicy final : public ReplacementPolicy<Key, Value> {
  public:
    ElasticPolicy(std::size_t total_entries, std::uint32_t seed,
                  std::uint32_t lambda = 8)
        : buckets_(std::max<std::size_t>(1, total_entries)),
          hasher_(seed, buckets_.size()),
          lambda_(lambda) {
        if (lambda == 0) throw std::invalid_argument("ElasticPolicy: lambda 0");
    }

    Access<Key, Value> access(const Key& k, const Value& v,
                              TimeNs now) override {
        return run(k, v, now, false);
    }
    Access<Key, Value> fill(const Key& k, const Value& v,
                            TimeNs now) override {
        return run(k, v, now, true);
    }

    std::optional<Value> peek(const Key& k) const override {
        const auto& b = buckets_[core::bucket_of(hasher_, k)];
        if (b.occupied && b.key == k) return b.value;
        return std::nullopt;
    }

    std::size_t capacity_entries() const override { return buckets_.size(); }
    std::string name() const override { return "Elastic"; }

    void for_each(const std::function<void(const Key&, const Value&)>& fn)
        const override {
        for (const auto& b : buckets_) {
            if (b.occupied) fn(b.key, b.value);
        }
    }


  private:
    Access<Key, Value> run(const Key& k, const Value& v, TimeNs /*now*/,
                           bool write_hit) {
        auto& b = buckets_[core::bucket_of(hasher_, k)];
        Access<Key, Value> a;
        if (b.occupied && b.key == k) {
            a.hit = true;
            a.inserted = true;
            if (write_hit) b.value = Merge{}(b.value, v);
            ++b.positive;
            a.value = b.value;
            return a;
        }
        if (!b.occupied) {
            b = {true, k, v, 1, 0};
            a.inserted = true;
            a.value = v;
            return a;
        }
        ++b.negative;
        if (b.negative >= lambda_ * b.positive) {
            a.evicted = true;
            a.evicted_key = b.key;
            a.evicted_value = b.value;
            b = {true, k, v, 1, 0};
            a.inserted = true;
            a.value = v;
        }
        return a;
    }

    struct Bucket {
        bool occupied = false;
        Key key{};
        Value value{};
        std::uint32_t positive = 0;
        std::uint32_t negative = 0;
    };
    std::vector<Bucket> buckets_;
    hash::FlowHasher hasher_;
    std::uint32_t lambda_;
};

/// CocoSketch replacement: on a collision the newcomer takes over with
/// probability 1/(count+1), keeping per-key estimates unbiased.
template <typename Key, typename Value, typename Merge = core::ReplaceMerge>
class CocoPolicy final : public ReplacementPolicy<Key, Value> {
  public:
    CocoPolicy(std::size_t total_entries, std::uint32_t seed)
        : buckets_(std::max<std::size_t>(1, total_entries)),
          hasher_(seed, buckets_.size()),
          rng_(0xC0C0ULL ^ seed) {}

    Access<Key, Value> access(const Key& k, const Value& v,
                              TimeNs now) override {
        return run(k, v, now, false);
    }
    Access<Key, Value> fill(const Key& k, const Value& v,
                            TimeNs now) override {
        return run(k, v, now, true);
    }

    std::optional<Value> peek(const Key& k) const override {
        const auto& b = buckets_[core::bucket_of(hasher_, k)];
        if (b.occupied && b.key == k) return b.value;
        return std::nullopt;
    }

    std::size_t capacity_entries() const override { return buckets_.size(); }
    std::string name() const override { return "Coco"; }

    void for_each(const std::function<void(const Key&, const Value&)>& fn)
        const override {
        for (const auto& b : buckets_) {
            if (b.occupied) fn(b.key, b.value);
        }
    }


  private:
    Access<Key, Value> run(const Key& k, const Value& v, TimeNs /*now*/,
                           bool write_hit) {
        auto& b = buckets_[core::bucket_of(hasher_, k)];
        Access<Key, Value> a;
        if (b.occupied && b.key == k) {
            a.hit = true;
            a.inserted = true;
            if (write_hit) b.value = Merge{}(b.value, v);
            ++b.count;
            a.value = b.value;
            return a;
        }
        if (!b.occupied) {
            b = {true, k, v, 1};
            a.inserted = true;
            a.value = v;
            return a;
        }
        ++b.count;
        if (rng_.chance(1.0 / static_cast<double>(b.count))) {
            a.evicted = true;
            a.evicted_key = b.key;
            a.evicted_value = b.value;
            b.key = k;
            b.value = v;
            a.inserted = true;
            a.value = v;
        }
        return a;
    }

    struct Bucket {
        bool occupied = false;
        Key key{};
        Value value{};
        std::uint64_t count = 0;
    };
    std::vector<Bucket> buckets_;
    hash::FlowHasher hasher_;
    rng::Xoshiro256 rng_;
};

/// The unconstrained strict LRU (doubly linked list + hash map, as in
/// Memcached): the upper bound every data-plane scheme approximates.
template <typename Key, typename Value, typename Merge = core::ReplaceMerge>
class IdealLruPolicy final : public ReplacementPolicy<Key, Value> {
  public:
    explicit IdealLruPolicy(std::size_t total_entries)
        : capacity_(std::max<std::size_t>(1, total_entries)) {}

    Access<Key, Value> access(const Key& k, const Value& v,
                              TimeNs now) override {
        return run(k, v, now, false);
    }
    Access<Key, Value> fill(const Key& k, const Value& v,
                            TimeNs now) override {
        return run(k, v, now, true);
    }

    std::optional<Value> peek(const Key& k) const override {
        if (auto it = index_.find(k); it != index_.end()) {
            return it->second->second;
        }
        return std::nullopt;
    }

    std::size_t capacity_entries() const override { return capacity_; }
    std::string name() const override { return "LRU_IDEAL"; }

    void for_each(const std::function<void(const Key&, const Value&)>& fn)
        const override {
        for (const auto& [k, v] : order_) fn(k, v);
    }

  private:
    Access<Key, Value> run(const Key& k, const Value& v, TimeNs /*now*/,
                           bool write_hit) {
        Access<Key, Value> a;
        a.inserted = true;
        if (auto it = index_.find(k); it != index_.end()) {
            a.hit = true;
            if (write_hit) it->second->second = Merge{}(it->second->second, v);
            order_.splice(order_.begin(), order_, it->second);
            a.value = it->second->second;
            return a;
        }
        order_.emplace_front(k, v);
        index_[k] = order_.begin();
        a.value = v;
        if (order_.size() > capacity_) {
            a.evicted = true;
            a.evicted_key = order_.back().first;
            a.evicted_value = order_.back().second;
            index_.erase(order_.back().first);
            order_.pop_back();
        }
        return a;
    }

    std::size_t capacity_;
    std::list<std::pair<Key, Value>> order_;
    std::unordered_map<Key,
                       typename std::list<std::pair<Key, Value>>::iterator>
        index_;
};

/// Per-bucket frequency aging (HashPipe-flavoured LFU extension): a miss
/// decays the resident's counter; at zero the newcomer takes the slot.
template <typename Key, typename Value, typename Merge = core::ReplaceMerge>
class LfuPolicy final : public ReplacementPolicy<Key, Value> {
  public:
    LfuPolicy(std::size_t total_entries, std::uint32_t seed)
        : buckets_(std::max<std::size_t>(1, total_entries)),
          hasher_(seed, buckets_.size()) {}

    Access<Key, Value> access(const Key& k, const Value& v,
                              TimeNs now) override {
        return run(k, v, now, false);
    }
    Access<Key, Value> fill(const Key& k, const Value& v,
                            TimeNs now) override {
        return run(k, v, now, true);
    }

    std::optional<Value> peek(const Key& k) const override {
        const auto& b = buckets_[core::bucket_of(hasher_, k)];
        if (b.occupied && b.key == k) return b.value;
        return std::nullopt;
    }

    std::size_t capacity_entries() const override { return buckets_.size(); }
    std::string name() const override { return "LFU"; }

    void for_each(const std::function<void(const Key&, const Value&)>& fn)
        const override {
        for (const auto& b : buckets_) {
            if (b.occupied) fn(b.key, b.value);
        }
    }


  private:
    Access<Key, Value> run(const Key& k, const Value& v, TimeNs /*now*/,
                           bool write_hit) {
        auto& b = buckets_[core::bucket_of(hasher_, k)];
        Access<Key, Value> a;
        if (b.occupied && b.key == k) {
            a.hit = true;
            a.inserted = true;
            if (write_hit) b.value = Merge{}(b.value, v);
            ++b.freq;
            a.value = b.value;
            return a;
        }
        if (!b.occupied) {
            b = {true, k, v, 1};
            a.inserted = true;
            a.value = v;
            return a;
        }
        if (--b.freq == 0) {
            a.evicted = true;
            a.evicted_key = b.key;
            a.evicted_value = b.value;
            b = {true, k, v, 1};
            a.inserted = true;
            a.value = v;
        }
        return a;
    }

    struct Bucket {
        bool occupied = false;
        Key key{};
        Value value{};
        std::uint32_t freq = 0;
    };
    std::vector<Bucket> buckets_;
    hash::FlowHasher hasher_;
};

/// CLOCK (second chance): global ring with reference bits and a scanning
/// hand. Approximates LRU well but the hand's scan is exactly what a
/// pipeline cannot do — included to quantify the gap P4LRU closes.
template <typename Key, typename Value, typename Merge = core::ReplaceMerge>
class ClockPolicy final : public ReplacementPolicy<Key, Value> {
  public:
    explicit ClockPolicy(std::size_t total_entries)
        : slots_(std::max<std::size_t>(1, total_entries)) {}

    Access<Key, Value> access(const Key& k, const Value& v,
                              TimeNs now) override {
        return run(k, v, now, false);
    }
    Access<Key, Value> fill(const Key& k, const Value& v,
                            TimeNs now) override {
        return run(k, v, now, true);
    }

    std::optional<Value> peek(const Key& k) const override {
        if (auto it = index_.find(k); it != index_.end()) {
            return slots_[it->second].value;
        }
        return std::nullopt;
    }

    std::size_t capacity_entries() const override { return slots_.size(); }
    std::string name() const override { return "CLOCK"; }

    void for_each(const std::function<void(const Key&, const Value&)>& fn)
        const override {
        for (const auto& s : slots_) {
            if (s.occupied) fn(s.key, s.value);
        }
    }

  private:
    Access<Key, Value> run(const Key& k, const Value& v, TimeNs /*now*/,
                           bool write_hit) {
        Access<Key, Value> a;
        a.inserted = true;
        if (auto it = index_.find(k); it != index_.end()) {
            a.hit = true;
            auto& s = slots_[it->second];
            if (write_hit) s.value = Merge{}(s.value, v);
            s.referenced = true;
            a.value = s.value;
            return a;
        }
        while (true) {
            auto& s = slots_[hand_];
            if (!s.occupied || !s.referenced) break;
            s.referenced = false;
            hand_ = (hand_ + 1) % slots_.size();
        }
        auto& s = slots_[hand_];
        if (s.occupied) {
            a.evicted = true;
            a.evicted_key = s.key;
            a.evicted_value = s.value;
            index_.erase(s.key);
        }
        // Insert with the reference bit clear: only a genuine re-reference
        // earns the second chance.
        s = {true, false, k, v};
        index_[k] = hand_;
        hand_ = (hand_ + 1) % slots_.size();
        a.value = v;
        return a;
    }

    struct Slot {
        bool occupied = false;
        bool referenced = false;
        Key key{};
        Value value{};
    };
    std::vector<Slot> slots_;
    std::unordered_map<Key, std::size_t> index_;
    std::size_t hand_ = 0;
};

}  // namespace p4lru::cache
