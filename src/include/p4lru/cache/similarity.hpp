// LRU-similarity metric (Section 4.2).
//
// For each evicted entry, rank its last-access time among all entries cached
// at eviction (1 = most recent, n = least recent); the similarity sample is
// rank/n. An ideal LRU always evicts the globally least-recent entry, so its
// similarity is exactly 1; the average over all evictions measures how close
// a policy comes.
//
// SimilarityTracked wraps any ReplacementPolicy and feeds its tracker from
// the policy's own access/fill outcomes, so a system measures similarity by
// wrapping its policy, with no tracking switch of its own.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "p4lru/cache/policy.hpp"
#include "p4lru/common/stats.hpp"

namespace p4lru::cache {

/// Tracks last-access sequence numbers of cached keys and computes eviction
/// rank in O(log n) via a Fenwick tree over access sequence numbers.
template <typename Key>
class SimilarityTracker {
  public:
    /// \param max_accesses upper bound on the number of on_access calls
    ///        (Fenwick tree is sized once; one int bit per access).
    explicit SimilarityTracker(std::size_t max_accesses)
        : tree_(max_accesses + 2, 0) {}

    /// Record that `k` became the most recently used cached key. Must be
    /// called for every access that leaves k cached (hits and inserts).
    void on_access(const Key& k) {
        ++seq_;
        if (seq_ + 1 >= tree_.size()) {
            throw std::logic_error("SimilarityTracker: max_accesses exceeded");
        }
        auto [it, inserted] = last_.try_emplace(k, seq_);
        if (!inserted) {
            fenwick_add(it->second, -1);
            it->second = seq_;
        }
        fenwick_add(seq_, +1);
    }

    /// Record that `k` was evicted; accumulates one similarity sample.
    void on_evict(const Key& k) {
        const auto it = last_.find(k);
        if (it == last_.end()) {
            throw std::logic_error("SimilarityTracker: evicting unknown key");
        }
        const std::size_t n = last_.size();
        // newer = cached entries accessed strictly after k.
        const std::int64_t newer =
            fenwick_sum(seq_) - fenwick_sum(it->second);
        const double rank = static_cast<double>(newer + 1);
        samples_.add(rank / static_cast<double>(n));
        fenwick_add(it->second, -1);
        last_.erase(it);
    }

    /// Remove k without scoring (e.g. entry invalidated, not LRU-evicted).
    void on_remove(const Key& k) {
        if (const auto it = last_.find(k); it != last_.end()) {
            fenwick_add(it->second, -1);
            last_.erase(it);
        }
    }

    /// Mean similarity over all evictions so far (1.0 = ideal LRU).
    [[nodiscard]] double similarity() const noexcept {
        return samples_.count() ? samples_.mean() : 1.0;
    }

    [[nodiscard]] std::size_t evictions() const noexcept {
        return samples_.count();
    }
    [[nodiscard]] std::size_t cached() const noexcept { return last_.size(); }

  private:
    void fenwick_add(std::size_t i, std::int64_t delta) {
        for (; i < tree_.size(); i += i & (~i + 1)) tree_[i] += delta;
    }

    [[nodiscard]] std::int64_t fenwick_sum(std::size_t i) const {
        std::int64_t s = 0;
        for (; i > 0; i -= i & (~i + 1)) s += tree_[i];
        return s;
    }

    std::vector<std::int64_t> tree_;
    std::unordered_map<Key, std::size_t> last_;
    std::size_t seq_ = 0;
    stats::Running samples_;
};

/// Decorator that scores the wrapped policy's evictions: after every access
/// and fill it reports the displaced key (on_evict) and then the key left
/// cached (on_access).  Batched paths use the base-class per-op defaults, so
/// every op passes through the hooks.  Tracker state is not checkpointed:
/// save_state/load_state keep the base-class `false`.
template <typename Key, typename Value>
class SimilarityTracked final : public ReplacementPolicy<Key, Value> {
  public:
    using Base = ReplacementPolicy<Key, Value>;

    /// \param max_accesses budget of the tracker (at most one access is
    ///        recorded per access/fill call).
    SimilarityTracked(std::unique_ptr<Base> inner, std::size_t max_accesses)
        : inner_(std::move(inner)), tracker_(max_accesses) {
        if (!inner_) {
            throw std::invalid_argument("SimilarityTracked: null policy");
        }
    }

    Access<Key, Value> access(const Key& k, const Value& v,
                              TimeNs now) override {
        return track(k, inner_->access(k, v, now));
    }

    Access<Key, Value> fill(const Key& k, const Value& v,
                            TimeNs now) override {
        return track(k, inner_->fill(k, v, now));
    }

    [[nodiscard]] std::optional<Value> peek(const Key& k) const override {
        return inner_->peek(k);
    }

    void for_each(const std::function<void(const Key&, const Value&)>& fn)
        const override {
        inner_->for_each(fn);
    }

    [[nodiscard]] std::size_t capacity_entries() const override {
        return inner_->capacity_entries();
    }

    [[nodiscard]] std::string name() const override { return inner_->name(); }

    /// Mean similarity over the evictions seen so far (1.0 = ideal LRU).
    [[nodiscard]] double similarity() const noexcept {
        return tracker_.similarity();
    }

  private:
    Access<Key, Value> track(const Key& k, const Access<Key, Value>& a) {
        if (a.evicted) tracker_.on_evict(a.evicted_key);
        if (a.inserted) tracker_.on_access(k);
        return a;
    }

    std::unique_ptr<Base> inner_;
    SimilarityTracker<Key> tracker_;
};

}  // namespace p4lru::cache
