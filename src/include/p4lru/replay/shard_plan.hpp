// Shard partitioning for the parallel replay engine.
//
// The bucket hash of ParallelCache already splits the key space into disjoint
// units; a ShardPlan carves the unit index range [0, units) into `shards`
// contiguous sub-ranges. Every bucket has exactly one owner shard, so two
// shards never touch the same P4LRU unit and replay needs no locks — the
// per-set-independence argument of limited-associativity caches.
#pragma once

#include <cstddef>
#include <utility>

#include "p4lru/fault/status.hpp"

namespace p4lru::replay {

class ShardPlan {
  public:
    /// Build a plan over `units` buckets with at most `shards_requested`
    /// shards (clamped to [1, units]). Throws on units == 0.
    static ShardPlan make(std::size_t units, std::size_t shards_requested);

    /// Non-throwing variant: kInvalidArgument instead of an exception on
    /// units == 0 (the typed-error path the hardened replay runtime uses).
    static Expected<ShardPlan> try_make(std::size_t units,
                                        std::size_t shards_requested);

    /// Owner shard of a bucket: floor(bucket * shards / units). The
    /// dispatcher pays this per op, so power-of-two unit counts (the common
    /// paper-scale 2^16..2^17 arrays) take a shift instead of a division.
    [[nodiscard]] std::size_t owner(std::size_t bucket) const noexcept {
        const auto scaled = static_cast<unsigned long long>(bucket) * shards_;
        return static_cast<std::size_t>(
            units_shift_ >= 0 ? scaled >> units_shift_ : scaled / units_);
    }

    /// Half-open unit range [first, last) owned by shard s.
    [[nodiscard]] std::pair<std::size_t, std::size_t> range(
        std::size_t s) const noexcept {
        return {first_of(s), first_of(s + 1)};
    }

    [[nodiscard]] std::size_t units() const noexcept { return units_; }
    [[nodiscard]] std::size_t shards() const noexcept { return shards_; }

  private:
    ShardPlan(std::size_t units, std::size_t shards)
        : units_(units), shards_(shards) {
        if ((units & (units - 1)) == 0) {
            int shift = 0;
            for (std::size_t u = units; u > 1; u >>= 1) ++shift;
            units_shift_ = shift;
        }
    }

    /// Smallest bucket owned by shard s: ceil(s * units / shards).
    [[nodiscard]] std::size_t first_of(std::size_t s) const noexcept {
        return static_cast<std::size_t>(
            (static_cast<unsigned long long>(s) * units_ + shards_ - 1) /
            shards_);
    }

    std::size_t units_;
    std::size_t shards_;
    int units_shift_ = -1;  ///< log2(units) when units is a power of two
};

/// Default worker count for auto-configured sharded replay: the CPUs in
/// this process's affinity mask (pinnable_cpus()) minus the dispatcher
/// thread, clamped to [1, 8].  A caller that wants another count sets
/// ShardedConfig::shards.
[[nodiscard]] std::size_t default_shards();

/// True when this process can profitably run the threaded engine (more than
/// one CPU in its affinity mask); false routes auto-mode replay to the
/// inline batched path.  A caller that wants one path regardless sets
/// ShardedConfig::mode.
[[nodiscard]] bool threads_profitable();

}  // namespace p4lru::replay
