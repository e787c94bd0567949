// LruTable (Section 3.1): a data-plane NAT whose fast path is a cache of
// control-plane table entries.
//
// Protocol per packet with virtual address va (the packet's virtual
// destination address, as in the paper):
//   * cache hit with a real address  -> fast path, base latency;
//   * cache hit on a PLACEHOLDER     -> the fill for this flow is still in
//     flight: the packet takes the slow path (latency dT) but does NOT
//     schedule another fill and does not traverse the cache again;
//   * cache miss                     -> slow path (latency dT); the cache
//     inserts a placeholder and the control-plane lookup result re-enters
//     the data plane after dT, replacing the placeholder with the real
//     address (a normal write-path cache update).
//
// The replacement policy is pluggable so the comparative benches (Figure 12)
// run the identical protocol over P4LRU3 / Timeout / Elastic / Coco / ideal
// LRU.
//
// This header holds the NAT table and the system's configuration and report
// types; the system itself is LruTableTarget (lrutable_target.hpp), which
// runs as one partition for the monolithic gateway or as G partitions under
// the sharded engine.
#pragma once

#include <cstdint>

#include "p4lru/common/types.hpp"

namespace p4lru::systems::lrutable {

/// Virtual address: the packet's virtual destination IP.
using VirtualAddress = std::uint32_t;

/// The control-plane NAT table: the authoritative virtual->real mapping.
/// Mappings are deterministic functions of the virtual address (a
/// pre-provisioned table), so any trace works without a provisioning step.
class NatTable {
  public:
    /// Authoritative lookup (slow path). Never fails: the table is full.
    [[nodiscard]] std::uint32_t lookup(VirtualAddress va) const;
};

/// Placeholder marking an in-flight control-plane lookup (paper: "e.g.
/// 0x00000000 or 0xFFFFFFFF").
inline constexpr std::uint32_t kPlaceholder = 0xFFFFFFFFu;

struct LruTableConfig {
    TimeNs slow_path_delay = 100 * kMicrosecond;  ///< dT
};

struct LruTableReport {
    std::uint64_t packets = 0;
    std::uint64_t fast_path = 0;        ///< real-address hits
    std::uint64_t placeholder_hits = 0; ///< slow path, fill already pending
    std::uint64_t misses = 0;           ///< slow path, fill scheduled
    double avg_added_latency_us = 0.0;  ///< mean latency beyond base
    double miss_rate = 0.0;             ///< (placeholder_hits + misses)/packets
};

}  // namespace p4lru::systems::lrutable
