// LruMon (Section 3.3): data-plane telemetry that never overestimates.
//
// Per packet: the windowed filter drops mouse traffic (est < threshold);
// elephant packets enter the fingerprint-keyed cache with accumulate-on-hit
// semantics; every cache miss uploads <f, fp', len'> to the analyzer. A
// better replacement policy means fewer misses, hence fewer uploads — the
// quantity Figures 11/14/17 measure — while accuracy is structurally
// unaffected (only the filter can under-count, and only below threshold).
//
// This header holds the system's configuration and report types; the system
// itself is LruMonTarget (lrumon_target.hpp), which runs as one partition
// for the monolithic monitor or as G partitions under the sharded engine.
#pragma once

#include <cstdint>

namespace p4lru::systems::lrumon {

using FlowLen = std::uint64_t;

struct LruMonConfig {
    std::uint32_t threshold = 1500;  ///< filter threshold L (bytes)
    bool track_ground_truth = true;  ///< keep per-flow true byte counts
};

struct LruMonReport {
    std::uint64_t packets = 0;
    std::uint64_t filtered_packets = 0;  ///< mouse packets dropped
    std::uint64_t elephant_packets = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t uploads = 0;           ///< entries sent to the analyzer
    double upload_kpps = 0.0;            ///< uploads / trace seconds / 1e3
    double cache_miss_rate = 0.0;        ///< among elephant packets
    std::uint64_t total_bytes = 0;
    std::uint64_t measured_bytes = 0;
    double total_error_rate = 0.0;       ///< underestimation / total bytes
    std::uint64_t max_flow_error = 0;    ///< max per-flow underestimation
    std::uint64_t overestimated_flows = 0;  ///< must stay 0
};

}  // namespace p4lru::systems::lrumon
