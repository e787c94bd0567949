// Degradation telemetry of a replay run (DESIGN.md §10).  The report, the
// checkpoint cut, the checkpoint and the checkpoint image header all carry
// the same five counters, so they share this one record: copying it is one
// assignment and carrying it across a resume is one merge().
#pragma once

#include <cstdint>

#include "p4lru/core/unit_storage.hpp"

namespace p4lru::replay {

/// All zero on a healthy run.  Carriers inherit it, which keeps the fields
/// flat on each of them (`report.backpressure_waits`).
struct ReplayTelemetry {
    std::uint64_t backpressure_waits = 0;  ///< push deadline expiries
    std::uint64_t park_wait_us = 0;       ///< us slept awaiting park acks
    std::uint64_t drained_inline = 0;     ///< shards the dispatcher took over
    std::uint64_t abandoned_workers = 0;  ///< workers parked by the watchdog
    core::ScrubReport scrub{};            ///< merged scrub counters, if on

    [[nodiscard]] ReplayTelemetry& telemetry() noexcept { return *this; }
    [[nodiscard]] const ReplayTelemetry& telemetry() const noexcept {
        return *this;
    }

    void merge(const ReplayTelemetry& o) noexcept {
        backpressure_waits += o.backpressure_waits;
        park_wait_us += o.park_wait_us;
        drained_inline += o.drained_inline;
        abandoned_workers += o.abandoned_workers;
        scrub.merge(o.scrub);
    }

    [[nodiscard]] bool degraded() const noexcept {
        return drained_inline != 0 || abandoned_workers != 0 ||
               scrub.corrupt != 0;
    }
};

}  // namespace p4lru::replay
