#include "p4lru/replay/shard_plan.hpp"

#include <algorithm>
#include <stdexcept>

#include "p4lru/replay/affinity.hpp"

namespace p4lru::replay {

ShardPlan ShardPlan::make(std::size_t units, std::size_t shards_requested) {
    auto plan = try_make(units, shards_requested);
    if (!plan.is_ok()) {
        throw std::invalid_argument("ShardPlan: " +
                                    plan.status().to_string());
    }
    return std::move(plan).value();
}

Expected<ShardPlan> ShardPlan::try_make(std::size_t units,
                                        std::size_t shards_requested) {
    if (units == 0) {
        return Status(ErrorCode::kInvalidArgument, "zero units");
    }
    const std::size_t shards =
        std::clamp<std::size_t>(shards_requested, 1, units);
    return ShardPlan(units, shards);
}

std::size_t default_shards() {
    // CPUs this process may run on, not the machine's: under taskset or a
    // cgroup cpuset the extra workers would only time-slice one core.
    const std::size_t cpus = pinnable_cpus();
    if (cpus <= 1) return 1;
    // Leave one CPU for the dispatcher; cap at 8 — shards beyond that
    // saturate the single dispatcher's hash-and-route throughput.
    return std::clamp<std::size_t>(cpus - 1, 1, 8);
}

bool threads_profitable() {
    return pinnable_cpus() > 1;
}

}  // namespace p4lru::replay
