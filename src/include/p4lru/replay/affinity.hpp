// CPU-affinity query for sizing replay and benchmark runs: how many CPUs
// this process may actually run on, which can be fewer than the machine
// has (taskset, cgroup cpusets).
#pragma once

#include <cstddef>

namespace p4lru::replay {

/// CPUs the calling process may run on (affinity-mask aware on Linux,
/// 1 elsewhere).
[[nodiscard]] std::size_t pinnable_cpus();

}  // namespace p4lru::replay
