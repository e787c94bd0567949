// Host and environment facts printed with every benchmark result, so a
// number is never read without the machine that produced it.
#pragma once

#include <cstddef>
#include <string>

namespace perfbench {

struct HostInfo {
    std::size_t usable_cores = 1;  ///< CPUs in this process's affinity mask
    std::string cpu_model;
    std::string l2;                ///< per-core L2 size as sysfs prints it
    std::string l3;
    std::string kernel;            ///< uname release
    std::string simd_kernel;       ///< dispatched key-scan kernel
    std::string build_type;
    std::string compiler;
};

[[nodiscard]] HostInfo probe_host();

/// One "host.<key>: <value>" line per field.
void print_host(const HostInfo& h);

/// Name of the first environment variable that would silently change the
/// program being measured (replay mode, scan kernel, workload scale), or
/// an empty string when none is set.
[[nodiscard]] std::string refused_env();

/// Peak resident set of this process so far, in MiB (file-backed mapped
/// pages included).
[[nodiscard]] double peak_rss_mib();

}  // namespace perfbench
