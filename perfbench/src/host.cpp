#include "host.hpp"

#include <sys/resource.h>
#include <sys/utsname.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "p4lru/core/simd/scan_kernels.hpp"
#include "p4lru/replay/affinity.hpp"

namespace perfbench {
namespace {

std::string first_line(const std::string& path) {
    std::ifstream in(path);
    std::string line;
    if (!in || !std::getline(in, line)) return "unknown";
    return line;
}

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) {
                return line.substr(line.find_first_not_of(' ', colon + 1));
            }
        }
    }
    return "unknown";
}

/// Size of the unified cache at `level` for cpu0, from sysfs.
std::string cache_size(int level) {
    for (int i = 0; i < 8; ++i) {
        const std::string dir =
            "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i);
        if (first_line(dir + "/level") == std::to_string(level) &&
            first_line(dir + "/type") == "Unified") {
            return first_line(dir + "/size");
        }
    }
    return "unknown";
}

}  // namespace

HostInfo probe_host() {
    HostInfo h;
    h.usable_cores = p4lru::replay::pinnable_cpus();
    h.cpu_model = cpu_model();
    h.l2 = cache_size(2);
    h.l3 = cache_size(3);
    utsname u{};
    h.kernel = uname(&u) == 0 ? u.release : "unknown";
    h.simd_kernel = p4lru::core::simd::kernel_name(
        p4lru::core::simd::dispatched_kernel());
    h.build_type = PERFBENCH_BUILD_TYPE;
#if defined(__clang__)
    h.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    h.compiler = std::string("gcc ") + __VERSION__;
#else
    h.compiler = "unknown";
#endif
    return h;
}

void print_host(const HostInfo& h) {
    std::printf("host.usable_cores: %zu\n", h.usable_cores);
    std::printf("host.cpu_model: %s\n", h.cpu_model.c_str());
    std::printf("host.l2: %s\n", h.l2.c_str());
    std::printf("host.l3: %s\n", h.l3.c_str());
    std::printf("host.kernel: %s\n", h.kernel.c_str());
    std::printf("host.simd_kernel: %s\n", h.simd_kernel.c_str());
    std::printf("host.build_type: %s\n", h.build_type.c_str());
    std::printf("host.compiler: %s\n", h.compiler.c_str());
}

std::string refused_env() {
    for (const char* name : {"P4LRU_REPLAY_MODE", "P4LRU_SCAN_KERNEL",
                             "P4LRU_FORCE_SCALAR", "P4LRU_SCALE"}) {
        if (std::getenv(name) != nullptr) return name;
    }
    return {};
}

double peak_rss_mib() {
    rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
