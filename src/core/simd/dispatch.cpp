// Runtime CPU-feature dispatch for the SoaSlab scan kernels: one cpuid
// probe and the rebind registry that lets tests and benchmarks switch every
// live ScanDispatch instantiation in-process.
#include "p4lru/core/simd/scan_kernels.hpp"

#include <mutex>
#include <vector>

#include "p4lru/obs/metrics.hpp"

namespace p4lru::core::simd {

const char* kernel_name(ScanKernel k) noexcept {
    switch (k) {
        case ScanKernel::kScalar:
            return "scalar";
        case ScanKernel::kSse2:
            return "sse2";
        case ScanKernel::kAvx2:
            return "avx2";
        case ScanKernel::kNeon:
            return "neon";
    }
    return "unknown";
}

CpuFeatures cpu_features() noexcept {
    CpuFeatures f;
#if defined(P4LRU_SIMD_X86)
    f.sse2 = true;  // x86-64 baseline
    f.avx2 = __builtin_cpu_supports("avx2") != 0;
#elif defined(P4LRU_SIMD_NEON)
    f.neon = true;  // AArch64 baseline
#endif
    return f;
}

bool kernel_available(ScanKernel k) noexcept {
    const CpuFeatures f = cpu_features();
    switch (k) {
        case ScanKernel::kScalar:
            return true;
        case ScanKernel::kSse2:
            return f.sse2;
        case ScanKernel::kAvx2:
            return f.avx2;
        case ScanKernel::kNeon:
            return f.neon;
    }
    return false;
}

namespace {

ScanKernel resolve_dispatched() noexcept {
    const CpuFeatures f = cpu_features();
    if (f.avx2) return ScanKernel::kAvx2;
    if (f.sse2) return ScanKernel::kSse2;
    if (f.neon) return ScanKernel::kNeon;
    return ScanKernel::kScalar;
}

// Guards the registry and the override word together so register_and_bind
// cannot interleave with a set_kernel_override rebind sweep.
std::mutex& registry_mutex() {
    static std::mutex m;
    return m;
}

std::vector<detail::RebindFn>& registry() {
    static std::vector<detail::RebindFn> v;
    return v;
}

// -1 = no override; otherwise the ScanKernel value forced by
// set_kernel_override.  Written under registry_mutex, read lock-free by
// active_kernel().
std::atomic<int> g_override{-1};

ScanKernel active_kernel_locked() noexcept {
    const int o = g_override.load(std::memory_order_relaxed);
    return o >= 0 ? static_cast<ScanKernel>(o) : dispatched_kernel();
}

// Kernel-selection gauge on the process-wide registry: every (re)bind —
// first resolve, override, override clear — publishes the enum value, so a
// sampler snapshot names the kernel actually driving the scans.
void publish_kernel_gauge(ScanKernel k) noexcept {
    obs::set_global_gauge("simd_active_kernel",
                          static_cast<std::int64_t>(k));
}

}  // namespace

ScanKernel dispatched_kernel() noexcept {
    static const ScanKernel k = resolve_dispatched();
    return k;
}

ScanKernel active_kernel() noexcept {
    const int o = g_override.load(std::memory_order_acquire);
    return o >= 0 ? static_cast<ScanKernel>(o) : dispatched_kernel();
}

bool set_kernel_override(ScanKernel k) {
    if (!kernel_available(k)) return false;
    std::lock_guard<std::mutex> lock(registry_mutex());
    g_override.store(static_cast<int>(k), std::memory_order_release);
    for (detail::RebindFn f : registry()) f(k);
    publish_kernel_gauge(k);
    return true;
}

void clear_kernel_override() {
    std::lock_guard<std::mutex> lock(registry_mutex());
    g_override.store(-1, std::memory_order_release);
    const ScanKernel k = dispatched_kernel();
    for (detail::RebindFn f : registry()) f(k);
    publish_kernel_gauge(k);
}

namespace detail {

void register_and_bind(RebindFn f) {
    std::lock_guard<std::mutex> lock(registry_mutex());
    auto& r = registry();
    bool seen = false;
    for (RebindFn g : r) seen |= (g == f);
    if (!seen) r.push_back(f);
    const ScanKernel k = active_kernel_locked();
    f(k);
    publish_kernel_gauge(k);
}

}  // namespace detail

}  // namespace p4lru::core::simd
