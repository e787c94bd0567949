// Explicit-SIMD scan kernels for the SoaSlab key-plane compare-mask scan,
// with one-time runtime CPU-feature dispatch.
//
// The slab's hot kernel is tiny and fixed-shape: compare the `Stride`
// contiguous lanes of one unit's key row against a probe key and return the
// match bitmask for the N real lanes.  PR 2 wrote that loop
// auto-vectorization-friendly; this layer adds hand-written kernels —
// SSE2 (x86-64 baseline), AVX2 (cpuid-gated) and NEON (AArch64) — because
// for the small-N LRU-unit shape a broadcast-compare-movemask sequence beats
// what the compiler derives from the scalar loop (cf. "Multi-step LRU:
// SIMD-based Cache Replacement", PAPERS.md).
//
// Dispatch model:
//   * `ScanKernels<Key, Stride, N>` is the per-shape kernel table.  Its
//     `get(kernel)` returns the widest implemented kernel no wider than the
//     request (avx2 -> sse2 -> scalar; neon -> scalar), so a global kernel
//     choice always lands on something the shape actually implements.  The
//     scalar kernel is the reference model — byte-for-byte the PR-2 loop.
//   * `ScanDispatch<Key, Stride, N>` is the call site: a function pointer
//     resolved once per instantiation from `active_kernel()` (cpuid probe
//     unless overridden), lazily on first scan so no static-init-order
//     games are needed.  `set_kernel_override` rebinds every live
//     instantiation — perfbench uses it to time each kernel in one process,
//     and the tests use it to compare kernels.
//   * Forcing scalar: build with -DP4LRU_FORCE_SCALAR=ON (the kernels are
//     not even compiled), or call set_kernel_override(ScanKernel::kScalar).
//
// Every kernel returns exactly the scalar mask: bit j set iff lane j
// (j < N) equals the probe under `lane_eq` — which for FlowKey compares the
// 13 defined bytes and *ignores the 3 pad bytes*, so the byte-compare
// kernels mask the pad bytes out (a pad byte corrupted by the fault hooks
// must not turn a hit into a miss when the scalar model still matches).
// Lanes >= N (key-row padding) never contribute a bit.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "p4lru/common/types.hpp"

#if !defined(P4LRU_FORCE_SCALAR) && (defined(__GNUC__) || defined(__clang__))
#if defined(__x86_64__)
#define P4LRU_SIMD_X86 1
#include <immintrin.h>
#elif defined(__aarch64__) && defined(__ARM_NEON)
#define P4LRU_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif

namespace p4lru::core {

namespace detail {

/// Lane equality for the compare-mask scan.  The generic form is the key's
/// own operator==; FlowKey gets a fused branch-free compare — the 5-tuple's
/// 13 defined bytes as one u64 + one u32 + the proto byte, AND-combined —
/// instead of five short-circuiting member compares.
template <typename K>
[[nodiscard]] inline bool lane_eq(const K& a, const K& b) {
    return a == b;
}

[[nodiscard]] inline bool lane_eq(const FlowKey& a, const FlowKey& b) {
    static_assert(offsetof(FlowKey, src_port) == 8 &&
                  offsetof(FlowKey, proto) == 12);
    std::uint64_t a_ips, b_ips;
    std::uint32_t a_ports, b_ports;
    std::memcpy(&a_ips, &a, sizeof(a_ips));
    std::memcpy(&b_ips, &b, sizeof(b_ips));
    std::memcpy(&a_ports, reinterpret_cast<const char*>(&a) + 8,
                sizeof(a_ports));
    std::memcpy(&b_ports, reinterpret_cast<const char*>(&b) + 8,
                sizeof(b_ports));
    return ((a_ips == b_ips) & (a_ports == b_ports) &
            (a.proto == b.proto)) != 0;
}

}  // namespace detail

namespace simd {

enum class ScanKernel : std::uint8_t { kScalar = 0, kSse2, kAvx2, kNeon };

/// What the running CPU offers (probed once; see dispatch.cpp).  Under a
/// -DP4LRU_FORCE_SCALAR build everything but the scalar kernel reads as
/// unavailable regardless of hardware.
struct CpuFeatures {
    bool sse2 = false;
    bool avx2 = false;
    bool neon = false;
};

[[nodiscard]] const char* kernel_name(ScanKernel k) noexcept;
[[nodiscard]] CpuFeatures cpu_features() noexcept;

/// The kernel the cpuid probe picked (ignores overrides).
[[nodiscard]] ScanKernel dispatched_kernel() noexcept;
/// dispatched_kernel(), unless a set_kernel_override is in effect.
[[nodiscard]] ScanKernel active_kernel() noexcept;
/// True when `k` can execute on this CPU in this build.
[[nodiscard]] bool kernel_available(ScanKernel k) noexcept;

/// Rebind every live ScanDispatch instantiation to `k` (bench/test hook;
/// not thread-safe against concurrent scans *switching* semantics, but each
/// scan always calls through a valid pointer).  Returns false — and changes
/// nothing — when `k` is not available on this CPU/build.
bool set_kernel_override(ScanKernel k);
/// Drop the override and rebind everything to dispatched_kernel().
void clear_kernel_override();

template <typename Key>
using ScanFn = unsigned (*)(const Key* row, const Key& k);

namespace detail {
using RebindFn = void (*)(ScanKernel);
/// Register an instantiation's rebind hook (idempotent) and invoke it with
/// the active kernel under the registry lock, so a first scan racing a
/// set_kernel_override still lands on a consistent binding.
void register_and_bind(RebindFn f);
}  // namespace detail

/// Reference kernel: the PR-2 scalar loop, compiled exactly as before (all
/// N lanes compared unconditionally so the compiler may auto-vectorize).
template <typename Key, std::size_t N>
struct ScalarScan {
    static unsigned scan(const Key* row, const Key& k) noexcept {
        unsigned eq = 0;
        for (std::size_t j = 0; j < N; ++j) {
            eq |= static_cast<unsigned>(core::detail::lane_eq(row[j], k))
                  << j;
        }
        return eq;
    }
};

/// Per-shape kernel table.  The primary template (any trivially copyable
/// key the slab accepts) is scalar-only; the u32/u64/FlowKey
/// specializations below add the explicit kernels.
template <typename Key, std::size_t Stride, std::size_t N>
struct ScanKernels {
    static constexpr bool kHasSimd = false;
    static unsigned scalar(const Key* row, const Key& k) noexcept {
        return ScalarScan<Key, N>::scan(row, k);
    }
    static ScanFn<Key> get(ScanKernel) noexcept { return &scalar; }
};

#if defined(P4LRU_SIMD_X86)

template <std::size_t Stride, std::size_t N>
struct ScanKernels<std::uint32_t, Stride, N> {
    static constexpr bool kHasSimd = Stride >= 2;
    static constexpr unsigned kLanes = (1u << N) - 1u;

    static unsigned scalar(const std::uint32_t* row,
                           const std::uint32_t& k) noexcept {
        return ScalarScan<std::uint32_t, N>::scan(row, k);
    }

    /// 4-byte lanes: one 8/16-byte vector covers the whole row, so SSE2 is
    /// already the full-width kernel (get() hands AVX2 requests here too).
    static unsigned sse2(const std::uint32_t* row,
                         const std::uint32_t& k) noexcept {
        const __m128i kk = _mm_set1_epi32(static_cast<int>(k));
        __m128i v;
        if constexpr (Stride == 2) {
            v = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(row));
        } else {
            v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(row));
        }
        const auto m = static_cast<unsigned>(
            _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(v, kk))));
        return m & kLanes;
    }

    static ScanFn<std::uint32_t> get(ScanKernel k) noexcept {
        if constexpr (kHasSimd) {
            if (k == ScanKernel::kAvx2 || k == ScanKernel::kSse2) {
                return &sse2;
            }
        }
        (void)k;
        return &scalar;
    }
};

template <std::size_t Stride, std::size_t N>
struct ScanKernels<std::uint64_t, Stride, N> {
    static constexpr bool kHasSimd = Stride >= 2;
    static constexpr unsigned kLanes = (1u << N) - 1u;

    static unsigned scalar(const std::uint64_t* row,
                           const std::uint64_t& k) noexcept {
        return ScalarScan<std::uint64_t, N>::scan(row, k);
    }

    /// SSE2 has no 64-bit compare: compare as 2x32 and demand both halves.
    /// movemask_pd bits are per 8-byte lane already, but only SSE4.1 adds
    /// cmpeq_epi64, so the halves are folded from movemask_ps instead.
    static unsigned sse2(const std::uint64_t* row,
                         const std::uint64_t& k) noexcept {
        const __m128i kk = _mm_set1_epi64x(static_cast<long long>(k));
        unsigned eq = 0;
        constexpr std::size_t kRegs = Stride / 2;
        for (std::size_t r = 0; r < kRegs; ++r) {
            const __m128i v = _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(row + 2 * r));
            const auto m = static_cast<unsigned>(_mm_movemask_ps(
                _mm_castsi128_ps(_mm_cmpeq_epi32(v, kk))));
            eq |= static_cast<unsigned>((m & 0x3u) == 0x3u) << (2 * r);
            eq |= static_cast<unsigned>((m & 0xCu) == 0xCu) << (2 * r + 1);
        }
        return eq & kLanes;
    }

    /// One 32-byte compare covers the full stride-4 row.
    [[gnu::target("avx2")]] static unsigned avx2(
        const std::uint64_t* row, const std::uint64_t& k) noexcept {
        if constexpr (Stride == 4) {
            const __m256i kk =
                _mm256_set1_epi64x(static_cast<long long>(k));
            const __m256i v = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(row));
            const auto m = static_cast<unsigned>(_mm256_movemask_pd(
                _mm256_castsi256_pd(_mm256_cmpeq_epi64(v, kk))));
            return m & kLanes;
        } else {
            return sse2(row, k);
        }
    }

    static ScanFn<std::uint64_t> get(ScanKernel k) noexcept {
        if constexpr (kHasSimd) {
            if (k == ScanKernel::kAvx2) return &avx2;
            if (k == ScanKernel::kSse2) return &sse2;
        }
        (void)k;
        return &scalar;
    }
};

template <std::size_t Stride, std::size_t N>
struct ScanKernels<FlowKey, Stride, N> {
    static constexpr bool kHasSimd = Stride >= 2;
    static constexpr unsigned kLanes = (1u << N) - 1u;
    /// Bits of a 16-byte-lane byte-compare movemask that carry meaning:
    /// bytes [0, 13) are the defined 5-tuple, bytes 13..15 the pad the
    /// scalar lane_eq ignores.
    static constexpr unsigned kDefinedBytes = 0x1FFFu;

    static_assert(sizeof(FlowKey) == 16);

    static unsigned scalar(const FlowKey* row, const FlowKey& k) noexcept {
        return ScalarScan<FlowKey, N>::scan(row, k);
    }

    static unsigned sse2(const FlowKey* row, const FlowKey& k) noexcept {
        const __m128i kk =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(&k));
        unsigned eq = 0;
        for (std::size_t j = 0; j < Stride; ++j) {
            const __m128i v = _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(row + j));
            const auto m = static_cast<unsigned>(
                _mm_movemask_epi8(_mm_cmpeq_epi8(v, kk)));
            eq |= static_cast<unsigned>((m & kDefinedBytes) ==
                                        kDefinedBytes)
                  << j;
        }
        return eq & kLanes;
    }

    /// Two lanes per 32-byte compare: broadcast the probe once, then each
    /// movemask half is one lane's byte-equality bits.
    [[gnu::target("avx2")]] static unsigned avx2(const FlowKey* row,
                                                 const FlowKey& k) noexcept {
        const __m256i kk = _mm256_broadcastsi128_si256(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(&k)));
        unsigned eq = 0;
        constexpr std::size_t kRegs = Stride / 2;
        for (std::size_t r = 0; r < kRegs; ++r) {
            const __m256i v = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(row + 2 * r));
            const auto m = static_cast<unsigned>(
                _mm256_movemask_epi8(_mm256_cmpeq_epi8(v, kk)));
            eq |= static_cast<unsigned>((m & kDefinedBytes) ==
                                        kDefinedBytes)
                  << (2 * r);
            eq |= static_cast<unsigned>(((m >> 16) & kDefinedBytes) ==
                                        kDefinedBytes)
                  << (2 * r + 1);
        }
        return eq & kLanes;
    }

    static ScanFn<FlowKey> get(ScanKernel k) noexcept {
        if constexpr (kHasSimd) {
            if (k == ScanKernel::kAvx2) return &avx2;
            if (k == ScanKernel::kSse2) return &sse2;
        }
        (void)k;
        return &scalar;
    }
};

#elif defined(P4LRU_SIMD_NEON)

template <std::size_t Stride, std::size_t N>
struct ScanKernels<std::uint32_t, Stride, N> {
    static constexpr bool kHasSimd = Stride >= 2;
    static constexpr unsigned kLanes = (1u << N) - 1u;

    static unsigned scalar(const std::uint32_t* row,
                           const std::uint32_t& k) noexcept {
        return ScalarScan<std::uint32_t, N>::scan(row, k);
    }

    static unsigned neon(const std::uint32_t* row,
                         const std::uint32_t& k) noexcept {
        if constexpr (Stride == 2) {
            const uint32x2_t e = vceq_u32(vld1_u32(row), vdup_n_u32(k));
            return ((vget_lane_u32(e, 0) & 1u) |
                    ((vget_lane_u32(e, 1) & 1u) << 1)) &
                   kLanes;
        } else {
            const uint32x4_t e = vceqq_u32(vld1q_u32(row), vdupq_n_u32(k));
            return ((vgetq_lane_u32(e, 0) & 1u) |
                    ((vgetq_lane_u32(e, 1) & 1u) << 1) |
                    ((vgetq_lane_u32(e, 2) & 1u) << 2) |
                    ((vgetq_lane_u32(e, 3) & 1u) << 3)) &
                   kLanes;
        }
    }

    static ScanFn<std::uint32_t> get(ScanKernel k) noexcept {
        if constexpr (kHasSimd) {
            if (k == ScanKernel::kNeon) return &neon;
        }
        (void)k;
        return &scalar;
    }
};

template <std::size_t Stride, std::size_t N>
struct ScanKernels<std::uint64_t, Stride, N> {
    static constexpr bool kHasSimd = Stride >= 2;
    static constexpr unsigned kLanes = (1u << N) - 1u;

    static unsigned scalar(const std::uint64_t* row,
                           const std::uint64_t& k) noexcept {
        return ScalarScan<std::uint64_t, N>::scan(row, k);
    }

    static unsigned neon(const std::uint64_t* row,
                         const std::uint64_t& k) noexcept {
        const uint64x2_t kk = vdupq_n_u64(k);
        unsigned eq = 0;
        constexpr std::size_t kRegs = Stride / 2;
        for (std::size_t r = 0; r < kRegs; ++r) {
            const uint64x2_t e = vceqq_u64(vld1q_u64(row + 2 * r), kk);
            eq |= (vgetq_lane_u64(e, 0) & 1u) << (2 * r);
            eq |= (vgetq_lane_u64(e, 1) & 1u) << (2 * r + 1);
        }
        return eq & kLanes;
    }

    static ScanFn<std::uint64_t> get(ScanKernel k) noexcept {
        if constexpr (kHasSimd) {
            if (k == ScanKernel::kNeon) return &neon;
        }
        (void)k;
        return &scalar;
    }
};

template <std::size_t Stride, std::size_t N>
struct ScanKernels<FlowKey, Stride, N> {
    static constexpr bool kHasSimd = Stride >= 2;
    static constexpr unsigned kLanes = (1u << N) - 1u;

    static_assert(sizeof(FlowKey) == 16);

    static unsigned scalar(const FlowKey* row, const FlowKey& k) noexcept {
        return ScalarScan<FlowKey, N>::scan(row, k);
    }

    static unsigned neon(const FlowKey* row, const FlowKey& k) noexcept {
        // Byte-compare each 16-byte lane, force the 3 pad bytes to "equal"
        // (the scalar lane_eq never reads them), then all-bytes-equal is a
        // horizontal min of 0xFF.
        const uint8x16_t kk =
            vld1q_u8(reinterpret_cast<const std::uint8_t*>(&k));
        static constexpr std::uint8_t kPadBytes[16] = {
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF};
        const uint8x16_t pad = vld1q_u8(kPadBytes);
        unsigned eq = 0;
        for (std::size_t j = 0; j < Stride; ++j) {
            const uint8x16_t v =
                vld1q_u8(reinterpret_cast<const std::uint8_t*>(row + j));
            const uint8x16_t e = vorrq_u8(vceqq_u8(v, kk), pad);
            eq |= static_cast<unsigned>(vminvq_u8(e) == 0xFF) << j;
        }
        return eq & kLanes;
    }

    static ScanFn<FlowKey> get(ScanKernel k) noexcept {
        if constexpr (kHasSimd) {
            if (k == ScanKernel::kNeon) return &neon;
        }
        (void)k;
        return &scalar;
    }
};

#endif  // P4LRU_SIMD_X86 / P4LRU_SIMD_NEON

/// The call site the slab scans through: one relaxed-atomic function
/// pointer per (Key, Stride, N) shape, constant-initialized to a resolver
/// thunk that binds the active kernel on first use and registers the shape
/// for set_kernel_override rebinding.
template <typename Key, std::size_t Stride, std::size_t N>
class ScanDispatch {
  public:
    static unsigned run(const Key* row, const Key& k) noexcept {
        return fn_.load(std::memory_order_relaxed)(row, k);
    }

    /// The kernel table behind this shape (tests enumerate it directly).
    using Kernels = ScanKernels<Key, Stride, N>;

  private:
    static void rebind(ScanKernel k) noexcept {
        fn_.store(Kernels::get(k), std::memory_order_relaxed);
    }

    static unsigned resolve_thunk(const Key* row, const Key& k) noexcept {
        detail::register_and_bind(&rebind);  // stores a real kernel in fn_
        return fn_.load(std::memory_order_relaxed)(row, k);
    }

    static inline std::atomic<ScanFn<Key>> fn_{&resolve_thunk};
};

}  // namespace simd
}  // namespace p4lru::core
