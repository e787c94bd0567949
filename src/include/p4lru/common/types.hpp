// Fundamental packet/flow types shared by every subsystem.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>

namespace p4lru {

/// IPv4 5-tuple identifying a flow. This is the cache key of LruTable and the
/// pre-fingerprint flow identity of LruMon. Stored packed so it can be hashed
/// as a flat 13-byte buffer, exactly like the P4 programs hash header slices.
struct FlowKey {
    std::uint32_t src_ip = 0;
    std::uint32_t dst_ip = 0;
    std::uint16_t src_port = 0;
    std::uint16_t dst_port = 0;
    std::uint8_t proto = 0;
    /// Explicit tail padding, pinned to zero.  FlowKey objects are copied
    /// whole into checkpointable storage planes (soa_slab key plane, AoS
    /// unit image); compiler-copied implicit padding carries unspecified
    /// stack bytes, which would make two behaviourally identical replays
    /// produce plane images that differ in dead bytes — breaking the
    /// bit-identical checkpoint round-trip guarantee (target_checkpoint.hpp).
    std::uint8_t pad_[3] = {0, 0, 0};

    friend auto operator<=>(const FlowKey&, const FlowKey&) = default;

    /// Serialize into the canonical 13-byte wire layout used for hashing.
    [[nodiscard]] std::array<std::uint8_t, 13> bytes() const noexcept {
        std::array<std::uint8_t, 13> out{};
        std::memcpy(out.data(), &src_ip, 4);
        std::memcpy(out.data() + 4, &dst_ip, 4);
        std::memcpy(out.data() + 8, &src_port, 2);
        std::memcpy(out.data() + 10, &dst_port, 2);
        out[12] = proto;
        return out;
    }

    [[nodiscard]] std::string to_string() const;
};

/// Nanosecond simulation timestamp. All simulators use a single clock domain.
using TimeNs = std::uint64_t;

constexpr TimeNs kMicrosecond = 1'000;
constexpr TimeNs kMillisecond = 1'000'000;
constexpr TimeNs kSecond = 1'000'000'000;

/// A single trace record: arrival time, flow identity and wire length.
struct PacketRecord {
    TimeNs ts = 0;
    FlowKey flow{};
    std::uint32_t len = 0;  ///< bytes on the wire

    friend bool operator==(const PacketRecord&, const PacketRecord&) = default;
};

}  // namespace p4lru

template <>
struct std::hash<p4lru::FlowKey> {
    std::size_t operator()(const p4lru::FlowKey& k) const noexcept {
        // 64-bit mix of the packed tuple; quality matters only for host-side
        // std::unordered_map usage (simulator bookkeeping), not for the data
        // plane models, which use p4lru::hash CRC32/Murmur3 explicitly.
        std::uint64_t a = (std::uint64_t{k.src_ip} << 32) | k.dst_ip;
        std::uint64_t b = (std::uint64_t{k.src_port} << 24) |
                          (std::uint64_t{k.dst_port} << 8) | k.proto;
        a ^= b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2);
        a ^= a >> 33;
        a *= 0xff51afd7ed558ccdULL;
        a ^= a >> 33;
        return static_cast<std::size_t>(a);
    }
};
