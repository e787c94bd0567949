#include "p4lru/common/hash.hpp"

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <string_view>
#include <utility>
#include <vector>

namespace p4lru::hash {
namespace {

std::vector<std::uint8_t> bytes(std::string_view s) {
    return {s.begin(), s.end()};
}

// Known-answer tests against published reference values.
TEST(Crc32, ReferenceVectors) {
    // CRC-32/ISO-HDLC of "123456789" is 0xCBF43926 (the classic check value).
    const auto check = bytes("123456789");
    EXPECT_EQ(crc32(check), 0xCBF43926u);
    // Empty input with zero seed is 0.
    EXPECT_EQ(crc32({}), 0x00000000u);
    // CRC of "a".
    const auto a = bytes("a");
    EXPECT_EQ(crc32(a), 0xE8B7BE43u);
}

TEST(Crc32, SeedChangesDigest) {
    const auto data = bytes("p4lru");
    EXPECT_NE(crc32(data, 0), crc32(data, 1));
    EXPECT_EQ(crc32(data, 7), crc32(data, 7));
}

/// Independent oracle: the textbook bit-at-a-time CRC32 (reflected
/// polynomial 0xEDB88320), sharing no table, fold or code with hash.cpp.
/// Works on the raw register so a prefix's state extends byte by byte.
std::uint32_t bitwise_crc_step(std::uint32_t reg, std::uint8_t byte) {
    reg ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
        reg = (reg & 1u) != 0 ? (reg >> 1) ^ 0xEDB88320u : reg >> 1;
    }
    return reg;
}

std::uint32_t bitwise_crc(const std::uint8_t* p, std::size_t n,
                          std::uint32_t seed) {
    std::uint32_t reg = ~seed;
    for (std::size_t i = 0; i < n; ++i) reg = bitwise_crc_step(reg, p[i]);
    return ~reg;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
    std::vector<std::uint8_t> v(n);
    std::uint64_t x = seed;
    for (auto& b : v) {
        x = mix64(x);
        b = static_cast<std::uint8_t>(x >> 56);
    }
    return v;
}

// Every length 0..1100 at every 16-byte alignment, under the seeds that
// stress the register (0, 1, all-ones, one arbitrary): covers the table
// tail, the 64-byte threshold of the folded path and every remainder it
// leaves to the tables.
TEST(Crc32, MatchesBitwiseOracleAtEveryLengthAndOffset) {
    constexpr std::size_t kMaxLen = 1100;
    const auto buf = random_bytes(kMaxLen + 16, 0xC5C5);
    for (const std::uint32_t seed : {0u, 1u, 0xFFFFFFFFu, 0x5EED1234u}) {
        for (std::size_t off = 0; off < 16; ++off) {
            const std::uint8_t* p = buf.data() + off;
            std::uint32_t reg = ~seed;  // oracle state after `len` bytes
            for (std::size_t len = 0; len <= kMaxLen; ++len) {
                ASSERT_EQ(crc32({p, len}, seed), ~reg)
                    << "len " << len << " offset " << off << " seed "
                    << seed;
                if (len < kMaxLen) reg = bitwise_crc_step(reg, p[len]);
            }
        }
    }
}

// Checkpoint-sized inputs: a few MiB, odd lengths and misaligned starts.
TEST(Crc32, MatchesBitwiseOracleOnMiBBuffers) {
    const auto buf = random_bytes((3u << 20) + 64, 0xB16);
    const std::pair<std::size_t, std::size_t> cases[] = {
        {0, 1u << 20}, {7, (2u << 20) + 13}, {3, 3u << 20}, {16, 999'999}};
    for (const auto& [off, len] : cases) {
        for (const std::uint32_t seed : {0u, 0xFFFFFFFFu}) {
            EXPECT_EQ(crc32({buf.data() + off, len}, seed),
                      bitwise_crc(buf.data() + off, len, seed))
                << "len " << len << " offset " << off;
        }
    }
}

TEST(Murmur3, ReferenceVectors) {
    // Published x86_32 vectors.
    EXPECT_EQ(murmur3_32({}, 0), 0x00000000u);
    EXPECT_EQ(murmur3_32({}, 1), 0x514E28B7u);
    const auto hello = bytes("hello");
    EXPECT_EQ(murmur3_32({hello.data(), hello.size()}, 0), 0x248BFA47u);
    const auto hw = bytes("hello, world");
    EXPECT_EQ(murmur3_32({hw.data(), hw.size()}, 0), 0x149BBB7Fu);
}

TEST(XxHash64, ReferenceVectors) {
    // xxHash64 of the empty input with seed 0.
    EXPECT_EQ(xxhash64({}, 0), 0xEF46DB3751D8E999ull);
    // Longer-than-32-byte input exercises the 4-lane loop; self-consistency
    // plus avalanche checks.
    std::vector<std::uint8_t> data(100);
    for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<std::uint8_t>(i);
    }
    const auto h1 = xxhash64({data.data(), data.size()}, 0);
    data[50] ^= 1;
    const auto h2 = xxhash64({data.data(), data.size()}, 0);
    EXPECT_NE(h1, h2);
    // Flipping one input bit flips roughly half the output bits.
    EXPECT_GT(__builtin_popcountll(h1 ^ h2), 16);
}

TEST(Mix64, BijectiveOnSamples) {
    std::set<std::uint64_t> outs;
    for (std::uint64_t i = 0; i < 10'000; ++i) {
        outs.insert(mix64(i));
    }
    EXPECT_EQ(outs.size(), 10'000u);
}

TEST(FlowHasher, SlotsAreUniform) {
    FlowHasher h(3, 64);
    std::array<std::size_t, 64> counts{};
    for (std::uint32_t i = 0; i < 64'000; ++i) {
        FlowKey k;
        k.src_ip = i;
        k.dst_ip = i * 2654435761u;
        k.src_port = static_cast<std::uint16_t>(i);
        ++counts[h.slot(k)];
    }
    for (const auto c : counts) {
        EXPECT_NEAR(static_cast<double>(c), 1000.0, 250.0);
    }
}

TEST(FlowHasher, SlotU32MatchesManualCrc) {
    FlowHasher h(9, 128);
    const std::uint32_t key = 0xDEADBEEF;
    std::uint8_t b[4] = {0xEF, 0xBE, 0xAD, 0xDE};
    const auto digest = crc32({b, 4}, 9);
    EXPECT_EQ(h.slot_u32(key), (std::uint64_t{digest} * 128) >> 32);
}

TEST(Fingerprint32, NeverZero) {
    for (std::uint32_t i = 0; i < 50'000; ++i) {
        FlowKey k;
        k.src_ip = i;
        k.dst_ip = ~i;
        EXPECT_NE(fingerprint32(k), 0u);
    }
}

TEST(Fingerprint32, LowCollisionRate) {
    std::set<std::uint32_t> fps;
    const std::size_t n = 100'000;
    for (std::uint32_t i = 0; i < n; ++i) {
        FlowKey k;
        k.src_ip = i;
        k.dst_ip = i * 7919;
        k.src_port = static_cast<std::uint16_t>(i >> 4);
        fps.insert(fingerprint32(k));
    }
    // Expected birthday collisions for 1e5 keys in 2^32: ~1.2.
    EXPECT_GT(fps.size(), n - 10);
}

TEST(FlowKey, BytesLayoutIsStable) {
    FlowKey k;
    k.src_ip = 0x01020304;
    k.dst_ip = 0x05060708;
    k.src_port = 0x0A0B;
    k.dst_port = 0x0C0D;
    k.proto = 17;
    const auto b = k.bytes();
    EXPECT_EQ(b[0], 0x04);  // little-endian src_ip
    EXPECT_EQ(b[3], 0x01);
    EXPECT_EQ(b[4], 0x08);
    EXPECT_EQ(b[8], 0x0B);
    EXPECT_EQ(b[12], 17);
}

TEST(FlowKey, ToStringIsHumanReadable) {
    FlowKey k;
    k.src_ip = 0x0A000001;
    k.dst_ip = 0xC0A80102;
    k.src_port = 1234;
    k.dst_port = 443;
    k.proto = 6;
    EXPECT_EQ(k.to_string(), "10.0.0.1:1234 -> 192.168.1.2:443 proto=6");
}

}  // namespace
}  // namespace p4lru::hash
