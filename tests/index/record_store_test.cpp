#include "p4lru/index/record_store.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace p4lru::index {
namespace {

std::vector<std::uint8_t> payload(std::size_t n, std::uint8_t fill) {
    return std::vector<std::uint8_t>(n, fill);
}

TEST(RecordStore, AllocateReturns64ByteAlignedAddresses) {
    RecordStore s;
    const auto a1 = s.allocate(payload(10, 1));
    const auto a2 = s.allocate(payload(10, 2));
    EXPECT_EQ(a1 % RecordStore::kRecordBytes, 0u);
    EXPECT_EQ(a2, a1 + RecordStore::kRecordBytes);
    EXPECT_NE(a1, kNullRecord);
}

TEST(RecordStore, AddressesFitIn48Bits) {
    RecordStore s;
    const auto a = s.allocate(payload(1, 0));
    EXPECT_EQ(a & ~kAddressMask, 0u);
}

TEST(RecordStore, ReadBackWhatWasWritten) {
    RecordStore s;
    const auto a = s.allocate(payload(64, 0xAB));
    const auto& r = s.read(a);
    for (const auto b : r) EXPECT_EQ(b, 0xAB);
}

TEST(RecordStore, ShortPayloadIsZeroPadded) {
    RecordStore s;
    const auto a = s.allocate(payload(4, 0xFF));
    const auto& r = s.read(a);
    EXPECT_EQ(r[3], 0xFF);
    EXPECT_EQ(r[4], 0x00);
    EXPECT_EQ(r[63], 0x00);
}

TEST(RecordStore, LongPayloadIsTruncated) {
    RecordStore s;
    const auto a = s.allocate(payload(100, 0x11));
    EXPECT_EQ(s.read(a)[63], 0x11);
}

TEST(RecordStore, WriteOverwrites) {
    RecordStore s;
    const auto a = s.allocate(payload(64, 1));
    s.write(a, payload(64, 2));
    EXPECT_EQ(s.read(a)[0], 2);
}

TEST(RecordStore, InvalidAddressesThrow) {
    RecordStore s;
    s.allocate(payload(1, 0));
    EXPECT_THROW((void)s.read(kNullRecord), std::out_of_range);
    EXPECT_THROW((void)s.read(7), std::out_of_range);    // misaligned
    EXPECT_THROW((void)s.read(640), std::out_of_range);  // beyond store
}

TEST(RecordStore, ValidPredicate) {
    RecordStore s;
    const auto a = s.allocate(payload(1, 0));
    EXPECT_TRUE(s.valid(a));
    EXPECT_FALSE(s.valid(kNullRecord));
    EXPECT_FALSE(s.valid(a + 1));
    EXPECT_FALSE(s.valid(a + RecordStore::kRecordBytes));
}

TEST(RecordStore, MemoryAccounting) {
    RecordStore s;
    s.allocate(payload(1, 0));
    s.allocate(payload(1, 0));
    EXPECT_EQ(s.count(), 2u);
    EXPECT_EQ(s.memory_bytes(), 128u);
}

}  // namespace
}  // namespace p4lru::index
