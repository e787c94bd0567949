// On-disk checkpoint format hardening (mirrors trace_io_test), over bare
// caches of both storage layouts behind CacheReplayTarget: round-trip
// fidelity with and without shard slices, an exhaustive all-prefix
// truncation sweep, count and size fields that must neither drive an
// allocation nor wrap the size arithmetic into an over-read, and the
// cross-layout rejection the layout tag exists for — a checkpoint written
// from one storage layout must refuse to resume into the other even when it
// reaches the cache through a byte-faithful disk round-trip.
#include "p4lru/replay/target_checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <vector>

#include "p4lru/core/p4lru.hpp"
#include "p4lru/trace/trace_gen.hpp"
#include "../test_util.hpp"

namespace p4lru::replay {
namespace {

using FlowCache =
    core::ParallelCache<core::P4lru<FlowKey, std::uint32_t, 3>, FlowKey,
                        std::uint32_t>;
using AosFlowCache =
    core::AosParallelCache<core::P4lru<FlowKey, std::uint32_t, 3>, FlowKey,
                           std::uint32_t>;
using Ops = std::span<const ReplayOp<FlowKey, std::uint32_t>>;
using Checkpoint = TargetCheckpoint<ReplayStats>;

std::vector<ReplayOp<FlowKey, std::uint32_t>> small_ops() {
    trace::TraceConfig cfg;
    cfg.seed = 21;
    cfg.total_packets = 20'000;
    return ops_from_packets(trace::generate_trace(cfg));
}

/// A cut of `cache` taken between ops: no shard slices, no telemetry.
template <typename Cache>
Checkpoint snapshot(Cache& cache, std::uint64_t cursor,
                    const ReplayStats& stats) {
    CheckpointCut cut;
    cut.cursor = cursor;
    cut.stats = stats;
    return take_target_checkpoint(CacheReplayTarget(cache), cut);
}

/// Overwrite sizeof(T) bytes at `off` with the host image of `v` (the
/// format is little-endian, as is every supported host).
template <typename T>
void patch(std::vector<std::byte>& bytes, std::size_t off, T v) {
    std::memcpy(bytes.data() + off, &v, sizeof(T));
}

class CheckpointIoTest : public ::testing::Test {
  protected:
    void SetUp() override { path_ = dir_.file("ckpt.bin"); }

    /// A mid-run threaded checkpoint with non-trivial telemetry and several
    /// shard slices, over a small cache so the sweep stays fast.
    template <typename Cache = FlowCache>
    Checkpoint sample_checkpoint() {
        const auto ops = small_ops();
        Cache cache(64, 0x9D);
        CacheReplayTarget target(cache);
        SpanOpSource source{Ops(ops)};
        ShardedConfig cfg;
        cfg.shards = 3;
        cfg.batch_ops = 128;
        cfg.mode = Mode::kThreaded;
        std::vector<Checkpoint> cps;
        (void)replay_target_checkpointed_stream(
            target, source, cfg, /*every_batches=*/24,
            [&](Checkpoint&& cp) { cps.push_back(std::move(cp)); });
        EXPECT_FALSE(cps.empty());
        return cps.front();
    }

    [[nodiscard]] Expected<Checkpoint> read() const {
        return read_target_checkpoint_checked<ReplayStats>(path_);
    }

    void write_raw(const std::vector<std::byte>& bytes) const {
        std::ofstream os(path_, std::ios::binary | std::ios::trunc);
        os.write(reinterpret_cast<const char*>(bytes.data()),
                 static_cast<std::streamsize>(bytes.size()));
    }

    testutil::ScopedTempDir dir_{"p4lru_ckpt_io"};
    std::string path_;
};

void expect_equal(const Checkpoint& a, const Checkpoint& b) {
    EXPECT_EQ(a.cursor, b.cursor);
    EXPECT_EQ(a.stats, b.stats);
    EXPECT_EQ(a.unit_count, b.unit_count);
    EXPECT_EQ(a.state_id, b.state_id);
    EXPECT_EQ(a.state_fingerprint, b.state_fingerprint);
    EXPECT_EQ(a.state, b.state);
    EXPECT_EQ(a.shard_stats, b.shard_stats);
    EXPECT_EQ(a.delivered_batches, b.delivered_batches);
    EXPECT_EQ(a.backpressure_waits, b.backpressure_waits);
    EXPECT_EQ(a.park_wait_us, b.park_wait_us);
    EXPECT_EQ(a.drained_inline, b.drained_inline);
    EXPECT_EQ(a.abandoned_workers, b.abandoned_workers);
    EXPECT_EQ(a.scrub, b.scrub);
}

TEST_F(CheckpointIoTest, ShardedRoundTripPreservesEveryField) {
    for (const auto& cp : {sample_checkpoint<FlowCache>(),
                           sample_checkpoint<AosFlowCache>()}) {
        ASSERT_FALSE(cp.shard_stats.empty());
        ASSERT_TRUE(write_target_checkpoint(path_, cp).is_ok());
        const auto rd = read();
        ASSERT_TRUE(rd.is_ok()) << rd.status().to_string();
        expect_equal(cp, rd.value());
    }
}

/// A checkpoint cut between ops (no shard slices, as a resumed run also
/// emits) goes through the same reader and resumes to the reference end.
TEST_F(CheckpointIoTest, SequentialCheckpointRoundTripsThroughSameReader) {
    const auto ops = small_ops();
    FlowCache cache(64, 0x9D);
    const ReplayStats s =
        testutil::reference_replay(cache, Ops(ops).first(10'000));
    const auto cp = snapshot(cache, 10'000, s);
    ASSERT_TRUE(write_target_checkpoint(path_, cp).is_ok());
    const auto rd = read();
    ASSERT_TRUE(rd.is_ok()) << rd.status().to_string();
    EXPECT_TRUE(rd.value().shard_stats.empty());
    EXPECT_EQ(rd.value().state, cp.state);

    FlowCache resumed(64, 0x9D);
    const auto res =
        testutil::resume_replay(CacheReplayTarget(resumed), ops, rd.value());
    ASSERT_TRUE(res.is_ok()) << res.status().to_string();
    FlowCache ref(64, 0x9D);
    EXPECT_EQ(res.value().stats, testutil::reference_replay(ref, ops));
}

TEST_F(CheckpointIoTest, MissingFileIsIoErrorWithPathAndErrno) {
    const auto rd =
        read_target_checkpoint_checked<ReplayStats>("/nonexistent/dir/x.ckpt");
    ASSERT_FALSE(rd.is_ok());
    EXPECT_EQ(rd.status().code(), ErrorCode::kIoError);
    // The errno satellite: the message must carry the offending path and
    // the OS-level cause, not just "cannot open".
    EXPECT_NE(rd.status().message().find("/nonexistent/dir/x.ckpt"),
              std::string::npos)
        << rd.status().to_string();
    EXPECT_NE(rd.status().message().find("errno"), std::string::npos)
        << rd.status().to_string();
}

TEST_F(CheckpointIoTest, BadMagicRejectedAtOffsetZero) {
    std::ofstream os(path_, std::ios::binary);
    os << std::string(200, 'x');
    os.close();
    const auto rd = read();
    ASSERT_FALSE(rd.is_ok());
    EXPECT_EQ(rd.status().code(), ErrorCode::kCorrupt);
    EXPECT_EQ(rd.status().offset(), 0u);
}

TEST_F(CheckpointIoTest, WrongVersionRejected) {
    auto bytes = serialize_target_checkpoint(sample_checkpoint()).bytes;
    patch<std::uint32_t>(bytes, 8, 99);
    write_raw(bytes);
    const auto rd = read();
    ASSERT_FALSE(rd.is_ok());
    EXPECT_EQ(rd.status().code(), ErrorCode::kCorrupt);
    EXPECT_EQ(rd.status().offset(), 8u);
}

TEST_F(CheckpointIoTest, InsaneShardCountRejectedBeforeAllocating) {
    // 2^32 - 1 slices of 32 bytes would be a 128 GiB allocation; the size
    // cross-check must refuse it from the header alone.
    auto bytes = serialize_target_checkpoint(sample_checkpoint()).bytes;
    patch<std::uint32_t>(bytes, 108, ~std::uint32_t{0});  // shard count
    write_raw(bytes);
    const auto rd = read();
    ASSERT_FALSE(rd.is_ok());
    EXPECT_EQ(rd.status().code(), ErrorCode::kTruncated);
    EXPECT_EQ(rd.status().offset(), bytes.size());
}

TEST_F(CheckpointIoTest, OversizedPlanePromiseRejected) {
    auto bytes = serialize_target_checkpoint(sample_checkpoint()).bytes;
    patch<std::uint64_t>(bytes, 112, ~std::uint64_t{0} - 64);  // state size
    write_raw(bytes);
    const auto rd = read();
    ASSERT_FALSE(rd.is_ok());
    EXPECT_EQ(rd.status().code(), ErrorCode::kTruncated);
}

/// Regression: the state-size field is an untrusted u64, and the reader
/// once checked `size == 120 + R*(1+S) + P + seal` — a sum a crafted P can
/// wrap back to the real file size, after which the parser read past the
/// buffer.  A bare 120-byte v1 image (P = 2^64 - 32), a 120-byte sealed v2
/// image (P = 2^64 - 48) and a v2 image with room for its footer (136
/// bytes, P = 2^64 - 32) must all come back as a typed rejection.
TEST_F(CheckpointIoTest, WrappingStatePromiseRejectedWithoutOverRead) {
    const auto image = serialize_target_checkpoint(sample_checkpoint());
    struct Case {
        std::uint32_t version;
        std::uint64_t state_bytes;
        std::size_t file_bytes;
    };
    for (const Case c : {Case{1, ~std::uint64_t{0} - 31, 120},
                         Case{2, ~std::uint64_t{0} - 47, 120},
                         Case{2, ~std::uint64_t{0} - 31, 136}}) {
        std::vector<std::byte> bytes(image.bytes.begin(),
                                     image.bytes.begin() + 120);
        bytes.resize(c.file_bytes);
        patch<std::uint32_t>(bytes, 8, c.version);
        patch<std::uint32_t>(bytes, 104, sizeof(ReplayStats));  // R = 32
        patch<std::uint32_t>(bytes, 108, 0);                     // S = 0
        patch<std::uint64_t>(bytes, 112, c.state_bytes);
        const auto r = parse_target_checkpoint<ReplayStats>(bytes, "crafted");
        ASSERT_FALSE(r.is_ok()) << "v" << c.version << ", " << c.file_bytes
                                << " bytes: accepted";
        EXPECT_TRUE(r.status().code() == ErrorCode::kTruncated ||
                    r.status().code() == ErrorCode::kCorrupt)
            << r.status().to_string();
        EXPECT_FALSE(verify_checkpoint_image(bytes, "crafted").is_ok());
    }
}

TEST_F(CheckpointIoTest, TrailingGarbageRejected) {
    ASSERT_TRUE(write_target_checkpoint(path_, sample_checkpoint()).is_ok());
    const auto full = std::filesystem::file_size(path_);
    std::ofstream os(path_, std::ios::binary | std::ios::app);
    os << "junk";
    os.close();
    const auto rd = read();
    ASSERT_FALSE(rd.is_ok());
    EXPECT_EQ(rd.status().code(), ErrorCode::kCorrupt);
    EXPECT_EQ(rd.status().offset(), full);
}

/// Mirror of trace_io_test's sweep: every strict prefix of a valid
/// checkpoint file must be rejected with a typed error whose offset (when
/// present) points inside the truncated file.  The sample cache is small
/// (64 units) so the sweep covers header, stats records and state bytes in
/// a few thousand iterations.
TEST_F(CheckpointIoTest, EveryTruncationPrefixIsRejectedWithOffset) {
    const auto bytes = serialize_target_checkpoint(sample_checkpoint()).bytes;
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        write_raw(std::vector<std::byte>(bytes.begin(), bytes.begin() + cut));
        const auto r = read();
        ASSERT_FALSE(r.is_ok()) << "prefix of " << cut << " bytes parsed";
        const auto code = r.status().code();
        EXPECT_TRUE(code == ErrorCode::kCorrupt ||
                    code == ErrorCode::kTruncated)
            << "prefix " << cut << ": " << r.status().to_string();
        if (r.status().has_offset()) {
            EXPECT_LE(r.status().offset(), cut)
                << "offset must point inside the truncated file";
        }
    }
}

/// The layout-tag satellite, end to end through disk: a checkpoint taken
/// from the AoS layout must be rejected by a SoA cache with kInvalidState —
/// before any plane byte is interpreted — in every engine mode, even though
/// the file itself is perfectly well-formed.
TEST_F(CheckpointIoTest, CrossLayoutResumeRejectedAfterDiskRoundTrip) {
    const auto ops = small_ops();
    AosFlowCache aos(64, 0x9D);
    const ReplayStats s =
        testutil::reference_replay(aos, Ops(ops).first(5'000));
    ASSERT_TRUE(
        write_target_checkpoint(path_, snapshot(aos, 5'000, s)).is_ok());
    const auto rd = read();
    ASSERT_TRUE(rd.is_ok()) << rd.status().to_string();

    for (const Mode mode : {Mode::kInline, Mode::kThreaded}) {
        ShardedConfig cfg;
        cfg.mode = mode;
        FlowCache soa(64, 0x9D);
        const auto res = testutil::resume_replay(
            CacheReplayTarget(soa), ops, rd.value(), cfg);
        ASSERT_FALSE(res.is_ok()) << "SoA cache accepted an AoS checkpoint";
        EXPECT_EQ(res.status().code(), ErrorCode::kInvalidState);
    }

    // Same-layout restore of the identical file stays accepted.
    AosFlowCache back(64, 0x9D);
    const auto ok =
        testutil::resume_replay(CacheReplayTarget(back), ops, rd.value());
    EXPECT_TRUE(ok.is_ok()) << ok.status().to_string();
}

/// A v1 file (same layout, no seal footer) would bypass every CRC, so it
/// is rejected like any unknown version: kCorrupt at the version field.
TEST_F(CheckpointIoTest, LegacyV1FileWithoutSealRejected) {
    const SerializedCheckpoint image =
        serialize_target_checkpoint(sample_checkpoint());
    std::vector<std::byte> v1(image.bytes.begin(), image.bytes.end() - 16);
    patch<std::uint32_t>(v1, 8, 1);
    write_raw(v1);
    const auto rd = read();
    ASSERT_FALSE(rd.is_ok());
    EXPECT_EQ(rd.status().code(), ErrorCode::kCorrupt);
    EXPECT_EQ(rd.status().offset(), 8u);
}

/// The seal at work: one flipped byte in each section must be caught by
/// that section's CRC, with the error offset naming the section start.
/// (The exhaustive every-bit sweep lives in durable_store_test; this is
/// the targeted per-section smoke.)
TEST_F(CheckpointIoTest, FlippedByteInEachSectionCaughtBySectionCrc) {
    const SerializedCheckpoint image =
        serialize_target_checkpoint(sample_checkpoint());
    ASSERT_EQ(image.section_ends.size(), 4u);
    const std::uint64_t records_begin = image.section_ends[0];  // 120
    const std::uint64_t state_begin = image.section_ends[1];
    const std::uint64_t footer_begin = image.section_ends[2];
    struct Case {
        std::uint64_t flip_at;
        std::uint64_t expect_offset;
    };
    const Case cases[] = {
        {records_begin + 3, records_begin},  // stats-record byte
        {state_begin + 7, state_begin},      // state byte
        {footer_begin + 1, footer_begin},    // a stored CRC itself
    };
    for (const auto& c : cases) {
        std::vector<std::byte> bad = image.bytes;
        bad[static_cast<std::size_t>(c.flip_at)] ^= std::byte{0x10};
        const auto rd = parse_target_checkpoint<ReplayStats>(
            bad, "flip@" + std::to_string(c.flip_at));
        ASSERT_FALSE(rd.is_ok()) << "flip at " << c.flip_at << " accepted";
        EXPECT_EQ(rd.status().code(), ErrorCode::kCorrupt);
        EXPECT_EQ(rd.status().offset(), c.expect_offset)
            << rd.status().to_string();
    }
}

/// Forged-but-plausible cross-layout image: even when a file carries state
/// bytes of exactly the size the target layout expects, the fingerprint
/// check refuses it.
TEST_F(CheckpointIoTest, MatchingSizeButWrongFingerprintRejected) {
    FlowCache soa(64, 0x9D);
    soa.materialize();
    Checkpoint cp = snapshot(soa, 0, {});
    cp.state_fingerprint ^= 1;  // geometry lie; layout id and size intact
    ASSERT_TRUE(write_target_checkpoint(path_, cp).is_ok());
    const auto rd = read();
    ASSERT_TRUE(rd.is_ok());
    const auto ops = small_ops();
    FlowCache target(64, 0x9D);
    const auto res =
        testutil::resume_replay(CacheReplayTarget(target), ops, rd.value());
    ASSERT_FALSE(res.is_ok());
    EXPECT_EQ(res.status().code(), ErrorCode::kInvalidState);
}

}  // namespace
}  // namespace p4lru::replay
