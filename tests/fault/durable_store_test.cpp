// Fuzz campaign + protocol tests for the durable checkpoint store
// (DESIGN.md §12, ISSUE 8 acceptance).
//
// Format hardening, over two images of the one on-disk format: a real
// mid-run bare-cache checkpoint (CacheReplayTarget) and a hand-built target
// checkpoint with every field non-trivial:
//   * exhaustive truncation sweep — every strict byte prefix of a sealed
//     image is rejected by the typed parser AND the format-agnostic
//     verifier, never accepted, never a crash;
//   * single-bit-flip sweep — flips in every section (header, stats
//     records, state payload, seal footer) are rejected; CRC-attributable
//     flips name the damaged section's start offset.
//
// Store protocol: atomic install / generation numbering / retention /
// newest-valid pruning immunity, the exact on-disk remains of every
// fault::CrashPoint, and the recovery ladder skipping torn + bit-flipped
// generations down to the newest valid one with a typed rejection recorded
// per skip.
#include "p4lru/replay/durable_store.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "p4lru/core/p4lru.hpp"
#include "p4lru/replay/replay.hpp"
#include "p4lru/replay/target_checkpoint.hpp"
#include "p4lru/trace/trace_gen.hpp"
#include "../test_util.hpp"

namespace p4lru::replay {
namespace {

namespace fs = std::filesystem;

using FlowCache =
    core::ParallelCache<core::P4lru<FlowKey, std::uint32_t, 3>, FlowKey,
                        std::uint32_t>;
using Ops = std::span<const ReplayOp<FlowKey, std::uint32_t>>;

// ---------------------------------------------------------------------------
// Sample images: one real mid-run cache checkpoint (small cache so the
// byte-exhaustive sweeps stay fast) and one hand-built target checkpoint
// with every field non-trivial.

const SerializedCheckpoint& cache_image() {
    static const SerializedCheckpoint img = [] {
        trace::TraceConfig tcfg;
        tcfg.seed = 77;
        tcfg.total_packets = 4'000;
        const auto ops = ops_from_packets(trace::generate_trace(tcfg));
        FlowCache cache(16, 0x5C);
        CacheReplayTarget target(cache);
        SpanOpSource source{Ops(ops)};
        ShardedConfig cfg;
        cfg.shards = 3;
        cfg.batch_ops = 64;
        cfg.mode = Mode::kThreaded;
        std::vector<TargetCheckpoint<ReplayStats>> cps;
        (void)replay_target_checkpointed_stream(
            target, source, cfg, /*every_batches=*/8,
            [&](TargetCheckpoint<ReplayStats>&& cp) {
                cps.push_back(std::move(cp));
            });
        EXPECT_FALSE(cps.empty());
        return serialize_target_checkpoint(cps.front());
    }();
    return img;
}

TargetCheckpoint<ReplayStats> sample_tgc() {
    TargetCheckpoint<ReplayStats> cp;
    cp.cursor = 4'096;
    cp.stats = {4'096, 2'000, 2'096, 37};
    cp.unit_count = 16;
    cp.state_id = 7;
    cp.state_fingerprint = 0x1122334455667788ULL;
    cp.shard_stats = {{2'000, 900, 1'100, 20}, {2'096, 1'100, 996, 17}};
    cp.delivered_batches = 99;
    cp.backpressure_waits = 3;
    cp.park_wait_us = 512;
    cp.drained_inline = 1;
    cp.abandoned_workers = 0;
    cp.scrub = {160, 2, 2};
    cp.state.resize(600);
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;  // deterministic fill
    for (auto& b : cp.state) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        b = static_cast<std::byte>(x >> 56);
    }
    return cp;
}

const SerializedCheckpoint& tgc_image() {
    static const SerializedCheckpoint img =
        serialize_target_checkpoint(sample_tgc());
    return img;
}

/// Parse outcome of the typed reader on raw bytes.
Status typed_parse(const std::vector<std::byte>& bytes) {
    return parse_target_checkpoint<ReplayStats>(bytes, "fuzz").status();
}

struct ImageCase {
    const SerializedCheckpoint* image;
    const char* name;
};

std::vector<ImageCase> image_cases() {
    return {{&cache_image(), "cache target"}, {&tgc_image(), "hand-built"}};
}

// ---------------------------------------------------------------------------
// Fuzz campaign, leg 1: every strict prefix is rejected.

TEST(DurableFuzz, EveryTruncationPrefixRejectedBothFormats) {
    for (const auto& fc : image_cases()) {
        const auto& img = *fc.image;
        ASSERT_GE(img.bytes.size(), 100u) << fc.name;
        // Full image parses and verifies; every strict prefix must not.
        ASSERT_TRUE(typed_parse(img.bytes).is_ok()) << fc.name;
        ASSERT_TRUE(verify_checkpoint_image(img.bytes, fc.name).is_ok());
        for (std::size_t cut = 0; cut < img.bytes.size(); ++cut) {
            const std::vector<std::byte> prefix(img.bytes.begin(),
                                                img.bytes.begin() + cut);
            const Status st = typed_parse(prefix);
            ASSERT_FALSE(st.is_ok())
                << fc.name << ": prefix of " << cut << " bytes parsed";
            ASSERT_TRUE(st.code() == ErrorCode::kCorrupt ||
                        st.code() == ErrorCode::kTruncated)
                << fc.name << " prefix " << cut << ": " << st.to_string();
            ASSERT_FALSE(verify_checkpoint_image(prefix, fc.name).is_ok())
                << fc.name << ": verifier accepted prefix of " << cut;
        }
    }
}

// ---------------------------------------------------------------------------
// Fuzz campaign, leg 2: single-bit flips in every section are rejected.
// Small sections are flipped exhaustively (every bit); the state payload
// gets a seeded random sample.  Where the damage is CRC-attributable (the
// flip survives the structural checks), the reported offset must name the
// damaged section's start.

TEST(DurableFuzz, SingleBitFlipInEverySectionRejectedBothFormats) {
    std::mt19937_64 rng(0xF1A9u);
    for (const auto& fc : image_cases()) {
        const auto& img = *fc.image;
        ASSERT_EQ(img.section_ends.size(), 4u) << fc.name;
        std::uint64_t begin = 0;
        for (std::size_t sec = 0; sec < img.section_ends.size(); ++sec) {
            const std::uint64_t end = img.section_ends[sec];
            const std::uint64_t len = end - begin;
            ASSERT_GT(len, 0u) << fc.name << " section " << sec;
            // (position, bit) pairs to flip in this section.
            std::vector<std::pair<std::uint64_t, unsigned>> flips;
            if (len <= 256) {
                for (std::uint64_t p = begin; p < end; ++p) {
                    for (unsigned bit = 0; bit < 8; ++bit) {
                        flips.emplace_back(p, bit);
                    }
                }
            } else {
                for (int i = 0; i < 256; ++i) {
                    flips.emplace_back(begin + rng() % len,
                                       static_cast<unsigned>(rng() % 8));
                }
            }
            for (const auto& [pos, bit] : flips) {
                std::vector<std::byte> dam = img.bytes;
                dam[pos] ^= static_cast<std::byte>(1u << bit);
                const Status st = typed_parse(dam);
                ASSERT_FALSE(st.is_ok())
                    << fc.name << ": flip of bit " << bit << " at byte "
                    << pos << " (section " << sec << ") accepted";
                ASSERT_FALSE(verify_checkpoint_image(dam, fc.name).is_ok())
                    << fc.name << ": verifier accepted flip at " << pos;
                // CRC-attributed mismatches name the damaged section.
                if (st.to_string().find("CRC mismatch") !=
                    std::string::npos) {
                    ASSERT_TRUE(st.has_offset()) << st.to_string();
                    // The seal footer's own CRCs are reported at the
                    // footer; any body CRC points at its section start.
                    ASSERT_TRUE(st.offset() == begin ||
                                st.offset() == img.section_ends[2])
                        << fc.name << ": flip at " << pos << " in section "
                        << sec << " reported at " << st.offset() << ": "
                        << st.to_string();
                }
            }
            begin = end;
        }
    }
}

// ---------------------------------------------------------------------------
// Store protocol.

std::vector<std::uint64_t> seqs(const std::vector<GenerationInfo>& gens) {
    std::vector<std::uint64_t> out;
    for (const auto& g : gens) out.push_back(g.seq);
    return out;
}

TEST(DurableStoreTest, InstallNumbersGenerationsAndListsAscending) {
    testutil::ScopedTempDir tmp{"p4lru_store"};
    DurableStore store(tmp.file("store"), {.retain = 10, .sync = false});
    EXPECT_TRUE(store.list().empty()) << "missing dir must list empty";
    for (std::uint64_t want = 1; want <= 3; ++want) {
        const auto gen = store.install(tgc_image());
        ASSERT_TRUE(gen.is_ok()) << gen.status().to_string();
        EXPECT_EQ(gen.value().seq, want);
        EXPECT_TRUE(fs::exists(gen.value().path));
    }
    EXPECT_EQ(seqs(store.list()), (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(DurableStoreTest, ListIgnoresTempAndForeignFiles) {
    testutil::ScopedTempDir tmp{"p4lru_store"};
    DurableStore store(tmp.file("store"), {.retain = 10, .sync = false});
    ASSERT_TRUE(store.install(tgc_image()).is_ok());
    const auto noise = {"gen-000099.ckpt.tmp", "gen-junk.ckpt", "README",
                        "gen-.ckpt"};
    for (const auto* name : noise) {
        std::ofstream(fs::path(store.dir()) / name) << "noise";
    }
    EXPECT_EQ(seqs(store.list()), (std::vector<std::uint64_t>{1}))
        << "temp and foreign names must be invisible";
}

TEST(DurableStoreTest, RetentionKeepsNewestK) {
    testutil::ScopedTempDir tmp{"p4lru_store"};
    DurableStore store(tmp.file("store"), {.retain = 3, .sync = false});
    for (int i = 0; i < 6; ++i) {
        ASSERT_TRUE(store.install(tgc_image()).is_ok());
    }
    EXPECT_EQ(seqs(store.list()), (std::vector<std::uint64_t>{4, 5, 6}));
}

TEST(DurableStoreTest, PruneNeverDeletesNewestValidGeneration) {
    testutil::ScopedTempDir tmp{"p4lru_store"};
    DurableStore store(tmp.file("store"), {.retain = 1, .sync = false});
    // One valid generation, then a burst of torn installs above it.
    ASSERT_TRUE(store.install(tgc_image()).is_ok());
    for (std::uint64_t ord = 0; ord < 3; ++ord) {
        const fault::CrashEvent crash{ord, fault::CrashPoint::kTornInstall,
                                      /*arg=*/ord % 3};
        const auto out = store.install_with_crash(tgc_image(), &crash);
        ASSERT_TRUE(out.is_ok()) << out.status().to_string();
        EXPECT_TRUE(out.value().crashed);
    }
    ASSERT_TRUE(store.prune().is_ok());
    const auto after = seqs(store.list());
    // retain=1 keeps only the newest (torn) file — but generation 1, the
    // newest that verifies, must have been spared.
    EXPECT_EQ(after, (std::vector<std::uint64_t>{1, 4}));
    const auto bytes = read_file_bytes(store.list().front().path);
    ASSERT_TRUE(bytes.is_ok());
    EXPECT_TRUE(verify_checkpoint_image(bytes.value(), "kept").is_ok());
}

TEST(DurableStoreTest, CrashPointsLeaveExactlyTheExpectedRemains) {
    using fault::CrashPoint;
    const auto& img = tgc_image();

    const auto run = [&](CrashPoint point, std::uint64_t arg) {
        testutil::ScopedTempDir tmp{"p4lru_store"};
        DurableStore store(tmp.file("store"), {.retain = 2, .sync = false});
        EXPECT_TRUE(store.install(img).is_ok());  // gen 1: prior state
        const fault::CrashEvent crash{0, point, arg};
        const auto out = store.install_with_crash(img, &crash);
        EXPECT_TRUE(out.is_ok()) << out.status().to_string();
        EXPECT_TRUE(out.value().crashed);
        std::size_t tmp_files = 0;
        for (const auto& e : fs::directory_iterator(store.dir())) {
            if (e.path().string().ends_with(".tmp")) ++tmp_files;
        }
        struct Remains {
            std::vector<std::uint64_t> gens;
            std::size_t tmp_files;
            bool installed;
        };
        return Remains{seqs(store.list()), tmp_files,
                       out.value().installed};
    };

    {  // Nothing written at all.
        const auto r = run(CrashPoint::kBeforeWrite, 0);
        EXPECT_EQ(r.gens, (std::vector<std::uint64_t>{1}));
        EXPECT_EQ(r.tmp_files, 0u);
        EXPECT_FALSE(r.installed);
    }
    {  // Torn temp: invisible to list(), temp remains on disk.
        const auto r = run(CrashPoint::kTornTemp, 1);
        EXPECT_EQ(r.gens, (std::vector<std::uint64_t>{1}));
        EXPECT_EQ(r.tmp_files, 1u);
        EXPECT_FALSE(r.installed);
    }
    {  // Torn install: a damaged file AT the final name — listed, but it
       // must fail verification (the recovery ladder will skip it).
        const auto r = run(CrashPoint::kTornInstall, 2);
        EXPECT_EQ(r.gens, (std::vector<std::uint64_t>{1, 2}));
        EXPECT_FALSE(r.installed);
        testutil::ScopedTempDir probe{"p4lru_store"};
        DurableStore store(probe.file("s"), {.retain = 2, .sync = false});
        ASSERT_TRUE(store.install(img).is_ok());
        const fault::CrashEvent crash{0, CrashPoint::kTornInstall, 2};
        const auto out = store.install_with_crash(img, &crash);
        ASSERT_TRUE(out.is_ok());
        const auto bytes = read_file_bytes(store.list().back().path);
        ASSERT_TRUE(bytes.is_ok());
        EXPECT_FALSE(
            verify_checkpoint_image(bytes.value(), "torn").is_ok());
    }
    {  // Crash between the synced temp and the rename: no new generation.
        const auto r = run(CrashPoint::kBeforeRename, 0);
        EXPECT_EQ(r.gens, (std::vector<std::uint64_t>{1}));
        EXPECT_EQ(r.tmp_files, 1u);
        EXPECT_FALSE(r.installed);
    }
    {  // Crash after the install: generation landed, prune did not run.
        const auto r = run(CrashPoint::kAfterInstall, 0);
        EXPECT_EQ(r.gens, (std::vector<std::uint64_t>{1, 2}));
        EXPECT_EQ(r.tmp_files, 0u);
        EXPECT_TRUE(r.installed);
    }
    {  // Crash between epochs: a complete, pruned install.
        const auto r = run(CrashPoint::kBetweenEpochs, 0);
        EXPECT_EQ(r.gens, (std::vector<std::uint64_t>{1, 2}));
        EXPECT_EQ(r.tmp_files, 0u);
        EXPECT_TRUE(r.installed);
    }
}

TEST(DurableStoreTest, RecoveryLadderSkipsDamageDownToNewestValid) {
    testutil::ScopedTempDir tmp{"p4lru_store"};
    DurableStore store(tmp.file("store"), {.retain = 10, .sync = false});
    const auto want = sample_tgc();

    // gens 1..2 valid; gen 3 torn at a section boundary; gen 4 bit-flipped.
    ASSERT_TRUE(store.install(tgc_image()).is_ok());
    ASSERT_TRUE(store.install(tgc_image()).is_ok());
    const fault::CrashEvent torn{0, fault::CrashPoint::kTornInstall, 2};
    ASSERT_TRUE(store.install_with_crash(tgc_image(), &torn).is_ok());
    {
        SerializedCheckpoint flipped = tgc_image();
        flipped.bytes[flipped.section_ends[1] + 7] ^= std::byte{0x10};
        ASSERT_TRUE(store.install(flipped).is_ok());
    }
    ASSERT_EQ(store.list().size(), 4u);

    const auto rec = store.recover_newest(
        [](const std::vector<std::byte>& image, const std::string& origin) {
            return parse_target_checkpoint<ReplayStats>(image, origin);
        });
    ASSERT_TRUE(rec.found) << "ladder must land on generation 2";
    EXPECT_EQ(rec.gen.seq, 2u);
    ASSERT_EQ(rec.rejected.size(), 2u) << "both damaged gens recorded";
    EXPECT_EQ(rec.rejected[0].seq, 4u);  // newest first
    EXPECT_EQ(rec.rejected[1].seq, 3u);
    for (const auto& r : rec.rejected) {
        EXPECT_FALSE(r.status.is_ok());
        EXPECT_TRUE(r.status.code() == ErrorCode::kCorrupt ||
                    r.status.code() == ErrorCode::kTruncated)
            << r.status.to_string();
    }
    // The recovered checkpoint is bit-identical to what was installed.
    EXPECT_EQ(rec.checkpoint.cursor, want.cursor);
    EXPECT_EQ(rec.checkpoint.stats, want.stats);
    EXPECT_EQ(rec.checkpoint.shard_stats, want.shard_stats);
    EXPECT_EQ(rec.checkpoint.state, want.state);
}

TEST(DurableStoreTest, EmptyStoreIsAColdStartNotAnError) {
    testutil::ScopedTempDir tmp{"p4lru_store"};
    const DurableStore store(tmp.file("never_created"));
    const auto rec = store.recover_newest(
        [](const std::vector<std::byte>& image, const std::string& origin) {
            return parse_target_checkpoint<ReplayStats>(image, origin);
        });
    EXPECT_FALSE(rec.found);
    EXPECT_TRUE(rec.rejected.empty());
}

TEST(DurableStoreTest, IoFailuresCarryPathAndErrno) {
    const auto rd = read_file_bytes("/nonexistent/dir/gen-000001.ckpt");
    ASSERT_FALSE(rd.is_ok());
    EXPECT_EQ(rd.status().code(), ErrorCode::kIoError);
    EXPECT_NE(rd.status().message().find("/nonexistent/dir"),
              std::string::npos);
    EXPECT_NE(rd.status().message().find("errno"), std::string::npos);

    const auto wr = atomic_write_file("/nonexistent/dir/x.ckpt",
                                      tgc_image().bytes, /*sync=*/false);
    ASSERT_FALSE(wr.is_ok());
    EXPECT_EQ(wr.code(), ErrorCode::kIoError);
    EXPECT_NE(wr.message().find("errno"), std::string::npos);
}

TEST(DurableStoreTest, DescribeReportsBothFormatsAndLegacyFiles) {
    {
        const auto info =
            describe_checkpoint_image(cache_image().bytes, "cache");
        ASSERT_TRUE(info.is_ok()) << info.status().to_string();
        EXPECT_EQ(info.value().header.shard_count, 3u);
        EXPECT_EQ(info.value().header.version, 2u);
        EXPECT_TRUE(info.value().verdict.is_ok());
        ASSERT_EQ(info.value().sections.size(), 4u);
        for (const auto& s : info.value().sections) EXPECT_TRUE(s.ok);
    }
    {
        const auto info =
            describe_checkpoint_image(tgc_image().bytes, "tgc");
        ASSERT_TRUE(info.is_ok()) << info.status().to_string();
        EXPECT_EQ(info.value().header.version, 2u);
        EXPECT_EQ(info.value().header.cursor, sample_tgc().cursor);
        EXPECT_EQ(info.value().header.shard_count, 2u);
        EXPECT_TRUE(info.value().verdict.is_ok());
    }
    {
        // A retired cache-only image (magic "P4LRUCKP") is an unknown
        // format now: a typed kCorrupt at offset 0, never a misparse.
        std::vector<std::byte> retired = cache_image().bytes;
        retired[5] = std::byte{'C'};
        retired[6] = std::byte{'K'};
        retired[7] = std::byte{'P'};
        const auto info = describe_checkpoint_image(retired, "retired");
        ASSERT_FALSE(info.is_ok());
        EXPECT_EQ(info.status().code(), ErrorCode::kCorrupt);
        EXPECT_EQ(info.status().offset(), 0u);
    }
    {
        // A v1 file (same image without the seal, version patched to 1)
        // would bypass every CRC, so it is an unknown version: a typed
        // kCorrupt at the version field, from describe and the typed
        // reader alike.
        std::vector<std::byte> legacy = tgc_image().bytes;
        legacy.resize(legacy.size() - 16);
        legacy[8] = std::byte{1};
        const auto info = describe_checkpoint_image(legacy, "legacy");
        ASSERT_FALSE(info.is_ok());
        EXPECT_EQ(info.status().code(), ErrorCode::kCorrupt);
        EXPECT_EQ(info.status().offset(), 8u);
        const auto cp = parse_target_checkpoint<ReplayStats>(legacy, "v1");
        ASSERT_FALSE(cp.is_ok());
        EXPECT_EQ(cp.status().code(), ErrorCode::kCorrupt);
        EXPECT_EQ(cp.status().offset(), 8u);
    }
}

}  // namespace
}  // namespace p4lru::replay
