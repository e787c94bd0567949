// The checkpoint image format (DESIGN.md §11, §12): the one on-disk layout
// every checkpoint takes, shared by the typed target layer
// (target_checkpoint.hpp), the durable store (durable_store.hpp) and the
// p4lru_ckpt CLI.  Only the stats record type is unknown at this level, so
// everything here works on raw bytes: the typed reader layers the record
// size check and the record copy on top of parse_checkpoint_image.
//
// Format v2 (magic "P4LRUTGC", little-endian), offsets in bytes:
//
//   off  size  field
//     0     8  magic "P4LRUTGC"
//     8     4  version (u32, = 2)
//    12     4  target state id (Target::state_id())
//    16     8  target state fingerprint
//    24     8  unit count
//    32     8  op cursor
//    40     8  delivered batches
//    48     8  backpressure waits
//    56     8  park wait (us)
//    64     8  shards drained inline
//    72     8  workers abandoned
//    80    24  ScrubReport (scanned, corrupt, repaired; u64 each)
//   104     4  stats record size R (u32, = sizeof(Stats))
//   108     4  shard count S (u32)
//   112     8  state image size P
//   120     R  merged Stats record
//   120+R  R*S per-shard Stats slices
//   ...    P   raw target state bytes
//   ...then the 16-byte seal footer:
//   +0      4  crc_header (CRC32 over bytes [0, 120))
//   +4      4  crc_stats  (CRC32 over the (1+S)*R stats-record bytes)
//   +8      4  crc_state  (CRC32 over the P state bytes)
//   +12     4  crc_footer (CRC32 over the 12 preceding footer bytes)
//
// Any other version, including the unsealed v1 layout, is rejected as
// kCorrupt at the version field.  Reading is hardened like trace_io: a
// typed Status carries the byte offset where the image stopped making
// sense, and the count and size fields are checked against the actual image
// size in subtraction form *before* anything is allocated or read, so no
// untrusted field can wrap the arithmetic or drive a huge allocation.  Every
// strict prefix of a valid image is rejected, and any single-bit flip trips
// the magic/version compare, the size cross-check, or one of the four CRCs
// (durable_store_test proves both by sweep).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "p4lru/fault/status.hpp"
#include "p4lru/replay/telemetry.hpp"

namespace p4lru::replay {

/// A checkpoint rendered to its sealed on-disk byte image, plus the offsets
/// at which each section ends — header, stats records, state bytes, seal
/// footer.  The section ends are what the deterministic crash injector
/// (fault::CrashPoint) cuts at: "a crash between section writes" is a
/// prefix of `bytes` ending at one of them.
struct SerializedCheckpoint {
    std::vector<std::byte> bytes;
    std::vector<std::uint64_t> section_ends;  ///< ascending; back()==size
};

/// The fixed-size header of a checkpoint image, field for field; the
/// inherited telemetry record is the block at offsets 48..104.
struct CheckpointHeader : ReplayTelemetry {
    std::uint32_t version = 2;
    std::uint32_t state_id = 0;
    std::uint64_t state_fingerprint = 0;
    std::uint64_t unit_count = 0;
    std::uint64_t cursor = 0;
    std::uint64_t delivered_batches = 0;
    std::uint32_t record_bytes = 0;  ///< R: bytes per stats record
    std::uint32_t shard_count = 0;   ///< S: per-shard slices after the total
    std::uint64_t state_bytes = 0;   ///< P: state image size

    /// (1 + S) * R; cannot overflow (both factors are below 2^32 + 1).
    [[nodiscard]] std::uint64_t records_bytes() const noexcept {
        return std::uint64_t{record_bytes} * (1 + std::uint64_t{shard_count});
    }
};

/// Render a sealed v2 image.  `records` holds the (1 + S) stats records
/// back to back (records.size() == header.records_bytes()); the version and
/// state size fields are set here from the arguments.
[[nodiscard]] SerializedCheckpoint seal_checkpoint_image(
    CheckpointHeader header, std::span<const std::byte> records,
    std::span<const std::byte> state);

/// A structurally valid, CRC-verified image: its header and
/// views of its stats-record and state sections into the parsed buffer.
struct CheckpointView {
    CheckpointHeader header;
    std::span<const std::byte> records;
    std::span<const std::byte> state;
};

/// Parse and verify an image.  kCorrupt / kTruncated with the byte offset
/// where the image stopped making sense; `origin` names it in messages.
[[nodiscard]] Expected<CheckpointView> parse_checkpoint_image(
    std::span<const std::byte> image, const std::string& origin);

/// Ok iff parse_checkpoint_image accepts the image.
[[nodiscard]] Status verify_checkpoint_image(
    std::span<const std::byte> image, const std::string& origin);

/// Per-section CRC verdict of an image (describe output).
struct SectionCheck {
    std::string name;
    std::uint64_t begin = 0;  ///< byte range [begin, end) of the section
    std::uint64_t end = 0;
    std::uint32_t stored = 0;
    std::uint32_t computed = 0;
    bool ok = false;
};

/// Header-level summary of a checkpoint image; the p4lru_ckpt CLI's
/// `describe` output.
struct ImageInfo {
    CheckpointHeader header;
    std::uint64_t file_bytes = 0;
    std::vector<SectionCheck> sections;  ///< header, records, state, footer
    Status verdict;  ///< overall structural + CRC verdict
};

/// Header-level description of an image, including per-section CRC
/// verdicts.  Fails only when the framing itself is
/// broken (too short, unknown magic or version, sizes that do not add up);
/// CRC damage is reported through ImageInfo::verdict / sections.
[[nodiscard]] Expected<ImageInfo> describe_checkpoint_image(
    std::span<const std::byte> image, const std::string& origin);

}  // namespace p4lru::replay
