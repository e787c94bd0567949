#include "p4lru/replay/serialized_image.hpp"

#include <array>
#include <cstring>
#include <utility>

#include "p4lru/common/byte_io.hpp"
#include "p4lru/common/hash.hpp"

namespace p4lru::replay {
namespace {

constexpr char kMagic[8] = {'P', '4', 'L', 'R', 'U', 'T', 'G', 'C'};
constexpr std::uint32_t kVersion = 2;  // per-section CRC32 footer
constexpr std::size_t kCheckpointHeaderBytes = 120;
constexpr std::size_t kCheckpointSealBytes = 16;

// Field offsets of the error sites (format table in the header).
constexpr std::uint64_t kOffVersion = 8;
constexpr std::uint64_t kOffRecordBytes = 104;

std::uint32_t crc_over(std::span<const std::byte> bytes) {
    return hash::crc32(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()));
}

/// A sealed section; section i's CRC is footer slot i.
struct Section {
    const char* name;
    std::uint64_t begin;
    std::uint64_t len;
};

std::array<Section, 4> sections_of(const CheckpointHeader& h) {
    const std::uint64_t records_end = kCheckpointHeaderBytes +
                                      h.records_bytes();
    const std::uint64_t footer = records_end + h.state_bytes;
    return {{{"header", 0, kCheckpointHeaderBytes},
             {"stats records", kCheckpointHeaderBytes, h.records_bytes()},
             {"state image", records_end, h.state_bytes},
             {"seal footer", footer, 12}}};
}

/// Stored CRC of section `which` (footer slot order matches sections_of).
std::uint32_t stored_crc(std::span<const std::byte> image,
                         const CheckpointHeader& h, std::size_t which) {
    const std::uint64_t footer =
        kCheckpointHeaderBytes + h.records_bytes() + h.state_bytes;
    io::ByteReader r(image.subspan(footer + 4 * which, 4));
    std::uint32_t v = 0;
    (void)r.u32(v);
    return v;
}

/// Header decode plus every structural check: magic, version, and the
/// count/size fields against the image size.  Sizes are compared in
/// subtraction form only — the fields are untrusted u64s, and any sum of
/// them can wrap.
Expected<CheckpointHeader> parse_frame(std::span<const std::byte> image,
                                       const std::string& origin) {
    const std::uint64_t file_size = image.size();
    if (file_size < sizeof(kMagic)) {
        return truncated("image of " + std::to_string(file_size) +
                             " bytes from '" + origin +
                             "' is too short for a format magic",
                         file_size);
    }
    if (std::memcmp(image.data(), kMagic, sizeof(kMagic)) != 0) {
        return corrupt("unknown checkpoint magic in " + origin, 0);
    }
    if (file_size < kCheckpointHeaderBytes) {
        return truncated("image of " + std::to_string(file_size) +
                             " bytes from '" + origin +
                             "' is shorter than the 120-byte header",
                         file_size);
    }
    CheckpointHeader h;
    io::ByteReader r(image.subspan(sizeof(kMagic)));
    // The whole 120-byte header is present, so every read succeeds.
    (void)(r.u32(h.version) && r.u32(h.state_id) &&
           r.u64(h.state_fingerprint) && r.u64(h.unit_count) &&
           r.u64(h.cursor) && r.u64(h.delivered_batches) &&
           r.u64(h.backpressure_waits) && r.u64(h.park_wait_us) &&
           r.u64(h.drained_inline) && r.u64(h.abandoned_workers) &&
           r.u64(h.scrub.scanned) && r.u64(h.scrub.corrupt) &&
           r.u64(h.scrub.repaired) && r.u32(h.record_bytes) &&
           r.u32(h.shard_count) && r.u64(h.state_bytes));
    if (h.version != kVersion) {
        return corrupt("unsupported checkpoint version " +
                           std::to_string(h.version) + " in " + origin,
                       kOffVersion);
    }
    if (file_size - kCheckpointHeaderBytes < kCheckpointSealBytes) {
        return truncated("image of " + std::to_string(file_size) +
                             " bytes from '" + origin +
                             "' is shorter than header + seal footer",
                         file_size);
    }
    if (h.record_bytes == 0) {
        return corrupt("stats record size 0 in " + origin, kOffRecordBytes);
    }
    const std::uint64_t body =
        file_size - kCheckpointHeaderBytes - kCheckpointSealBytes;
    const std::uint64_t records = h.records_bytes();
    if (records > body || h.state_bytes > body - records) {
        return truncated(
            "stats records of " + std::to_string(records) +
                " bytes + state image of " + std::to_string(h.state_bytes) +
                " bytes promised; the body of " + origin + " holds " +
                std::to_string(body) + " bytes",
            file_size);
    }
    if (h.state_bytes < body - records) {
        const std::uint64_t expected = file_size -
                                       (body - records - h.state_bytes);
        return corrupt(std::to_string(file_size - expected) +
                           " trailing bytes past the promised size in " +
                           origin,
                       expected);
    }
    return h;
}

/// CRC verification of an image whose framing parse_frame accepted.
/// The footer's own CRC is checked first, so a damaged stored CRC is
/// reported at the footer rather than blamed on the section it covers.
Status check_seal(std::span<const std::byte> image, const CheckpointHeader& h,
                  const std::string& origin) {
    const auto secs = sections_of(h);
    for (const std::size_t which : {std::size_t{3}, std::size_t{0},
                                    std::size_t{1}, std::size_t{2}}) {
        const Section& s = secs[which];
        const std::uint32_t stored = stored_crc(image, h, which);
        const std::uint32_t computed =
            crc_over(image.subspan(s.begin, s.len));
        if (stored != computed) {
            return corrupt(std::string(s.name) + " CRC mismatch in " +
                               origin + ": stored " +
                               std::to_string(stored) + ", computed " +
                               std::to_string(computed),
                           s.begin);
        }
    }
    return Status::ok();
}

}  // namespace

SerializedCheckpoint seal_checkpoint_image(
    CheckpointHeader header, std::span<const std::byte> records,
    std::span<const std::byte> state) {
    header.version = kVersion;
    header.state_bytes = state.size();
    SerializedCheckpoint out;
    auto& buf = out.bytes;
    buf.reserve(kCheckpointHeaderBytes + records.size() + state.size() +
                kCheckpointSealBytes);
    io::ByteWriter w(buf);
    // Byte by byte: a range insert into the freshly reserved buffer trips a
    // false -Wstringop-overflow in GCC 12's vector code.
    for (const char c : kMagic) w.u8(static_cast<std::uint8_t>(c));
    w.u32(header.version);
    w.u32(header.state_id);
    w.u64(header.state_fingerprint);
    w.u64(header.unit_count);
    w.u64(header.cursor);
    w.u64(header.delivered_batches);
    w.u64(header.backpressure_waits);
    w.u64(header.park_wait_us);
    w.u64(header.drained_inline);
    w.u64(header.abandoned_workers);
    w.u64(header.scrub.scanned);
    w.u64(header.scrub.corrupt);
    w.u64(header.scrub.repaired);
    w.u32(header.record_bytes);
    w.u32(header.shard_count);
    w.u64(header.state_bytes);
    out.section_ends.push_back(buf.size());
    w.bytes(records.data(), records.size());
    out.section_ends.push_back(buf.size());
    w.bytes(state.data(), state.size());
    out.section_ends.push_back(buf.size());

    const std::size_t footer = buf.size();
    w.u32(crc_over(std::span<const std::byte>(buf).first(
        kCheckpointHeaderBytes)));
    w.u32(crc_over(records));
    w.u32(crc_over(state));
    w.u32(crc_over(std::span<const std::byte>(buf).subspan(footer, 12)));
    out.section_ends.push_back(buf.size());
    return out;
}

Expected<CheckpointView> parse_checkpoint_image(
    std::span<const std::byte> image, const std::string& origin) {
    Expected<CheckpointHeader> frame = parse_frame(image, origin);
    if (!frame.is_ok()) return frame.status();
    CheckpointView view;
    view.header = frame.value();
    if (Status st = check_seal(image, view.header, origin); !st.is_ok()) {
        return st;
    }
    const auto secs = sections_of(view.header);
    view.records = image.subspan(secs[1].begin, secs[1].len);
    view.state = image.subspan(secs[2].begin, secs[2].len);
    return view;
}

Status verify_checkpoint_image(std::span<const std::byte> image,
                               const std::string& origin) {
    return parse_checkpoint_image(image, origin).status();
}

Expected<ImageInfo> describe_checkpoint_image(
    std::span<const std::byte> image, const std::string& origin) {
    Expected<CheckpointHeader> frame = parse_frame(image, origin);
    if (!frame.is_ok()) return frame.status();
    ImageInfo info;
    info.header = frame.value();
    info.file_bytes = image.size();
    const auto secs = sections_of(info.header);
    for (std::size_t which = 0; which < secs.size(); ++which) {
        const Section& s = secs[which];
        SectionCheck sc;
        sc.name = s.name;
        sc.begin = s.begin;
        sc.end = s.begin + s.len;
        sc.stored = stored_crc(image, info.header, which);
        sc.computed = crc_over(image.subspan(s.begin, s.len));
        sc.ok = sc.stored == sc.computed;
        info.sections.push_back(std::move(sc));
    }
    info.verdict = check_seal(image, info.header, origin);
    return info;
}

}  // namespace p4lru::replay
