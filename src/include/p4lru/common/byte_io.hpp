// Little-endian byte-buffer serialization helpers.
//
// The snapshot planes of the system replay targets (systems/*/..._target.hpp)
// concatenate many heterogeneous parts — sketch counter rows, policy storage
// planes, analyzer tables, pending-fill queues — into one flat byte image.
// ByteWriter appends fields to a growing vector; ByteReader walks a span with
// a cursor and refuses to read past the end, so a truncated or reshaped image
// fails loudly (load_state -> false) instead of misinterpreting bytes.
//
// Scalars are written little-endian byte-by-byte (portable); raw `bytes`
// regions are memory images whose layout is guarded by the surrounding size
// fields.  This is the repo's only little-endian codec: the checkpoint
// image format (replay/serialized_image.hpp) is written and read with it
// too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace p4lru::io {

class ByteWriter {
  public:
    explicit ByteWriter(std::vector<std::byte>& out) noexcept : out_(&out) {}

    void u8(std::uint8_t v) { out_->push_back(static_cast<std::byte>(v)); }

    void u32(std::uint32_t v) {
        for (int i = 0; i < 4; ++i) {
            out_->push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFF));
        }
    }

    void u64(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            out_->push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFF));
        }
    }

    /// Raw memory image of `n` bytes (trivially-copyable payloads only).
    /// Appended in one copy, without zero-filling the grown tail first.
    void bytes(const void* p, std::size_t n) {
        const auto* b = static_cast<const std::byte*>(p);
        out_->insert(out_->end(), b, b + n);
    }

    template <typename T>
    void pod(const T& v) {
        static_assert(std::is_trivially_copyable_v<T>);
        bytes(&v, sizeof(T));
    }

    [[nodiscard]] std::size_t size() const noexcept { return out_->size(); }

  private:
    std::vector<std::byte>* out_;
};

class ByteReader {
  public:
    explicit ByteReader(std::span<const std::byte> in) noexcept : in_(in) {}

    [[nodiscard]] bool u8(std::uint8_t& v) {
        if (pos_ + 1 > in_.size()) return false;
        v = std::to_integer<std::uint8_t>(in_[pos_++]);
        return true;
    }

    [[nodiscard]] bool u32(std::uint32_t& v) {
        if (pos_ + 4 > in_.size()) return false;
        v = 0;
        for (int i = 0; i < 4; ++i) {
            v |= static_cast<std::uint32_t>(
                     std::to_integer<std::uint8_t>(in_[pos_ + i]))
                 << (8 * i);
        }
        pos_ += 4;
        return true;
    }

    [[nodiscard]] bool u64(std::uint64_t& v) {
        if (pos_ + 8 > in_.size()) return false;
        v = 0;
        for (int i = 0; i < 8; ++i) {
            v |= static_cast<std::uint64_t>(
                     std::to_integer<std::uint8_t>(in_[pos_ + i]))
                 << (8 * i);
        }
        pos_ += 8;
        return true;
    }

    [[nodiscard]] bool bytes(void* p, std::size_t n) {
        if (pos_ + n > in_.size()) return false;
        if (n != 0) std::memcpy(p, in_.data() + pos_, n);
        pos_ += n;
        return true;
    }

    template <typename T>
    [[nodiscard]] bool pod(T& v) {
        static_assert(std::is_trivially_copyable_v<T>);
        return bytes(&v, sizeof(T));
    }

    /// A nested sub-image written as (u64 size, raw bytes); returns an empty
    /// span on underflow with `ok` cleared.
    [[nodiscard]] bool sub(std::span<const std::byte>& out) {
        std::uint64_t n = 0;
        if (!u64(n)) return false;
        if (pos_ + n > in_.size()) return false;
        out = in_.subspan(pos_, static_cast<std::size_t>(n));
        pos_ += static_cast<std::size_t>(n);
        return true;
    }

    [[nodiscard]] std::size_t remaining() const noexcept {
        return in_.size() - pos_;
    }
    [[nodiscard]] bool done() const noexcept { return pos_ == in_.size(); }

  private:
    std::span<const std::byte> in_;
    std::size_t pos_ = 0;
};

}  // namespace p4lru::io
