// Typed error layer for the robustness subsystem.
//
// The seed code aborted on every malformed input: trace_io threw bare
// std::runtime_error with no machine-readable cause, replay had no error
// vocabulary at all.  Status carries an ErrorCode, a human message and —
// because the dominant failure class is a corrupt or truncated byte stream —
// the byte offset at which parsing gave up.  Expected<T> is the value-or-
// Status return shape (std::expected is C++23; this is the minimal C++20
// equivalent the repo needs).  Both types are cheap to move and [[nodiscard]]
// so an ignored failure is a compiler warning, not silent UB.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

namespace p4lru {

enum class ErrorCode : std::uint8_t {
    kOk = 0,
    kIoError,          ///< open/read/write syscall-level failure
    kCorrupt,          ///< structurally invalid bytes (bad magic/version)
    kTruncated,        ///< input ended in the middle of a structure
    kInvalidState,     ///< in-memory invariant violated (scrubber findings)
    kTimeout,          ///< a deadline expired (backpressure, watchdog, retry)
    kUnavailable,      ///< a dependency refused service (flaky db server)
    kInvalidArgument,  ///< caller-supplied parameter out of contract
};

[[nodiscard]] constexpr const char* error_code_name(ErrorCode c) noexcept {
    switch (c) {
        case ErrorCode::kOk: return "ok";
        case ErrorCode::kIoError: return "io_error";
        case ErrorCode::kCorrupt: return "corrupt";
        case ErrorCode::kTruncated: return "truncated";
        case ErrorCode::kInvalidState: return "invalid_state";
        case ErrorCode::kTimeout: return "timeout";
        case ErrorCode::kUnavailable: return "unavailable";
        case ErrorCode::kInvalidArgument: return "invalid_argument";
    }
    return "unknown";
}

/// An error code plus context: message and, for parse failures, the byte
/// offset where the input stopped making sense. Default-constructed Status
/// is success.
class [[nodiscard]] Status {
  public:
    static constexpr std::uint64_t kNoOffset = ~std::uint64_t{0};

    Status() = default;
    Status(ErrorCode code, std::string message,
           std::uint64_t offset = kNoOffset)
        : code_(code), message_(std::move(message)), offset_(offset) {}

    [[nodiscard]] static Status ok() { return Status(); }

    [[nodiscard]] bool is_ok() const noexcept {
        return code_ == ErrorCode::kOk;
    }
    [[nodiscard]] ErrorCode code() const noexcept { return code_; }
    [[nodiscard]] const std::string& message() const noexcept {
        return message_;
    }
    [[nodiscard]] bool has_offset() const noexcept {
        return offset_ != kNoOffset;
    }
    [[nodiscard]] std::uint64_t offset() const noexcept { return offset_; }

    /// "truncated @byte 1432: read_trace: record 50 cut short"
    [[nodiscard]] std::string to_string() const {
        if (is_ok()) return "ok";
        std::string s = error_code_name(code_);
        if (has_offset()) {
            s += " @byte " + std::to_string(offset_);
        }
        if (!message_.empty()) {
            s += ": " + message_;
        }
        return s;
    }

  private:
    ErrorCode code_ = ErrorCode::kOk;
    std::string message_;
    std::uint64_t offset_ = kNoOffset;
};

/// Shorthand factories for the dominant construction sites — the binary IO
/// layers (trace_io, serialized_image) build dozens of parse-failure statuses,
/// and spelling the enum every time buries the message.  Offsets carry the
/// byte position where the input stopped making sense, as in Status itself.
[[nodiscard]] inline Status io_error(std::string message) {
    return Status(ErrorCode::kIoError, std::move(message));
}
[[nodiscard]] inline Status corrupt(std::string message,
                                    std::uint64_t offset = Status::kNoOffset) {
    return Status(ErrorCode::kCorrupt, std::move(message), offset);
}
[[nodiscard]] inline Status truncated(
    std::string message, std::uint64_t offset = Status::kNoOffset) {
    return Status(ErrorCode::kTruncated, std::move(message), offset);
}
[[nodiscard]] inline Status invalid_state(std::string message) {
    return Status(ErrorCode::kInvalidState, std::move(message));
}

/// IO failure with the OS-level cause attached: "<what> '<path>': <strerror>
/// (errno N)".  Reads `errno` at call time, so call it immediately after the
/// failed open/read/write/rename — every IO-failure Status in the binary
/// format layers (trace_io, serialized_image, durable_store) goes through this
/// so the offending file path and the syscall error are never lost.
[[nodiscard]] inline Status io_error_errno(std::string what,
                                           const std::string& path) {
    const int err = errno;
    std::string msg = std::move(what) + " '" + path + "'";
    if (err != 0) {
        msg += ": ";
        msg += std::strerror(err);
        msg += " (errno " + std::to_string(err) + ")";
    }
    return Status(ErrorCode::kIoError, std::move(msg));
}

/// Value-or-Status. Constructing from a Status requires a non-ok status (an
/// ok status with no value is a contract violation and is normalized to
/// kInvalidState so downstream code never sees an "ok but empty" result).
template <typename T>
class [[nodiscard]] Expected {
  public:
    Expected(T value) : v_(std::in_place_index<0>, std::move(value)) {}
    Expected(Status error) : v_(std::in_place_index<1>, std::move(error)) {
        if (std::get<1>(v_).is_ok()) {
            v_.template emplace<1>(ErrorCode::kInvalidState,
                                   "Expected constructed from ok Status");
        }
    }

    [[nodiscard]] bool is_ok() const noexcept { return v_.index() == 0; }
    explicit operator bool() const noexcept { return is_ok(); }

    /// The error, or Status::ok() when a value is held.
    [[nodiscard]] Status status() const {
        return is_ok() ? Status::ok() : std::get<1>(v_);
    }

    /// Value access; throws std::logic_error on an error-holding Expected
    /// (misuse — callers must check is_ok() first).
    [[nodiscard]] T& value() & {
        check();
        return std::get<0>(v_);
    }
    [[nodiscard]] const T& value() const& {
        check();
        return std::get<0>(v_);
    }
    [[nodiscard]] T&& value() && {
        check();
        return std::get<0>(std::move(v_));
    }

    [[nodiscard]] T value_or(T fallback) const& {
        return is_ok() ? std::get<0>(v_) : std::move(fallback);
    }

  private:
    void check() const {
        if (!is_ok()) {
            throw std::logic_error("Expected::value on error: " +
                                   std::get<1>(v_).to_string());
        }
    }

    std::variant<T, Status> v_;
};

}  // namespace p4lru
