// In-memory span recorder for the traced benchmark run.  The benchmark wraps
// each call it makes into a layer of the library in a span (name, start,
// end, parent span, run id); spans stay in memory until the run ends, are
// written out as Chrome trace-event JSON, and are reduced to per-layer self
// time: a span's duration minus the part its child spans cover.
//
// Spans are recorded from a single thread; nesting follows the begin/end
// order, so the parent of a new span is the innermost span still open.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class SpanTrace {
  public:
    static constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

    explicit SpanTrace(std::uint64_t run_id);

    /// Open a span named `name` (a string literal: the pointer is kept)
    /// covering `items` operations; returns its index for end().
    std::uint32_t begin(const char* name, std::uint64_t items = 0);
    void end(std::uint32_t span);
    /// Record how many operations an open or closed span covered, when
    /// that is only known after the call it wraps.
    void set_items(std::uint32_t span, std::uint64_t items) {
        spans_[span].items = items;
    }

    struct LayerTime {
        std::string name;
        std::uint64_t spans = 0;
        std::uint64_t items = 0;  ///< operations covered by the spans
        double self_ns = 0;       ///< total duration minus child coverage
        double total_ns = 0;
    };

    /// Self time per span name, in first-seen order.
    [[nodiscard]] std::vector<LayerTime> self_times() const;

    /// Trace-event JSON ("X" complete events, microsecond timestamps),
    /// viewable in Perfetto / chrome://tracing.  Returns false on I/O error.
    [[nodiscard]] bool write_trace_events(const std::string& path) const;

    [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  private:
    struct Span {
        const char* name = nullptr;
        std::uint32_t parent = kNoParent;
        std::uint64_t items = 0;
        std::int64_t start_ns = 0;
        std::int64_t end_ns = 0;
    };

    [[nodiscard]] std::int64_t now_ns() const {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - epoch_)
            .count();
    }

    std::uint64_t run_id_;
    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<std::uint32_t> open_;  ///< stack of unfinished spans
};

/// RAII span: begin at construction, end at scope exit.
class ScopedSpan {
  public:
    ScopedSpan(SpanTrace& t, const char* name, std::uint64_t items = 0)
        : t_(&t), id_(t.begin(name, items)) {}
    ~ScopedSpan() { t_->end(id_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    SpanTrace* t_;
    std::uint32_t id_;
};

}  // namespace perfbench
