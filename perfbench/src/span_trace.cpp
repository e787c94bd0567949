#include "span_trace.hpp"

#include <cstdio>
#include <map>

namespace perfbench {

SpanTrace::SpanTrace(std::uint64_t run_id)
    : run_id_(run_id), epoch_(std::chrono::steady_clock::now()) {
    spans_.reserve(1u << 16);
}

std::uint32_t SpanTrace::begin(const char* name, std::uint64_t items) {
    Span s;
    s.name = name;
    s.parent = open_.empty() ? kNoParent : open_.back();
    s.items = items;
    const auto id = static_cast<std::uint32_t>(spans_.size());
    open_.push_back(id);
    s.start_ns = now_ns();
    spans_.push_back(s);
    return id;
}

void SpanTrace::end(std::uint32_t span) {
    spans_[span].end_ns = now_ns();
    // Spans close innermost-first; tolerate an out-of-order close by
    // unwinding to the span being closed.
    while (!open_.empty()) {
        const auto top = open_.back();
        open_.pop_back();
        if (top == span) break;
    }
}

std::vector<SpanTrace::LayerTime> SpanTrace::self_times() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const double d =
            static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
        self[i] += d;
        if (spans_[i].parent != kNoParent) self[spans_[i].parent] -= d;
    }
    std::vector<LayerTime> out;
    std::map<std::string, std::size_t> index;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const std::string name = spans_[i].name;
        auto [it, fresh] = index.emplace(name, out.size());
        if (fresh) out.push_back(LayerTime{name});
        LayerTime& l = out[it->second];
        ++l.spans;
        l.items += spans_[i].items;
        l.self_ns += self[i];
        l.total_ns +=
            static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
    }
    return out;
}

bool SpanTrace::write_trace_events(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                     "\"parent\":%lld,\"run\":%llu,\"items\":%llu}}",
                     i == 0 ? "" : ",", s.name,
                     static_cast<double>(s.start_ns) / 1e3,
                     static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                     s.parent == kNoParent ? -1LL
                                           : static_cast<long long>(s.parent),
                     static_cast<unsigned long long>(run_id_),
                     static_cast<unsigned long long>(s.items));
    }
    std::fprintf(f, "\n]}\n");
    const bool ok = std::ferror(f) == 0;
    return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
