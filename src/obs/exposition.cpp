#include "p4lru/obs/exposition.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <utility>

namespace p4lru::obs {

std::string json_escape(std::string_view s) {
    std::string out;
    out.reserve(s.size());
    for (const char ch : s) {
        const unsigned char c = static_cast<unsigned char>(ch);
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (c < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                    out += buf;
                } else {
                    out += ch;
                }
        }
    }
    return out;
}

std::string prometheus_name(std::string_view name) {
    std::string out(name);
    for (std::size_t i = 0; i < out.size(); ++i) {
        const char c = out[i];
        const bool alpha =
            (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
            c == ':';
        const bool digit = c >= '0' && c <= '9';
        if (!(alpha || (digit && i != 0))) {
            out[i] = '_';
        }
    }
    if (out.empty()) out.push_back('_');
    return out;
}

std::string to_prometheus(const Snapshot& snap) {
    std::string out;
    for (const auto& [name, v] : snap.counters) {
        const std::string n = prometheus_name(name);
        out += "# TYPE " + n + " counter\n";
        out += n + " " + std::to_string(v) + "\n";
    }
    for (const auto& [name, v] : snap.gauges) {
        const std::string n = prometheus_name(name);
        out += "# TYPE " + n + " gauge\n";
        out += n + " " + std::to_string(v) + "\n";
    }
    for (const auto& [name, h] : snap.histograms) {
        const std::string n = prometheus_name(name);
        out += "# TYPE " + n + " histogram\n";
        std::uint64_t cum = 0;
        for (std::size_t b = 0; b + 1 < kHistBuckets; ++b) {
            cum += h.buckets[b];
            out += n + "_bucket{le=\"" +
                   std::to_string(bucket_upper_bound(b)) + "\"} " +
                   std::to_string(cum) + "\n";
        }
        out += n + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
        out += n + "_sum " + std::to_string(h.sum) + "\n";
        out += n + "_count " + std::to_string(h.count) + "\n";
    }
    return out;
}

std::string to_json_line(const Snapshot& snap) {
    std::string out = "{\"seq\":" + std::to_string(snap.seq) +
                      ",\"unix_us\":" + std::to_string(snap.unix_us);
    out += ",\"counters\":{";
    bool first = true;
    for (const auto& [name, v] : snap.counters) {
        if (!std::exchange(first, false)) out += ",";
        out += '"' + json_escape(name) + "\":" + std::to_string(v);
    }
    out += "},\"gauges\":{";
    first = true;
    for (const auto& [name, v] : snap.gauges) {
        if (!std::exchange(first, false)) out += ",";
        out += '"' + json_escape(name) + "\":" + std::to_string(v);
    }
    out += "},\"histograms\":{";
    first = true;
    for (const auto& [name, h] : snap.histograms) {
        if (!std::exchange(first, false)) out += ",";
        out += '"' + json_escape(name) +
               "\":{\"count\":" + std::to_string(h.count) +
               ",\"sum\":" + std::to_string(h.sum) + ",\"buckets\":[";
        // Trailing zero buckets are trimmed (most histograms occupy a
        // narrow log2 band); the parser zero-fills the tail back.
        std::size_t last = kHistBuckets;
        while (last > 0 && h.buckets[last - 1] == 0) --last;
        for (std::size_t b = 0; b < last; ++b) {
            if (b != 0) out += ",";
            out += std::to_string(h.buckets[b]);
        }
        out += "]}";
    }
    out += "}}";
    return out;
}

namespace {

/// Cursor over one JSON line.  Methods return false on malformed input and
/// leave `err` describing the failure at byte `pos`.
struct Parser {
    std::string_view in;
    std::size_t pos = 0;
    Status err = Status::ok();

    [[nodiscard]] bool fail(const std::string& what) {
        if (err.is_ok()) {
            err = corrupt("parse_snapshot_json: " + what, pos);
        }
        return false;
    }

    void skip_ws() {
        while (pos < in.size() &&
               (in[pos] == ' ' || in[pos] == '\t' || in[pos] == '\n' ||
                in[pos] == '\r')) {
            ++pos;
        }
    }

    [[nodiscard]] bool expect(char c) {
        skip_ws();
        if (pos >= in.size() || in[pos] != c) {
            return fail(std::string("expected '") + c + "'");
        }
        ++pos;
        return true;
    }

    [[nodiscard]] bool peek(char c) {
        skip_ws();
        return pos < in.size() && in[pos] == c;
    }

    [[nodiscard]] bool parse_string(std::string& out) {
        if (!expect('"')) return false;
        out.clear();
        while (pos < in.size() && in[pos] != '"') {
            char c = in[pos++];
            if (c == '\\') {
                if (pos >= in.size()) return fail("dangling escape");
                const char e = in[pos++];
                switch (e) {
                    case '"': out += '"'; break;
                    case '\\': out += '\\'; break;
                    case '/': out += '/'; break;
                    case 'n': out += '\n'; break;
                    case 'r': out += '\r'; break;
                    case 't': out += '\t'; break;
                    case 'b': out += '\b'; break;
                    case 'f': out += '\f'; break;
                    case 'u': {
                        if (pos + 4 > in.size()) {
                            return fail("short \\u escape");
                        }
                        unsigned v = 0;
                        for (int i = 0; i < 4; ++i) {
                            const char h = in[pos++];
                            v <<= 4;
                            if (h >= '0' && h <= '9') {
                                v |= static_cast<unsigned>(h - '0');
                            } else if (h >= 'a' && h <= 'f') {
                                v |= static_cast<unsigned>(h - 'a' + 10);
                            } else if (h >= 'A' && h <= 'F') {
                                v |= static_cast<unsigned>(h - 'A' + 10);
                            } else {
                                return fail("bad \\u escape digit");
                            }
                        }
                        // Our emitter only writes \u00XX control bytes;
                        // anything wider is out of contract.
                        if (v > 0xFF) return fail("\\u escape out of range");
                        out += static_cast<char>(v);
                        break;
                    }
                    default: return fail("unknown escape");
                }
            } else {
                out += c;
            }
        }
        if (pos >= in.size()) return fail("unterminated string");
        ++pos;  // closing quote
        return true;
    }

    template <typename Int>
    [[nodiscard]] bool parse_int(Int& out) {
        skip_ws();
        const char* begin = in.data() + pos;
        const char* end = in.data() + in.size();
        const auto res = std::from_chars(begin, end, out);
        if (res.ec != std::errc{}) return fail("expected integer");
        pos = static_cast<std::size_t>(res.ptr - in.data());
        return true;
    }

    /// `"name": <int>` map entries until the closing '}'.
    template <typename Int, typename Push>
    [[nodiscard]] bool parse_int_map(Push&& push) {
        if (!expect('{')) return false;
        if (peek('}')) {
            ++pos;
            return true;
        }
        while (true) {
            std::string name;
            Int v{};
            if (!parse_string(name)) return false;
            if (!expect(':')) return false;
            if (!parse_int(v)) return false;
            push(std::move(name), v);
            if (peek(',')) {
                ++pos;
                continue;
            }
            return expect('}');
        }
    }

    [[nodiscard]] bool parse_hist(HistogramSnapshot& h) {
        if (!expect('{')) return false;
        for (int field = 0; field < 3; ++field) {
            std::string key;
            if (!parse_string(key)) return false;
            if (!expect(':')) return false;
            if (key == "count") {
                if (!parse_int(h.count)) return false;
            } else if (key == "sum") {
                if (!parse_int(h.sum)) return false;
            } else if (key == "buckets") {
                if (!expect('[')) return false;
                std::size_t b = 0;
                if (!peek(']')) {
                    while (true) {
                        if (b >= kHistBuckets) {
                            return fail("too many histogram buckets");
                        }
                        if (!parse_int(h.buckets[b++])) return false;
                        if (peek(',')) {
                            ++pos;
                            continue;
                        }
                        break;
                    }
                }
                if (!expect(']')) return false;
            } else {
                return fail("unknown histogram field '" + key + "'");
            }
            if (field < 2 && !expect(',')) return false;
        }
        return expect('}');
    }
};

}  // namespace

Expected<Snapshot> parse_snapshot_json(std::string_view line) {
    Parser p{line};
    Snapshot snap;
    std::string key;

    if (!p.expect('{')) return p.err;
    for (int field = 0; field < 5; ++field) {
        if (!p.parse_string(key)) return p.err;
        if (!p.expect(':')) return p.err;
        if (key == "seq") {
            if (!p.parse_int(snap.seq)) return p.err;
        } else if (key == "unix_us") {
            if (!p.parse_int(snap.unix_us)) return p.err;
        } else if (key == "counters") {
            const bool ok = p.parse_int_map<std::uint64_t>(
                [&](std::string n, std::uint64_t v) {
                    snap.counters.emplace_back(std::move(n), v);
                });
            if (!ok) return p.err;
        } else if (key == "gauges") {
            const bool ok = p.parse_int_map<std::int64_t>(
                [&](std::string n, std::int64_t v) {
                    snap.gauges.emplace_back(std::move(n), v);
                });
            if (!ok) return p.err;
        } else if (key == "histograms") {
            if (!p.expect('{')) return p.err;
            if (p.peek('}')) {
                ++p.pos;
            } else {
                while (true) {
                    std::string name;
                    HistogramSnapshot h;
                    if (!p.parse_string(name)) return p.err;
                    if (!p.expect(':')) return p.err;
                    if (!p.parse_hist(h)) return p.err;
                    snap.histograms.emplace_back(std::move(name), h);
                    if (p.peek(',')) {
                        ++p.pos;
                        continue;
                    }
                    break;
                }
                if (!p.expect('}')) return p.err;
            }
        } else {
            p.pos = 0;
            return corrupt("parse_snapshot_json: unknown field '" + key + "'");
        }
        if (field < 4 && !p.expect(',')) return p.err;
    }
    if (!p.expect('}')) return p.err;
    p.skip_ws();
    if (p.pos != line.size()) {
        return corrupt("parse_snapshot_json: trailing bytes", p.pos);
    }
    return snap;
}

}  // namespace p4lru::obs
