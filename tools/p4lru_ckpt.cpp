// p4lru_ckpt — offline inspector for durable checkpoint images (DESIGN.md
// §12).  Judges the one on-disk format (serialized_image.hpp) from its
// framing and CRCs alone — no Stats type needed — so it can check any file
// the replay stack writes, whatever the target.
//
//   p4lru_ckpt describe <file.ckpt>       header fields + per-section CRCs
//   p4lru_ckpt verify <file.ckpt>...      structural + CRC verdict per file
//   p4lru_ckpt list-generations <dir>     generations of a DurableStore
//
// Exit status: 0 when every inspected file verifies (for list-generations:
// when at least one generation is recoverable), 1 otherwise, 2 on usage
// errors.  `verify` prints one line per file so CI logs name the culprit.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "p4lru/replay/durable_store.hpp"

namespace {

using namespace p4lru;
using replay::DurableStore;
using replay::ImageInfo;

int usage() {
    std::fprintf(stderr,
                 "usage: p4lru_ckpt describe <file.ckpt>\n"
                 "       p4lru_ckpt verify <file.ckpt>...\n"
                 "       p4lru_ckpt list-generations <store-dir>\n");
    return 2;
}

int cmd_describe(const std::string& path) {
    const auto bytes = replay::read_file_bytes(path);
    if (!bytes.is_ok()) {
        std::fprintf(stderr, "p4lru_ckpt: %s\n",
                     bytes.status().to_string().c_str());
        return 1;
    }
    const auto info = replay::describe_checkpoint_image(bytes.value(), path);
    if (!info.is_ok()) {
        std::fprintf(stderr, "p4lru_ckpt: %s\n",
                     info.status().to_string().c_str());
        return 1;
    }
    const ImageInfo& i = info.value();
    const replay::CheckpointHeader& h = i.header;
    std::printf("file:          %s\n", path.c_str());
    std::printf("format:        P4LRUTGC (version %u, CRC-sealed)\n",
                h.version);
    std::printf("state id:      %u\n", h.state_id);
    std::printf("fingerprint:   0x%016llx\n",
                static_cast<unsigned long long>(h.state_fingerprint));
    std::printf("units:         %llu\n",
                static_cast<unsigned long long>(h.unit_count));
    std::printf("cursor:        %llu ops\n",
                static_cast<unsigned long long>(h.cursor));
    std::printf("shards:        %u (%u bytes per stats record)\n",
                h.shard_count, h.record_bytes);
    std::printf("payload:       %llu bytes of state (%llu byte file)\n",
                static_cast<unsigned long long>(h.state_bytes),
                static_cast<unsigned long long>(i.file_bytes));
    for (const auto& s : i.sections) {
        std::printf("  section %-8s [%8llu, %8llu)  crc stored %08x "
                    "computed %08x  %s\n",
                    s.name.c_str(), static_cast<unsigned long long>(s.begin),
                    static_cast<unsigned long long>(s.end), s.stored,
                    s.computed, s.ok ? "ok" : "MISMATCH");
    }
    std::printf("verdict:       %s\n", i.verdict.is_ok()
                                           ? "ok"
                                           : i.verdict.to_string().c_str());
    return i.verdict.is_ok() ? 0 : 1;
}

int cmd_verify(const std::vector<std::string>& paths) {
    int rc = 0;
    for (const auto& path : paths) {
        const auto bytes = replay::read_file_bytes(path);
        if (!bytes.is_ok()) {
            std::printf("%s: %s\n", path.c_str(),
                        bytes.status().to_string().c_str());
            rc = 1;
            continue;
        }
        const auto st = replay::verify_checkpoint_image(bytes.value(), path);
        std::printf("%s: %s\n", path.c_str(),
                    st.is_ok() ? "ok" : st.to_string().c_str());
        if (!st.is_ok()) rc = 1;
    }
    return rc;
}

int cmd_list_generations(const std::string& dir) {
    const DurableStore store(dir);
    const auto gens = store.list();
    if (gens.empty()) {
        std::printf("%s: no generations\n", dir.c_str());
        return 1;
    }
    std::size_t valid = 0;
    for (const auto& g : gens) {
        const auto bytes = replay::read_file_bytes(g.path);
        std::string verdict;
        if (!bytes.is_ok()) {
            verdict = bytes.status().to_string();
        } else {
            const auto st =
                replay::verify_checkpoint_image(bytes.value(), g.path);
            verdict = st.is_ok() ? "ok" : st.to_string();
            if (st.is_ok()) ++valid;
        }
        std::printf("gen %6llu  %10llu bytes  %s  %s\n",
                    static_cast<unsigned long long>(g.seq),
                    static_cast<unsigned long long>(
                        bytes.is_ok() ? bytes.value().size() : 0),
                    verdict.c_str(), g.path.c_str());
    }
    std::printf("%zu generation(s), %zu recoverable\n", gens.size(), valid);
    return valid > 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 3) return usage();
    const std::string cmd = argv[1];
    if (cmd == "describe") {
        if (argc != 3) return usage();
        return cmd_describe(argv[2]);
    }
    if (cmd == "verify") {
        std::vector<std::string> paths(argv + 2, argv + argc);
        return cmd_verify(paths);
    }
    if (cmd == "list-generations") {
        if (argc != 3) return usage();
        return cmd_list_generations(argv[2]);
    }
    return usage();
}
