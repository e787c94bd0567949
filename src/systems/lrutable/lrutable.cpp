#include "p4lru/systems/lrutable/lrutable.hpp"

#include "p4lru/common/hash.hpp"

namespace p4lru::systems::lrutable {

std::uint32_t NatTable::lookup(VirtualAddress va) const {
    // A pre-provisioned translation: deterministic, collision-free enough
    // for correctness checks, never equal to the placeholder or zero.
    std::uint8_t b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<std::uint8_t>(va >> (8 * i));
    std::uint32_t ra = hash::murmur3_32(
        std::span<const std::uint8_t>(b, 4), 0x7A57AB1Eu);
    if (ra == 0 || ra == kPlaceholder) ra = 0x0A0A0A0Au;
    return ra;
}

}  // namespace p4lru::systems::lrutable
