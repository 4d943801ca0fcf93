// Simulated counts of one paper_profile profile (both §3.1 collect runs,
// each stopped after kInputInstructions) for the default seed. The
// simulator is deterministic, so these must repeat exactly; a change that
// moves any of them changed simulated behaviour, not just host speed.
#pragma once

#include <array>
#include <cstdint>
#include <utility>

namespace perfbench::pinned {

inline constexpr uint64_t kSeed = 42;
inline constexpr uint64_t kInstructions = 160000000;
inline constexpr uint64_t kCycles = 1030595722;
inline constexpr uint64_t kEvents = 45225;
inline constexpr uint64_t kEaRequested = 39500;
inline constexpr uint64_t kEaKnown = 31638;
inline constexpr std::array<std::pair<const char*, uint64_t>, 5> kPerCounter = {{
    {"clock", 5725},
    {"dtlbm", 15708},
    {"ecref", 7655},
    {"ecrm", 5020},
    {"ecstall", 11117},
}};

}  // namespace perfbench::pinned
