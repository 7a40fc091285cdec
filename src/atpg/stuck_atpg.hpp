// Stuck-at test generation: random-pattern phase with fault dropping,
// followed by deterministic PODEM top-off.
#pragma once

#include "atpg/podem.hpp"
#include "util/rng.hpp"

#include <algorithm>
#include <vector>

namespace flh {

struct StuckAtpgConfig {
    int random_patterns = 128;
    PodemConfig podem{};
    std::uint64_t seed = 7;
};

struct StuckAtpgResult {
    std::vector<Pattern> patterns; ///< fully specified (X random-filled)
    FaultSimResult coverage;       ///< over the given fault list
    std::size_t podem_generated = 0;
    std::size_t aborted = 0;
    std::size_t untestable = 0;
};

/// Random-fill every X in a pattern (seeded).
void fillRandom(Pattern& p, Rng& rng);

/// The faults a top-off loop has not detected yet, in list order, so each
/// new test is graded against these only. Faults PODEM aborted or proved
/// untestable stay in: a later test may still detect them.
template <typename Fault>
class UndetectedFaults {
public:
    UndetectedFaults(std::span<const Fault> faults, const std::vector<bool>& detected_mask) {
        for (std::size_t i = 0; i < faults.size(); ++i) {
            if (detected_mask[i]) continue;
            faults_.push_back(faults[i]);
            index_.push_back(i);
        }
    }

    [[nodiscard]] std::span<const Fault> faults() const noexcept { return faults_; }

    /// True if `hit`, graded over faults(), detects fault `fi` of the list.
    [[nodiscard]] bool detects(const FaultSimResult& hit, std::size_t fi) const {
        const auto it = std::lower_bound(index_.begin(), index_.end(), fi);
        return it != index_.end() && *it == fi &&
               hit.detected_mask[static_cast<std::size_t>(it - index_.begin())];
    }

    /// Credit every fault `hit` (graded over faults()) detects to `cov`,
    /// whose mask covers the whole list, and drop it from the set.
    void drop(const FaultSimResult& hit, FaultSimResult& cov) {
        std::size_t keep = 0;
        for (std::size_t k = 0; k < faults_.size(); ++k) {
            if (hit.detected_mask[k]) {
                cov.detected_mask[index_[k]] = true;
                ++cov.detected;
                continue;
            }
            faults_[keep] = faults_[k];
            index_[keep++] = index_[k];
        }
        faults_.resize(keep);
        index_.resize(keep);
    }

private:
    std::vector<Fault> faults_;
    std::vector<std::size_t> index_; ///< list position of each faults_ entry
};

[[nodiscard]] StuckAtpgResult generateStuckAtTests(const Netlist& nl,
                                                   std::span<const FaultSite> faults,
                                                   const StuckAtpgConfig& cfg = {});

} // namespace flh
