// Independent checks of PODEM's verdicts on scanned s27 and s298.
//
// PODEM implies on PackedSim, so its verdicts are checked by computations
// it does not share: every Success pattern, X bits left in, must detect its
// fault under the naive reference evaluator (verify/reference.hpp), and
// every Untestable verdict must survive an exhaustive sweep of all 2^n
// source combinations (n = PIs + scan FFs: 9 on s27, 19 on s298) through the
// packed fault-grading engine.
#include "atpg/podem.hpp"
#include "dft/scan.hpp"
#include "iscas/circuits.hpp"
#include "verify/reference.hpp"

#include <gtest/gtest.h>

#include <array>

namespace flh {
namespace {

const Library& lib() {
    static const Library l = makeDefaultLibrary();
    return l;
}

/// For each fault, whether any assignment of the circuit's sources detects
/// it: all 2^n combinations, 512 per pass (combination c sets source k to
/// bit k of c; word w, slot s of a pass starting at `base` holds
/// c = base + 64 * w + s).
std::vector<bool> exhaustivelyDetected(const Netlist& nl, const std::vector<FaultSite>& faults) {
    std::vector<NetId> sources(nl.pis().begin(), nl.pis().end());
    for (const GateId ff : nl.flipFlops()) sources.push_back(nl.gate(ff).output);
    if (sources.size() > 24) throw std::logic_error("too many sources for an exhaustive sweep");
    // Bit k of the slot index, for the sources that vary within a word.
    constexpr std::array<std::uint64_t, 6> kSlotBit = {
        0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
        0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};

    const unsigned W = kMaxPackedWords;
    PackedSim sim(nl, W);
    std::vector<std::uint8_t> is_obs(nl.netCount(), 0);
    for (const NetId po : nl.pos()) is_obs[po] = 1;
    for (const GateId ff : nl.flipFlops()) is_obs[nl.gate(ff).inputs[0]] = 1;

    std::vector<bool> detected(faults.size(), false);
    std::uint64_t diff[kMaxPackedWords];
    const std::uint64_t total = 1ULL << sources.size();
    for (std::uint64_t base = 0; base < total; base += 64ULL * W) {
        for (std::size_t k = 0; k < sources.size(); ++k)
            for (unsigned w = 0; w < W; ++w) {
                const std::uint64_t word_base = base + 64ULL * w;
                const std::uint64_t v =
                    k < kSlotBit.size() ? kSlotBit[k] : ((word_base >> k) & 1 ? ~0ULL : 0);
                sim.setNet(sources[k], w, PV{v, 0});
            }
        sim.propagate();
        for (std::size_t f = 0; f < faults.size(); ++f) {
            if (detected[f]) continue;
            sim.injectFault(faults[f]);
            sim.propagate();
            sim.faultDiffOnto(is_obs.data(), diff);
            sim.clearFault();
            for (unsigned w = 0; w < W; ++w)
                if (diff[w]) detected[f] = true;
        }
    }
    return detected;
}

/// Run PODEM on every collapsed fault and check each verdict; returns the
/// number of Untestable verdicts checked. The sweep must also find every
/// fault PODEM found a test for, which keeps it from passing vacuously.
std::size_t checkVerdicts(const Netlist& nl) {
    const std::vector<FaultSite> faults = collapsedStuckAtFaults(nl);
    const std::vector<bool> detectable = exhaustivelyDetected(nl, faults);
    Podem podem(nl);
    std::size_t untestable = 0;
    for (std::size_t i = 0; i < faults.size(); ++i) {
        const FaultSite& f = faults[i];
        Pattern p;
        switch (podem.generate(f, p)) {
            case PodemOutcome::Success: {
                const Pattern pats[1] = {p};
                const FaultSite fs[1] = {f};
                EXPECT_TRUE(refStuckAtDetections(nl, pats, fs)[0][0])
                    << nl.name() << ": PODEM pattern does not detect " << toString(nl, f);
                EXPECT_TRUE(detectable[i]) << nl.name() << ": sweep misses " << toString(nl, f);
                break;
            }
            case PodemOutcome::Untestable:
                ++untestable;
                EXPECT_FALSE(detectable[i]) << nl.name() << ": " << toString(nl, f)
                                            << " declared untestable but a pattern detects it";
                break;
            case PodemOutcome::Aborted:
                break;
        }
    }
    return untestable;
}

Netlist scanned(const std::string& name) {
    Netlist nl = makeCircuit(name, lib());
    insertScan(nl);
    return nl;
}

// The counts keep the sweeps non-vacuous: PODEM reaches 4 and 194
// Untestable verdicts on these circuits.
TEST(PodemVerdicts, SoundOnScannedS27) { EXPECT_EQ(checkVerdicts(scanned("s27")), 4u); }

TEST(PodemVerdicts, SoundOnScannedS298) { EXPECT_EQ(checkVerdicts(scanned("s298")), 194u); }

} // namespace
} // namespace flh
