// Independent checks of the ATPG engine's verdicts (PODEM with its SAT
// fallback) on scanned s27, s298 and s1423.
//
// PODEM implies on PackedSim and SAT solves a CNF encoding, so their
// verdicts are checked by computations neither shares: every Success
// pattern, X bits left in, must detect its fault under the naive reference
// evaluator (verify/reference.hpp); every Untestable verdict must survive an
// exhaustive sweep of all 2^n source combinations (n = PIs + scan FFs: 9 on
// s27, 19 on s298) through the packed fault-grading engine; and every
// Untestable verdict SAT reached must carry a DRUP proof that the separate
// checker (verify/drup.hpp) accepts.
#include "atpg/circuit_sat.hpp"
#include "atpg/stuck_atpg.hpp"
#include "dft/scan.hpp"
#include "iscas/circuits.hpp"
#include "proof_recorder.hpp"
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

struct VerdictCounts {
    std::size_t untestable = 0;   ///< Untestable verdicts
    std::size_t undetectable = 0; ///< faults the sweep cannot detect
    std::size_t aborted = 0;
    std::size_t sat_proofs = 0;   ///< SAT Untestable verdicts whose proof checked
};

/// The proof SAT left in `rec` must refute its formula.
void expectProofChecks(const ProofRecorder& rec, const std::string& what) {
    const DrupVerdict v = checkDrup(rec.proof());
    EXPECT_TRUE(v.ok) << what << ": DRUP proof rejected at step " << v.step << ": " << v.why;
}

/// Run `generate(fault, pattern, recorder)` on every collapsed fault and
/// check each verdict. The sweep must also find every fault a test was
/// generated for, which keeps it from passing vacuously.
template <typename Generate>
VerdictCounts checkVerdicts(const Netlist& nl, Generate generate) {
    const std::vector<FaultSite> faults = collapsedStuckAtFaults(nl);
    const std::vector<bool> detectable = exhaustivelyDetected(nl, faults);
    VerdictCounts n;
    ProofRecorder rec;
    for (std::size_t i = 0; i < faults.size(); ++i) {
        const FaultSite& f = faults[i];
        if (!detectable[i]) ++n.undetectable;
        Pattern p;
        rec.clear();
        switch (generate(f, p, rec)) {
            case PodemOutcome::Success: {
                const Pattern pats[1] = {p};
                const FaultSite fs[1] = {f};
                EXPECT_TRUE(refStuckAtDetections(nl, pats, fs)[0][0])
                    << nl.name() << ": pattern does not detect " << toString(nl, f);
                EXPECT_TRUE(detectable[i]) << nl.name() << ": sweep misses " << toString(nl, f);
                break;
            }
            case PodemOutcome::Untestable:
                ++n.untestable;
                EXPECT_FALSE(detectable[i]) << nl.name() << ": " << toString(nl, f)
                                            << " declared untestable but a pattern detects it";
                if (rec.used()) {
                    expectProofChecks(rec, nl.name() + " " + toString(nl, f));
                    ++n.sat_proofs;
                }
                break;
            case PodemOutcome::Aborted:
                ++n.aborted;
                break;
        }
    }
    EXPECT_EQ(n.aborted, 0u) << nl.name();
    // Every undetectable fault is proven so.
    EXPECT_EQ(n.untestable, n.undetectable) << nl.name();
    EXPECT_GT(n.untestable, 0u) << nl.name();
    return n;
}

Netlist scanned(const std::string& name) {
    Netlist nl = makeCircuit(name, lib());
    insertScan(nl);
    return nl;
}

/// The combined engine, then SAT alone, on every collapsed fault: both
/// complete, both sound, and every SAT-alone Untestable carries a proof.
void expectComplete(const std::string& name) {
    const Netlist nl = scanned(name);
    Podem podem(nl);
    (void)checkVerdicts(nl, [&](const FaultSite& f, Pattern& p, ProofRecorder& rec) {
        return podem.generate(f, p, &rec);
    });
    CircuitSat sat(nl);
    const std::vector<Logic> free(nl.netCount(), Logic::X);
    const VerdictCounts alone =
        checkVerdicts(nl, [&](const FaultSite& f, Pattern& p, ProofRecorder& rec) {
            return sat.generate(f, free, p, &rec);
        });
    EXPECT_EQ(alone.sat_proofs, alone.untestable) << name;
}

TEST(PodemVerdicts, SoundOnScannedS27) { expectComplete("s27"); }

TEST(PodemVerdicts, SoundOnScannedS298) { expectComplete("s298"); }

// s1423 has too many sources for the sweep, so its check is the other two
// oracles, on the transition top-off's own calls: V2 generation for every
// survivor of the 128 random pairs, and V1 justification of its initial
// value.
TEST(PodemVerdicts, SatProofsAndPatternsCheckOnScannedS1423) {
    const Netlist nl = scanned("s1423");
    const std::vector<TransitionFault> faults = allTransitionFaults(nl);
    Rng rng(11);
    std::vector<TwoPattern> pairs;
    for (int i = 0; i < 128; ++i) {
        TwoPattern tp;
        tp.v1.pis.assign(nl.pis().size(), Logic::X);
        tp.v1.state.assign(nl.flipFlops().size(), Logic::X);
        tp.v2 = tp.v1;
        fillRandom(tp.v1, rng);
        fillRandom(tp.v2, rng);
        pairs.push_back(std::move(tp));
    }
    const FaultSimResult graded = runTransitionFaultSim(nl, pairs, faults);

    Podem podem(nl);
    ProofRecorder rec;
    std::size_t sat_untestable = 0;
    std::size_t sat_success = 0;
    std::size_t aborted = 0;
    for (std::size_t i = 0; i < faults.size(); ++i) {
        if (graded.detected_mask[i]) continue;
        const TransitionFault& tf = faults[i];
        const FaultSite f = tf.equivalentStuckAt();
        Pattern p;
        rec.clear();
        const PodemOutcome v2 = podem.generate(f, p, &rec);
        if (v2 == PodemOutcome::Success) {
            const Pattern pats[1] = {p};
            const FaultSite fs[1] = {f};
            EXPECT_TRUE(refStuckAtDetections(nl, pats, fs)[0][0]) << toString(nl, f);
            sat_success += rec.used() ? 1 : 0;
        } else if (v2 == PodemOutcome::Untestable && rec.used()) {
            expectProofChecks(rec, toString(nl, f));
            ++sat_untestable;
        }
        aborted += v2 == PodemOutcome::Aborted ? 1 : 0;
        if (v2 != PodemOutcome::Success) continue;

        rec.clear();
        const PodemOutcome v1 = podem.justify(tf.net, tf.initialValue(), p, &rec);
        if (v1 == PodemOutcome::Success) {
            EXPECT_EQ(refEval(nl, p)[tf.net], tf.initialValue()) << toString(nl, tf);
            sat_success += rec.used() ? 1 : 0;
        } else if (v1 == PodemOutcome::Untestable && rec.used()) {
            expectProofChecks(rec, toString(nl, tf) + " V1");
            ++sat_untestable;
        }
        aborted += v1 == PodemOutcome::Aborted ? 1 : 0;
    }
    EXPECT_EQ(aborted, 0u);
    EXPECT_GT(sat_untestable, 100u);
    EXPECT_GT(sat_success, 0u);
}

} // namespace
} // namespace flh
