// Event-driven engine tests: the SIMD block kernel against the scalar cell
// evaluator, PackedSim against a naive topological evaluation net-for-net
// at every width, its holding, fault-injection, rollback and toggle
// contracts, and the packed fault-simulation path against the naive
// reference (verify/reference.hpp) bitmap-for-bitmap.
#include "fault/parallel_sim.hpp"
#include "iscas/circuits.hpp"
#include "sim/packed_sim.hpp"
#include "util/rng.hpp"
#include "verify/reference.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace flh {
namespace {

const Library& lib() {
    static const Library l = makeDefaultLibrary();
    return l;
}

// Every combinational cell function with the arities the evaluator accepts.
struct FnArity {
    CellFn fn;
    std::size_t lo;
    std::size_t hi;
};

const std::vector<FnArity>& combFns() {
    static const std::vector<FnArity> fns = {
        {CellFn::Buf, 1, 1},   {CellFn::Inv, 1, 1},   {CellFn::And, 2, kMaxGateArity},
        {CellFn::Nand, 2, kMaxGateArity}, {CellFn::Or, 2, kMaxGateArity},
        {CellFn::Nor, 2, kMaxGateArity},  {CellFn::Xor, 2, kMaxGateArity},
        {CellFn::Xnor, 2, kMaxGateArity}, {CellFn::Aoi21, 3, 3}, {CellFn::Aoi22, 4, 4},
        {CellFn::Oai21, 3, 3}, {CellFn::Oai22, 4, 4},  {CellFn::Mux2, 3, 3},
    };
    return fns;
}

PV randomPv(Rng& rng) {
    const std::uint64_t x = rng.next() & rng.next(); // sparse unknowns
    return PV{rng.next() & ~x, x};
}

// The block kernel must agree with evalCell word-for-word at every width and
// at every SIMD level the host supports (scalar tail handling included).
TEST(LogicBlock, MatchesEvalCellAtEveryWidthAndSimdLevel) {
    const SimdLevel detected = detectedSimdLevel();
    Rng rng(11);
    for (const SimdLevel level : {SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512}) {
        if (level > detected) continue;
        setSimdLevel(level);
        ASSERT_EQ(activeSimdLevel(), level);
        for (const FnArity& fa : combFns()) {
            for (std::size_t arity = fa.lo; arity <= fa.hi; ++arity) {
                for (unsigned words = 1; words <= kMaxPackedWords; ++words) {
                    std::vector<std::vector<std::uint64_t>> iv(arity), ix(arity);
                    std::vector<const std::uint64_t*> pv(arity), px(arity);
                    std::vector<std::vector<PV>> per_word(words, std::vector<PV>(arity));
                    for (std::size_t i = 0; i < arity; ++i) {
                        iv[i].resize(words);
                        ix[i].resize(words);
                        for (unsigned w = 0; w < words; ++w) {
                            const PV p = randomPv(rng);
                            iv[i][w] = p.v;
                            ix[i][w] = p.x;
                            per_word[w][i] = p;
                        }
                        pv[i] = iv[i].data();
                        px[i] = ix[i].data();
                    }
                    std::vector<std::uint64_t> ov(words, ~0ULL), ox(words, ~0ULL);
                    evalCellBlock(fa.fn, pv.data(), px.data(), arity, ov.data(), ox.data(),
                                  words);
                    for (unsigned w = 0; w < words; ++w) {
                        const PV want = evalCell(fa.fn, per_word[w]);
                        ASSERT_EQ((PV{ov[w], ox[w]}), want)
                            << toString(fa.fn) << " arity " << arity << " words " << words
                            << " word " << w << " level " << toString(level);
                    }
                }
            }
        }
    }
    setSimdLevel(detected); // restore for the rest of the binary
}

TEST(PackedSim, CtorRejectsInvalidWordCounts) {
    const Netlist nl = makeS27(lib());
    EXPECT_THROW(PackedSim(nl, 0), std::invalid_argument);
    EXPECT_THROW(PackedSim(nl, kMaxPackedWords + 1), std::invalid_argument);
    EXPECT_NO_THROW(PackedSim(nl, 1));
    EXPECT_NO_THROW(PackedSim(nl, kMaxPackedWords));
}

std::vector<std::vector<PV>> randomWordSources(const Netlist& nl, unsigned words, Rng& rng,
                                               bool with_x) {
    // sources[w][k]: word w's PV for source k (PIs then FF outputs).
    std::vector<std::vector<PV>> s(words);
    const std::size_t n = nl.pis().size() + nl.flipFlops().size();
    for (unsigned w = 0; w < words; ++w) {
        s[w].resize(n);
        for (PV& p : s[w]) p = with_x ? randomPv(rng) : PV{rng.next(), 0};
    }
    return s;
}

void applyWordSources(PackedSim& sim, const std::vector<std::vector<PV>>& src) {
    const Netlist& nl = sim.netlist();
    for (unsigned w = 0; w < src.size(); ++w) {
        std::size_t k = 0;
        for (const NetId pi : nl.pis()) sim.setNet(pi, w, src[w][k++]);
        for (const GateId ff : nl.flipFlops()) sim.setNet(nl.gate(ff).output, w, src[w][k++]);
    }
}

// Each word of the packed engine must match the naive reference's
// evaluation of that word's sources — including X-laden sources — at every
// width, W = 1 included.
void expectMatchesOraclePerWord(const Netlist& nl, std::uint64_t seed, bool with_x) {
    for (const unsigned words : {1u, 4u, 8u}) {
        PackedSim packed(nl, words);
        Rng rng(seed + words);
        for (int round = 0; round < 6; ++round) {
            const auto src = randomWordSources(nl, words, rng, with_x);
            applyWordSources(packed, src);
            packed.propagate();
            for (unsigned w = 0; w < words; ++w) {
                const auto want = refEvalWord(nl, src[w]);
                for (NetId n = 0; n < nl.netCount(); ++n)
                    ASSERT_EQ(packed.get(n, w), want[n])
                        << "net " << nl.net(n).name << " words " << words << " word " << w
                        << " round " << round;
            }
        }
    }
}

TEST(PackedSim, MatchesOracleOnS27) { expectMatchesOraclePerWord(makeS27(lib()), 100, false); }

TEST(PackedSim, MatchesOracleOnSyntheticCircuit) {
    expectMatchesOraclePerWord(makeCircuit("s298", lib()), 200, false);
}

TEST(PackedSim, MatchesOracleWithUnknowns) {
    expectMatchesOraclePerWord(makeCircuit("s344", lib()), 300, true);
}

TEST(PackedSim, EventDrivenSkipsUnaffectedLogic) {
    const Netlist nl = makeCircuit("s344", lib());
    for (const unsigned words : {1u, 4u}) {
        PackedSim sim(nl, words);
        Rng rng(303);
        const auto src = randomWordSources(nl, words, rng, false);
        applyWordSources(sim, src);
        const std::size_t full = sim.propagate();
        EXPECT_GT(full, 0u);
        // Re-applying the identical sources must evaluate nothing.
        applyWordSources(sim, src);
        EXPECT_EQ(sim.propagate(), 0u);
        // Flipping one word of one PI must evaluate only its cone.
        const NetId pi = nl.pis()[0];
        const unsigned w = words - 1;
        const PV cur = sim.get(pi, w);
        sim.setNet(pi, w, PV{~cur.v, 0});
        const std::size_t partial = sim.propagate();
        EXPECT_GT(partial, 0u) << "words " << words;
        EXPECT_LT(partial, full) << "words " << words;
    }
}

TEST(PackedSim, HeldGateFreezesOutput) {
    const Netlist nl = makeS27(lib());
    for (const unsigned words : {1u, 4u}) {
        PackedSim sim(nl, words);
        Rng rng(404);
        const auto src = randomWordSources(nl, words, rng, false);
        applyWordSources(sim, src);
        sim.propagate();

        const GateId g = nl.uniqueFirstLevelGates()[0];
        const NetId out = nl.gate(g).output;
        std::vector<PV> before(words);
        for (unsigned w = 0; w < words; ++w) before[w] = sim.get(out, w);

        sim.setHeld(g, true);
        EXPECT_TRUE(sim.isHeld(g));
        // Change every source; the held gate's output must not move.
        auto flipped = src;
        for (auto& word : flipped)
            for (PV& v : word) v = PV{~v.v, 0};
        applyWordSources(sim, flipped);
        sim.propagate();
        for (unsigned w = 0; w < words; ++w) EXPECT_EQ(sim.get(out, w), before[w]);

        // Releasing re-evaluates with the *current* inputs.
        sim.setHeld(g, false);
        EXPECT_FALSE(sim.isHeld(g));
        sim.propagate();
        for (unsigned w = 0; w < words; ++w)
            EXPECT_EQ(sim.get(out, w), refEvalWord(nl, flipped[w])[out]) << "word " << w;

        // reset() releases every hold.
        sim.setHeldAll({g}, true);
        sim.reset();
        EXPECT_FALSE(sim.isHeld(g));
    }
}

TEST(PackedSim, OutputStuckFaultForcesNet) {
    const Netlist nl = makeS27(lib());
    PackedSim sim(nl, 1);
    Rng rng(505);
    const auto src = randomWordSources(nl, 1, rng, false);
    applyWordSources(sim, src);
    sim.propagate();

    const GateId g = nl.topoOrder()[0];
    const NetId out = nl.gate(g).output;
    FaultSite f;
    f.net = out;
    f.stuck_at_one = true;
    sim.injectFault(f);
    sim.propagate();
    EXPECT_EQ(sim.get(out, 0), PV::all(Logic::One));

    sim.clearFault();
    sim.propagate();
    // Good value restored.
    const auto want = refEvalWord(nl, src[0]);
    for (NetId n = 0; n < nl.netCount(); ++n) EXPECT_EQ(sim.get(n, 0), want[n]);
}

TEST(PackedSim, PinStuckFaultAffectsOnlyThatBranch) {
    // Build: y1 = NOT(a) ; y2 = NOT(a). Stuck fault on y1's input pin must
    // leave y2 healthy (that is what distinguishes pin from net faults).
    Netlist nl("branch", lib());
    const NetId a = nl.addPi("a");
    const NetId y1 = nl.addNet("y1");
    const NetId y2 = nl.addNet("y2");
    const GateId g1 = nl.addGate(CellFn::Inv, {a}, y1);
    nl.addGate(CellFn::Inv, {a}, y2);
    nl.markPo(y1);
    nl.markPo(y2);

    PackedSim sim(nl, 1);
    sim.setNet(a, 0, PV::all(Logic::Zero));
    sim.propagate();
    EXPECT_EQ(sim.get(y1, 0), PV::all(Logic::One));

    FaultSite f;
    f.net = a;
    f.gate = g1;
    f.pin = 0;
    f.stuck_at_one = true;
    sim.injectFault(f);
    sim.propagate();
    EXPECT_EQ(sim.get(y1, 0), PV::all(Logic::Zero)); // faulty branch
    EXPECT_EQ(sim.get(y2, 0), PV::all(Logic::One));  // healthy branch
}

TEST(PackedSim, ClearFaultRestoresExactPreInjectState) {
    // clearFault restores via the recorded event frontier: every net must
    // come back bit-exact immediately, with no propagate() needed.
    const Netlist nl = makeS27(lib());
    for (const unsigned words : {1u, 4u}) {
        PackedSim sim(nl, words);
        Rng rng(606);
        applyWordSources(sim, randomWordSources(nl, words, rng, false));
        sim.propagate();
        std::vector<PV> before(nl.netCount() * words);
        for (NetId n = 0; n < nl.netCount(); ++n)
            for (unsigned w = 0; w < words; ++w) before[n * words + w] = sim.get(n, w);

        for (const FaultSite& f : {
                 FaultSite{nl.gate(nl.topoOrder()[0]).output, kInvalidId, -1, true},
                 FaultSite{nl.pis()[0], kInvalidId, -1, false},
                 FaultSite{nl.gate(nl.topoOrder()[1]).inputs[0], nl.topoOrder()[1], 0, true},
             }) {
            sim.injectFault(f);
            sim.propagate();
            if (!f.isPinFault()) {
                for (unsigned w = 0; w < words; ++w)
                    ASSERT_EQ(sim.get(f.net, w),
                              PV::all(f.stuck_at_one ? Logic::One : Logic::Zero));
            }
            sim.clearFault();
            for (NetId n = 0; n < nl.netCount(); ++n)
                for (unsigned w = 0; w < words; ++w)
                    ASSERT_EQ(sim.get(n, w), before[n * words + w])
                        << "net " << nl.net(n).name << " words " << words;
            // A follow-up propagate must also be a no-op.
            sim.propagate();
            for (NetId n = 0; n < nl.netCount(); ++n)
                for (unsigned w = 0; w < words; ++w)
                    ASSERT_EQ(sim.get(n, w), before[n * words + w]);
        }
    }
}

// injectFault's slot mask: the faulted slots must carry exactly the fully
// injected machine, every other slot exactly the fault-free one, for every
// collapsed net and pin fault, and clearFault must restore the
// pre-injection planes bit-exact.
TEST(PackedSim, FaultConfinedToSlotMask) {
    for (const Netlist& nl : {makeS27(lib()), makeCircuit("s298", lib())}) {
        for (const unsigned words : {1u, 4u}) {
            const std::size_t planes = nl.netCount() * words;
            const auto snapshot = [&](const PackedSim& sim) {
                std::vector<PV> out(planes);
                for (NetId n = 0; n < nl.netCount(); ++n)
                    for (unsigned w = 0; w < words; ++w) out[n * words + w] = sim.get(n, w);
                return out;
            };
            Rng rng(707 + words);
            const auto src = randomWordSources(nl, words, rng, true);
            PackedSim full(nl, words);
            PackedSim masked(nl, words);
            applyWordSources(full, src);
            applyWordSources(masked, src);
            full.propagate();
            masked.propagate();
            const std::vector<PV> clean = snapshot(masked);
            std::size_t pin_faults = 0;
            for (const FaultSite& f : collapsedStuckAtFaults(nl)) {
                pin_faults += f.isPinFault() ? 1 : 0;
                full.injectFault(f);
                full.propagate();
                const std::vector<PV> faulty = snapshot(full);
                full.clearFault();

                const std::uint64_t m = rng.next() | 0b10; // slot 1 is PODEM's
                masked.injectFault(f, m);
                masked.propagate();
                const std::vector<PV> got = snapshot(masked);
                for (std::size_t i = 0; i < planes; ++i) {
                    const PV want{(faulty[i].v & m) | (clean[i].v & ~m),
                                  (faulty[i].x & m) | (clean[i].x & ~m)};
                    ASSERT_EQ(got[i], want)
                        << nl.name() << " net " << nl.net(static_cast<NetId>(i / words)).name
                        << " words " << words << " fault " << toString(nl, f);
                }
                masked.clearFault();
                ASSERT_EQ(snapshot(masked), clean) << nl.name() << " " << toString(nl, f);
            }
            EXPECT_GT(pin_faults, 0u) << nl.name();
        }
    }
}

TEST(PackedSim, ResetClearsFaultState) {
    // Regression: a net-fault restore value recorded before reset() must not
    // leak into a clearFault() issued after the reset.
    const Netlist nl = makeS27(lib());
    PackedSim sim(nl, 1);
    Rng rng(707);
    applyWordSources(sim, randomWordSources(nl, 1, rng, false));
    sim.propagate();

    FaultSite f;
    f.net = nl.pis()[0]; // source net: old code restored a saved value
    f.stuck_at_one = true;
    sim.injectFault(f);
    sim.propagate();

    sim.reset();
    const auto src_b = randomWordSources(nl, 1, rng, false);
    applyWordSources(sim, src_b);
    sim.propagate();
    sim.clearFault(); // no fault active: must be a complete no-op
    sim.propagate();

    const auto want = refEvalWord(nl, src_b[0]);
    for (NetId n = 0; n < nl.netCount(); ++n)
        EXPECT_EQ(sim.get(n, 0), want[n]) << "net " << nl.net(n).name;
}

TEST(PackedSim, ResetThenReinjectGradesCleanly) {
    // PODEM-style usage: reset, re-inject, assign sources with the fault
    // active. The stale undo log from before the reset must be gone.
    const Netlist nl = makeS27(lib());
    PackedSim sim(nl, 1);
    Rng rng(808);
    applyWordSources(sim, randomWordSources(nl, 1, rng, false));
    sim.propagate();
    FaultSite f;
    f.net = nl.gate(nl.topoOrder()[0]).output;
    f.stuck_at_one = true;
    sim.injectFault(f);
    sim.propagate();

    sim.reset();
    sim.injectFault(f);
    const auto src = randomWordSources(nl, 1, rng, false);
    applyWordSources(sim, src);
    sim.propagate();
    EXPECT_EQ(sim.get(f.net, 0), PV::all(Logic::One)); // fault holds

    // clearFault rolls back to the post-reset state (the sources were set
    // while the fault was active); re-applying them must give the good
    // machine with no residue of the faulty excursion.
    sim.clearFault();
    applyWordSources(sim, src);
    sim.propagate();
    const auto want = refEvalWord(nl, src[0]);
    for (NetId n = 0; n < nl.netCount(); ++n)
        EXPECT_EQ(sim.get(n, 0), want[n]) << "net " << nl.net(n).name;
}

TEST(PackedSim, ToggleCounting) {
    Netlist nl("t", lib());
    const NetId a = nl.addPi("a");
    const NetId y = nl.addNet("y");
    nl.addGate(CellFn::Inv, {a}, y);
    nl.markPo(y);

    PackedSim sim(nl, 1);
    sim.enableToggleCount(true);
    sim.setNet(a, 0, PV::all(Logic::Zero));
    sim.propagate();
    sim.clearToggleCounts(); // ignore the X->known initialization edge
    sim.setNet(a, 0, PV::all(Logic::One));
    sim.propagate();
    // 64 slots flipped on both nets.
    EXPECT_EQ(sim.toggleCounts()[a], 64u);
    EXPECT_EQ(sim.toggleCounts()[y], 64u);
    EXPECT_EQ(sim.totalToggles(), 128u);
}

TEST(PackedSim, ToggleCountsImmuneToFaultGrading) {
    // Regression: toggle counting used to keep running while a fault was
    // injected, so PPSFP grading contaminated the power numbers with faulty
    // excursions. Counting is suspended while a fault is active: grading
    // (inject / propagate / clear) must leave the counts exactly as a
    // fault-free run of the same stimuli would.
    const Netlist nl = makeS27(lib());
    for (const unsigned words : {1u, 4u}) {
        Rng rng(909);
        const auto src_a = randomWordSources(nl, words, rng, false);
        const auto src_b = randomWordSources(nl, words, rng, false);

        PackedSim clean(nl, words);
        clean.enableToggleCount(true);
        applyWordSources(clean, src_a);
        clean.propagate();
        applyWordSources(clean, src_b);
        clean.propagate();

        PackedSim graded(nl, words);
        graded.enableToggleCount(true);
        applyWordSources(graded, src_a);
        graded.propagate();
        for (const GateId g : {nl.topoOrder()[0], nl.topoOrder()[2]}) {
            for (const bool sa1 : {false, true}) {
                FaultSite f;
                f.net = nl.gate(g).output;
                f.stuck_at_one = sa1;
                graded.injectFault(f);
                graded.propagate();
                graded.clearFault();
            }
        }
        applyWordSources(graded, src_b);
        graded.propagate();

        EXPECT_EQ(graded.totalToggles(), clean.totalToggles()) << "words " << words;
        EXPECT_EQ(graded.toggleCounts(), clean.toggleCounts()) << "words " << words;
    }
}

TEST(PackedSim, XToKnownIsNotAToggle) {
    Netlist nl("t", lib());
    const NetId a = nl.addPi("a");
    const NetId y = nl.addNet("y");
    nl.addGate(CellFn::Inv, {a}, y);
    PackedSim sim(nl, 1);
    sim.enableToggleCount(true);
    sim.setNet(a, 0, PV::all(Logic::One));
    sim.propagate();
    EXPECT_EQ(sim.totalToggles(), 0u);
}

// ---------------------------------------------------------- fault bitmaps ----

std::vector<TwoPattern> randomTests(const Netlist& nl, std::size_t count, std::uint64_t seed) {
    const auto v1 = randomPatterns(nl, count, seed);
    const auto v2 = randomPatterns(nl, count, seed ^ 0xABCD);
    std::vector<TwoPattern> tests(count);
    for (std::size_t i = 0; i < count; ++i) tests[i] = TwoPattern{v1[i], v2[i]};
    return tests;
}

// Stuck-at bitmap of the naive reference: a fault is detected iff some
// pattern detects it.
std::vector<bool> referenceStuckAtMask(const Netlist& nl, const std::vector<Pattern>& pats,
                                       const std::vector<FaultSite>& faults) {
    std::vector<bool> mask;
    for (const std::vector<bool>& per_pattern : refStuckAtDetections(nl, pats, faults))
        mask.push_back(std::find(per_pattern.begin(), per_pattern.end(), true) !=
                       per_pattern.end());
    return mask;
}

// The packed engine at every width must produce the identical detected
// bitmap to the naive scalar reference, including for partial final blocks.
TEST(PackedFaultSim, StuckAtBitmapsMatchScalarOracle) {
    const Netlist nl = makeCircuit("s386", lib());
    const auto faults = collapsedStuckAtFaults(nl);
    for (const std::size_t count : {37u, 100u, 130u, 520u}) {
        const auto pats = randomPatterns(nl, count, 42 + count);
        const std::vector<bool> want = referenceStuckAtMask(nl, pats, faults);
        for (const unsigned words : {1u, 4u, 8u}) {
            FaultSimOptions opts;
            opts.words = words;
            const FaultSimResult got = runStuckAtFaultSim(nl, pats, faults, opts);
            EXPECT_EQ(got.detected,
                      static_cast<std::size_t>(std::count(want.begin(), want.end(), true)))
                << count << " patterns, words " << words;
            ASSERT_EQ(got.detected_mask, want) << count << " patterns, words " << words;
        }
    }
}

TEST(PackedFaultSim, TransitionBitmapsMatchScalarOracle) {
    const Netlist nl = makeCircuit("s510", lib());
    const auto faults = allTransitionFaults(nl);
    for (const std::size_t count : {50u, 130u}) {
        const auto tests = randomTests(nl, count, 7 + count);
        std::vector<bool> want;
        for (const std::size_t n : refTransitionDetections(nl, tests, faults))
            want.push_back(n > 0);
        for (const unsigned words : {1u, 4u, 8u}) {
            FaultSimOptions opts;
            opts.words = words;
            const FaultSimResult got = runTransitionFaultSim(nl, tests, faults, opts);
            ASSERT_EQ(got.detected_mask, want) << count << " tests, words " << words;
        }
    }
}

TEST(PackedFaultSim, NDetectCountsMatchScalarOracle) {
    const Netlist nl = makeCircuit("s298", lib());
    const auto faults = allTransitionFaults(nl);
    const auto tests = randomTests(nl, 130, 99);
    const auto want = refTransitionDetections(nl, tests, faults);
    for (const unsigned words : {1u, 4u, 8u}) {
        FaultSimOptions opts;
        opts.words = words;
        const auto got = countTransitionDetections(nl, tests, faults, opts);
        ASSERT_EQ(got, want) << "words " << words;
    }
}

TEST(PackedFaultSim, ThreadCountDoesNotChangePackedBitmap) {
    const Netlist nl = makeCircuit("s386", lib());
    const auto faults = collapsedStuckAtFaults(nl);
    const auto pats = randomPatterns(nl, 200, 5);
    FaultSimOptions base;
    base.words = 8;
    base.min_faults_per_worker = 1; // force a real pool even on small lists
    const FaultSimResult want = runStuckAtFaultSim(nl, pats, faults, base);
    for (const unsigned threads : {2u, 4u}) {
        FaultSimOptions opts = base;
        opts.threads = threads;
        const FaultSimResult got = runStuckAtFaultSim(nl, pats, faults, opts);
        ASSERT_EQ(got.detected_mask, want.detected_mask) << "threads " << threads;
    }
}

} // namespace
} // namespace flh
