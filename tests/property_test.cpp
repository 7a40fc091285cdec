// Property-based tests: random circuits, cross-module invariants.
//
// A seeded fuzzer produces small random sequential circuits; each property
// is checked across many seeds. These tests are the repository's main
// defense against "plausible but wrong" behavior: each one checks two
// independent computations of the same fact against each other (event-driven
// vs oracle simulation, PODEM vs exhaustive search, PPSFP vs serial fault
// simulation, optimized vs original netlist functionality).
#include "atpg/circuit_sat.hpp"
#include "atpg/stuck_atpg.hpp"
#include "dft/design.hpp"
#include "dft/fanout_opt.hpp"
#include "dft/scan.hpp"
#include "iscas/circuits.hpp"
#include "netlist/bench_io.hpp"
#include "proof_recorder.hpp"
#include "sta/timing.hpp"
#include "util/rng.hpp"
#include "verify/reference.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace flh {
namespace {

const Library& lib() {
    static const Library l = makeDefaultLibrary();
    return l;
}

/// Random circuit specification within the generator's constraints.
CircuitSpec randomSpec(std::uint64_t seed) {
    Rng rng(seed);
    CircuitSpec s;
    s.name = "rand" + std::to_string(seed);
    s.n_pis = rng.range(3, 10);
    s.n_pos = rng.range(2, 5);
    s.n_ffs = rng.range(3, 12);
    s.depth = rng.range(5, 14);
    s.n_comb_gates = rng.range(40, 160);
    s.ff_fanout_avg = 1.5 + rng.uniform() * 2.0;
    s.unique_ratio = 1.0 + rng.uniform() * std::min(2.0, s.ff_fanout_avg - 1.0);
    s.seed = rng.next();
    return s;
}

Netlist randomCircuit(std::uint64_t seed) { return generateCircuit(randomSpec(seed), lib()); }

std::vector<PV> randomSources(const Netlist& nl, Rng& rng) {
    std::vector<PV> s(nl.pis().size() + nl.flipFlops().size());
    for (PV& v : s) v = PV{rng.next(), 0};
    return s;
}

void applySources(PackedSim& sim, const std::vector<PV>& src) {
    const Netlist& nl = sim.netlist();
    std::size_t k = 0;
    for (const NetId pi : nl.pis()) sim.setNet(pi, 0, src[k++]);
    for (const GateId ff : nl.flipFlops()) sim.setNet(nl.gate(ff).output, 0, src[k++]);
}

class RandomCircuit : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomCircuit, StructurallyValid) {
    const Netlist nl = randomCircuit(GetParam());
    EXPECT_NO_THROW(nl.check());
    // Levelization invariant: level(g) = 1 + max(level of producing gates).
    const auto& lv = nl.levels();
    for (const GateId g : nl.topoOrder()) {
        int max_in = 0;
        for (const NetId in : nl.gate(g).inputs) {
            const GateId d = nl.net(in).driver;
            if (d != kInvalidId && !isSequential(nl.gate(d).fn)) max_in = std::max(max_in, lv[d]);
        }
        EXPECT_EQ(lv[g], max_in + 1);
    }
}

TEST_P(RandomCircuit, BenchRoundTripPreservesFunction) {
    const Netlist nl = randomCircuit(GetParam());
    const Netlist back = readBenchString(writeBenchString(nl), nl.name(), lib());
    PackedSim a(nl, 1);
    PackedSim b(back, 1);
    Rng rng(GetParam() ^ 0xBEEF);
    for (int round = 0; round < 4; ++round) {
        const auto src = randomSources(nl, rng);
        applySources(a, src);
        applySources(b, src);
        a.propagate();
        b.propagate();
        // Compare by net name (ids may differ).
        for (NetId n = 0; n < nl.netCount(); ++n) {
            const auto id_b = back.findNet(nl.net(n).name);
            ASSERT_TRUE(id_b.has_value());
            ASSERT_EQ(a.get(n, 0), b.get(*id_b, 0)) << nl.net(n).name;
        }
    }
}

TEST_P(RandomCircuit, EventDrivenEqualsFreshEvaluation) {
    const Netlist nl = randomCircuit(GetParam());
    PackedSim incremental(nl, 1);
    Rng rng(GetParam() ^ 0xF00D);
    auto src = randomSources(nl, rng);
    applySources(incremental, src);
    incremental.propagate();
    for (int round = 0; round < 12; ++round) {
        // Flip one random source and re-propagate incrementally.
        const std::size_t k = rng.below(src.size());
        src[k] = PV{~src[k].v, 0};
        applySources(incremental, src);
        incremental.propagate();

        PackedSim fresh(nl, 1);
        applySources(fresh, src);
        fresh.propagate();
        for (NetId n = 0; n < nl.netCount(); ++n)
            ASSERT_EQ(incremental.get(n, 0), fresh.get(n, 0));
    }
}

TEST_P(RandomCircuit, KleeneInformationMonotonicity) {
    // Resolving an X source never flips an already-definite net value.
    const Netlist nl = randomCircuit(GetParam());
    Rng rng(GetParam() ^ 0xCAFE);
    auto src = randomSources(nl, rng);
    // Make ~1/3 of the sources unknown.
    std::vector<std::size_t> x_positions;
    for (std::size_t i = 0; i < src.size(); ++i) {
        if (rng.chance(0.33)) {
            src[i] = PV::all(Logic::X);
            x_positions.push_back(i);
        }
    }
    PackedSim partial(nl, 1);
    applySources(partial, src);
    partial.propagate();
    // Resolve every X randomly.
    for (const std::size_t i : x_positions) src[i] = PV{rng.next(), 0};
    PackedSim full(nl, 1);
    applySources(full, src);
    full.propagate();
    for (NetId n = 0; n < nl.netCount(); ++n) {
        const PV p = partial.get(n, 0);
        const PV f = full.get(n, 0);
        // Wherever partial was definite, full must agree.
        const std::uint64_t definite = ~p.x;
        ASSERT_EQ(f.x & definite, 0u) << nl.net(n).name;
        ASSERT_EQ((p.v ^ f.v) & definite, 0u) << nl.net(n).name;
    }
}

TEST_P(RandomCircuit, PpsfpMatchesSerialFaultSim) {
    const Netlist nl = randomCircuit(GetParam());
    const auto pats = randomPatterns(nl, 24, GetParam() ^ 0xAB);
    auto faults = collapsedStuckAtFaults(nl);
    faults.resize(std::min<std::size_t>(faults.size(), 80));

    const FaultSimResult batch = runStuckAtFaultSim(nl, pats, faults);
    // Serial: one pattern at a time; union of detections must be identical.
    std::vector<bool> serial(faults.size(), false);
    for (const Pattern& p : pats) {
        const Pattern one[1] = {p};
        const FaultSimResult r = runStuckAtFaultSim(nl, one, faults);
        for (std::size_t i = 0; i < faults.size(); ++i)
            if (r.detected_mask[i]) serial[i] = true;
    }
    for (std::size_t i = 0; i < faults.size(); ++i)
        ASSERT_EQ(batch.detected_mask[i], serial[i]) << toString(nl, faults[i]);
}

TEST_P(RandomCircuit, PpsfpMatchesIsolatedFaultSim) {
    // Regression guard for fault-state restoration: simulating fault B after
    // fault A in one batch must give the same verdict as simulating B alone
    // in a fresh simulator. (Source-net faults once leaked their forced
    // value into subsequent checks.)
    const Netlist nl = randomCircuit(GetParam());
    const auto pats = randomPatterns(nl, 16, GetParam() ^ 0x150);
    auto faults = collapsedStuckAtFaults(nl);
    Rng rng(GetParam() ^ 0x151);
    rng.shuffle(faults);
    faults.resize(std::min<std::size_t>(faults.size(), 50));

    const FaultSimResult batch = runStuckAtFaultSim(nl, pats, faults);
    for (std::size_t i = 0; i < faults.size(); ++i) {
        const FaultSite one[1] = {faults[i]};
        const FaultSimResult isolated = runStuckAtFaultSim(nl, pats, one);
        ASSERT_EQ(batch.detected_mask[i], isolated.detected == 1) << toString(nl, faults[i]);
    }
}

TEST_P(RandomCircuit, PodemSoundOnRandomCircuits) {
    const Netlist nl = randomCircuit(GetParam());
    Podem podem(nl);
    Rng rng(GetParam() ^ 0x50D);
    auto faults = collapsedStuckAtFaults(nl);
    rng.shuffle(faults);
    faults.resize(std::min<std::size_t>(faults.size(), 40));
    for (const FaultSite& f : faults) {
        Pattern p;
        if (podem.generate(f, p) != PodemOutcome::Success) continue;
        fillRandom(p, rng);
        const Pattern one[1] = {p};
        const FaultSite fs[1] = {f};
        ASSERT_EQ(runStuckAtFaultSim(nl, one, fs).detected, 1u) << toString(nl, f);
    }
}

TEST_P(RandomCircuit, StaCriticalPathSelfConsistent) {
    const Netlist nl = randomCircuit(GetParam());
    const TimingResult r = runSta(nl);
    ASSERT_FALSE(r.critical_path.empty());
    // Arrival strictly increases along the path; endpoint = critical delay.
    for (std::size_t i = 1; i < r.critical_path.size(); ++i)
        ASSERT_GT(r.arrival_ps[r.critical_path[i]], r.arrival_ps[r.critical_path[i - 1]]);
    ASSERT_DOUBLE_EQ(r.arrival_ps[r.critical_path.back()], r.critical_delay_ps);
    // Slack: non-negative everywhere, zero along the critical path.
    for (NetId n = 0; n < nl.netCount(); ++n) ASSERT_GE(r.slackPs(n), -1e-9);
    for (const NetId n : r.critical_path) ASSERT_NEAR(r.slackPs(n), 0.0, 1e-9);
}

TEST_P(RandomCircuit, ScanLoadEqualsDirectState) {
    Netlist nl = randomCircuit(GetParam());
    insertScan(nl);
    Rng rng(GetParam() ^ 0x5CA);
    std::vector<PV> target(nl.flipFlops().size());
    for (PV& v : target) v = PV{rng.next(), 0};

    SequentialSim shifted(nl, HoldStyle::Flh);
    shifted.setState(std::vector<PV>(target.size(), PV::all(Logic::Zero)));
    shifted.setHolding(true);
    for (const PV& v : target) shifted.shift(v);
    shifted.setHolding(false);
    EXPECT_EQ(shifted.state(), target);
}

TEST_P(RandomCircuit, FlhHoldFreezesLogicUnderAnyShiftSequence) {
    Netlist nl = randomCircuit(GetParam());
    insertScan(nl);
    SequentialSim seq(nl, HoldStyle::Flh);
    Rng rng(GetParam() ^ 0x401D);
    std::vector<PV> st(seq.ffCount());
    for (PV& v : st) v = PV{rng.next(), 0};
    seq.setState(st);
    std::vector<PV> pis(nl.pis().size());
    for (PV& v : pis) v = PV{rng.next(), 0};
    seq.setPis(pis);
    seq.settle();

    std::vector<PV> before;
    for (const GateId g : nl.topoOrder()) before.push_back(seq.sim().get(nl.gate(g).output, 0));

    seq.setHolding(true);
    for (int i = 0; i < 40; ++i) seq.shift(PV{rng.next(), 0});
    std::size_t k = 0;
    for (const GateId g : nl.topoOrder())
        ASSERT_EQ(seq.sim().get(nl.gate(g).output, 0), before[k++]);
}

TEST_P(RandomCircuit, FanoutOptimizerPreservesFunction) {
    Netlist original = randomCircuit(GetParam());
    insertScan(original);
    Netlist optimized = original;
    const FanoutOptResult r = optimizeFanout(optimized);
    ASSERT_NO_THROW(optimized.check());
    EXPECT_LE(r.first_level_after, r.first_level_before);
    EXPECT_LE(r.delay_after_ps, r.delay_before_ps + 1e-6);

    // Functional equivalence at every PO and FF D input.
    PackedSim a(original, 1);
    PackedSim b(optimized, 1);
    Rng rng(GetParam() ^ 0xE01);
    for (int round = 0; round < 6; ++round) {
        const auto src = randomSources(original, rng);
        applySources(a, src);
        applySources(b, src);
        a.propagate();
        b.propagate();
        for (std::size_t i = 0; i < original.pos().size(); ++i) {
            const NetId po_a = original.pos()[i];
            const auto po_b = optimized.findNet(original.net(po_a).name);
            ASSERT_TRUE(po_b.has_value());
            ASSERT_EQ(a.get(po_a, 0), b.get(*po_b, 0));
        }
        for (std::size_t i = 0; i < original.flipFlops().size(); ++i) {
            const NetId d_a = original.gate(original.flipFlops()[i]).inputs[0];
            const NetId d_b = optimized.gate(optimized.flipFlops()[i]).inputs[0];
            ASSERT_EQ(a.get(d_a, 0), b.get(d_b, 0));
        }
    }
}

TEST_P(RandomCircuit, PowerOverlayMonotone) {
    const Netlist nl = randomCircuit(GetParam());
    const PowerConfig cfg{20, GetParam()};
    const PowerResult base = measureNormalPower(nl, {}, cfg);
    PowerOverlay ov;
    Rng rng(GetParam() ^ 0x90);
    for (NetId n = 0; n < nl.netCount(); ++n)
        if (rng.chance(0.3)) ov.extra_net_cap_ff[n] = 2.0;
    const PowerResult with = measureNormalPower(nl, ov, cfg);
    EXPECT_GE(with.switching_uw, base.switching_uw);
    EXPECT_DOUBLE_EQ(with.leakage_uw, base.leakage_uw);
    EXPECT_EQ(with.toggles, base.toggles); // caps don't change logic activity
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCircuit,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12));

// -------------------------------------------------------- exhaustive PODEM --

/// Exhaustively decide testability of a fault on a circuit with few sources.
bool exhaustivelyTestable(const Netlist& nl, const FaultSite& f) {
    const std::size_t n_src = nl.pis().size() + nl.flipFlops().size();
    if (n_src > 14) throw std::logic_error("too many sources for exhaustive check");
    for (std::uint64_t bits = 0; bits < (1ULL << n_src); ++bits) {
        Pattern p;
        p.pis.resize(nl.pis().size());
        p.state.resize(nl.flipFlops().size());
        for (std::size_t i = 0; i < p.pis.size(); ++i)
            p.pis[i] = (bits >> i) & 1 ? Logic::One : Logic::Zero;
        for (std::size_t i = 0; i < p.state.size(); ++i)
            p.state[i] = (bits >> (p.pis.size() + i)) & 1 ? Logic::One : Logic::Zero;
        const Pattern one[1] = {p};
        const FaultSite fs[1] = {f};
        if (runStuckAtFaultSim(nl, one, fs).detected == 1) return true;
    }
    return false;
}

/// PODEM at 5000 backtracks (which must decide every fault without falling
/// through to SAT), SAT alone, and the exhaustive search must agree on every
/// fault. Each SAT pattern must detect its fault under the reference
/// evaluator, and each SAT Untestable verdict carries a DRUP proof that the
/// independent checker accepts.
void expectEnginesAgree(const Netlist& nl, const std::vector<FaultSite>& faults) {
    PodemConfig cfg;
    cfg.max_backtracks = 5000; // effectively unbounded on this size
    Podem podem(nl, cfg);
    CircuitSat sat(nl);
    const std::vector<Logic> free(nl.netCount(), Logic::X);
    ProofRecorder rec;
    for (const FaultSite& f : faults) {
        const bool testable = exhaustivelyTestable(nl, f);
        Pattern p;
        rec.clear();
        const PodemOutcome by_podem = podem.generate(f, p, &rec);
        EXPECT_FALSE(rec.used()) << nl.name() << " " << toString(nl, f) << ": PODEM gave up";
        EXPECT_EQ(by_podem == PodemOutcome::Success, testable) << nl.name() << " " << toString(nl, f);

        rec.clear();
        const PodemOutcome by_sat = sat.generate(f, free, p, &rec);
        ASSERT_NE(by_sat, PodemOutcome::Aborted) << nl.name() << " " << toString(nl, f);
        EXPECT_EQ(by_sat == PodemOutcome::Success, testable) << nl.name() << " " << toString(nl, f);
        if (by_sat == PodemOutcome::Success) {
            const Pattern pats[1] = {p};
            const FaultSite fs[1] = {f};
            EXPECT_TRUE(refStuckAtDetections(nl, pats, fs)[0][0]) << toString(nl, f);
        } else {
            const DrupVerdict v = checkDrup(rec.proof());
            EXPECT_TRUE(v.ok) << toString(nl, f) << ": " << v.why << " at step " << v.step;
        }
    }
}

TEST(PodemComplete, AgreesWithExhaustiveSearchOnS27) {
    const Netlist nl = makeS27(lib());
    expectEnginesAgree(nl, collapsedStuckAtFaults(nl));
}

TEST(PodemComplete, AgreesWithExhaustiveSearchOnRandomTinyCircuits) {
    for (std::uint64_t seed = 100; seed < 106; ++seed) {
        Rng rng(seed);
        CircuitSpec s;
        s.name = "tiny" + std::to_string(seed);
        s.n_pis = rng.range(3, 5);
        s.n_pos = 2;
        s.n_ffs = rng.range(3, 5);
        s.depth = rng.range(4, 7);
        s.n_comb_gates = rng.range(20, 40);
        s.ff_fanout_avg = 2.0;
        s.unique_ratio = 1.5;
        s.seed = rng.next();
        const Netlist nl = generateCircuit(s, lib());

        auto faults = collapsedStuckAtFaults(nl);
        Rng pick(seed ^ 0x77);
        pick.shuffle(faults);
        faults.resize(25);
        expectEnginesAgree(nl, faults);
    }
}

} // namespace
} // namespace flh
