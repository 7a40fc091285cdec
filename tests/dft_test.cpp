#include "dft/chain_order.hpp"
#include "dft/design.hpp"
#include "dft/fanout_opt.hpp"
#include "dft/scan.hpp"
#include "flow/hash.hpp"
#include "iscas/circuits.hpp"
#include "netlist/bench_io.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>

namespace flh {
namespace {

const Library& lib() {
    static const Library l = makeDefaultLibrary();
    return l;
}

Netlist scanned(const std::string& name) {
    Netlist nl = makeCircuit(name, lib());
    insertScan(nl);
    return nl;
}

TEST(ScanInsertion, ReplacesAllFfsAndStitchesChain) {
    Netlist nl = makeCircuit("s298", lib());
    const std::size_t n_ffs = nl.flipFlops().size();
    const ScanInfo info = insertScan(nl);
    EXPECT_TRUE(isFullScan(nl));
    EXPECT_EQ(info.chain_length, n_ffs);
    // Every SDFF's SE pin is the TC net; SI pins form a chain.
    for (const GateId ff : nl.flipFlops()) {
        EXPECT_EQ(nl.gate(ff).fn, CellFn::Sdff);
        EXPECT_EQ(nl.gate(ff).inputs[2], info.test_control);
    }
    const auto& ffs = nl.flipFlops();
    for (std::size_t i = 0; i + 1 < ffs.size(); ++i)
        EXPECT_EQ(nl.gate(ffs[i]).inputs[1], nl.gate(ffs[i + 1]).output);
    EXPECT_EQ(nl.gate(ffs.back()).inputs[1], info.scan_in);
    EXPECT_EQ(info.scan_out, nl.gate(ffs.front()).output);
}

TEST(ScanInsertion, IdempotenceGuard) {
    Netlist nl = makeCircuit("s298", lib());
    insertScan(nl);
    EXPECT_THROW(insertScan(nl), std::invalid_argument);
}

TEST(ScanInsertion, NoFlipFlopsRejected) {
    Netlist nl("comb", lib());
    const NetId a = nl.addPi("a");
    const NetId y = nl.addNet("y");
    nl.addGate(CellFn::Inv, {a}, y);
    nl.markPo(y);
    EXPECT_THROW(insertScan(nl), std::invalid_argument);
}

TEST(ScanInsertion, AddsAreaButKeepsLogicDepth) {
    Netlist nl = makeCircuit("s344", lib());
    const double area0 = nl.totalAreaUm2();
    const int depth0 = nl.logicDepth();
    insertScan(nl);
    EXPECT_GT(nl.totalAreaUm2(), area0);
    EXPECT_EQ(nl.logicDepth(), depth0);
}

TEST(DftDesign, PlanShapes) {
    const Netlist nl = scanned("s298");
    EXPECT_TRUE(planDft(nl, HoldStyle::EnhancedScan).gated_gates.empty());
    const DftDesign flh = planDft(nl, HoldStyle::Flh);
    EXPECT_EQ(flh.gated_gates.size(), nl.uniqueFirstLevelGates().size());
}

TEST(DftDesign, AreaAccountsPerElement) {
    const Netlist nl = scanned("s298");
    const Tech& t = lib().tech();
    const double n_ffs = static_cast<double>(nl.flipFlops().size());
    EXPECT_DOUBLE_EQ(dftAreaUm2(nl, planDft(nl, HoldStyle::EnhancedScan)),
                     n_ffs * HoldLatchSpec{}.areaUm2(t));
    EXPECT_DOUBLE_EQ(dftAreaUm2(nl, planDft(nl, HoldStyle::MuxHold)),
                     n_ffs * MuxHoldSpec{}.areaUm2(t));
    const DftDesign flh = planDft(nl, HoldStyle::Flh);
    double flh_area = 0.0;
    for (const GateId g : flh.gated_gates) flh_area += flhGateAreaUm2(nl, g, FlhGatingSpec{});
    EXPECT_DOUBLE_EQ(dftAreaUm2(nl, flh), flh_area);
    // Per-gate proportional sizing: every gated gate costs at least the
    // nominal (drive-1) hardware.
    EXPECT_GE(flh_area,
              static_cast<double>(flh.gated_gates.size()) * FlhGatingSpec{}.areaUm2(t));
    EXPECT_DOUBLE_EQ(dftAreaUm2(nl, planDft(nl, HoldStyle::None)), 0.0);
}

class StyleComparison : public ::testing::TestWithParam<const char*> {};

TEST_P(StyleComparison, PaperOrderingsHold) {
    const Netlist nl = scanned(GetParam());
    const PowerConfig pc{50, 11};
    const DftEvaluation enh = evaluateDft(nl, planDft(nl, HoldStyle::EnhancedScan), pc);
    const DftEvaluation mux = evaluateDft(nl, planDft(nl, HoldStyle::MuxHold), pc);
    const DftEvaluation flh = evaluateDft(nl, planDft(nl, HoldStyle::Flh), pc);

    // Delay (Table II): MUX worst, FLH best.
    EXPECT_GT(mux.delay_increase_pct, enh.delay_increase_pct);
    EXPECT_LT(flh.delay_increase_pct, enh.delay_increase_pct);

    // Power (Table III): enhanced scan worst by far, FLH near zero.
    EXPECT_GT(enh.power_increase_pct, mux.power_increase_pct);
    EXPECT_LT(flh.power_increase_pct, 0.5 * mux.power_increase_pct);

    // Area (Table I): enhanced > MUX on every circuit; FLH wins except at
    // extreme unique-fanout ratios (s838-like).
    EXPECT_GT(enh.area_increase_pct, mux.area_increase_pct);
    const double ratio = static_cast<double>(nl.uniqueFirstLevelGates().size()) /
                         static_cast<double>(nl.flipFlops().size());
    if (ratio < 2.3) {
        EXPECT_LT(flh.area_increase_pct, mux.area_increase_pct);
    }
}

INSTANTIATE_TEST_SUITE_P(Circuits, StyleComparison,
                         ::testing::Values("s298", "s344", "s386", "s641", "s1196"));

TEST(DftDesign, S838IsFlhWorstCaseForArea) {
    const Netlist nl = scanned("s838"); // unique ratio 3.0
    const DftDesign enh = planDft(nl, HoldStyle::EnhancedScan);
    const DftDesign flh = planDft(nl, HoldStyle::Flh);
    EXPECT_GT(dftAreaUm2(nl, flh), dftAreaUm2(nl, enh));
}

TEST(DftDesign, FlhDelayOverheadReduction) {
    // The headline claim: ~71% average improvement in delay overhead.
    double sum = 0.0;
    int n = 0;
    for (const char* name : {"s298", "s344", "s641", "s1196"}) {
        const Netlist nl = scanned(name);
        const TimingResult base = runSta(nl);
        const TimingResult enh = runSta(nl, makeTimingOverlay(nl, planDft(nl, HoldStyle::EnhancedScan)));
        const TimingResult flh = runSta(nl, makeTimingOverlay(nl, planDft(nl, HoldStyle::Flh)));
        const double ovh_enh = enh.critical_delay_ps - base.critical_delay_ps;
        const double ovh_flh = flh.critical_delay_ps - base.critical_delay_ps;
        ASSERT_GT(ovh_enh, 0.0) << name;
        EXPECT_GE(ovh_flh, 0.0) << name;
        sum += overheadImprovementPct(ovh_enh, ovh_flh);
        ++n;
    }
    const double avg = sum / n;
    EXPECT_GT(avg, 45.0);
    EXPECT_LT(avg, 95.0);
}

TEST(DftDesign, EvaluateIsSelfConsistent) {
    const Netlist nl = scanned("s298");
    const DftEvaluation e = evaluateDft(nl, planDft(nl, HoldStyle::Flh), {30, 3});
    EXPECT_NEAR(e.area_increase_pct, 100.0 * e.dft_area_um2 / e.base_area_um2, 1e-9);
    EXPECT_NEAR(e.delay_increase_pct,
                100.0 * (e.delay_ps - e.base_delay_ps) / e.base_delay_ps, 1e-9);
}

TEST(OverheadImprovement, Formula) {
    EXPECT_DOUBLE_EQ(overheadImprovementPct(10.0, 3.0), 70.0);
    EXPECT_DOUBLE_EQ(overheadImprovementPct(0.0, 3.0), 0.0);
}

// --------------------------------------------------------- fanout optimizer

TEST(FanoutOpt, ReducesFirstLevelGatesOnHighFanoutCircuit) {
    Netlist nl = scanned("s838"); // ratio 3.0: prime optimization target
    const FanoutOptResult r = optimizeFanout(nl);
    EXPECT_GT(r.ffs_optimized, 0u);
    EXPECT_LT(r.first_level_after, r.first_level_before);
    nl.check();
}

TEST(FanoutOpt, DelayConstraintHeld) {
    for (const char* name : {"s838", "s1423", "s298"}) {
        Netlist nl = scanned(name);
        const FanoutOptResult r = optimizeFanout(nl);
        // "No inverter is added in the critical path ... maximum circuit
        // delay is kept unaltered." Unloading critical FF outputs may even
        // speed the path up; it must never slow down.
        EXPECT_LE(r.delay_after_ps, r.delay_before_ps + 1e-6) << name;
    }
}

TEST(FanoutOpt, NetlistStaysValidAndLogicEquivalentShape) {
    Netlist nl = scanned("s838");
    const auto stats_before = computeStats(nl);
    const FanoutOptResult r = optimizeFanout(nl);
    const auto stats_after = computeStats(nl);
    EXPECT_EQ(stats_after.n_ffs, stats_before.n_ffs);
    EXPECT_EQ(stats_after.n_comb_gates, stats_before.n_comb_gates + r.inverters_added);
    EXPECT_NO_THROW(nl.check());
}

TEST(FanoutOpt, ShrinksFlhArea) {
    Netlist nl = scanned("s838");
    const double before = dftAreaUm2(nl, planDft(nl, HoldStyle::Flh));
    const Cell& inv = lib().cell(lib().find(CellFn::Inv, 1));
    const FanoutOptResult r = optimizeFanout(nl);
    const double after = dftAreaUm2(nl, planDft(nl, HoldStyle::Flh)) +
                         static_cast<double>(r.inverters_added) * inv.areaUm2(lib().tech());
    EXPECT_LT(after, before); // net win including the inverters it paid for
}

TEST(FanoutOpt, NoOpOnLowFanoutCircuit) {
    Netlist nl = scanned("s386"); // ratio 1.0: nothing to merge
    const FanoutOptResult r = optimizeFanout(nl);
    EXPECT_EQ(r.first_level_after, r.first_level_before);
}

// ------------------------------------------------------ Tables I-IV pins

// Every Tables I-IV figure on one scanned registry circuit, compared with
// == on doubles: the three styles' DftEvaluation, optimizeFanout's result
// and the optimized netlist's .bench hash. PowerConfig as perfbench's
// powerFor with stimulus seed 1. A change to STA, power or the fanout
// optimizer that moves any bit of a paper table fails here.
struct PinnedTables {
    std::array<DftEvaluation, 3> eval;
    FanoutOptResult fanout;
    std::uint64_t optimized_hash_lo = 0;
};

void expectPinnedTables(const std::string& name, const PinnedTables& want) {
    Netlist nl = scanned(name);
    PowerConfig cfg;
    cfg.seed = 1;
    cfg.ff_hold_prob = findCircuit(name).ff_hold_prob;
    cfg.pi_toggle_prob = 0.3 * (1.0 - 0.8 * cfg.ff_hold_prob);
    for (const DftEvaluation& w : want.eval) {
        const DftEvaluation e = evaluateDft(nl, planDft(nl, w.style), cfg);
        SCOPED_TRACE(toString(w.style));
        EXPECT_EQ(e.style, w.style);
        EXPECT_EQ(e.base_area_um2, w.base_area_um2);
        EXPECT_EQ(e.dft_area_um2, w.dft_area_um2);
        EXPECT_EQ(e.area_increase_pct, w.area_increase_pct);
        EXPECT_EQ(e.base_delay_ps, w.base_delay_ps);
        EXPECT_EQ(e.delay_ps, w.delay_ps);
        EXPECT_EQ(e.delay_increase_pct, w.delay_increase_pct);
        EXPECT_EQ(e.base_power_uw, w.base_power_uw);
        EXPECT_EQ(e.power_uw, w.power_uw);
        EXPECT_EQ(e.power_increase_pct, w.power_increase_pct);
    }
    const FanoutOptResult r = optimizeFanout(nl);
    EXPECT_EQ(r.ffs_optimized, want.fanout.ffs_optimized);
    EXPECT_EQ(r.inverters_added, want.fanout.inverters_added);
    EXPECT_EQ(r.first_level_before, want.fanout.first_level_before);
    EXPECT_EQ(r.first_level_after, want.fanout.first_level_after);
    EXPECT_EQ(r.delay_before_ps, want.fanout.delay_before_ps);
    EXPECT_EQ(r.delay_after_ps, want.fanout.delay_after_ps);
    EXPECT_EQ(contentHash(writeBenchString(nl)).lo, want.optimized_hash_lo);
}

TEST(PaperTables, PinnedOnS1423) {
    expectPinnedTables(
        "s1423",
        {{{{HoldStyle::EnhancedScan, 0x1.bb6425aee6343p+6, 0x1.8a8240b780348p+4,
            0x1.63e6bde3b57c6p+4, 0x1.d11a666666666p+11, 0x1.da64b851eb852p+11,
            0x1.ff5a6f5c00f3p+0, 0x1.119bc8893b7d4p+7, 0x1.20ad09b8cb8dep+7,
            0x1.60715db2f4477p+2},
           {HoldStyle::MuxHold, 0x1.bb6425aee6343p+6, 0x1.50d744f5d3566p+4,
            0x1.2fe07ebe6ec27p+4, 0x1.d11a666666666p+11, 0x1.dd252b4ea12p+11,
            0x1.4b6834f7befc2p+1, 0x1.119bc8893b7d4p+7, 0x1.1e58eebcf4677p+7,
            0x1.29f9d087dfe2fp+2},
           {HoldStyle::Flh, 0x1.bb6425aee6343p+6, 0x1.2704ea4a8c153p+4, 0x1.0a25e32a6fc16p+4,
            0x1.d11a666666666p+11, 0x1.d29acc3700e0ap+11, 0x1.4a9764ee245dfp-2,
            0x1.119bc8893b7d4p+7, 0x1.146f948441178p+7, 0x1.088990ea95f41p+0}}},
         {43, 73, 155, 87, 0x1.d11a666666666p+11, 0x1.cc5547ae147aep+11},
         0xa8b5f85a5f79a6f7ULL});
}

TEST(PaperTables, PinnedOnS5378) {
    expectPinnedTables(
        "s5378",
        {{{{HoldStyle::EnhancedScan, 0x1.a2b6fd21ff2d5p+8, 0x1.dd2474538ef36p+5,
            0x1.c7d0edf0eccb9p+3, 0x1.21f0f5c28f5c4p+11, 0x1.27fb47ae147afp+11,
            0x1.0aa931f258f97p+1, 0x1.eb4a352007dc4p+8, 0x1.f9620bf22c007p+8,
            0x1.6f2e275df1c6ap+1},
           {HoldStyle::MuxHold, 0x1.a2b6fd21ff2d5p+8, 0x1.976539756c93bp+5,
            0x1.852fc0eb72d7p+3, 0x1.21f0f5c28f5c4p+11, 0x1.2a54e5d02ec25p+11,
            0x1.7268bc91ce5fp+1, 0x1.eb4a352007dc4p+8, 0x1.f73ae979735d2p+8,
            0x1.3716f746d3341p+1},
           {HoldStyle::Flh, 0x1.a2b6fd21ff2d5p+8, 0x1.7f604189374cbp+4, 0x1.6e3d9e49b2921p+2,
            0x1.21f0f5c28f5c4p+11, 0x1.2424d2a6c405fp+11, 0x1.84f3219fbe11bp-1,
            0x1.eb4a352007dc4p+8, 0x1.ec5a7c986dc96p+8, 0x1.bb5eccd12fcdp-3}}},
         {23, 45, 204, 177, 0x1.21f0f5c28f5c4p+11, 0x1.21f0f5c28f5c4p+11},
         0x761f6976e8134c28ULL});
}

// ---------------------------------------------------------- chain ordering

TEST(ChainOrder, TransitionCountOnKnownStream) {
    // Two FFs, patterns {01, 11}: identity order has 1 transition (pattern
    // one), the other order identical by symmetry.
    std::vector<Pattern> pats(2);
    pats[0].state = {Logic::Zero, Logic::One};
    pats[1].state = {Logic::One, Logic::One};
    const std::vector<std::size_t> order = {0, 1};
    EXPECT_EQ(chainShiftTransitions(pats, order), 1u);
    const std::vector<std::size_t> rev = {1, 0};
    EXPECT_EQ(chainShiftTransitions(pats, rev), 1u);
}

TEST(ChainOrder, XBitsCarryNoTransitions) {
    std::vector<Pattern> pats(1);
    pats[0].state = {Logic::Zero, Logic::X, Logic::One};
    const std::vector<std::size_t> order = {0, 1, 2};
    EXPECT_EQ(chainShiftTransitions(pats, order), 0u);
}

TEST(ChainOrder, OptimizerNeverWorsens) {
    const Netlist nl = [] {
        static const Library lib = makeDefaultLibrary();
        Netlist n = makeCircuit("s298", lib);
        insertScan(n);
        return n;
    }();
    const auto pats = randomPatterns(nl, 40, 17);
    const ChainOrderResult r = optimizeChainOrder(pats, nl.flipFlops().size());
    EXPECT_LE(r.transitions_after, r.transitions_before);
    // The order is a permutation.
    std::vector<std::size_t> sorted = r.order;
    std::sort(sorted.begin(), sorted.end());
    std::vector<std::size_t> expect(nl.flipFlops().size());
    std::iota(expect.begin(), expect.end(), 0);
    EXPECT_EQ(sorted, expect);
    // Reported cost matches recomputation.
    EXPECT_EQ(chainShiftTransitions(pats, r.order), r.transitions_after);
}

TEST(ChainOrder, PerfectlyCorrelatedColumnsReachZero) {
    // Columns 0/2 always equal, 1/3 always equal and inverse of 0/2: the
    // optimal order groups the pairs, leaving a single seam.
    std::vector<Pattern> pats(8);
    Rng rng(3);
    for (Pattern& p : pats) {
        const Logic a = rng.chance(0.5) ? Logic::One : Logic::Zero;
        p.state = {a, negate(a), a, negate(a)};
    }
    const ChainOrderResult r = optimizeChainOrder(pats, 4);
    EXPECT_LE(r.transitions_after, pats.size()); // one seam at most
    EXPECT_LT(r.transitions_after, r.transitions_before);
}

TEST(ChainOrder, DegenerateInputs) {
    const ChainOrderResult empty = optimizeChainOrder({}, 5);
    EXPECT_EQ(empty.transitions_before, 0u);
    EXPECT_EQ(empty.transitions_after, 0u);
    std::vector<Pattern> pats(1);
    pats[0].state = {Logic::One};
    const ChainOrderResult one = optimizeChainOrder(pats, 1);
    EXPECT_EQ(one.order.size(), 1u);
}

} // namespace
} // namespace flh
