#include "dft/design.hpp"
#include "dft/scan.hpp"
#include "iscas/circuits.hpp"
#include "power/power.hpp"

#include <gtest/gtest.h>

namespace flh {
namespace {

const Library& lib() {
    static const Library l = makeDefaultLibrary();
    return l;
}

TEST(Power, PositiveComponents) {
    const Netlist nl = makeCircuit("s298", lib());
    const PowerResult p = measureNormalPower(nl);
    EXPECT_GT(p.switching_uw, 0.0);
    EXPECT_GT(p.clocking_uw, 0.0);
    EXPECT_GT(p.leakage_uw, 0.0);
    EXPECT_GT(p.toggles, 0u);
    EXPECT_NEAR(p.totalUw(), p.switching_uw + p.clocking_uw + p.leakage_uw, 1e-12);
}

TEST(Power, SimulateThenPriceEqualsMeasure) {
    // One activity simulation priced under each overlay gives exactly what
    // measureNormalPower gives, field for field.
    for (const char* name : {"s298", "s1423"}) {
        Netlist nl = makeCircuit(name, lib());
        insertScan(nl);
        PowerConfig cfg;
        cfg.seed = 3;
        cfg.ff_hold_prob = 0.2;
        const std::vector<std::uint64_t> toggles = simulateNormalActivity(nl, cfg);
        std::vector<PowerOverlay> overlays(1);
        for (const HoldStyle st : {HoldStyle::EnhancedScan, HoldStyle::MuxHold, HoldStyle::Flh})
            overlays.push_back(makePowerOverlay(nl, planDft(nl, st)));
        for (std::size_t i = 0; i < overlays.size(); ++i) {
            SCOPED_TRACE(std::string(name) + " overlay " + std::to_string(i));
            const PowerResult split = priceNormalPower(nl, toggles, overlays[i], cfg);
            const PowerResult whole = measureNormalPower(nl, overlays[i], cfg);
            EXPECT_EQ(split.switching_uw, whole.switching_uw);
            EXPECT_EQ(split.clocking_uw, whole.clocking_uw);
            EXPECT_EQ(split.leakage_uw, whole.leakage_uw);
            EXPECT_EQ(split.toggles, whole.toggles);
        }
        EXPECT_THROW((void)priceNormalPower(makeCircuit("s27", lib()), toggles, {}, cfg),
                     std::invalid_argument);
    }
}

TEST(Power, DeterministicForFixedSeed) {
    const Netlist nl = makeCircuit("s298", lib());
    const PowerResult a = measureNormalPower(nl, {}, {100, 7});
    const PowerResult b = measureNormalPower(nl, {}, {100, 7});
    EXPECT_EQ(a.toggles, b.toggles);
    EXPECT_DOUBLE_EQ(a.totalUw(), b.totalUw());
}

TEST(Power, SeedChangesActivityOnlySlightly) {
    const Netlist nl = makeCircuit("s344", lib());
    const PowerResult a = measureNormalPower(nl, {}, {100, 1});
    const PowerResult b = measureNormalPower(nl, {}, {100, 2});
    EXPECT_NE(a.toggles, b.toggles);
    EXPECT_NEAR(a.totalUw() / b.totalUw(), 1.0, 0.1); // 6400 sampled vectors: stable
}

TEST(Power, ScalesWithCircuitSize) {
    const PowerResult small = measureNormalPower(makeCircuit("s298", lib()));
    const PowerResult big = measureNormalPower(makeCircuit("s1423", lib()));
    EXPECT_GT(big.totalUw(), 2.0 * small.totalUw());
}

TEST(Power, ExtraSwitchedCapIncreasesPower) {
    const Netlist nl = makeCircuit("s298", lib());
    const PowerResult base = measureNormalPower(nl);
    PowerOverlay ov;
    for (const GateId ff : nl.flipFlops()) ov.extra_switched_cap_ff[nl.gate(ff).output] = 5.0;
    const PowerResult with = measureNormalPower(nl, ov);
    EXPECT_GT(with.switching_uw, base.switching_uw);
    EXPECT_DOUBLE_EQ(with.leakage_uw, base.leakage_uw);
}

TEST(Power, LeakFactorReducesLeakage) {
    // The stacking saving is weighted by each gate's idleness, so a 0.5
    // factor lands between half the base leakage (all-idle) and the base
    // (all-toggling).
    const Netlist nl = makeCircuit("s298", lib());
    const PowerResult base = measureNormalPower(nl);
    PowerOverlay ov;
    for (GateId g = 0; g < nl.gateCount(); ++g) ov.gate_leak_factor[g] = 0.5;
    const PowerResult with = measureNormalPower(nl, ov);
    EXPECT_LT(with.leakage_uw, base.leakage_uw);
    EXPECT_GE(with.leakage_uw, 0.5 * base.leakage_uw - 1e-9);
}

TEST(Power, FullyIdleGateGetsFullStackingSaving) {
    // A circuit with frozen inputs never toggles; the factor applies fully.
    Netlist nl("idle", lib());
    const NetId a = nl.addPi("a");
    const NetId y = nl.addNet("y");
    const NetId q = nl.addNet("q");
    nl.addGate(CellFn::Nand, {a, q}, y);
    nl.addDff(y, q);
    nl.markPo(y);
    PowerConfig cfg;
    cfg.pi_toggle_prob = 0.0;
    cfg.ff_hold_prob = 1.0;
    const PowerResult base = measureNormalPower(nl, {}, cfg);
    PowerOverlay ov;
    ov.gate_leak_factor[0] = 0.5;
    const PowerResult with = measureNormalPower(nl, ov, cfg);
    const Tech& t = lib().tech();
    const double gate_leak_uw = lib().cell(nl.gate(0).cell).leakageNw(t) * 1e-3;
    EXPECT_NEAR(base.leakage_uw - with.leakage_uw, 0.5 * gate_leak_uw, 1e-9);
}

TEST(Power, ExtraLeakAdds) {
    const Netlist nl = makeCircuit("s298", lib());
    PowerOverlay ov;
    ov.extra_leak_nw = 1000.0;
    const PowerResult base = measureNormalPower(nl);
    const PowerResult with = measureNormalPower(nl, ov);
    EXPECT_NEAR(with.leakage_uw - base.leakage_uw, 1.0, 1e-9);
}

class ScanShiftPower : public ::testing::TestWithParam<const char*> {};

TEST_P(ScanShiftPower, HoldingElimatesRedundantCombSwitching) {
    const Netlist nl = makeCircuit(GetParam(), lib());
    const auto plain = measureScanShiftPower(nl, HoldStyle::None, 4);
    const auto enh = measureScanShiftPower(nl, HoldStyle::EnhancedScan, 4);
    const auto flh = measureScanShiftPower(nl, HoldStyle::Flh, 4);

    // Section IV: blocking propagation eliminates the redundant switching;
    // FLH "is equally effective in completely eliminating redundant
    // switching power in the combinational logic".
    EXPECT_GT(plain.comb_switching_uw, 0.0);
    EXPECT_EQ(enh.comb_toggles, 0u);
    EXPECT_EQ(flh.comb_toggles, 0u);
    // The ~78% context (Gerstendorfer & Wunderlich): the comb block burns a
    // large share of shift power when unprotected.
    const double share = plain.comb_switching_uw /
                         (plain.comb_switching_uw + plain.ffq_switching_uw);
    EXPECT_GT(share, 0.5) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Circuits, ScanShiftPower, ::testing::Values("s298", "s344", "s641"));

TEST(ScanShiftPowerTest, FlhKeepsFfWireActivityButEnhancedFreezesIt) {
    const Netlist nl = makeCircuit("s298", lib());
    const auto enh = measureScanShiftPower(nl, HoldStyle::EnhancedScan, 4);
    const auto flh = measureScanShiftPower(nl, HoldStyle::Flh, 4);
    EXPECT_EQ(enh.ffq_switching_uw, 0.0);
    EXPECT_GT(flh.ffq_switching_uw, 0.0);
}

} // namespace
} // namespace flh
