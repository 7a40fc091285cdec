#include "iscas/circuits.hpp"
#include "sim/sequential.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

namespace flh {
namespace {

const Library& lib() {
    static const Library l = makeDefaultLibrary();
    return l;
}

// ------------------------------------------------------------ sequential ----

TEST(SequentialSim, ClockCapturesNextState) {
    const Netlist nl = makeS27(lib());
    SequentialSim seq(nl);
    seq.setState(std::vector<PV>(3, PV::all(Logic::Zero)));
    std::vector<PV> pis(4, PV::all(Logic::Zero));
    seq.setPis(pis);
    seq.settle();
    // Next state must equal the D-net values before the clock.
    std::vector<PV> expect_d;
    for (const GateId ff : nl.flipFlops())
        expect_d.push_back(seq.sim().get(nl.gate(ff).inputs[0], 0));
    seq.clock();
    EXPECT_EQ(seq.state(), expect_d);
}

TEST(SequentialSim, SequentialTrajectoryMatchesScalarReplay) {
    const Netlist nl = makeS27(lib());
    SequentialSim a(nl), b(nl);
    a.setState(std::vector<PV>(3, PV::all(Logic::Zero)));
    b.setState(std::vector<PV>(3, PV::all(Logic::Zero)));
    Rng rng(7);
    for (int cyc = 0; cyc < 30; ++cyc) {
        std::vector<PV> pis(4);
        for (PV& p : pis) p = PV{rng.next(), 0};
        a.setPis(pis);
        a.clock();
        b.setPis(pis);
        b.clock();
        EXPECT_EQ(a.state(), b.state());
        EXPECT_EQ(a.observe(), b.observe());
    }
}

TEST(SequentialSim, ShiftMovesStateAlongChain) {
    const Netlist nl = makeS27(lib());
    SequentialSim seq(nl);
    std::vector<PV> st = {PV::all(Logic::Zero), PV::all(Logic::One), PV::all(Logic::Zero)};
    seq.setState(st);
    const PV out = seq.shift(PV::all(Logic::One));
    EXPECT_EQ(out, PV::all(Logic::Zero)); // old head
    EXPECT_EQ(seq.state()[0], PV::all(Logic::One));
    EXPECT_EQ(seq.state()[1], PV::all(Logic::Zero));
    EXPECT_EQ(seq.state()[2], PV::all(Logic::One)); // scan-in arrived
}

TEST(SequentialSim, FullLoadThroughScanChain) {
    const Netlist nl = makeS27(lib());
    SequentialSim seq(nl);
    seq.setState(std::vector<PV>(3, PV::all(Logic::Zero)));
    // Shift in 1,0,1 (last bit shifted ends nearest scan-in).
    seq.shift(PV::all(Logic::One));
    seq.shift(PV::all(Logic::Zero));
    seq.shift(PV::all(Logic::One));
    EXPECT_EQ(seq.state()[0], PV::all(Logic::One));
    EXPECT_EQ(seq.state()[1], PV::all(Logic::Zero));
    EXPECT_EQ(seq.state()[2], PV::all(Logic::One));
}

class ShiftActivity : public ::testing::TestWithParam<HoldStyle> {};

TEST_P(ShiftActivity, CombTogglesFollowHoldStyle) {
    const HoldStyle style = GetParam();
    const Netlist nl = makeCircuit("s298", lib());
    SequentialSim seq(nl, style);
    Rng rng(99);
    std::vector<PV> st(seq.ffCount());
    for (PV& p : st) p = PV{rng.next(), 0};
    seq.setState(st);
    std::vector<PV> pis(nl.pis().size(), PV::all(Logic::Zero));
    seq.setPis(pis);
    seq.settle();

    seq.sim().enableToggleCount(true);
    seq.sim().clearToggleCounts();
    seq.setHolding(true);
    for (int i = 0; i < 20; ++i) seq.shift(PV{rng.next(), 0});

    // Count toggles on nets *inside* the combinational block (gate outputs
    // beyond level 1 and first-level outputs).
    std::uint64_t comb_toggles = 0;
    std::uint64_t ffq_toggles = 0;
    for (const GateId g : nl.topoOrder())
        comb_toggles += seq.sim().toggleCounts()[nl.gate(g).output];
    for (const GateId ff : nl.flipFlops())
        ffq_toggles += seq.sim().toggleCounts()[nl.gate(ff).output];

    switch (style) {
        case HoldStyle::None:
            EXPECT_GT(comb_toggles, 0u);
            EXPECT_GT(ffq_toggles, 0u);
            break;
        case HoldStyle::EnhancedScan:
        case HoldStyle::MuxHold:
            EXPECT_EQ(comb_toggles, 0u);
            EXPECT_EQ(ffq_toggles, 0u); // frozen at the holding element
            break;
        case HoldStyle::Flh:
            EXPECT_EQ(comb_toggles, 0u); // held first level blocks all of it
            EXPECT_GT(ffq_toggles, 0u);  // but the FF outputs themselves move
            break;
    }
    seq.setHolding(false);
}

INSTANTIATE_TEST_SUITE_P(AllStyles, ShiftActivity,
                         ::testing::Values(HoldStyle::None, HoldStyle::EnhancedScan,
                                           HoldStyle::MuxHold, HoldStyle::Flh));

TEST(SequentialSim, FlhHoldAndReleaseRestoresConsistency) {
    const Netlist nl = makeCircuit("s344", lib());
    SequentialSim seq(nl, HoldStyle::Flh);
    Rng rng(5);
    std::vector<PV> v1(seq.ffCount());
    for (PV& p : v1) p = PV{rng.next(), 0};
    seq.setState(v1);
    std::vector<PV> pis(nl.pis().size());
    for (PV& p : pis) p = PV{rng.next(), 0};
    seq.setPis(pis);
    seq.settle();

    // Hold, scramble the state (simulating scan of V2), then release.
    seq.setHolding(true);
    std::vector<PV> v2(seq.ffCount());
    for (PV& p : v2) p = PV{rng.next(), 0};
    seq.setState(v2);
    seq.settle();
    seq.setHolding(false);
    seq.settle();

    // After release the circuit must agree with a fresh simulation of V2.
    SequentialSim ref(nl);
    ref.setState(v2);
    ref.setPis(pis);
    ref.settle();
    EXPECT_EQ(seq.observe(), ref.observe());
}

} // namespace
} // namespace flh
