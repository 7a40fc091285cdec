#include "iscas/circuits.hpp"
#include "sta/timing.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <vector>

namespace flh {
namespace {

const Library& lib() {
    static const Library l = makeDefaultLibrary();
    return l;
}

// A chain of n inverters PI -> ... -> PO.
Netlist invChain(int n) {
    Netlist nl("chain" + std::to_string(n), lib());
    NetId cur = nl.addPi("a");
    for (int i = 0; i < n; ++i) {
        const NetId next = nl.addNet("n" + std::to_string(i));
        nl.addGate(CellFn::Inv, {cur}, next);
        cur = next;
    }
    nl.markPo(cur);
    return nl;
}

TEST(Sta, ChainDelayScalesWithLength) {
    const double d4 = runSta(invChain(4)).critical_delay_ps;
    const double d8 = runSta(invChain(8)).critical_delay_ps;
    EXPECT_GT(d4, 0.0);
    // Interior stages have identical load; doubling length roughly doubles
    // delay (the last stage is unloaded, hence "roughly").
    EXPECT_NEAR(d8 / d4, 2.0, 0.35);
}

TEST(Sta, CriticalPathIsContiguous) {
    const Netlist nl = invChain(5);
    const TimingResult r = runSta(nl);
    ASSERT_EQ(r.critical_path.size(), 6u); // PI + 5 stage outputs
    EXPECT_EQ(r.critical_levels, 5);
    // Arrival must be strictly increasing along the path.
    for (std::size_t i = 1; i < r.critical_path.size(); ++i)
        EXPECT_GT(r.arrival_ps[r.critical_path[i]], r.arrival_ps[r.critical_path[i - 1]]);
}

TEST(Sta, SlackNonNegativeAndZeroOnCriticalPath) {
    const Netlist nl = makeCircuit("s298", lib());
    const TimingResult r = runSta(nl);
    for (NetId n = 0; n < nl.netCount(); ++n)
        EXPECT_GE(r.slackPs(n), -1e-9) << nl.net(n).name;
    for (const NetId n : r.critical_path) EXPECT_NEAR(r.slackPs(n), 0.0, 1e-9);
}

TEST(Sta, DepthMatchesLevelization) {
    for (const char* name : {"s298", "s344", "s838"}) {
        const Netlist nl = makeCircuit(name, lib());
        const TimingResult r = runSta(nl);
        // The timing-critical path length cannot exceed the structural depth.
        EXPECT_LE(r.critical_levels, nl.logicDepth()) << name;
        EXPECT_GT(r.critical_levels, nl.logicDepth() / 2) << name;
    }
}

TEST(Sta, SourceSeriesDelayShiftsArrivals) {
    const Netlist nl = makeCircuit("s344", lib());
    const TimingResult base = runSta(nl);
    TimingOverlay ov;
    for (const GateId ff : nl.flipFlops()) ov.source_series_ps[nl.gate(ff).output] = 50.0;
    const TimingResult with = runSta(nl, ov);
    EXPECT_GT(with.critical_delay_ps, base.critical_delay_ps);
    EXPECT_LE(with.critical_delay_ps, base.critical_delay_ps + 50.0 + 1e-9);
}

TEST(Sta, GateAdderOnCriticalGateExtendsDelay) {
    const Netlist nl = invChain(6);
    const TimingResult base = runSta(nl);
    TimingOverlay ov;
    ov.gate_delay_adder_ps[nl.topoOrder()[2]] = 7.5;
    const TimingResult with = runSta(nl, ov);
    EXPECT_NEAR(with.critical_delay_ps, base.critical_delay_ps + 7.5, 1e-9);
}

TEST(Sta, ExtraCapSlowsTheDriver) {
    const Netlist nl = invChain(3);
    const TimingResult base = runSta(nl);
    TimingOverlay ov;
    ov.extra_net_cap_ff[*nl.findNet("n1")] = 10.0;
    const TimingResult with = runSta(nl, ov);
    const double r_inv = lib().cell(lib().findByName("NOT1")).r_out_kohm;
    EXPECT_NEAR(with.critical_delay_ps, base.critical_delay_ps + r_inv * 10.0, 1e-6);
}

TEST(Sta, OffCriticalAdderDoesNotMoveDelay) {
    // Two parallel chains of different length from one PI: an adder on the
    // short chain (within its slack) must not change the critical delay.
    Netlist nl("par", lib());
    const NetId a = nl.addPi("a");
    NetId cur = a;
    for (int i = 0; i < 8; ++i) {
        const NetId next = nl.addNet("L" + std::to_string(i));
        nl.addGate(CellFn::Inv, {cur}, next);
        cur = next;
    }
    nl.markPo(cur);
    const NetId s0 = nl.addNet("S0");
    GateId short_gate = nl.addGate(CellFn::Inv, {a}, s0);
    nl.markPo(s0);

    const TimingResult base = runSta(nl);
    TimingOverlay ov;
    ov.gate_delay_adder_ps[short_gate] = 5.0;
    EXPECT_NEAR(runSta(nl, ov).critical_delay_ps, base.critical_delay_ps, 1e-9);
}

// ------------------------------------------------------ incremental STA

::testing::AssertionResult sameDoubles(const char* what, const std::vector<double>& a,
                                       const std::vector<double>& b) {
    if (a.size() != b.size())
        return ::testing::AssertionFailure() << what << " size " << a.size() << " vs " << b.size();
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i] != b[i])
            return ::testing::AssertionFailure() << what << "[" << i << "] " << a[i] << " vs " << b[i];
    return ::testing::AssertionSuccess();
}

void expectSameTiming(const TimingResult& inc, const TimingResult& full) {
    EXPECT_EQ(inc.critical_delay_ps, full.critical_delay_ps);
    EXPECT_EQ(inc.critical_levels, full.critical_levels);
    EXPECT_EQ(inc.critical_path, full.critical_path);
    EXPECT_TRUE(sameDoubles("arrival_ps", inc.arrival_ps, full.arrival_ps));
    EXPECT_TRUE(sameDoubles("required_ps", inc.required_ps, full.required_ps));
}

/// Comb receiver pins of `q`, and the first inverter among them.
std::vector<PinRef> combPins(const Netlist& nl, NetId q, GateId& first_inv) {
    std::vector<PinRef> pins;
    first_inv = kInvalidId;
    for (const PinRef& pr : nl.fanout(q)) {
        if (isSequential(nl.gate(pr.gate).fn)) continue;
        if (first_inv == kInvalidId && nl.gate(pr.gate).fn == CellFn::Inv) first_inv = pr.gate;
        pins.push_back(pr);
    }
    return pins;
}

struct EditTally {
    int edits = 0;
    int critical_moved = 0;
};

/// Random rebuffers of optimizeFanout's kind on `nl`: a random subset of an
/// FF's comb receiver pins moves behind a new inverter pair, or behind an
/// existing inverter on Q plus a new one, or straight onto an existing
/// inverter's output or a primary input (rewires onto nets that are already
/// timed; a PI's arrival does not move with its load, so only the rewire
/// itself can queue the moved gates). After each, the incrementally updated
/// timing must equal a fresh runSta.
void rebufferAndCompare(Netlist nl, std::uint64_t seed, int n_edits, EditTally& tally) {
    Rng rng(seed);
    StaEngine engine(nl);
    for (int e = 0; e < n_edits; ++e) {
        const GateId ff = nl.flipFlops()[rng.below(nl.flipFlops().size())];
        const NetId q = nl.gate(ff).output;
        GateId inv = kInvalidId;
        const std::vector<PinRef> pins = combPins(nl, q, inv);
        const int kind = static_cast<int>(rng.below(4));
        const bool reuse = (kind == 1 || kind == 2) && inv != kInvalidId;

        std::vector<PinRef> moved;
        for (const PinRef& pr : pins)
            if (pr.gate != inv && rng.chance(0.5)) moved.push_back(pr);
        if (moved.empty()) continue;

        std::vector<NetId> touched = {q};
        NetId target;
        if (kind == 3) {
            target = nl.pis()[rng.below(nl.pis().size())];
        } else if (reuse && kind == 2) {
            target = nl.gate(inv).output;
        } else {
            NetId stage1;
            if (reuse) {
                stage1 = nl.gate(inv).output;
            } else {
                stage1 = nl.addNet("t_a" + std::to_string(e));
                nl.addGate(CellFn::Inv, {q}, stage1);
            }
            target = nl.addNet("t_b" + std::to_string(e));
            nl.addGate(CellFn::Inv, {stage1}, target);
            touched.push_back(stage1);
        }
        touched.push_back(target);
        for (const PinRef& pr : moved) nl.rewireInput(pr.gate, pr.pin, target);

        const double before = engine.result().critical_delay_ps;
        engine.update(touched);
        const TimingResult full = runSta(nl);
        SCOPED_TRACE(nl.name() + " edit " + std::to_string(e) + " kind " + std::to_string(kind));
        expectSameTiming(engine.result(), full);
        ++tally.edits;
        if (full.critical_delay_ps != before) ++tally.critical_moved;
        if (::testing::Test::HasFailure()) return;
    }
}

TEST(Sta, IncrementalMatchesFullAfterRebuffers) {
    EditTally tally;
    for (const char* name : {"s298", "s1423", "s838"})
        rebufferAndCompare(makeCircuit(name, lib()), 7, 40, tally);
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        CircuitSpec spec;
        spec.name = "g" + std::to_string(seed);
        spec.n_pis = 5;
        spec.n_pos = 3;
        spec.n_ffs = 4 + static_cast<int>(seed % 5);
        spec.n_comb_gates = 60;
        spec.depth = 6;
        spec.ff_fanout_avg = 3.0;
        spec.unique_ratio = 2.0;
        spec.seed = seed;
        rebufferAndCompare(generateCircuit(spec, lib()), seed, 15, tally);
    }
    // Both backward paths ran: the full pass after a critical-delay move and
    // the worklist when it held.
    EXPECT_GT(tally.edits, 100);
    EXPECT_GT(tally.critical_moved, 0);
    EXPECT_LT(tally.critical_moved, tally.edits);
}

} // namespace
} // namespace flh
