#include "bist/bist.hpp"

#include "fault/faults.hpp"

#include <algorithm>

namespace flh {

namespace {

/// Shift one full pattern into the chain (and PI shadow registers) from the
/// LFSR, with the logic held per the configured style.
Pattern nextPattern(const Netlist& nl, Lfsr& lfsr, double density) {
    Pattern p;
    p.state.resize(nl.flipFlops().size());
    p.pis.resize(nl.pis().size());
    for (Logic& b : p.state) b = lfsr.stepWeighted(density) ? Logic::One : Logic::Zero;
    for (Logic& b : p.pis) b = lfsr.stepWeighted(density) ? Logic::One : Logic::Zero;
    return p;
}

std::uint32_t packObservation(const std::vector<PV>& obs, std::size_t index) {
    // Fold the observation vector into words of 32 (slot 0 of each PV).
    std::uint32_t word = 0;
    for (std::size_t i = 0; i < 32 && index * 32 + i < obs.size(); ++i)
        if (obs[index * 32 + i].get(0) == Logic::One) word |= 1u << i;
    return word;
}

} // namespace

std::vector<Pattern> bistPatterns(const Netlist& nl, const BistConfig& cfg) {
    Lfsr lfsr(cfg.lfsr_width, cfg.lfsr_seed);
    std::vector<Pattern> out;
    out.reserve(static_cast<std::size_t>(cfg.n_patterns));
    for (int i = 0; i < cfg.n_patterns; ++i)
        out.push_back(nextPattern(nl, lfsr, cfg.one_density));
    return out;
}

namespace {

/// Shared session driver; optionally injects a fault into the machine.
BistResult runSession(const Netlist& nl, const BistConfig& cfg,
                      const std::optional<FaultSite>& fault) {
    SequentialSim seq(nl, cfg.style);
    PackedSim& sim = seq.sim();
    if (fault) sim.injectFault(*fault);
    sim.enableToggleCount(true);

    Lfsr lfsr(cfg.lfsr_width, cfg.lfsr_seed);
    Misr misr;
    BistResult res;

    seq.setState(std::vector<PV>(seq.ffCount(), PV::all(Logic::Zero)));
    seq.setPis(std::vector<PV>(nl.pis().size(), PV::all(Logic::Zero)));
    seq.settle();

    std::vector<bool> is_comb_out(nl.netCount(), false);
    for (const GateId g : nl.topoOrder()) is_comb_out[nl.gate(g).output] = true;

    for (int p = 0; p < cfg.n_patterns; ++p) {
        const Pattern pat = nextPattern(nl, lfsr, cfg.one_density);

        // Shift phase, logic held; count redundant comb switching.
        sim.clearToggleCounts();
        seq.setHolding(true);
        for (std::size_t i = 0; i < pat.state.size(); ++i) seq.shift(PV::all(pat.state[i]));
        for (NetId n = 0; n < nl.netCount(); ++n)
            if (is_comb_out[n]) res.comb_shift_toggles += sim.toggleCounts()[n];

        // Apply: release, drive PIs, settle, capture, compact.
        std::vector<PV> pis(pat.pis.size());
        for (std::size_t i = 0; i < pis.size(); ++i) pis[i] = PV::all(pat.pis[i]);
        seq.setPis(pis);
        seq.setHolding(false);
        seq.settle();
        // The capture view (PO values + FF D inputs) is what the next shift
        // phase streams into the MISR; compact it, then clock the capture.
        const std::vector<PV> obs = seq.observe();
        seq.clock();
        const std::size_t words = (obs.size() + 31) / 32;
        for (std::size_t w = 0; w < words; ++w) misr.absorb(packObservation(obs, w));
        ++res.patterns_applied;
    }
    res.signature = misr.signature();
    return res;
}

} // namespace

BistResult runBist(const Netlist& nl, const BistConfig& cfg) {
    BistResult res = runSession(nl, cfg, std::nullopt);
    const auto faults = collapsedStuckAtFaults(nl);
    const auto pats = bistPatterns(nl, cfg);
    res.stuck_at_coverage_pct = runStuckAtFaultSim(nl, pats, faults).coveragePct();
    return res;
}

bool bistDetects(const Netlist& nl, const BistConfig& cfg, const FaultSite& fault,
                 std::uint32_t golden) {
    return runSession(nl, cfg, fault).signature != golden;
}

FaultSimResult bistDelayCoverage(const Netlist& nl, const BistConfig& cfg,
                                 TestApplication style) {
    const auto loads = bistPatterns(nl, cfg);
    std::vector<TwoPattern> tests;
    tests.reserve(loads.size());
    for (std::size_t i = 0; i + 1 < loads.size(); ++i) {
        switch (style) {
            case TestApplication::EnhancedScan:
                // FLH holds V1's response while the next LFSR load shifts in:
                // consecutive loads form an arbitrary pair.
                tests.push_back(TwoPattern{loads[i], loads[i + 1]});
                break;
            case TestApplication::SkewedLoad:
                tests.push_back(makePair(nl, style, loads[i], loads[i + 1].pis,
                                         loads[i + 1].state.empty() ? Logic::Zero
                                                                    : loads[i + 1].state[0]));
                break;
            case TestApplication::Broadside:
                tests.push_back(makePair(nl, style, loads[i], loads[i + 1].pis));
                break;
        }
    }
    const auto faults = allTransitionFaults(nl);
    return runTransitionFaultSim(nl, tests, faults);
}

} // namespace flh
