#include "fault/fault_sim.hpp"

#include "fault/parallel_sim.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

#include <stdexcept>

namespace flh {

void FaultSimResult::writeJson(JsonWriter& w) const {
    w.beginObject();
    w.kv("total_faults", static_cast<std::int64_t>(total));
    w.kv("detected", static_cast<std::int64_t>(detected));
    w.kv("coverage_pct", coveragePct());
    w.endObject();
}

const char* toString(TestApplication a) noexcept {
    switch (a) {
        case TestApplication::EnhancedScan: return "enhanced-scan";
        case TestApplication::Broadside: return "broadside";
        case TestApplication::SkewedLoad: return "skewed-load";
    }
    return "?";
}

std::vector<Pattern> randomPatterns(const Netlist& nl, std::size_t count, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<Pattern> out(count);
    for (Pattern& p : out) {
        p.pis.resize(nl.pis().size());
        p.state.resize(nl.flipFlops().size());
        for (Logic& b : p.pis) b = rng.chance(0.5) ? Logic::One : Logic::Zero;
        for (Logic& b : p.state) b = rng.chance(0.5) ? Logic::One : Logic::Zero;
    }
    return out;
}

std::vector<Logic> nextState(const Netlist& nl, const Pattern& p) {
    PackedSim sim(nl, 1);
    loadPattern(sim, p);
    sim.propagate();
    const auto& ffs = nl.flipFlops();
    std::vector<Logic> next(ffs.size());
    for (std::size_t k = 0; k < next.size(); ++k)
        next[k] = sim.get(nl.gate(ffs[k]).inputs[0], 0, 0);
    return next;
}

TwoPattern makePair(const Netlist& nl, TestApplication style, const Pattern& v1,
                    const std::vector<Logic>& v2_pis, Logic scan_in_bit) {
    if (v1.pis.size() != nl.pis().size() || v1.state.size() != nl.flipFlops().size())
        throw std::invalid_argument("makePair: V1 shape mismatch");
    TwoPattern tp;
    tp.v1 = v1;
    tp.v2.pis = v2_pis;
    switch (style) {
        case TestApplication::EnhancedScan:
            // Caller supplies an arbitrary V2 state afterwards; default to
            // V1's state so the pair is always well-formed.
            tp.v2.state = v1.state;
            break;
        case TestApplication::Broadside:
            tp.v2.state = nextState(nl, v1);
            break;
        case TestApplication::SkewedLoad:
            // One more shift toward the scan-out end: state[i] <- state[i+1].
            tp.v2.state = v1.state;
            for (std::size_t i = 0; i + 1 < tp.v2.state.size(); ++i)
                tp.v2.state[i] = v1.state[i + 1];
            if (!tp.v2.state.empty()) tp.v2.state.back() = scan_in_bit;
            break;
    }
    return tp;
}

bool isValidPair(const Netlist& nl, TestApplication style, const TwoPattern& tp) {
    if (tp.v1.state.size() != nl.flipFlops().size() ||
        tp.v2.state.size() != nl.flipFlops().size())
        return false;
    switch (style) {
        case TestApplication::EnhancedScan:
            return true;
        case TestApplication::Broadside:
            return tp.v2.state == nextState(nl, tp.v1);
        case TestApplication::SkewedLoad: {
            for (std::size_t i = 0; i + 1 < tp.v2.state.size(); ++i)
                if (tp.v2.state[i] != tp.v1.state[i + 1]) return false;
            return true; // the scan-in bit is free
        }
    }
    return false;
}

FaultSimResult runStuckAtFaultSim(const Netlist& nl, std::span<const Pattern> pats,
                                  std::span<const FaultSite> faults) {
    return runStuckAtFaultSim(nl, pats, faults, FaultSimOptions{});
}

FaultSimResult runTransitionFaultSim(const Netlist& nl, std::span<const TwoPattern> tests,
                                     std::span<const TransitionFault> faults) {
    return runTransitionFaultSim(nl, tests, faults, FaultSimOptions{});
}

std::vector<std::size_t> countTransitionDetections(const Netlist& nl,
                                                   std::span<const TwoPattern> tests,
                                                   std::span<const TransitionFault> faults) {
    return countTransitionDetections(nl, tests, faults, FaultSimOptions{});
}

} // namespace flh
