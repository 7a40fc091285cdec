#include "verify/reference.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace flh {

namespace {

/// Sources of up to 64 patterns, pats[i] in slot i. Unused slots stay X, so
/// they never launch a transition or detect a fault.
std::vector<PV> packSources(const Netlist& nl, std::span<const Pattern> pats) {
    std::vector<PV> src(nl.pis().size() + nl.flipFlops().size(), PV::all(Logic::X));
    for (unsigned i = 0; i < pats.size(); ++i) {
        const Pattern& p = pats[i];
        if (p.pis.size() != nl.pis().size() || p.state.size() != nl.flipFlops().size())
            throw std::invalid_argument("pattern shape mismatch for " + nl.name());
        std::size_t k = 0;
        for (const Logic l : p.pis) src[k++].set(i, l);
        for (const Logic l : p.state) src[k++].set(i, l);
    }
    return src;
}

/// The observation points, POs then FF D nets.
std::vector<NetId> observationNets(const Netlist& nl) {
    std::vector<NetId> out(nl.pos().begin(), nl.pos().end());
    for (const GateId ff : nl.flipFlops()) out.push_back(nl.gate(ff).inputs[0]);
    return out;
}

/// Slots where some observation point is a definite 0 in one machine and a
/// definite 1 in the other.
std::uint64_t detectedSlots(const std::vector<NetId>& obs, const std::vector<PV>& good,
                            const std::vector<PV>& faulty) {
    std::uint64_t m = 0;
    for (const NetId n : obs) m |= (good[n].v ^ faulty[n].v) & ~good[n].x & ~faulty[n].x;
    return m;
}

} // namespace

std::vector<PV> refEvalWord(const Netlist& nl, const std::vector<PV>& sources,
                            const FaultSite* fault) {
    const bool net_fault = fault && !fault->isPinFault();
    const PV stuck = PV::all(fault && fault->stuck_at_one ? Logic::One : Logic::Zero);
    std::vector<PV> val(nl.netCount(), PV::all(Logic::X));
    const auto write = [&](NetId net, PV v) {
        val[net] = net_fault && net == fault->net ? stuck : v;
    };
    if (net_fault) val[fault->net] = stuck;
    std::size_t k = 0;
    for (const NetId pi : nl.pis()) write(pi, sources[k++]);
    for (const GateId ff : nl.flipFlops()) write(nl.gate(ff).output, sources[k++]);
    std::vector<PV> ins;
    for (const GateId g : nl.topoOrder()) {
        const Gate& gate = nl.gate(g);
        ins.clear();
        for (const NetId in : gate.inputs) ins.push_back(val[in]);
        if (fault && fault->isPinFault() && fault->gate == g)
            ins[static_cast<std::size_t>(fault->pin)] = stuck;
        write(gate.output, evalCell(gate.fn, ins));
    }
    return val;
}

std::vector<Logic> refEval(const Netlist& nl, const Pattern& p, const FaultSite* fault) {
    const std::vector<PV> val = refEvalWord(nl, packSources(nl, {&p, 1}), fault);
    std::vector<Logic> out(val.size());
    for (std::size_t n = 0; n < val.size(); ++n) out[n] = val[n].get(0);
    return out;
}

std::vector<std::vector<bool>> refStuckAtDetections(const Netlist& nl,
                                                    std::span<const Pattern> pats,
                                                    std::span<const FaultSite> faults) {
    const std::vector<NetId> obs = observationNets(nl);
    std::vector<std::vector<bool>> out(faults.size(), std::vector<bool>(pats.size(), false));
    for (std::size_t base = 0; base < pats.size(); base += 64) {
        const std::size_t count = std::min<std::size_t>(64, pats.size() - base);
        const std::vector<PV> src = packSources(nl, pats.subspan(base, count));
        const std::vector<PV> good = refEvalWord(nl, src);
        for (std::size_t f = 0; f < faults.size(); ++f) {
            const std::uint64_t hit = detectedSlots(obs, good, refEvalWord(nl, src, &faults[f]));
            for (unsigned i = 0; i < count; ++i) out[f][base + i] = (hit >> i) & 1;
        }
    }
    return out;
}

std::vector<std::size_t> refTransitionDetections(const Netlist& nl,
                                                 std::span<const TwoPattern> tests,
                                                 std::span<const TransitionFault> faults) {
    const std::vector<NetId> obs = observationNets(nl);
    std::vector<Pattern> v1s;
    std::vector<Pattern> v2s;
    for (const TwoPattern& tp : tests) {
        v1s.push_back(tp.v1);
        v2s.push_back(tp.v2);
    }
    std::vector<std::size_t> counts(faults.size(), 0);
    for (std::size_t base = 0; base < tests.size(); base += 64) {
        const std::size_t count = std::min<std::size_t>(64, tests.size() - base);
        const std::vector<PV> v1 =
            refEvalWord(nl, packSources(nl, std::span(v1s).subspan(base, count)));
        const std::vector<PV> src2 = packSources(nl, std::span(v2s).subspan(base, count));
        const std::vector<PV> v2 = refEvalWord(nl, src2);
        for (std::size_t f = 0; f < faults.size(); ++f) {
            // V1 must settle the site to the fault's initial value.
            const PV site = v1[faults[f].net];
            const std::uint64_t want = faults[f].initialValue() == Logic::One ? ~0ULL : 0;
            const std::uint64_t launched = ~(site.v ^ want) & ~site.x;
            if (!launched) continue;
            const FaultSite sa = faults[f].equivalentStuckAt();
            const std::uint64_t hit = detectedSlots(obs, v2, refEvalWord(nl, src2, &sa)) & launched;
            counts[f] += static_cast<std::size_t>(std::popcount(hit));
        }
    }
    return counts;
}

} // namespace flh
