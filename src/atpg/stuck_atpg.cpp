#include "atpg/stuck_atpg.hpp"

#include "obs/telemetry.hpp"

namespace flh {

void fillRandom(Pattern& p, Rng& rng) {
    for (Logic& b : p.pis)
        if (b == Logic::X) b = rng.chance(0.5) ? Logic::One : Logic::Zero;
    for (Logic& b : p.state)
        if (b == Logic::X) b = rng.chance(0.5) ? Logic::One : Logic::Zero;
}

StuckAtpgResult generateStuckAtTests(const Netlist& nl, std::span<const FaultSite> faults,
                                     const StuckAtpgConfig& cfg) {
    obs::ScopedSpan span("atpg:stuck_at", "atpg");
    StuckAtpgResult res;
    Rng rng(cfg.seed);

    // Phase 1: random patterns with fault dropping.
    {
        obs::ScopedSpan phase_span("atpg:stuck_at:random", "atpg");
        res.patterns =
            randomPatterns(nl, static_cast<std::size_t>(cfg.random_patterns), rng.next());
        res.coverage = runStuckAtFaultSim(nl, res.patterns, faults);
    }

    // Phase 2: deterministic top-off for survivors.
    obs::ScopedSpan topoff_span("atpg:stuck_at:topoff", "atpg");
    Podem podem(nl, cfg.podem);
    UndetectedFaults<FaultSite> open(faults, res.coverage.detected_mask);
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
        if (res.coverage.detected_mask[fi]) continue;
        Pattern p;
        switch (podem.generate(faults[fi], p)) {
            case PodemOutcome::Success: {
                fillRandom(p, rng);
                // Drop every remaining fault this pattern also catches.
                const Pattern one[1] = {p};
                open.drop(runStuckAtFaultSim(nl, one, open.faults()), res.coverage);
                res.patterns.push_back(std::move(p));
                ++res.podem_generated;
                break;
            }
            case PodemOutcome::Aborted:
                ++res.aborted;
                break;
            case PodemOutcome::Untestable:
                ++res.untestable;
                break;
        }
    }
    static obs::Counter& c_generated = obs::counter("atpg.generated");
    static obs::Counter& c_aborted = obs::counter("atpg.aborted");
    static obs::Counter& c_untestable = obs::counter("atpg.untestable");
    c_generated.add(res.podem_generated);
    c_aborted.add(res.aborted);
    c_untestable.add(res.untestable);
    return res;
}

} // namespace flh
