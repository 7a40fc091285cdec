#include "atpg/transition_atpg.hpp"

#include "obs/telemetry.hpp"

#include <algorithm>
#include <chrono>

namespace flh {

namespace {

/// Run `f`; while telemetry is on, add its wall time in ns to `ns`.
template <typename F>
auto timed(obs::Counter& ns, F&& f) {
    if (!obs::enabled()) return f();
    const auto t0 = std::chrono::steady_clock::now();
    auto r = f();
    ns.add(static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now() - t0)
                                          .count()));
    return r;
}

Pattern randomPattern(const Netlist& nl, Rng& rng) {
    Pattern p;
    p.pis.assign(nl.pis().size(), Logic::X);
    p.state.assign(nl.flipFlops().size(), Logic::X);
    fillRandom(p, rng);
    return p;
}

std::vector<Logic> randomBits(std::size_t n, Rng& rng) {
    std::vector<Logic> v(n);
    for (Logic& b : v) b = rng.chance(0.5) ? Logic::One : Logic::Zero;
    return v;
}

/// Random two-pattern test respecting the style's structural constraint.
TwoPattern randomPair(const Netlist& nl, TestApplication style, Rng& rng) {
    const Pattern v1 = randomPattern(nl, rng);
    switch (style) {
        case TestApplication::EnhancedScan: {
            TwoPattern tp;
            tp.v1 = v1;
            tp.v2 = randomPattern(nl, rng);
            return tp;
        }
        case TestApplication::Broadside:
        case TestApplication::SkewedLoad:
            return makePair(nl, style, v1, randomBits(nl.pis().size(), rng),
                            rng.chance(0.5) ? Logic::One : Logic::Zero);
    }
    return {};
}

} // namespace

TransitionAtpgResult generateTransitionTests(const Netlist& nl, TestApplication style,
                                             std::span<const TransitionFault> faults,
                                             const TransitionAtpgConfig& cfg) {
    obs::ScopedSpan span(obs::enabled() ? std::string("atpg:transition:") + toString(style)
                                        : std::string(),
                         "atpg");
    TransitionAtpgResult res;
    res.style = style;
    Rng rng(cfg.seed);

    // Phase 1: random pairs with fault dropping.
    {
        obs::ScopedSpan phase_span("atpg:transition:random", "atpg");
        for (int i = 0; i < cfg.random_pairs; ++i)
            res.tests.push_back(randomPair(nl, style, rng));
        res.coverage = runTransitionFaultSim(nl, res.tests, faults);
    }

    // Phase 2: deterministic top-off.
    obs::ScopedSpan topoff_span("atpg:transition:topoff", "atpg");
    Podem podem(nl, cfg.podem);
    const auto& ffs = nl.flipFlops();
    // Where the top-off's time goes, while telemetry is on.
    static obs::Counter& c_v2_ns = obs::counter("atpg.transition.v2_ns");
    static obs::Counter& c_v1_ns = obs::counter("atpg.transition.v1_ns");
    static obs::Counter& c_grade_ns = obs::counter("atpg.transition.grade_ns");
    static obs::Counter& c_v1_failures = obs::counter("atpg.transition.v1_failures");
    UndetectedFaults<TransitionFault> open(faults, res.coverage.detected_mask);

    const auto tryAddTest = [&](std::size_t fi, const TwoPattern& tp) -> bool {
        const TwoPattern one[1] = {tp};
        const FaultSimResult hit =
            timed(c_grade_ns, [&] { return runTransitionFaultSim(nl, one, open.faults()); });
        if (!open.detects(hit, fi)) return false;
        open.drop(hit, res.coverage);
        res.tests.push_back(tp);
        ++res.generated;
        return true;
    };
    // V1 justification, timed and failures counted.
    const auto justifyV1 = [&](const std::vector<std::pair<NetId, Logic>>& objectives,
                               Pattern& v1) {
        const PodemOutcome out =
            timed(c_v1_ns, [&] { return podem.justifyAll(objectives, v1); });
        if (out != PodemOutcome::Success) c_v1_failures.add();
        return out;
    };

    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
        if (res.coverage.detected_mask[fi]) continue;
        const TransitionFault& tf = faults[fi];

        // V2: detect the equivalent stuck-at fault.
        Pattern v2;
        podem.clearFrozen();
        const PodemOutcome v2_out =
            timed(c_v2_ns, [&] { return podem.generate(tf.equivalentStuckAt(), v2); });
        if (v2_out == PodemOutcome::Untestable) {
            ++res.untestable;
            continue;
        }
        if (v2_out == PodemOutcome::Aborted) {
            ++res.aborted;
            continue;
        }

        // EnhancedScan's and Broadside's V1 depends only on the fault and
        // the unfilled V2, so it is justified once: a failure would repeat
        // identically, and a retry only re-fills the X positions. SkewedLoad
        // freezes V1's state to a re-filled V2, so it justifies per attempt.
        switch (style) {
            case TestApplication::EnhancedScan: {
                // V1: independently justify the initial value at the site.
                // V1 does not depend on V2 here, so a net that can never
                // take its initial value makes the fault untestable.
                Pattern v1;
                podem.clearFrozen();
                const PodemOutcome v1_out = justifyV1({{tf.net, tf.initialValue()}}, v1);
                if (v1_out == PodemOutcome::Untestable) {
                    ++res.untestable;
                    break;
                }
                if (v1_out == PodemOutcome::Aborted) {
                    ++res.aborted;
                    break;
                }
                for (int attempt = 0; attempt < cfg.justify_retries; ++attempt) {
                    TwoPattern tp;
                    tp.v1 = v1;
                    fillRandom(tp.v1, rng);
                    tp.v2 = v2;
                    fillRandom(tp.v2, rng);
                    if (tryAddTest(fi, tp)) break;
                }
                break;
            }
            case TestApplication::SkewedLoad: {
                for (int attempt = 0; attempt < cfg.justify_retries; ++attempt) {
                    // V1's state is V2's state shifted back by one position;
                    // only the PIs and the scan-out-end bit remain free.
                    Pattern v2f = v2;
                    fillRandom(v2f, rng);
                    podem.clearFrozen();
                    for (std::size_t i = 0; i + 1 < ffs.size(); ++i)
                        podem.freeze(nl.gate(ffs[i + 1]).output, v2f.state[i]);
                    Pattern v1;
                    if (justifyV1({{tf.net, tf.initialValue()}}, v1) != PodemOutcome::Success) {
                        ++res.justify_failures;
                        continue;
                    }
                    fillRandom(v1, rng);
                    // Re-derive V2's state from the (filled) V1 so the pair
                    // is structurally exact, keeping V2's required PIs.
                    const TwoPattern tp =
                        makePair(nl, style, v1, v2f.pis,
                                 v2f.state.empty() ? Logic::Zero : v2f.state.back());
                    if (tryAddTest(fi, tp)) break;
                }
                break;
            }
            case TestApplication::Broadside: {
                // V1 must drive the circuit into V2's required state: justify
                // every specified bit of V2.state at the FF D inputs — the
                // sequential justification that makes broadside coverage
                // poor.
                std::vector<std::pair<NetId, Logic>> objectives;
                for (std::size_t i = 0; i < ffs.size(); ++i) {
                    if (v2.state[i] == Logic::X) continue;
                    objectives.push_back({nl.gate(ffs[i]).inputs[0], v2.state[i]});
                }
                // The initial value at the site must hold in V1 as well.
                objectives.push_back({tf.net, tf.initialValue()});
                Pattern v1;
                podem.clearFrozen();
                if (justifyV1(objectives, v1) != PodemOutcome::Success) {
                    ++res.justify_failures;
                    break;
                }
                for (int attempt = 0; attempt < cfg.justify_retries; ++attempt) {
                    Pattern v1f = v1;
                    fillRandom(v1f, rng);
                    const TwoPattern tp = makePair(nl, style, v1f, [&] {
                        Pattern v2f = v2;
                        fillRandom(v2f, rng);
                        return v2f.pis;
                    }());
                    if (tryAddTest(fi, tp)) break;
                }
                break;
            }
        }
    }
    static obs::Counter& c_generated = obs::counter("atpg.generated");
    static obs::Counter& c_aborted = obs::counter("atpg.aborted");
    static obs::Counter& c_untestable = obs::counter("atpg.untestable");
    c_generated.add(res.generated);
    c_aborted.add(res.aborted);
    c_untestable.add(res.untestable);
    return res;
}

} // namespace flh
