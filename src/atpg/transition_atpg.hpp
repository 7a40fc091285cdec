// Two-pattern (transition-fault) test generation for the paper's three
// application styles.
//
// The generation difficulty ordering is the paper's motivation (Section I):
//  * EnhancedScan — V1 and V2 are independent PODEM problems ("allows easy
//    application of a transition and enables deterministic choice of any
//    launching pattern ... for best possible fault coverage"). FLH applies
//    the *same* vectors — the benches verify the coverage is identical.
//  * SkewedLoad — V1's state is V2's state shifted by one position, so the
//    launch pattern is highly correlated with the initialization pattern
//    ("test generation for high fault coverage can be difficult").
//  * Broadside — V2's state must be the circuit's response to V1, a
//    sequential justification problem ("can suffer from poor fault
//    coverage").
#pragma once

#include "atpg/stuck_atpg.hpp"

namespace flh {

struct TransitionAtpgConfig {
    int random_pairs = 128;
    int justify_retries = 3; ///< fill attempts per fault (SkewedLoad re-justifies V1 on each)
    PodemConfig podem{};
    std::uint64_t seed = 11;
};

struct TransitionAtpgResult {
    TestApplication style = TestApplication::EnhancedScan;
    std::vector<TwoPattern> tests;
    FaultSimResult coverage; ///< final fault-sim over all generated tests
    std::size_t generated = 0;
    /// Faults left without a verdict: V2 generation, or EnhancedScan's V1
    /// justification, aborted.
    std::size_t aborted = 0;
    /// Faults proven untestable: no V2 detects the stuck-at equivalent, or
    /// (EnhancedScan, whose V1 is independent of V2) no V1 sets the initial
    /// value. With no aborts, EnhancedScan's detected + untestable is every
    /// fault.
    std::size_t untestable = 0;
    /// Broadside and SkewedLoad faults whose V1 could not meet the style
    /// constraint; that V1 depends on V2's fill, so it proves nothing.
    /// SkewedLoad counts each failed attempt, since every retry re-fills
    /// V2's state.
    std::size_t justify_failures = 0;
};

[[nodiscard]] TransitionAtpgResult generateTransitionTests(const Netlist& nl,
                                                           TestApplication style,
                                                           std::span<const TransitionFault> faults,
                                                           const TransitionAtpgConfig& cfg = {});

} // namespace flh
