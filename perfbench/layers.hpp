// Benchmark-side instrumentation of the program's layers.
//
// The traced run needs time per layer, but the program records no spans
// inside its stage functions. So the traced run swaps in replicas built
// only from the public functions, each call wrapped in a perfbench span:
//
//  * buildTracedPaperFlow: the paper flow graph with the same stage names,
//    configs and artifacts as flh::buildPaperFlow, its stage bodies
//    timing readBenchString / insertScan / planDft / evaluateDft /
//    optimizeFanout / generateTransitionTests / runTransitionFaultSim.
//  * evaluateDftTraced: flh::evaluateDft spelled out over runSta and
//    measureNormalPower, so sta and power time shows apart from dft.
//
// A replica that drifts from the original is caught, not trusted: the
// workloads compare its reportJson / DftEvaluation with the untraced
// original on the same inputs and count a difference as a failed operation.
#pragma once

#include "atpg/podem.hpp"
#include "dft/design.hpp"
#include "flow/paper_flow.hpp"

#include <cstdint>
#include <vector>

namespace perfbench {

[[nodiscard]] const flh::Library& library();

[[nodiscard]] flh::FlowGraph buildTracedPaperFlow(const flh::PaperFlowConfig& cfg);

[[nodiscard]] flh::DftEvaluation evaluateDftTraced(const flh::Netlist& nl,
                                                   const flh::DftDesign& d,
                                                   const flh::PowerConfig& power_cfg);

/// Field-by-field equality of two evaluations (exact: both sides run the
/// same deterministic code on the same inputs).
[[nodiscard]] bool sameEvaluation(const flh::DftEvaluation& a, const flh::DftEvaluation& b);

/// The standalone PODEM probe: regrade the transition ATPG's random phase
/// (same pairs as generateTransitionTests draws for EnhancedScan), then run
/// Podem::generate on every surviving fault's equivalent stuck-at fault and
/// Podem::justify on the initial value of every fault it detects.
struct PodemProbe {
    std::size_t survivors = 0;
    std::size_t success = 0;
    std::size_t untestable = 0;
    std::size_t aborted = 0;
    std::uint64_t backtracks = 0;
    std::vector<double> success_ms, untestable_ms, aborted_ms; ///< per generate call
    std::vector<double> justify_ms;                           ///< per justify call
};

[[nodiscard]] PodemProbe probePodem(const flh::Netlist& scanned, int random_pairs,
                                    std::uint64_t atpg_seed);

} // namespace perfbench
