// Fault models: stuck-at and transition (gate-delay) faults.
//
// Fault universe follows standard practice (Bushnell & Agrawal, the paper's
// reference [11]):
//  * stuck-at faults on every gate output net and every gate input pin,
//    collapsed by structural equivalence (a fanout-free net keeps only the
//    output fault of its dominating class);
//  * transition faults (slow-to-rise / slow-to-fall) on every net — a
//    slow-to-rise fault at n is detected by a two-pattern test (V1, V2)
//    where V1 sets n = 0 and V2 both sets n = 1 and propagates n's
//    stuck-at-0 effect to an observation point.
//
// Section IV of the paper: FLH changes neither the models nor the vectors;
// this module lets the benches demonstrate that instead of asserting it.
#pragma once

#include "sim/packed_sim.hpp"

#include <string>
#include <vector>

namespace flh {

/// Transition-fault polarity.
enum class Transition : std::uint8_t {
    SlowToRise, ///< tested by V1: n=0, V2: detect n stuck-at-0
    SlowToFall, ///< tested by V1: n=1, V2: detect n stuck-at-1
};

struct TransitionFault {
    NetId net = kInvalidId;
    Transition kind = Transition::SlowToRise;

    [[nodiscard]] bool operator==(const TransitionFault&) const noexcept = default;

    /// The stuck-at fault whose detection by V2 completes the test.
    [[nodiscard]] FaultSite equivalentStuckAt() const noexcept {
        FaultSite f;
        f.net = net;
        f.stuck_at_one = (kind == Transition::SlowToFall);
        return f;
    }

    /// Value V1 must establish at the net.
    [[nodiscard]] Logic initialValue() const noexcept {
        return kind == Transition::SlowToRise ? Logic::Zero : Logic::One;
    }
};

/// Human-readable fault names for reports.
[[nodiscard]] std::string toString(const Netlist& nl, const FaultSite& f);
[[nodiscard]] std::string toString(const Netlist& nl, const TransitionFault& f);

/// Full (uncollapsed) stuck-at list: 2 output faults per net + 2 faults per
/// gate input pin.
[[nodiscard]] std::vector<FaultSite> allStuckAtFaults(const Netlist& nl);

/// Structurally collapsed stuck-at list. For single-input cells (BUF/INV)
/// input faults are equivalent to (possibly inverted) output faults; on
/// fanout-free nets, input faults collapse into the net fault.
[[nodiscard]] std::vector<FaultSite> collapsedStuckAtFaults(const Netlist& nl);

/// Transition-fault list: slow-to-rise and slow-to-fall on every gate output
/// and primary input net.
[[nodiscard]] std::vector<TransitionFault> allTransitionFaults(const Netlist& nl);

} // namespace flh
