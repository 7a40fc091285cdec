// Naive reference evaluation: the independent oracle for the event-driven
// engine (sim/packed_sim.hpp) and the fault graders built on it
// (fault/parallel_sim.hpp).
//
// Every evaluation here is a full pass over every combinational gate in
// topological order, up to 64 patterns at once (one per slot of a PV,
// through the same Kleene cell functions evalCellScalar wraps). It shares
// nothing with PackedSim beyond those cell truth tables: no event queue, no
// levels, no word planes, no undo log, no injection hooks. A faulty machine
// is a second full evaluation with the fault applied while evaluating, and
// a fault counts as detected by a pattern when some observation point (a PO
// or an FF D net) is a definite 0 in one machine and a definite 1 in the
// other.
//
// It is deliberately plain — O(patterns / 64 x faults x gates) — and meant
// for the small circuits of tests and the fuzzer. Patterns whose shape does
// not match the netlist throw std::invalid_argument.
#pragma once

#include "fault/fault_sim.hpp"

#include <span>
#include <vector>

namespace flh {

/// One full evaluation of a 64-slot word: `sources` holds the PIs then the
/// FF Q nets, one PV each; returns every net's PV. With a fault, evaluates
/// the faulty machine (see refEval).
[[nodiscard]] std::vector<PV> refEvalWord(const Netlist& nl, const std::vector<PV>& sources,
                                          const FaultSite* fault = nullptr);

/// Settled value of every net under `p` (X where unknown). With a fault,
/// evaluates the faulty machine instead: a net fault pins its net to the
/// stuck value (sources included), a pin fault replaces that one input of
/// the receiving gate's evaluation.
[[nodiscard]] std::vector<Logic> refEval(const Netlist& nl, const Pattern& p,
                                         const FaultSite* fault = nullptr);

/// Per-fault, per-pattern stuck-at detection: `result[f][i]` is true iff
/// pattern `i` detects fault `f`.
[[nodiscard]] std::vector<std::vector<bool>> refStuckAtDetections(
    const Netlist& nl, std::span<const Pattern> pats, std::span<const FaultSite> faults);

/// Transition n-detect count per fault: the tests whose V1 settles the
/// fault site to its initial value and whose V2 detects the equivalent
/// stuck-at fault.
[[nodiscard]] std::vector<std::size_t> refTransitionDetections(
    const Netlist& nl, std::span<const TwoPattern> tests,
    std::span<const TransitionFault> faults);

} // namespace flh
