// PODEM (Path-Oriented DEcision Making) test generation.
//
// Combinational, over the full-scan view: the controllable sources are the
// primary inputs and the flip-flop outputs (scan state); the observation
// points are the primary outputs and the flip-flop D inputs.
//
// The implementation runs the good and the faulty machine in one one-word
// PackedSim (W = 1): every slot carries the one candidate assignment, slot 0
// is the good machine and slot 1 the faulty one, with the target fault
// injected into slot 1 only for the whole generation. Each source
// assignment is driven once and propagated event-driven through both
// machines in the same gate evaluations. This gives the classical D-algebra
// for free: a net carries "D" when the two slots hold definite, different
// values. Backtracing uses a generic gate-agnostic objective rule (try each
// unassigned input with each value; prefer the one that forces the
// objective), so complex cells (AOI/OAI/MUX) need no special cases.
//
// Only the fault's combinational fanout cone can carry D, so generate()
// collects that cone once, in topological order (with a pin fault's
// receiving gate), together with the observation points inside it; the
// D-frontier and the observation check walk those lists instead of the
// whole netlist and make the same choices. A backtrack sets every popped
// source back to X and the flipped one to its other value, then propagates
// once: the settled values are the same as one propagate per source.
//
// Sources can be frozen to fixed values before generation — that is how the
// skewed-load ATPG constrains V1's state to be the shifted V2 state, and how
// broadside justification pins the required next-state bits.
//
// Division of work. PODEM is quick to find a test for an easy fault and slow
// to prove a hard one untestable: most of what it used to abort at 300
// backtracks was redundant logic it could not prove redundant. So the
// decision loop runs only up to a small backtrack budget, and a call it
// aborts falls through, with the same frozen sources, to a SAT formulation
// of the same question (atpg/circuit_sat.hpp): the good/faulty miter over
// the fault's cone with an active-path (D-chain) variable per cone net for
// generate(), the fan-in cone of the objectives for justifyAll(). The
// solver's model becomes the pattern; an Unsat answer is Untestable.
// Aborted now means only that the solver hit its conflict cap too.
//
// An Untestable verdict therefore has two sources: PODEM exhausting its
// decision tree within the budget, or SAT refuting the formula. The second
// kind can carry a DRUP proof: pass a sat::ProofSink and the solver writes
// the formula and its derivation there, for verify/drup.hpp to replay.
#pragma once

#include "fault/fault_sim.hpp"

#include <memory>
#include <optional>
#include <vector>

namespace flh {

namespace sat {
class ProofSink;
}
class CircuitSat;

struct PodemConfig {
    /// PODEM's own budget; past it the call falls through to SAT.
    int max_backtracks = 2;
};

/// Outcome classification for one generation attempt.
enum class PodemOutcome : std::uint8_t { Success, Untestable, Aborted };

class Podem {
public:
    explicit Podem(const Netlist& nl, PodemConfig cfg = {});
    ~Podem();

    /// Freeze a source (PI or FF output) net to a value for all subsequent
    /// calls; pass Logic::X to unfreeze. Throws if `net` is not a source.
    void freeze(NetId net, Logic value);
    void clearFrozen();

    /// Generate a pattern detecting `fault`. On success the pattern has
    /// Logic::X in positions neither engine needed (caller random-fills).
    /// When SAT decides the call, `proof` (may be null) receives its
    /// formula and derivation; nothing is written when PODEM decides it.
    PodemOutcome generate(const FaultSite& fault, Pattern& out, sat::ProofSink* proof = nullptr);

    /// Justify `value` on `net` (no fault, no propagation requirement).
    PodemOutcome justify(NetId net, Logic value, Pattern& out, sat::ProofSink* proof = nullptr);

    /// Justify several (net, value) requirements simultaneously.
    PodemOutcome justifyAll(const std::vector<std::pair<NetId, Logic>>& objectives, Pattern& out,
                            sat::ProofSink* proof = nullptr);

    /// PODEM backtracks of the last call (SAT's conflicts are not counted).
    [[nodiscard]] std::size_t backtracksUsed() const noexcept { return backtracks_; }

private:
    struct Decision {
        NetId source;
        Logic value;
        bool tried_both;
    };

    void resetState();
    /// Assign a source without propagating (callers batch the propagate).
    void setSource(NetId source, Logic v);
    /// Collect the fault's fanout cone into cone_ and cone_obs_.
    void collectCone(const FaultSite& f);
    [[nodiscard]] Logic goodValue(NetId n) const;
    [[nodiscard]] Logic faultyValue(NetId n) const;
    [[nodiscard]] bool hasD(NetId n) const;
    [[nodiscard]] bool isSource(NetId n) const;

    /// Walk an objective back to an unassigned, unfrozen source.
    [[nodiscard]] std::optional<std::pair<NetId, Logic>> backtrace(NetId net, Logic v);

    /// The first X input of the first D-frontier gate (D on an input, X on
    /// the output) in topological order, with the value to try on it. Walks
    /// the fault cone only.
    [[nodiscard]] std::optional<std::pair<NetId, Logic>> frontierObjective() const;

    /// True if some observation point of the fault cone carries D.
    [[nodiscard]] bool faultObserved() const;

    /// Shared decision loop; `goal` returns +1 done, 0 keep going, -1 dead end.
    template <typename GoalFn, typename ObjectiveFn>
    PodemOutcome decisionLoop(GoalFn goal, ObjectiveFn next_objective, Pattern& out);

    Pattern extractPattern() const;

    /// Add this call's totals to the atpg.podem.{calls, decisions,
    /// backtracks, gate_evals} telemetry counters.
    void flushCounters() const;

    const Netlist* nl_;
    PodemConfig cfg_;
    std::unique_ptr<CircuitSat> sat_; ///< settles what the decision loop aborts
    static constexpr std::uint64_t kFaultySlot = 0b10; ///< slot mask of the faulty machine
    PackedSim sim_; ///< W = 1: good machine in slot 0, faulty in slot 1
    std::vector<NetId> sources_;
    std::vector<std::uint32_t> topo_rank_; ///< per gate: position in topoOrder()
    std::vector<std::uint8_t> is_obs_;     ///< per net: PO or FF D input
    std::vector<std::uint8_t> in_cone_;    ///< per gate, all 0 between calls
    std::vector<GateId> cone_;             ///< fault cone, combinational, topological
    std::vector<NetId> cone_obs_;          ///< observation nets inside the cone
    std::vector<Logic> frozen_;   ///< per net (X = not frozen)
    std::vector<Logic> assigned_; ///< per net (X = unassigned), sources only
    std::vector<Decision> stack_;
    std::size_t backtracks_ = 0;
    std::size_t decisions_ = 0;  ///< new decisions pushed (flips not counted)
    std::size_t gate_evals_ = 0; ///< sum of propagate() returns
    bool fault_active_ = false;
    FaultSite fault_{};
};

} // namespace flh
