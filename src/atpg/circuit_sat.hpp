// SAT-based test generation over a Netlist: the CNF encodings PODEM hands
// its aborts to (atpg/podem.hpp), solved by the in-repo CDCL solver
// (atpg/sat.hpp).
//
// Two formulas, over the same full-scan view as PODEM (PIs and FF outputs
// are the sources; POs and FF D inputs are the observation points):
//  * generate(): the good/faulty miter of a stuck-at fault. The faulty
//    machine is encoded over the fault's combinational fanout cone only; its
//    side inputs, and the good values of the cone nets, come from the good
//    machine over the cone's transitive fan-in. Each cone net n also gets an
//    "active path" variable d_n (Larrabee, IEEE TCAD 1992):
//      d_n -> good_n != faulty_n, and, unless n is an observation point,
//      d_n -> OR(d of the outputs of n's fanout gates inside the cone);
//    d at the fault site is asserted, so a model is a path of differences
//    from the site to an observation point. Without the chain the solver
//    has to discover that redundant differences die out; with it that is
//    unit propagation.
//  * justifyAll(): the fan-in cone of the objective nets, with the
//    objectives as unit clauses.
// In both, frozen sources are unit clauses, and the model becomes the
// pattern: frozen sources keep their values, the other sources of the
// encoded region (the support) take the model's, and every source outside
// it stays X. Each net in the region is then a definite function of the
// support, so the pattern works under three-valued simulation and any fill.
//
// Gate clauses are built once per cell function and arity: And/Or/Nand/
// Nor/Buf/Inv by hand (arity + 1 clauses), every other cell as the prime
// implicants of evalCellScalar's truth table, so the encoding is exact for
// the same Kleene cell functions the simulators use.
//
// Unsat means no pattern exists: the verdict is Untestable, with the proof
// in the caller's ProofSink when one is given. A formula not decided within
// kMaxConflicts conflicts is Aborted.
#pragma once

#include "atpg/podem.hpp"
#include "atpg/sat.hpp"

#include <chrono>
#include <utility>
#include <vector>

namespace flh {

class CircuitSat {
public:
    using Clock = std::chrono::steady_clock;

    /// Conflicts one formula may use before the verdict is Aborted.
    static constexpr std::uint64_t kMaxConflicts = 50000;

    explicit CircuitSat(const Netlist& nl);

    /// A pattern detecting `fault` with every source whose `frozen` entry
    /// (per net) is not X fixed to that value.
    PodemOutcome generate(const FaultSite& fault, const std::vector<Logic>& frozen, Pattern& out,
                          sat::ProofSink* proof = nullptr);

    /// A pattern setting every (net, value) objective at once.
    PodemOutcome justifyAll(const std::vector<std::pair<NetId, Logic>>& objectives,
                            const std::vector<Logic>& frozen, Pattern& out,
                            sat::ProofSink* proof = nullptr);

private:
    /// One literal of a gate clause template: an input pin, or the output.
    struct TemplateLit {
        std::uint8_t pin; ///< kOutputPin for the output
        bool negated;
    };
    static constexpr std::uint8_t kOutputPin = 0xFF;
    using Template = std::vector<std::vector<TemplateLit>>;

    [[nodiscard]] bool isSource(NetId n) const { return is_source_[n] != 0; }
    [[nodiscard]] sat::Lit good(NetId n) const { return sat::Lit::make(good_var_[n] - 1); }

    /// Give every net in the transitive fan-in of `roots` (roots included)
    /// a good-machine variable, sources first, and collect the driving
    /// gates into region_gates_. False if an undriven non-PI net is reached
    /// (its simulated value is X, which the two-valued encoding cannot say).
    bool encodeGoodRegion(const std::vector<NetId>& roots);
    /// Instantiate gate `g`'s template with `ins[p]` on pin p and `out`.
    void addGateClauses(GateId g, const sat::Lit* ins, sat::Lit out);
    void addFrozenUnits(const std::vector<Logic>& frozen);
    /// Solve the encoded formula, count the call in the atpg.sat.*
    /// counters (encoding included in its time from `t0`) and clear marks.
    PodemOutcome solve(const std::vector<Logic>& frozen, Pattern& out, Clock::time_point t0);
    /// Clear every per-net and per-gate mark this call set.
    void clearMarks();

    const Netlist* nl_;
    std::vector<Template> templates_;
    std::vector<std::uint16_t> gate_template_; ///< per combinational gate
    std::vector<std::uint8_t> is_source_;      ///< per net: PI or FF output
    std::vector<std::uint8_t> is_obs_;         ///< per net: PO or FF D input
    std::vector<NetId> sources_;               ///< PIs, then FF outputs
    sat::Solver solver_;

    // Per call; every entry is back to 0 between calls.
    std::vector<sat::Var> good_var_;    ///< per net: variable + 1
    std::vector<sat::Var> d_var_;       ///< per net: variable + 1
    std::vector<std::uint8_t> in_cone_; ///< per gate
    std::vector<sat::Lit> faulty_;      ///< per net, for nets with a d variable
    std::vector<NetId> region_nets_;
    std::vector<GateId> region_gates_;
    std::vector<GateId> cone_;
    std::vector<NetId> cone_nets_;
    std::vector<NetId> roots_;   ///< reused: justifyAll's objective nets
    std::vector<NetId> stack_;   ///< reused: the region walk stack
    std::vector<sat::Lit> lits_; ///< reused: the clause being built
};

} // namespace flh
