#include "atpg/circuit_sat.hpp"

#include "obs/telemetry.hpp"

#include <bit>
#include <chrono>
#include <map>
#include <set>
#include <stdexcept>
#include <tuple>

namespace flh {

namespace {

constexpr sat::Var kVisited = ~sat::Var{0}; ///< good_var_ mark while walking the region

/// Now, while telemetry is on (the atpg.sat.ns counter); otherwise unread.
CircuitSat::Clock::time_point startClock() {
    return obs::enabled() ? CircuitSat::Clock::now() : CircuitSat::Clock::time_point{};
}

/// Every prime implicant of the on-set and of the off-set of `fn`'s truth
/// table, by Quine-McCluskey merging: cube -> output is one clause each.
std::vector<std::tuple<std::uint32_t, std::uint32_t, bool>> primeCubes(CellFn fn, std::size_t k) {
    using Cube = std::tuple<std::uint32_t, std::uint32_t, bool>; // care, bits, output
    const std::uint32_t all = (1u << k) - 1;
    std::set<Cube> cur;
    for (std::uint32_t r = 0; r <= all; ++r) {
        Logic ins[kMaxGateArity];
        for (std::size_t p = 0; p < k; ++p) ins[p] = (r >> p) & 1 ? Logic::One : Logic::Zero;
        const Logic y = evalCellScalar(fn, {ins, k});
        if (y == Logic::X) throw std::logic_error("cell truth table has an X row");
        cur.insert({all, r, y == Logic::One});
    }
    std::vector<Cube> primes;
    while (!cur.empty()) {
        std::set<Cube> next;
        std::set<Cube> merged;
        for (auto a = cur.begin(); a != cur.end(); ++a) {
            for (auto b = std::next(a); b != cur.end(); ++b) {
                const auto [care_a, bits_a, out_a] = *a;
                const auto [care_b, bits_b, out_b] = *b;
                const std::uint32_t diff = bits_a ^ bits_b;
                if (out_a != out_b || care_a != care_b || std::popcount(diff) != 1) continue;
                next.insert({care_a & ~diff, bits_a & ~diff, out_a});
                merged.insert(*a);
                merged.insert(*b);
            }
        }
        for (const Cube& c : cur)
            if (!merged.count(c)) primes.push_back(c);
        cur = std::move(next);
    }
    return primes;
}

} // namespace

CircuitSat::CircuitSat(const Netlist& nl) : nl_(&nl) {
    is_source_.assign(nl.netCount(), 0);
    is_obs_.assign(nl.netCount(), 0);
    for (const NetId pi : nl.pis()) {
        is_source_[pi] = 1;
        sources_.push_back(pi);
    }
    for (const GateId ff : nl.flipFlops()) {
        const Gate& g = nl.gate(ff);
        is_source_[g.output] = 1;
        sources_.push_back(g.output);
        is_obs_[g.inputs[0]] = 1;
    }
    for (const NetId po : nl.pos()) is_obs_[po] = 1;

    // One clause template per (cell function, arity) in use.
    std::map<std::pair<CellFn, std::size_t>, std::uint16_t> index;
    gate_template_.assign(nl.gateCount(), 0);
    for (GateId g = 0; g < nl.gateCount(); ++g) {
        const Gate& gate = nl.gate(g);
        if (isSequential(gate.fn)) continue;
        const auto key = std::make_pair(gate.fn, gate.inputs.size());
        const auto it = index.find(key);
        if (it != index.end()) {
            gate_template_[g] = it->second;
            continue;
        }
        const std::size_t k = gate.inputs.size();
        Template t;
        const auto pin = [](std::size_t p, bool neg) {
            return TemplateLit{static_cast<std::uint8_t>(p), neg};
        };
        switch (gate.fn) {
            case CellFn::Buf:
            case CellFn::Inv:
            case CellFn::And:
            case CellFn::Nand:
            case CellFn::Or:
            case CellFn::Nor: {
                // y' = AND(a) or OR(a), with y' = NOT y for the inverting cells.
                const bool inv =
                    gate.fn == CellFn::Inv || gate.fn == CellFn::Nand || gate.fn == CellFn::Nor;
                const bool is_or = gate.fn == CellFn::Or || gate.fn == CellFn::Nor;
                // The clause holding every input says "all inputs at the
                // non-controlling value force y'"; each binary one says
                // "one input at the controlling value forces y'".
                std::vector<TemplateLit> wide;
                for (std::size_t p = 0; p < k; ++p) {
                    t.push_back({pin(p, is_or), TemplateLit{kOutputPin, is_or == inv}});
                    wide.push_back(pin(p, !is_or));
                }
                wide.push_back(TemplateLit{kOutputPin, is_or != inv});
                t.push_back(std::move(wide));
                break;
            }
            default:
                for (const auto& [care, bits, one] : primeCubes(gate.fn, k)) {
                    std::vector<TemplateLit> clause;
                    for (std::size_t p = 0; p < k; ++p)
                        if ((care >> p) & 1) clause.push_back(pin(p, (bits >> p) & 1));
                    clause.push_back(TemplateLit{kOutputPin, !one});
                    t.push_back(std::move(clause));
                }
                break;
        }
        const auto id = static_cast<std::uint16_t>(templates_.size());
        templates_.push_back(std::move(t));
        index.emplace(key, id);
        gate_template_[g] = id;
    }

    good_var_.assign(nl.netCount(), 0);
    d_var_.assign(nl.netCount(), 0);
    faulty_.assign(nl.netCount(), sat::Lit{});
    in_cone_.assign(nl.gateCount(), 0);
}

void CircuitSat::addGateClauses(GateId g, const sat::Lit* ins, sat::Lit out) {
    for (const auto& clause : templates_[gate_template_[g]]) {
        lits_.clear();
        for (const TemplateLit& t : clause) {
            const sat::Lit l = t.pin == kOutputPin ? out : ins[t.pin];
            lits_.push_back(t.negated ? ~l : l);
        }
        solver_.addClause(lits_);
    }
}

bool CircuitSat::encodeGoodRegion(const std::vector<NetId>& roots) {
    stack_.assign(roots.begin(), roots.end());
    while (!stack_.empty()) {
        const NetId n = stack_.back();
        stack_.pop_back();
        if (good_var_[n] != 0) continue;
        good_var_[n] = kVisited;
        region_nets_.push_back(n);
        if (isSource(n)) continue;
        const GateId g = nl_->net(n).driver;
        if (g == kInvalidId) return false;
        region_gates_.push_back(g);
        for (const NetId in : nl_->gate(g).inputs)
            if (good_var_[in] == 0) stack_.push_back(in);
    }
    // Sources take the first variables: the solver's first decisions then
    // follow PODEM's (sources only, in PI-then-FF order).
    for (const NetId s : sources_)
        if (good_var_[s] != 0) good_var_[s] = solver_.newVar() + 1;
    for (const NetId n : region_nets_)
        if (!isSource(n)) good_var_[n] = solver_.newVar() + 1;
    sat::Lit ins[kMaxGateArity];
    for (const GateId g : region_gates_) {
        const Gate& gate = nl_->gate(g);
        for (std::size_t p = 0; p < gate.inputs.size(); ++p) ins[p] = good(gate.inputs[p]);
        addGateClauses(g, ins, good(gate.output));
    }
    return true;
}

void CircuitSat::addFrozenUnits(const std::vector<Logic>& frozen) {
    for (const NetId s : sources_)
        if (good_var_[s] != 0 && frozen[s] != Logic::X)
            solver_.addClause({frozen[s] == Logic::One ? good(s) : ~good(s)});
}

void CircuitSat::clearMarks() {
    for (const NetId n : region_nets_) good_var_[n] = 0;
    for (const NetId n : cone_nets_) d_var_[n] = 0;
    for (const GateId g : cone_) in_cone_[g] = 0;
    region_nets_.clear();
    region_gates_.clear();
    cone_nets_.clear();
    cone_.clear();
}

PodemOutcome CircuitSat::solve(const std::vector<Logic>& frozen, Pattern& out, Clock::time_point t0) {
    static obs::Counter& c_calls = obs::counter("atpg.sat.calls");
    static obs::Counter& c_sat = obs::counter("atpg.sat.sat");
    static obs::Counter& c_unsat = obs::counter("atpg.sat.unsat");
    static obs::Counter& c_aborted = obs::counter("atpg.sat.aborted");
    static obs::Counter& c_conflicts = obs::counter("atpg.sat.conflicts");
    static obs::Counter& c_ns = obs::counter("atpg.sat.ns");

    const sat::Result r = solver_.solve(kMaxConflicts);
    c_calls.add();
    c_conflicts.add(solver_.conflicts());

    PodemOutcome outcome = PodemOutcome::Aborted;
    switch (r) {
        case sat::Result::Sat: {
            c_sat.add();
            const auto sourceValue = [&](NetId s) {
                if (frozen[s] != Logic::X) return frozen[s];
                if (good_var_[s] == 0) return Logic::X;
                return solver_.modelValue(good_var_[s] - 1) ? Logic::One : Logic::Zero;
            };
            out.pis.clear();
            out.state.clear();
            for (const NetId pi : nl_->pis()) out.pis.push_back(sourceValue(pi));
            for (const GateId ff : nl_->flipFlops())
                out.state.push_back(sourceValue(nl_->gate(ff).output));
            outcome = PodemOutcome::Success;
            break;
        }
        case sat::Result::Unsat:
            c_unsat.add();
            outcome = PodemOutcome::Untestable;
            break;
        case sat::Result::Unknown:
            c_aborted.add();
            break;
    }
    clearMarks();
    if (obs::enabled())
        c_ns.add(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count()));
    return outcome;
}

PodemOutcome CircuitSat::generate(const FaultSite& fault, const std::vector<Logic>& frozen,
                                  Pattern& out, sat::ProofSink* proof) {
    const Clock::time_point t0 = startClock();
    solver_.reset(proof);

    // The fanout cone: gates in BFS order, and the nets that can differ.
    const auto enter = [&](GateId g) {
        if (isSequential(nl_->gate(g).fn) || in_cone_[g]) return;
        in_cone_[g] = 1;
        cone_.push_back(g);
    };
    if (fault.isPinFault()) {
        enter(fault.gate);
    } else {
        cone_nets_.push_back(fault.net);
        for (const PinRef& pr : nl_->fanout(fault.net)) enter(pr.gate);
    }
    for (std::size_t i = 0; i < cone_.size(); ++i) {
        const NetId o = nl_->gate(cone_[i]).output;
        cone_nets_.push_back(o);
        for (const PinRef& pr : nl_->fanout(o)) enter(pr.gate);
    }

    if (!encodeGoodRegion(cone_nets_)) {
        clearMarks();
        return PodemOutcome::Aborted;
    }

    const sat::Lit one = sat::Lit::make(solver_.newVar());
    solver_.addClause({one});
    const sat::Lit stuck = fault.stuck_at_one ? one : ~one;

    // Faulty machine over the cone; the fault net of a net fault is the
    // stuck constant. Every cone net gets its d variable.
    for (const NetId n : cone_nets_) {
        d_var_[n] = solver_.newVar() + 1;
        faulty_[n] = (!fault.isPinFault() && n == fault.net) ? stuck
                                                              : sat::Lit::make(solver_.newVar());
    }
    sat::Lit ins[kMaxGateArity];
    for (const GateId g : cone_) {
        const Gate& gate = nl_->gate(g);
        for (std::size_t p = 0; p < gate.inputs.size(); ++p) {
            const NetId in = gate.inputs[p];
            if (g == fault.gate && static_cast<int>(p) == fault.pin)
                ins[p] = stuck;
            else
                ins[p] = d_var_[in] != 0 ? faulty_[in] : good(in);
        }
        addGateClauses(g, ins, faulty_[gate.output]);
    }

    // The active-path chain from the site to some observation point.
    for (const NetId n : cone_nets_) {
        const sat::Lit d = sat::Lit::make(d_var_[n] - 1);
        solver_.addClause({~d, good(n), faulty_[n]});
        solver_.addClause({~d, ~good(n), ~faulty_[n]});
        if (is_obs_[n]) continue;
        lits_.clear();
        lits_.push_back(~d);
        for (const PinRef& pr : nl_->fanout(n))
            if (in_cone_[pr.gate])
                lits_.push_back(sat::Lit::make(d_var_[nl_->gate(pr.gate).output] - 1));
        solver_.addClause(lits_);
    }
    const NetId site = fault.isPinFault() ? nl_->gate(fault.gate).output : fault.net;
    solver_.addClause({sat::Lit::make(d_var_[site] - 1)});

    addFrozenUnits(frozen);
    return solve(frozen, out, t0);
}

PodemOutcome CircuitSat::justifyAll(const std::vector<std::pair<NetId, Logic>>& objectives,
                                    const std::vector<Logic>& frozen, Pattern& out,
                                    sat::ProofSink* proof) {
    const Clock::time_point t0 = startClock();
    solver_.reset(proof);
    roots_.clear();
    for (const auto& [net, v] : objectives) roots_.push_back(net);
    if (!encodeGoodRegion(roots_)) {
        clearMarks();
        return PodemOutcome::Aborted;
    }
    for (const auto& [net, v] : objectives) {
        if (v == Logic::X) continue;
        solver_.addClause({v == Logic::One ? good(net) : ~good(net)});
    }
    addFrozenUnits(frozen);
    return solve(frozen, out, t0);
}

} // namespace flh
