#include "atpg/podem.hpp"

#include "atpg/circuit_sat.hpp"
#include "obs/telemetry.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace flh {

Podem::Podem(const Netlist& nl, PodemConfig cfg)
    : nl_(&nl), cfg_(cfg), sat_(std::make_unique<CircuitSat>(nl)), sim_(nl, 1) {
    for (const NetId pi : nl.pis()) sources_.push_back(pi);
    for (const GateId ff : nl.flipFlops()) sources_.push_back(nl.gate(ff).output);
    frozen_.assign(nl.netCount(), Logic::X);
    assigned_.assign(nl.netCount(), Logic::X);
    topo_rank_.assign(nl.gateCount(), 0);
    const auto& topo = nl.topoOrder();
    for (std::size_t i = 0; i < topo.size(); ++i)
        topo_rank_[topo[i]] = static_cast<std::uint32_t>(i);
    is_obs_.assign(nl.netCount(), 0);
    for (const NetId po : nl.pos()) is_obs_[po] = 1;
    for (const GateId ff : nl.flipFlops()) is_obs_[nl.gate(ff).inputs[0]] = 1;
    in_cone_.assign(nl.gateCount(), 0);
}

Podem::~Podem() = default;

void Podem::freeze(NetId net, Logic value) {
    if (!isSource(net)) throw std::invalid_argument("freeze: not a source net");
    frozen_.at(net) = value;
}

void Podem::clearFrozen() { frozen_.assign(nl_->netCount(), Logic::X); }

bool Podem::isSource(NetId n) const {
    const Net& net = nl_->net(n);
    return net.is_pi || (net.driver != kInvalidId && isSequential(nl_->gate(net.driver).fn));
}

void Podem::resetState() {
    sim_.reset();
    assigned_.assign(nl_->netCount(), Logic::X);
    stack_.clear();
    backtracks_ = 0;
    decisions_ = 0;
    gate_evals_ = 0;
    if (fault_active_) sim_.injectFault(fault_, kFaultySlot);
    for (const NetId s : sources_) {
        if (frozen_[s] != Logic::X) {
            assigned_[s] = frozen_[s];
            sim_.setNet(s, 0, PV::all(frozen_[s]));
        }
    }
    gate_evals_ += sim_.propagate();
}

void Podem::setSource(NetId source, Logic v) {
    assigned_[source] = v;
    sim_.setNet(source, 0, PV::all(v));
}

void Podem::collectCone(const FaultSite& f) {
    cone_.clear();
    cone_obs_.clear();
    const auto enter = [&](GateId g) {
        if (isSequential(nl_->gate(g).fn) || in_cone_[g]) return;
        in_cone_[g] = 1;
        cone_.push_back(g);
    };
    const auto visitNet = [&](NetId n) {
        if (is_obs_[n]) cone_obs_.push_back(n);
        for (const PinRef& pr : nl_->fanout(n)) enter(pr.gate);
    };
    // A pin fault's difference starts at its receiving gate; the stem
    // itself never carries D.
    if (f.isPinFault()) {
        enter(f.gate);
    } else {
        visitNet(f.net);
    }
    for (std::size_t i = 0; i < cone_.size(); ++i) visitNet(nl_->gate(cone_[i]).output);
    std::sort(cone_.begin(), cone_.end(),
              [&](GateId a, GateId b) { return topo_rank_[a] < topo_rank_[b]; });
    for (const GateId g : cone_) in_cone_[g] = 0;
}

void Podem::flushCounters() const {
    static obs::Counter& calls = obs::counter("atpg.podem.calls");
    static obs::Counter& decisions = obs::counter("atpg.podem.decisions");
    static obs::Counter& backtracks = obs::counter("atpg.podem.backtracks");
    static obs::Counter& gate_evals = obs::counter("atpg.podem.gate_evals");
    calls.add();
    decisions.add(decisions_);
    backtracks.add(backtracks_);
    gate_evals.add(gate_evals_);
}

Logic Podem::goodValue(NetId n) const { return sim_.get(n, 0, 0); }
Logic Podem::faultyValue(NetId n) const { return sim_.get(n, 0, 1); }

bool Podem::hasD(NetId n) const {
    const Logic g = goodValue(n);
    const Logic f = faultyValue(n);
    return g != Logic::X && f != Logic::X && g != f;
}

std::optional<std::pair<NetId, Logic>> Podem::backtrace(NetId net, Logic v) {
    // Walk toward the sources on the good machine, at each gate choosing an
    // unassigned input whose value can still produce the objective. The
    // choice only steers the search — a poor pick is corrected by
    // backtracking, so the generic rule is sound for every cell function.
    for (int guard = 0; guard < static_cast<int>(nl_->netCount()) + 8; ++guard) {
        if (isSource(net)) {
            if (assigned_[net] != Logic::X || frozen_[net] != Logic::X) return std::nullopt;
            return std::make_pair(net, v);
        }
        const GateId g = nl_->net(net).driver;
        if (g == kInvalidId) return std::nullopt;
        const Gate& gate = nl_->gate(g);

        const auto evalWith = [&](std::size_t pin, Logic b) {
            Logic ins[8];
            for (std::size_t p = 0; p < gate.inputs.size(); ++p)
                ins[p] = (p == pin) ? b : goodValue(gate.inputs[p]);
            return evalCellScalar(gate.fn, {ins, gate.inputs.size()});
        };

        std::optional<std::pair<std::size_t, Logic>> forcing;
        std::optional<std::pair<std::size_t, Logic>> possible;
        for (std::size_t p = 0; p < gate.inputs.size() && !forcing; ++p) {
            if (goodValue(gate.inputs[p]) != Logic::X) continue;
            for (const Logic b : {Logic::Zero, Logic::One}) {
                const Logic r = evalWith(p, b);
                if (r == v) {
                    forcing = {p, b};
                    break;
                }
                if (r == Logic::X && !possible) possible = {p, b};
            }
        }
        const auto choice = forcing ? forcing : possible;
        if (!choice) return std::nullopt;
        net = gate.inputs[choice->first];
        v = choice->second;
    }
    return std::nullopt;
}

std::optional<std::pair<NetId, Logic>> Podem::frontierObjective() const {
    for (const GateId g : cone_) {
        const Gate& gate = nl_->gate(g);
        // Both machines settled: equal, or D already propagated past here.
        if (goodValue(gate.output) != Logic::X && faultyValue(gate.output) != Logic::X) continue;
        // A pin fault creates its difference *inside* the receiving gate:
        // the input net itself never carries D.
        bool d_in = fault_active_ && fault_.isPinFault() && fault_.gate == g &&
                    goodValue(fault_.net) != Logic::X;
        for (std::size_t p = 0; p < gate.inputs.size() && !d_in; ++p) d_in = hasD(gate.inputs[p]);
        if (!d_in) continue;
        // Set an X input to its non-controlling-ish value (backtrace fixes
        // bad guesses); a frontier gate with no X input is skipped.
        for (const NetId in : gate.inputs)
            if (goodValue(in) == Logic::X)
                return std::make_pair(in, (gate.fn == CellFn::And || gate.fn == CellFn::Nand)
                                              ? Logic::One
                                              : Logic::Zero);
    }
    return std::nullopt; // frontier empty or saturated
}

bool Podem::faultObserved() const {
    return std::any_of(cone_obs_.begin(), cone_obs_.end(), [&](NetId n) { return hasD(n); });
}

Pattern Podem::extractPattern() const {
    Pattern p;
    p.pis.reserve(nl_->pis().size());
    p.state.reserve(nl_->flipFlops().size());
    for (const NetId pi : nl_->pis()) p.pis.push_back(assigned_[pi]);
    for (const GateId ff : nl_->flipFlops()) p.state.push_back(assigned_[nl_->gate(ff).output]);
    return p;
}

template <typename GoalFn, typename ObjectiveFn>
PodemOutcome Podem::decisionLoop(GoalFn goal, ObjectiveFn next_objective, Pattern& out) {
    // Unassign every exhausted decision and flip the newest untried one,
    // then settle both machines in one propagate.
    const auto backtrack = [&]() -> bool {
        ++backtracks_;
        while (!stack_.empty() && stack_.back().tried_both) {
            setSource(stack_.back().source, Logic::X);
            stack_.pop_back();
        }
        if (!stack_.empty()) {
            Decision& d = stack_.back();
            d.tried_both = true;
            d.value = negate(d.value);
            setSource(d.source, d.value);
        }
        gate_evals_ += sim_.propagate();
        return !stack_.empty();
    };

    for (;;) {
        if (backtracks_ > static_cast<std::size_t>(cfg_.max_backtracks))
            return PodemOutcome::Aborted;

        const int state = goal();
        if (state > 0) {
            out = extractPattern();
            return PodemOutcome::Success;
        }
        bool dead = state < 0;

        std::optional<std::pair<NetId, Logic>> assign;
        if (!dead) {
            const auto obj = next_objective();
            if (!obj) {
                dead = true;
            } else {
                assign = backtrace(obj->first, obj->second);
                if (!assign) dead = true;
            }
        }
        if (dead) {
            if (!backtrack()) return PodemOutcome::Untestable;
            continue;
        }
        ++decisions_;
        stack_.push_back(Decision{assign->first, assign->second, false});
        setSource(assign->first, assign->second);
        gate_evals_ += sim_.propagate();
    }
}

PodemOutcome Podem::generate(const FaultSite& fault, Pattern& out, sat::ProofSink* proof) {
    fault_active_ = true;
    fault_ = fault;
    collectCone(fault);
    resetState();

    const Logic activate = fault.stuck_at_one ? Logic::Zero : Logic::One;

    const auto goal = [&]() -> int {
        if (faultObserved()) return 1;
        const Logic site = goodValue(fault.net);
        if (site != Logic::X && site != activate) return -1; // cannot activate
        return 0;
    };
    const auto next_objective = [&]() -> std::optional<std::pair<NetId, Logic>> {
        // 1) Activate the fault.
        if (goodValue(fault.net) == Logic::X) return std::make_pair(fault.net, activate);
        // 2) Advance the D-frontier.
        return frontierObjective();
    };

    PodemOutcome r = decisionLoop(goal, next_objective, out);
    fault_active_ = false;
    flushCounters();
    if (r == PodemOutcome::Aborted) r = sat_->generate(fault, frozen_, out, proof);
    return r;
}

PodemOutcome Podem::justify(NetId net, Logic value, Pattern& out, sat::ProofSink* proof) {
    return justifyAll({{net, value}}, out, proof);
}

PodemOutcome Podem::justifyAll(const std::vector<std::pair<NetId, Logic>>& objectives,
                               Pattern& out, sat::ProofSink* proof) {
    fault_active_ = false;
    resetState();

    const auto goal = [&]() -> int {
        bool all = true;
        for (const auto& [net, v] : objectives) {
            const Logic cur = goodValue(net);
            if (cur == Logic::X) {
                all = false;
            } else if (cur != v) {
                return -1;
            }
        }
        return all ? 1 : 0;
    };
    const auto next_objective = [&]() -> std::optional<std::pair<NetId, Logic>> {
        for (const auto& [net, v] : objectives)
            if (goodValue(net) == Logic::X) return std::make_pair(net, v);
        return std::nullopt;
    };
    PodemOutcome r = decisionLoop(goal, next_objective, out);
    flushCounters();
    if (r == PodemOutcome::Aborted) r = sat_->justifyAll(objectives, frozen_, out, proof);
    return r;
}

} // namespace flh
