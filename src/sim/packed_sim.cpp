#include "sim/packed_sim.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>

namespace flh {

PackedSim::PackedSim(const Netlist& nl, unsigned words) : nl_(&nl), words_(words) {
    if (words < 1 || words > kMaxPackedWords)
        throw std::invalid_argument("PackedSim: words must be in [1, " +
                                    std::to_string(kMaxPackedWords) + "], got " +
                                    std::to_string(words));
    // Hard arity check (not an assert): the propagate hot loop gathers
    // input planes into fixed kMaxGateArity-sized buffers.
    for (GateId g = 0; g < nl.gateCount(); ++g) {
        const Gate& gate = nl.gate(g);
        if (!isSequential(gate.fn) && gate.inputs.size() > kMaxGateArity)
            throw std::invalid_argument(
                "PackedSim: gate '" + nl.net(gate.output).name + "' has arity " +
                std::to_string(gate.inputs.size()) + " > " + std::to_string(kMaxGateArity));
    }
    (void)nl_->topoOrder(); // force levelization (throws on comb loops)
    fan_off_.assign(nl.netCount() + 1, 0);
    for (NetId n = 0; n < nl.netCount(); ++n)
        fan_off_[n + 1] =
            fan_off_[n] + static_cast<std::uint32_t>(nl.fanout(n).size());
    fan_gate_.reserve(fan_off_.back());
    for (NetId n = 0; n < nl.netCount(); ++n)
        for (const PinRef& pr : nl.fanout(n)) fan_gate_.push_back(pr.gate);
    level_of_.assign(nl.gateCount(), 0);
    for (GateId g = 0; g < nl.gateCount(); ++g) level_of_[g] = nl.levels()[g];
    gate_fn_.resize(nl.gateCount());
    gate_out_.resize(nl.gateCount());
    gin_off_.assign(nl.gateCount() + 1, 0);
    for (GateId g = 0; g < nl.gateCount(); ++g) {
        const Gate& gate = nl.gate(g);
        gate_fn_[g] = gate.fn;
        gate_out_[g] = gate.output;
        gin_off_[g + 1] = gin_off_[g] + static_cast<std::uint32_t>(gate.inputs.size());
    }
    gin_net_.reserve(gin_off_.back());
    for (GateId g = 0; g < nl.gateCount(); ++g)
        for (const NetId in : nl.gate(g).inputs) gin_net_.push_back(in);
    reset();
}

void PackedSim::reset() {
    const std::size_t planes = nl_->netCount() * static_cast<std::size_t>(words_);
    v_.assign(planes, 0);
    x_.assign(planes, ~0ULL);
    // Sequential gates look permanently scheduled so schedule() skips them
    // without touching the gate record.
    scheduled_.assign(nl_->gateCount(), 0);
    for (GateId g = 0; g < nl_->gateCount(); ++g)
        if (isSequential(nl_->gate(g).fn)) scheduled_[g] = 1;
    held_.assign(nl_->gateCount(), 0);
    queue_by_level_.assign(static_cast<std::size_t>(nl_->logicDepth()) + 1, {});
    min_pending_level_ = 0;
    fault_active_ = false;
    fault_ = FaultSite{};
    undo_nets_.clear();
    undo_v_.clear();
    undo_x_.clear();
    undo_mark_.assign(nl_->netCount(), 0);
    toggles_.assign(nl_->netCount(), 0);
}

void PackedSim::schedule(GateId g) {
    if (scheduled_[g]) return; // sequential gates are born scheduled
    scheduled_[g] = 1;
    const int lvl = level_of_[g];
    queue_by_level_[static_cast<std::size_t>(lvl)].push_back(g);
    if (lvl < min_pending_level_) min_pending_level_ = lvl;
}

void PackedSim::scheduleFanout(NetId net) {
    const std::uint32_t lo = fan_off_[net];
    const std::uint32_t hi = fan_off_[net + 1];
    for (std::uint32_t i = lo; i < hi; ++i) schedule(fan_gate_[i]);
}

void PackedSim::recordUndo(NetId net) {
    if (undo_mark_[net]) return;
    undo_mark_[net] = 1;
    undo_nets_.push_back(net);
    const std::size_t base = planeIndex(net, 0);
    undo_v_.insert(undo_v_.end(), v_.begin() + static_cast<std::ptrdiff_t>(base),
                   v_.begin() + static_cast<std::ptrdiff_t>(base + words_));
    undo_x_.insert(undo_x_.end(), x_.begin() + static_cast<std::ptrdiff_t>(base),
                   x_.begin() + static_cast<std::ptrdiff_t>(base + words_));
}

void PackedSim::applyValue(NetId net, const std::uint64_t* nv, const std::uint64_t* nx) {
    std::uint64_t forced_v[kMaxPackedWords];
    std::uint64_t forced_x[kMaxPackedWords];
    if (fault_active_ && !fault_.isPinFault() && fault_.net == net) {
        // The stuck value is fully known: x plane = 0 in the faulted slots.
        const std::uint64_t m = fault_slots_;
        const std::uint64_t stuck_v = fault_.stuck_at_one ? m : 0;
        for (unsigned w = 0; w < words_; ++w) {
            forced_v[w] = (nv[w] & ~m) | stuck_v;
            forced_x[w] = nx[w] & ~m;
        }
        nv = forced_v;
        nx = forced_x;
    }
    const std::size_t base = planeIndex(net, 0);
    std::uint64_t* cv = &v_[base];
    std::uint64_t* cx = &x_[base];
    std::uint64_t delta = 0;
    for (unsigned w = 0; w < words_; ++w) delta |= (cv[w] ^ nv[w]) | (cx[w] ^ nx[w]);
    if (!delta) return;
    if (fault_active_) recordUndo(net);
    // Toggle counting is suspended while a fault is active: the faulty
    // excursion's flips (and their rollback) must not contaminate the
    // power numbers derived from totalToggles().
    if (count_toggles_ && !fault_active_) {
        std::uint64_t flips = 0;
        for (unsigned w = 0; w < words_; ++w)
            flips += static_cast<std::uint64_t>(
                std::popcount((cv[w] ^ nv[w]) & ~cx[w] & ~nx[w]));
        toggles_[net] += flips;
    }
    for (unsigned w = 0; w < words_; ++w) {
        cv[w] = nv[w];
        cx[w] = nx[w];
    }
    scheduleFanout(net);
}

void PackedSim::setNet(NetId net, unsigned word, PV value) {
    if (word >= words_) throw std::out_of_range("PackedSim::setNet: word out of range");
    // Route through applyValue so net-fault overrides, undo logging, and
    // toggle accounting all behave exactly like a full-width write.
    std::uint64_t nv[kMaxPackedWords];
    std::uint64_t nx[kMaxPackedWords];
    const std::size_t base = planeIndex(net, 0);
    std::memcpy(nv, &v_[base], words_ * sizeof(std::uint64_t));
    std::memcpy(nx, &x_[base], words_ * sizeof(std::uint64_t));
    nv[word] = value.v;
    nx[word] = value.x;
    applyValue(net, nv, nx);
}

std::size_t PackedSim::propagate() {
    std::size_t evals = 0;
    const unsigned W = words_;
    // Resolve the SIMD kernel once per pass; per-gate dispatch through the
    // table is measurable at fault-cone sizes (a few gates per grading).
    const BlockKernelFn kernel = activeBlockKernel();
    const std::uint64_t* in_v[kMaxGateArity];
    const std::uint64_t* in_x[kMaxGateArity];
    std::uint64_t out_v[kMaxPackedWords];
    std::uint64_t out_x[kMaxPackedWords];
    std::uint64_t pin_v[kMaxPackedWords];
    std::uint64_t pin_x[kMaxPackedWords];
    for (std::size_t lvl = static_cast<std::size_t>(std::max(min_pending_level_, 0));
         lvl < queue_by_level_.size(); ++lvl) {
        auto& q = queue_by_level_[lvl];
        // Gates scheduled during this pass land at strictly higher levels,
        // so draining level by level visits each gate at most once.
        for (std::size_t i = 0; i < q.size(); ++i) {
            const GateId g = q[i];
            scheduled_[g] = 0;
            if (held_[g]) continue;
            const std::uint32_t in_lo = gin_off_[g];
            const std::size_t arity = gin_off_[g + 1] - in_lo;
            for (std::size_t p = 0; p < arity; ++p) {
                const std::size_t base = planeIndex(gin_net_[in_lo + p], 0);
                in_v[p] = &v_[base];
                in_x[p] = &x_[base];
            }
            if (fault_active_ && fault_.isPinFault() && fault_.gate == g) {
                const std::size_t pin = static_cast<std::size_t>(fault_.pin);
                const std::uint64_t m = fault_slots_;
                const std::uint64_t stuck_v = fault_.stuck_at_one ? m : 0;
                for (unsigned w = 0; w < W; ++w) {
                    pin_v[w] = (in_v[pin][w] & ~m) | stuck_v;
                    pin_x[w] = in_x[pin][w] & ~m;
                }
                in_v[pin] = pin_v;
                in_x[pin] = pin_x;
            }
            ++evals;
            kernel(gate_fn_[g], in_v, in_x, arity, out_v, out_x, W);
            applyValue(gate_out_[g], out_v, out_x);
        }
        q.clear();
    }
    min_pending_level_ = static_cast<int>(queue_by_level_.size());
    return evals;
}

std::size_t PackedSim::evalAll() {
    for (const GateId g : nl_->topoOrder()) schedule(g);
    return propagate();
}

void PackedSim::setHeld(GateId gate, bool held) {
    held_.at(gate) = held ? 1 : 0;
    if (!held) schedule(gate); // re-evaluate with current inputs on release
}

void PackedSim::setHeldAll(const std::vector<GateId>& gates, bool held) {
    for (const GateId g : gates) setHeld(g, held);
}

void PackedSim::injectFault(const FaultSite& f, std::uint64_t slots) {
    fault_active_ = true;
    fault_ = f;
    fault_slots_ = slots;
    if (f.isPinFault()) {
        schedule(f.gate);
    } else {
        // Force the stuck value at the net right away; applyValue records
        // the good planes in the undo log before overwriting them.
        const std::size_t base = planeIndex(f.net, 0);
        applyValue(f.net, &v_[base], &x_[base]); // overridden via the fault
    }
}

void PackedSim::faultDiffOnto(const std::uint8_t* is_obs, std::uint64_t* m) const {
    const unsigned W = words_;
    for (unsigned w = 0; w < W; ++w) m[w] = 0;
    for (std::size_t k = 0; k < undo_nets_.size(); ++k) {
        const NetId net = undo_nets_[k];
        if (!is_obs[net]) continue;
        const std::uint64_t* gv = &undo_v_[k * W];
        const std::uint64_t* gx = &undo_x_[k * W];
        const std::uint64_t* fv = &v_[planeIndex(net, 0)];
        const std::uint64_t* fx = &x_[planeIndex(net, 0)];
        for (unsigned w = 0; w < W; ++w) m[w] |= (gv[w] ^ fv[w]) & ~gx[w] & ~fx[w];
    }
}

void PackedSim::clearFault() {
    if (!fault_active_) return;
    fault_active_ = false;
    for (std::size_t k = undo_nets_.size(); k-- > 0;) {
        const NetId net = undo_nets_[k];
        const std::size_t src = k * words_;
        const std::size_t dst = planeIndex(net, 0);
        std::memcpy(&v_[dst], &undo_v_[src], words_ * sizeof(std::uint64_t));
        std::memcpy(&x_[dst], &undo_x_[src], words_ * sizeof(std::uint64_t));
        undo_mark_[net] = 0;
    }
    undo_nets_.clear();
    undo_v_.clear();
    undo_x_.clear();
}

std::uint64_t PackedSim::totalToggles() const noexcept {
    std::uint64_t sum = 0;
    for (const std::uint64_t t : toggles_) sum += t;
    return sum;
}

void loadPattern(PackedSim& sim, const Pattern& p) {
    const Netlist& nl = sim.netlist();
    if (p.pis.size() != nl.pis().size() || p.state.size() != nl.flipFlops().size())
        throw std::invalid_argument("pattern shape mismatch for " + nl.name());
    for (std::size_t k = 0; k < p.pis.size(); ++k) sim.setNet(nl.pis()[k], 0, PV::all(p.pis[k]));
    for (std::size_t k = 0; k < p.state.size(); ++k)
        sim.setNet(nl.gate(nl.flipFlops()[k]).output, 0, PV::all(p.state[k]));
}

} // namespace flh
