#include "sta/timing.hpp"

#include <algorithm>
#include <functional>

namespace flh {

namespace {

const TimingOverlay& noOverlay() {
    static const TimingOverlay none;
    return none;
}

} // namespace

double gateDelayPs(const Netlist& nl, GateId g, const TimingOverlay& ov) {
    const Gate& gate = nl.gate(g);
    const Cell& cell = nl.library().cell(gate.cell);
    const double load = nl.netCapFf(gate.output) + ov.extraCap(gate.output);
    return cell.r_out_kohm * load + kIntrinsicStagePs + ov.gateAdder(g);
}

TimingResult runSta(const Netlist& nl, const TimingOverlay& ov) {
    return runSta(nl, ov, {});
}

TimingResult runSta(const Netlist& nl, const TimingOverlay& ov,
                    std::span<const double> gate_delay_factor) {
    StaEngine engine(nl, &ov, gate_delay_factor);
    return std::move(engine.res_);
}

StaEngine::StaEngine(const Netlist& nl, const TimingOverlay* ov, std::span<const double> factor)
    : nl_(&nl), ov_(ov), factor_(factor) {
    fullForward();
    findCritical();
    fullBackward();
}

StaEngine::StaEngine(const Netlist& nl) : StaEngine(nl, &noOverlay(), {}) {
    gate_level_ = nl.levels();
}

double StaEngine::gateDelay(GateId g) const {
    const double base = gateDelayPs(*nl_, g, *ov_);
    return factor_.empty() ? base : base * factor_[g];
}

// PIs launch at their series delay; FF Q nets at clk-to-q plus it.
double StaEngine::sourceArrival(NetId n) const {
    const GateId drv = nl_->net(n).driver;
    if (drv == kInvalidId) return ov_->sourceSeries(n);
    const Cell& cell = nl_->library().cell(nl_->gate(drv).cell);
    const double clk2q =
        cell.r_out_kohm * (nl_->netCapFf(n) + ov_->extraCap(n)) + kIntrinsicStagePs;
    return clk2q + ov_->sourceSeries(n);
}

// Arrival, predecessor and path level of g's output from its inputs and
// delay_[g]. True if the arrival or the level changed.
bool StaEngine::forwardGate(GateId g) {
    const Gate& gate = nl_->gate(g);
    double worst = 0.0;
    NetId worst_in = kInvalidId;
    for (const NetId in : gate.inputs) {
        if (res_.arrival_ps[in] > worst || worst_in == kInvalidId) {
            worst = res_.arrival_ps[in];
            worst_in = in;
        }
    }
    const NetId out = gate.output;
    const double arrival = worst + delay_[g];
    const int levels = (worst_in == kInvalidId ? 0 : path_levels_[worst_in]) + 1;
    const bool changed = arrival != res_.arrival_ps[out] || levels != path_levels_[out];
    res_.arrival_ps[out] = arrival;
    pred_[out] = worst_in;
    path_levels_[out] = levels;
    return changed;
}

void StaEngine::findCritical() {
    const Netlist& nl = *nl_;
    NetId worst_end = kInvalidId;
    const auto consider = [&](NetId n) {
        if (worst_end == kInvalidId || res_.arrival_ps[n] > res_.arrival_ps[worst_end])
            worst_end = n;
    };
    for (const NetId po : nl.pos()) consider(po);
    for (const GateId ff : nl.flipFlops()) consider(nl.gate(ff).inputs[0]);
    res_.critical_delay_ps = 0.0;
    res_.critical_levels = 0;
    res_.critical_path.clear();
    if (worst_end != kInvalidId) {
        res_.critical_delay_ps = res_.arrival_ps[worst_end];
        res_.critical_levels = path_levels_[worst_end];
        for (NetId n = worst_end; n != kInvalidId; n = pred_[n]) res_.critical_path.push_back(n);
        std::reverse(res_.critical_path.begin(), res_.critical_path.end());
    }
}

// Required time of `n`: the critical delay, tightened by every comb
// receiver's required output time less its delay. True if it changed.
bool StaEngine::pullRequired(NetId n) {
    double req = res_.critical_delay_ps;
    for (const PinRef& pr : nl_->fanout(n)) {
        const Gate& g = nl_->gate(pr.gate);
        if (isSequential(g.fn)) continue;
        req = std::min(req, res_.required_ps[g.output] - delay_[pr.gate]);
    }
    const bool changed = req != res_.required_ps[n];
    res_.required_ps[n] = req;
    return changed;
}

void StaEngine::fullForward() {
    const Netlist& nl = *nl_;
    res_.arrival_ps.assign(nl.netCount(), 0.0);
    pred_.assign(nl.netCount(), kInvalidId);
    path_levels_.assign(nl.netCount(), 0);
    delay_.assign(nl.gateCount(), 0.0);
    for (const NetId pi : nl.pis()) res_.arrival_ps[pi] = sourceArrival(pi);
    for (const GateId ff : nl.flipFlops()) {
        const NetId q = nl.gate(ff).output;
        res_.arrival_ps[q] = sourceArrival(q);
    }
    for (const GateId g : nl.topoOrder()) {
        delay_[g] = gateDelay(g);
        forwardGate(g);
    }
}

// Comb outputs in reverse topological order (each receiver's required time
// is final before its input nets pull it), then the nets no comb gate
// drives.
void StaEngine::fullBackward() {
    const Netlist& nl = *nl_;
    res_.required_ps.assign(nl.netCount(), res_.critical_delay_ps);
    const auto& topo = nl.topoOrder();
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) pullRequired(nl.gate(*it).output);
    for (NetId n = 0; n < nl.netCount(); ++n) {
        const GateId drv = nl.net(n).driver;
        if (drv == kInvalidId || isSequential(nl.gate(drv).fn)) pullRequired(n);
    }
}

void StaEngine::grow() {
    const std::size_t nets = nl_->netCount();
    const std::size_t gates = nl_->gateCount();
    res_.arrival_ps.resize(nets, 0.0);
    res_.required_ps.resize(nets, res_.critical_delay_ps);
    pred_.resize(nets, kInvalidId);
    path_levels_.resize(nets, 0);
    net_queued_.resize(nets, 0);
    delay_.resize(gates, 0.0);
    gate_level_.resize(gates, 0);
    gate_queued_.resize(gates, 0);
}

int StaEngine::netLevel(NetId n) const {
    const GateId drv = nl_->net(n).driver;
    if (drv == kInvalidId || isSequential(nl_->gate(drv).fn)) return 0;
    return gate_level_[drv];
}

void StaEngine::pushGate(GateId g, int level) {
    if (gate_queued_[g]) return;
    gate_queued_[g] = 1;
    gate_heap_.emplace_back(level, g);
    std::push_heap(gate_heap_.begin(), gate_heap_.end(), std::greater<>{});
}

void StaEngine::pushNet(NetId n) {
    if (net_queued_[n]) return;
    net_queued_[n] = 1;
    net_heap_.emplace_back(netLevel(n), n);
    std::push_heap(net_heap_.begin(), net_heap_.end());
}

void StaEngine::update(std::span<const NetId> touched) {
    const Netlist& nl = *nl_;
    const std::size_t old_gates = delay_.size();
    grow();

    const auto inputLevel = [&](GateId g) {
        int level = 0;
        for (const NetId in : nl.gate(g).inputs) level = std::max(level, netLevel(in));
        return level + 1;
    };
    // A receiver of `n` sits at least one level above it.
    const auto pushReceivers = [&](NetId n) {
        const int above = netLevel(n) + 1;
        for (const PinRef& pr : nl.fanout(n))
            if (!isSequential(nl.gate(pr.gate).fn))
                pushGate(pr.gate, std::max(gate_level_[pr.gate], above));
    };
    const auto retimeSource = [&](NetId n) {
        const double arrival = sourceArrival(n);
        if (arrival == res_.arrival_ps[n]) return;
        res_.arrival_ps[n] = arrival;
        pushReceivers(n);
    };

    // Required times that may move with the critical delay held: touched
    // nets (their receiver set changed) and the inputs of every gate whose
    // delay changed.
    std::vector<NetId> backward(touched.begin(), touched.end());

    // --- forward seeds ----------------------------------------------------
    for (GateId g = static_cast<GateId>(old_gates); g < nl.gateCount(); ++g) {
        const Gate& gate = nl.gate(g);
        if (isSequential(gate.fn)) {
            retimeSource(gate.output);
            continue;
        }
        gate_level_[g] = inputLevel(g);
        delay_[g] = gateDelay(g);
        backward.insert(backward.end(), gate.inputs.begin(), gate.inputs.end());
        pushGate(g, gate_level_[g]);
    }
    for (const NetId n : touched) {
        const GateId drv = nl.net(n).driver;
        if (drv != kInvalidId && drv < old_gates) {
            const Gate& gate = nl.gate(drv);
            if (isSequential(gate.fn)) {
                retimeSource(n);
            } else if (const double d = gateDelay(drv); d != delay_[drv]) {
                delay_[drv] = d;
                backward.insert(backward.end(), gate.inputs.begin(), gate.inputs.end());
                pushGate(drv, gate_level_[drv]);
            }
        }
        pushReceivers(n); // rewired and added gates read new inputs
    }

    // --- forward worklist, lowest logic level first --------------------------
    while (!gate_heap_.empty()) {
        std::pop_heap(gate_heap_.begin(), gate_heap_.end(), std::greater<>{});
        const GateId g = gate_heap_.back().second;
        gate_heap_.pop_back();
        gate_queued_[g] = 0;
        const int level = inputLevel(g);
        const bool relevelled = level != gate_level_[g];
        gate_level_[g] = level;
        if (forwardGate(g) || relevelled) pushReceivers(nl.gate(g).output);
    }

    const double old_critical = res_.critical_delay_ps;
    findCritical();
    if (res_.critical_delay_ps != old_critical) {
        fullBackward();
        return;
    }

    // --- backward worklist, highest logic level first ------------------------
    for (const NetId n : backward) pushNet(n);
    while (!net_heap_.empty()) {
        std::pop_heap(net_heap_.begin(), net_heap_.end());
        const NetId n = net_heap_.back().second;
        net_heap_.pop_back();
        net_queued_[n] = 0;
        if (!pullRequired(n)) continue;
        const GateId drv = nl.net(n).driver;
        if (drv == kInvalidId || isSequential(nl.gate(drv).fn)) continue;
        for (const NetId in : nl.gate(drv).inputs) pushNet(in);
    }
}

} // namespace flh
