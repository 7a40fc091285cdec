#include "sim/sequential.hpp"

#include <cassert>
#include <stdexcept>

namespace flh {

const char* toString(HoldStyle s) noexcept {
    switch (s) {
        case HoldStyle::None: return "none";
        case HoldStyle::EnhancedScan: return "enhanced-scan";
        case HoldStyle::MuxHold: return "mux-hold";
        case HoldStyle::Flh: return "flh";
    }
    return "?";
}

SequentialSim::SequentialSim(const Netlist& nl, HoldStyle style)
    : sim_(nl, 1), style_(style), ffs_(nl.flipFlops()), first_level_(nl.uniqueFirstLevelGates()) {
    state_.assign(ffs_.size(), PV::all(Logic::X));
}

void SequentialSim::setState(const std::vector<PV>& state) {
    if (state.size() != ffs_.size()) throw std::invalid_argument("state size mismatch");
    state_ = state;
    if (!holding_ || style_ == HoldStyle::None || style_ == HoldStyle::Flh) driveQ();
}

void SequentialSim::setPi(std::size_t index, PV v) {
    sim_.setNet(sim_.netlist().pis().at(index), 0, v);
}

void SequentialSim::setPis(const std::vector<PV>& pis) {
    const auto& nets = sim_.netlist().pis();
    if (pis.size() != nets.size()) throw std::invalid_argument("pi count mismatch");
    for (std::size_t i = 0; i < pis.size(); ++i) sim_.setNet(nets[i], 0, pis[i]);
}

void SequentialSim::driveQ() {
    const Netlist& nl = sim_.netlist();
    for (std::size_t i = 0; i < ffs_.size(); ++i)
        sim_.setNet(nl.gate(ffs_[i]).output, 0, state_[i]);
}

void SequentialSim::settle() { sim_.propagate(); }

void SequentialSim::clock() {
    const Netlist& nl = sim_.netlist();
    settle();
    for (std::size_t i = 0; i < ffs_.size(); ++i)
        state_[i] = sim_.get(nl.gate(ffs_[i]).inputs[0], 0);
    driveQ();
    settle();
}

PV SequentialSim::shift(PV scan_in) {
    const PV out = state_.empty() ? PV::all(Logic::X) : state_.front();
    for (std::size_t i = 0; i + 1 < state_.size(); ++i) state_[i] = state_[i + 1];
    if (!state_.empty()) state_.back() = scan_in;

    switch (style_) {
        case HoldStyle::None:
            // Plain scan: the logic sees every intermediate shift state.
            driveQ();
            settle();
            break;
        case HoldStyle::EnhancedScan:
        case HoldStyle::MuxHold:
            // Hold latches / MUXes freeze the comb inputs: Q-side nets keep
            // the held snapshot, nothing to simulate.
            if (!holding_) {
                driveQ();
                settle();
            }
            break;
        case HoldStyle::Flh:
            // FF outputs toggle (their wire/pin energy is real) but the held
            // first-level gates stop all propagation.
            driveQ();
            settle();
            break;
    }
    return out;
}

void SequentialSim::setFlhGatedGates(std::vector<GateId> gates) {
    if (holding_) throw std::logic_error("cannot change gated set while holding");
    first_level_ = std::move(gates);
}

void SequentialSim::setHolding(bool holding) {
    if (holding == holding_) return;
    holding_ = holding;
    switch (style_) {
        case HoldStyle::None:
            break;
        case HoldStyle::EnhancedScan:
        case HoldStyle::MuxHold:
            if (!holding) {
                // Latches open: the current state becomes visible.
                driveQ();
                settle();
            }
            break;
        case HoldStyle::Flh:
            sim_.setHeldAll(first_level_, holding);
            if (!holding) settle();
            break;
    }
}

std::vector<PV> SequentialSim::observe() const {
    const Netlist& nl = sim_.netlist();
    std::vector<PV> out;
    out.reserve(nl.pos().size() + ffs_.size());
    for (const NetId po : nl.pos()) out.push_back(sim_.get(po, 0));
    for (const GateId ff : ffs_) out.push_back(sim_.get(nl.gate(ff).inputs[0], 0));
    return out;
}

} // namespace flh
