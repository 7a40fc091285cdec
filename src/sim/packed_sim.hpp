// Levelized event-driven logic simulator, W x 64 patterns wide.
//
// PackedSim is the repository's one event-driven engine. Each net carries
// two planes of W machine words (W in [1, kMaxPackedWords], i.e. up to 512
// patterns per pass) — value and unknown — stored plane-major per net
// ([net * W, net * W + W)), so a gate evaluation is W plane-wise bitwise ops
// handled by the runtime-dispatched SIMD kernel in cell/logic_block.hpp.
// Slots are addressed as (word, slot) pairs: pattern p lives in word p / 64,
// slot p % 64. Only gates whose inputs actually changed are re-evaluated,
// in level order, so a pass costs O(affected gates).
//
// It serves, at the width each caller needs:
//  * word-packed PPSFP fault grading (fault/parallel_sim.hpp): single-fault
//    injection, event-driven propagation of the faulty cone, and rollback
//    through an event-frontier undo log;
//  * ATPG implication (PODEM, W = 1: the good machine in slot 0 and the
//    faulty machine in slot 1, the fault injected into slot 1 only);
//  * clocked and scan-shift simulation with the paper's holding semantics
//    (sim/sequential.hpp, W = 1): a held gate simply does not re-evaluate,
//    exactly what FLH's supply gating does;
//  * normal-mode and scan-shift power analysis (toggle counting).
//
// Toggle counting is suspended while a fault is active, so faulty
// excursions never contaminate the power numbers built on totalToggles().
//
// The naive topological evaluator in verify/reference.hpp shares no event
// code with this engine and is its independent oracle.
#pragma once

#include "cell/logic_block.hpp"
#include "netlist/netlist.hpp"

#include <cstdint>
#include <vector>

namespace flh {

/// A single stuck-at fault site: a net (output fault) or one gate input pin
/// (input fault). `pin < 0` means the fault is on the net itself.
struct FaultSite {
    NetId net = kInvalidId;
    GateId gate = kInvalidId; ///< receiving gate for pin faults
    int pin = -1;
    bool stuck_at_one = false;

    [[nodiscard]] bool isPinFault() const noexcept { return pin >= 0; }
    [[nodiscard]] bool operator==(const FaultSite&) const noexcept = default;
};

/// One full-scan test pattern: primary-input values + scan state.
struct Pattern {
    std::vector<Logic> pis;
    std::vector<Logic> state;
};

class PackedSim {
public:
    /// `words` must be in [1, kMaxPackedWords]; throws std::invalid_argument
    /// otherwise, or if any combinational gate exceeds kMaxGateArity.
    PackedSim(const Netlist& nl, unsigned words);

    [[nodiscard]] const Netlist& netlist() const noexcept { return *nl_; }
    [[nodiscard]] unsigned words() const noexcept { return words_; }

    /// Reset every net to X in every word, clear holds, fault state and
    /// toggles.
    void reset();

    /// Set one 64-slot word of a source net and schedule affected gates.
    /// Setting an internal net is allowed (fault-injection tests) but is
    /// overwritten by its driver on the next propagate unless the driver is
    /// held.
    void setNet(NetId net, unsigned word, PV value);

    [[nodiscard]] PV get(NetId net, unsigned word) const {
        const std::size_t base = planeIndex(net, word);
        return PV{v_[base], x_[base]};
    }

    /// Scalar value of one (word, slot) position.
    [[nodiscard]] Logic get(NetId net, unsigned word, unsigned slot) const {
        return get(net, word).get(slot);
    }

    /// Raw plane access for bulk observation (W words per net).
    [[nodiscard]] const std::uint64_t* valuePlane(NetId net) const {
        return &v_[planeIndex(net, 0)];
    }
    [[nodiscard]] const std::uint64_t* unknownPlane(NetId net) const {
        return &x_[planeIndex(net, 0)];
    }

    /// Propagate all pending events in level order; returns gate evaluations.
    std::size_t propagate();

    /// Schedule every combinational gate, then propagate.
    std::size_t evalAll();

    // ---- holding (FLH supply gating / enhanced-scan freeze) -------------
    /// A held gate keeps its current output: propagate() pops it and skips
    /// it while held, and releasing it reschedules it so it re-evaluates
    /// with its current inputs. This is the simulator-level model of a
    /// supply-gated first-level gate whose keeper retains the output state.
    void setHeld(GateId gate, bool held);
    void setHeldAll(const std::vector<GateId>& gates, bool held);
    [[nodiscard]] bool isHeld(GateId gate) const { return held_.at(gate) != 0; }

    // ---- single-fault injection (PPSFP) ---------------------------------
    /// Activate a stuck-at fault for subsequent propagation. The stuck value
    /// is forced only into the slots set in `slots`, in every word; the
    /// other slots keep the fault-free machine (PODEM runs good and faulty
    /// in slots 0 and 1 of one word). Inject from a quiescent (fully
    /// propagated) state. While the fault is active every net change
    /// records the net's first-touch pre-fault planes in an undo log.
    void injectFault(const FaultSite& f, std::uint64_t slots = ~0ULL);

    /// Deactivate the fault and roll the simulator back to the exact state
    /// it had at injectFault by restoring the recorded event frontier: only
    /// the nets the faulty excursion touched are written, nothing is
    /// re-evaluated. setNet calls made while the fault was active are rolled
    /// back too; sessions that keep a fault active permanently (BIST, PODEM)
    /// discard the log via reset() instead.
    void clearFault();

    /// Per-word detection diff against the pre-fault state: for every net
    /// touched since injectFault whose `is_obs[net]` flag is set, OR
    /// `(good_v ^ cur_v) & ~good_x & ~cur_x` into m[0..words()). The undo
    /// log already holds each touched net's fault-free planes (gradings
    /// start from a quiescent good state), and an untouched observation
    /// point cannot differ, so this is exactly the classical good-vs-faulty
    /// observation compare — but its cost scales with the fault cone, not
    /// with the number of observation points times words. Call between
    /// propagate() and clearFault(); `is_obs` needs netCount() entries; `m`
    /// (words() entries) is overwritten.
    void faultDiffOnto(const std::uint8_t* is_obs, std::uint64_t* m) const;

    // ---- toggle accounting ----------------------------------------------
    void enableToggleCount(bool on) { count_toggles_ = on; }
    void clearToggleCounts() { toggles_.assign(nl_->netCount(), 0); }
    [[nodiscard]] const std::vector<std::uint64_t>& toggleCounts() const noexcept {
        return toggles_;
    }
    [[nodiscard]] std::uint64_t totalToggles() const noexcept;

private:
    [[nodiscard]] std::size_t planeIndex(NetId net, unsigned word) const {
        return static_cast<std::size_t>(net) * words_ + word;
    }
    void schedule(GateId g);
    void scheduleFanout(NetId net);
    void applyValue(NetId net, const std::uint64_t* nv, const std::uint64_t* nx);
    void recordUndo(NetId net);

    const Netlist* nl_;
    unsigned words_;
    std::vector<std::uint64_t> v_; ///< value planes, netCount * words_
    std::vector<std::uint64_t> x_; ///< unknown planes, netCount * words_
    // Flattened event-scheduling structures, copied from the Netlist at
    // construction: the per-net fanout gate list as a CSR array and the
    // per-gate level, so the hot scheduling path never chases the Netlist's
    // per-net vectors. Sequential gates are born with scheduled_ = 1 and are
    // never queued, which removes the isSequential check from the per-event
    // path.
    std::vector<std::uint32_t> fan_off_;  ///< netCount + 1 offsets
    std::vector<GateId> fan_gate_;        ///< fanout gate ids, CSR payload
    std::vector<std::int32_t> level_of_;  ///< per-gate level
    // Flattened gate records (combinational evaluation only): function,
    // output net, and the input nets as a CSR array, so an evaluation reads
    // contiguous arrays instead of each Gate's heap-allocated inputs vector.
    std::vector<CellFn> gate_fn_;         ///< per gate
    std::vector<NetId> gate_out_;         ///< per gate
    std::vector<std::uint32_t> gin_off_;  ///< gateCount + 1 offsets
    std::vector<NetId> gin_net_;          ///< input nets, CSR payload
    std::vector<std::uint8_t> scheduled_;
    std::vector<std::uint8_t> held_;
    std::vector<std::vector<GateId>> queue_by_level_;
    int min_pending_level_ = 0;

    bool fault_active_ = false;
    FaultSite fault_{};
    std::uint64_t fault_slots_ = 0;
    /// Event-frontier undo log: `undo_nets_[k]`'s pre-fault planes live at
    /// [k * words_, (k + 1) * words_) in undo_v_ / undo_x_.
    std::vector<NetId> undo_nets_;
    std::vector<std::uint64_t> undo_v_;
    std::vector<std::uint64_t> undo_x_;
    std::vector<std::uint8_t> undo_mark_;

    bool count_toggles_ = false;
    std::vector<std::uint64_t> toggles_;
};

/// Drive a scalar pattern onto word 0 of `sim`: every slot of each PI, then
/// each FF Q net, gets the pattern's bit. Does not propagate. Throws
/// std::invalid_argument if the pattern's shape does not match the netlist.
void loadPattern(PackedSim& sim, const Pattern& p);

} // namespace flh
