// Static timing analysis with load-dependent gate delays.
//
// Delay model: a gate driving net N contributes
//     d = r_out * (C(N) + extra_cap(N)) + p_intrinsic [+ adder]
// where C(N) is the receiver pin + wire + driver diffusion capacitance.
// This is the standard RC/logical-effort model; it is calibrated so an FO4
// inverter lands in the 70 nm ballpark (see cell tests).
//
// DFT hardware enters as a TimingOverlay, computed by the dft module:
//  * enhanced-scan / MUX holding elements add a series delay at the scan-FF
//    outputs (they sit in the stimulus path, paper Fig. 1a);
//  * FLH adds a per-gate delay adder on the supply-gated first-level gates
//    and keeper load on their output nets.
// The paper's Table II is the difference of runSta() results across
// overlays on the same netlist.
//
// One engine (StaEngine) serves two entry points. runSta() is a full pass:
// every gate's delay once, arrivals forward in topological order, the
// critical endpoint and path, then required times backward reusing the
// stored delays. StaEngine::update() re-times a plain netlist after edits
// with the same per-gate and per-net kernels, run only where the edit can
// reach (see update()). Arrival is a max and required time a min over exact
// stored values, so both are order-independent and the incremental result
// is bit-identical to a fresh runSta() of the edited netlist.
#pragma once

#include "netlist/netlist.hpp"

#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

namespace flh {

/// Timing side-effects of DFT hardware (all optional).
struct TimingOverlay {
    /// Extra capacitance on a net (fF): keeper input cap, latch input cap...
    std::unordered_map<NetId, double> extra_net_cap_ff;
    /// Series delay (ps) added where a source net launches into the logic
    /// (hold latch / MUX between the scan FF and the combinational block).
    std::unordered_map<NetId, double> source_series_ps;
    /// Fixed delay adder (ps) on a specific gate (FLH sleep-pair drive
    /// degradation on first-level gates).
    std::unordered_map<GateId, double> gate_delay_adder_ps;

    [[nodiscard]] double extraCap(NetId n) const noexcept {
        const auto it = extra_net_cap_ff.find(n);
        return it == extra_net_cap_ff.end() ? 0.0 : it->second;
    }
    [[nodiscard]] double sourceSeries(NetId n) const noexcept {
        const auto it = source_series_ps.find(n);
        return it == source_series_ps.end() ? 0.0 : it->second;
    }
    [[nodiscard]] double gateAdder(GateId g) const noexcept {
        const auto it = gate_delay_adder_ps.find(g);
        return it == gate_delay_adder_ps.end() ? 0.0 : it->second;
    }
};

struct TimingResult {
    double critical_delay_ps = 0.0;
    int critical_levels = 0;           ///< logic levels on the critical path
    std::vector<NetId> critical_path;  ///< source net ... endpoint net
    std::vector<double> arrival_ps;    ///< per net (kInvalid nets = 0)
    std::vector<double> required_ps;   ///< per net, w.r.t. critical delay
    [[nodiscard]] double slackPs(NetId n) const { return required_ps.at(n) - arrival_ps.at(n); }
};

/// Intrinsic per-stage delay floor (ps) added to every gate evaluation.
inline constexpr double kIntrinsicStagePs = 1.0;

/// Delay of one gate `g` driving its output under `ov` (ps).
[[nodiscard]] double gateDelayPs(const Netlist& nl, GateId g, const TimingOverlay& ov);

/// Full-netlist STA. Endpoints are POs and FF D pins; sources are PIs
/// (arrival 0) and FF Q nets (clk-to-q + any source series delay).
[[nodiscard]] TimingResult runSta(const Netlist& nl, const TimingOverlay& ov = {});

/// STA with a per-gate delay multiplier (indexed by GateId; empty = all 1).
/// Used by the process-variation Monte Carlo: each die sample scales every
/// gate's nominal delay by its sampled factor.
[[nodiscard]] TimingResult runSta(const Netlist& nl, const TimingOverlay& ov,
                                  std::span<const double> gate_delay_factor);

/// Timing of one plain netlist (no overlay, no delay factors) that follows
/// edits. Construction is a full runSta() pass; after editing the netlist,
/// update() re-times it:
///  * the drivers of touched nets get their delay recomputed (their load
///    changed); they, the comb receivers of touched nets and any added gate
///    seed a forward worklist, ordered by logic level, that recomputes
///    arrival, critical-path predecessor and level, and goes on to a gate's
///    receivers only when its arrival or level changed;
///  * the critical endpoint and path are found again over all endpoints;
///  * if the critical delay moved, every required time is stale and a full
///    backward pass runs; otherwise a backward worklist recomputes the
///    required time of touched nets and of the inputs of gates whose delay
///    changed, going on to a net's driver inputs only when it changed.
/// The netlist must outlive the engine and stay acyclic.
class StaEngine {
public:
    explicit StaEngine(const Netlist& nl);

    [[nodiscard]] const TimingResult& result() const noexcept { return res_; }

    /// Re-time after edits. `touched` must list every net whose receiver
    /// set changed: both nets of a rewireInput and the inputs of every
    /// added gate. Added nets and gates are picked up from the counts.
    void update(std::span<const NetId> touched);

private:
    friend TimingResult runSta(const Netlist&, const TimingOverlay&, std::span<const double>);
    StaEngine(const Netlist& nl, const TimingOverlay* ov, std::span<const double> factor);

    [[nodiscard]] double gateDelay(GateId g) const;
    [[nodiscard]] double sourceArrival(NetId n) const;
    bool forwardGate(GateId g);
    void findCritical();
    bool pullRequired(NetId n);
    void fullForward();
    void fullBackward();
    void grow();
    [[nodiscard]] int netLevel(NetId n) const;
    void pushGate(GateId g, int level);
    void pushNet(NetId n);

    const Netlist* nl_;
    const TimingOverlay* ov_; ///< an empty overlay for the plain engine
    std::span<const double> factor_;
    TimingResult res_;
    std::vector<double> delay_;   ///< per gate, this pass
    std::vector<NetId> pred_;     ///< per net: worst-arrival input net
    std::vector<int> path_levels_; ///< per net: gates on its worst path

    // update() only: structural level per gate (the forward order) and
    // the worklists.
    std::vector<int> gate_level_;
    std::vector<std::pair<int, GateId>> gate_heap_;
    std::vector<std::pair<int, NetId>> net_heap_;
    std::vector<char> gate_queued_;
    std::vector<char> net_queued_;
};

} // namespace flh
