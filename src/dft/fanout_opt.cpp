#include "dft/fanout_opt.hpp"

#include "obs/telemetry.hpp"
#include "sta/timing.hpp"

#include <algorithm>
#include <array>
#include <unordered_map>
#include <unordered_set>

namespace flh {

namespace {

/// Comb gates driven by `q`, with the pins each occupies.
std::unordered_map<GateId, std::vector<int>> combReceivers(const Netlist& nl, NetId q) {
    std::unordered_map<GateId, std::vector<int>> out;
    for (const PinRef& pr : nl.fanout(q)) {
        if (isSequential(nl.gate(pr.gate).fn)) continue; // scan-chain SI / FF D pins stay put
        out[pr.gate].push_back(pr.pin);
    }
    return out;
}

/// True if gate `g` has an input driven by any flip-flop other than `ff`.
bool fedByOtherFf(const Netlist& nl, GateId g, GateId ff) {
    for (const NetId in : nl.gate(g).inputs) {
        const GateId drv = nl.net(in).driver;
        if (drv != kInvalidId && drv != ff && isSequential(nl.gate(drv).fn)) return true;
    }
    return false;
}

/// An existing inverter whose (single) input is `q`, if any.
GateId findExistingInverter(const Netlist& nl, NetId q) {
    for (const PinRef& pr : nl.fanout(q))
        if (nl.gate(pr.gate).fn == CellFn::Inv) return pr.gate;
    return kInvalidId;
}

} // namespace

FanoutOptResult optimizeFanout(Netlist& nl, const FanoutOptConfig& cfg) {
    const Tech& t = nl.library().tech();
    const Library& lib = nl.library();
    const Cell& inv = lib.cell(lib.find(CellFn::Inv, 1));

    FanoutOptResult res;
    res.first_level_before = nl.uniqueFirstLevelGates().size();
    // One timing state for the whole loop, re-timed after each rebuffer.
    StaEngine engine(nl);
    std::uint64_t full_runs = 1;
    std::uint64_t incremental_updates = 0;
    std::uint64_t ffs_considered = 0;
    res.delay_before_ps = engine.result().critical_delay_ps;

    // Process FFs in descending comb-fanout order (the paper targets "scan
    // flip flops with higher fanouts" first).
    std::vector<std::pair<GateId, std::size_t>> by_fanout;
    for (const GateId ff : nl.flipFlops())
        by_fanout.emplace_back(ff, combReceivers(nl, nl.gate(ff).output).size());
    std::stable_sort(by_fanout.begin(), by_fanout.end(),
                     [](const auto& a, const auto& b) { return a.second > b.second; });

    int name_seq = 0;
    for (const auto& entry : by_fanout) {
        const GateId ff = entry.first;
        const NetId q = nl.gate(ff).output;
        const auto receivers = combReceivers(nl, q);
        if (static_cast<int>(receivers.size()) < cfg.min_fanout) continue;
        ++ffs_considered;

        const TimingResult& sta = engine.result();
        const GateId reuse_inv = findExistingInverter(nl, q);

        // Estimate the rebuffer penalty: two inverter stages (or one if an
        // inverter is reused) in front of the displaced pins.
        double moved_load = 0.0;
        std::vector<std::pair<GateId, std::vector<int>>> candidates;
        for (const auto& [g, pins] : receivers) {
            if (g == reuse_inv) continue; // the reused inverter stays on q
            double pin_cap = 0.0;
            for (const int p : pins)
                pin_cap += lib.cell(nl.gate(g).cell).pinCapFf(t, p) + t.c_wire_ff_per_fanout;
            candidates.push_back({g, pins});
            moved_load += pin_cap;
        }
        // The displaced pins traverse two inverter stages either way; reusing
        // an existing inverter saves *area*, not delay (its output is not
        // where the moved pins used to hang).
        const double c_stage1 =
            (reuse_inv != kInvalidId
                 ? nl.netCapFf(nl.gate(reuse_inv).output) + inv.pinCapFf(t, 0) +
                       t.c_wire_ff_per_fanout
                 : inv.pinCapFf(t, 0) + inv.outputParasiticFf(t) + t.c_wire_ff_per_fanout);
        const double d_stage1 = inv.r_out_kohm * c_stage1 + kIntrinsicStagePs;
        const double d_stage2 =
            inv.r_out_kohm * (moved_load + inv.outputParasiticFf(t)) + kIntrinsicStagePs;
        const double penalty = d_stage1 + d_stage2 + cfg.slack_margin_ps;

        // Reusing an inverter loads its output with one more pin; paths
        // through its *other* fanouts must absorb that too.
        if (reuse_inv != kInvalidId) {
            const double extra = inv.r_out_kohm * (inv.pinCapFf(t, 0) + t.c_wire_ff_per_fanout);
            if (sta.slackPs(nl.gate(reuse_inv).output) < extra + cfg.slack_margin_ps) continue;
        }

        // Movable: every displaced path must absorb the penalty.
        std::vector<std::pair<GateId, std::vector<int>>> movable;
        std::size_t sole = 0; // gates first-level only because of this FF
        for (const auto& cand : candidates) {
            if (sta.slackPs(nl.gate(cand.first).output) < penalty) continue;
            movable.push_back(cand);
            if (!fedByOtherFf(nl, cand.first, ff)) ++sole;
        }
        if (movable.size() < 2 || sole == 0) continue;

        // If the new first-stage inverter loads q by more than the moved
        // pins unload it, the *remaining* paths through q slow down; they
        // must have the slack for it (slack(q) covers the worst of them).
        if (reuse_inv == kInvalidId) {
            double moved_caps = 0.0;
            for (const auto& [g, pins] : movable)
                for (const int p : pins)
                    moved_caps += lib.cell(nl.gate(g).cell).pinCapFf(t, p) + t.c_wire_ff_per_fanout;
            const double delta_q = inv.pinCapFf(t, 0) + t.c_wire_ff_per_fanout - moved_caps;
            if (delta_q > 0.0) {
                const GateId drv = nl.net(q).driver;
                const double r_drv = lib.cell(nl.gate(drv).cell).r_out_kohm;
                if (sta.slackPs(q) < r_drv * delta_q + cfg.slack_margin_ps) continue;
            }
        }

        // Area win: gating hardware saved vs inverters added.
        const int added_inv = reuse_inv != kInvalidId ? 1 : 2;
        const std::size_t new_first_level = reuse_inv != kInvalidId ? 0 : 1;
        const double saving = static_cast<double>(sole - (sole ? new_first_level : 0)) *
                                  cfg.flh.areaUm2(t) -
                              static_cast<double>(added_inv) * inv.areaUm2(t);
        if (saving <= 0.0) continue;

        // --- mutate -------------------------------------------------------
        NetId stage1_out;
        if (reuse_inv != kInvalidId) {
            stage1_out = nl.gate(reuse_inv).output;
        } else {
            stage1_out = nl.addNet("fopt_a" + std::to_string(name_seq));
            nl.addGate(CellFn::Inv, {q}, stage1_out);
        }
        const NetId stage2_out = nl.addNet("fopt_b" + std::to_string(name_seq));
        nl.addGate(CellFn::Inv, {stage1_out}, stage2_out);
        ++name_seq;
        for (const auto& [g, pins] : movable)
            for (const int p : pins) nl.rewireInput(g, p, stage2_out);
        const std::array<NetId, 3> touched = {q, stage1_out, stage2_out};
        engine.update(touched);
        ++incremental_updates;

        res.inverters_added += static_cast<std::size_t>(added_inv);
        ++res.ffs_optimized;
    }

    nl.check();
    res.first_level_after = nl.uniqueFirstLevelGates().size();
    res.delay_after_ps = runSta(nl).critical_delay_ps;
    ++full_runs;

    static obs::Counter& c_full = obs::counter("sta.full_runs");
    static obs::Counter& c_incremental = obs::counter("sta.incremental_updates");
    static obs::Counter& c_considered = obs::counter("dft.fanout_opt.ffs_considered");
    c_full.add(full_runs);
    c_incremental.add(incremental_updates);
    c_considered.add(ffs_considered);
    return res;
}

} // namespace flh
