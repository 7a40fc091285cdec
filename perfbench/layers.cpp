#include "layers.hpp"

#include "bench.hpp"

#include "atpg/stuck_atpg.hpp"
#include "atpg/transition_atpg.hpp"
#include "dft/fanout_opt.hpp"
#include "dft/scan.hpp"
#include "fault/parallel_sim.hpp"
#include "netlist/bench_io.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace flh;

const Library& library() {
    static const Library lib = makeDefaultLibrary();
    return lib;
}

namespace {

Netlist parse(const std::string& text, const std::string& name) {
    return traced("netlist", "parse", [&] { return readBenchString(text, name, library()); });
}

/// The replica of paper_flow.cpp's scannedFrom().
Netlist scannedFrom(const StageContext& ctx) {
    return parse(ctx.input("scan").blob("bench"), ctx.design());
}

PowerConfig powerConfigFrom(const StageContext& ctx, const PaperFlowConfig& cfg) {
    PowerConfig pc;
    pc.n_vectors = cfg.power_vectors;
    pc.seed = cfg.power_seed;
    pc.ff_hold_prob = ctx.attrNum("ff_hold_prob", 0.0);
    pc.pi_toggle_prob = ctx.attrNum("pi_toggle_prob", pc.pi_toggle_prob);
    return pc;
}

/// Wrap a stage body in a "flow.stage.<name>" span.
StageDef stage(std::string name, std::string config, std::vector<std::string> deps, StageFn fn) {
    StageFn body = [name, fn = std::move(fn)](const StageContext& ctx) {
        return traced("flow", "stage." + name, [&] { return fn(ctx); });
    };
    return StageDef{std::move(name), std::move(config), std::move(deps), std::move(body)};
}

StageDef dftStage(const std::string& name, HoldStyle style, const PaperFlowConfig& cfg,
                  const std::string& config) {
    return stage(name, config, {"scan"}, [style, cfg](const StageContext& ctx) {
        const Netlist nl = scannedFrom(ctx);
        const DftDesign plan = traced("dft", "plan", [&] { return planDft(nl, style); });
        const DftEvaluation ev = evaluateDftTraced(nl, plan, powerConfigFrom(ctx, cfg));
        Artifact art;
        art.setStr("style", toString(style));
        art.setInt("gated_gates", static_cast<std::int64_t>(plan.gated_gates.size()));
        art.setNum("base_area_um2", ev.base_area_um2);
        art.setNum("dft_area_um2", ev.dft_area_um2);
        art.setNum("area_increase_pct", ev.area_increase_pct);
        art.setNum("delay_increase_pct", ev.delay_increase_pct);
        art.setNum("power_increase_pct", ev.power_increase_pct);
        return art;
    });
}

} // namespace

FlowGraph buildTracedPaperFlow(const PaperFlowConfig& cfg) {
    JsonWriter atpg_w;
    atpg_w.beginObject();
    atpg_w.kv("random_pairs", cfg.random_pairs);
    atpg_w.kv("seed", cfg.atpg_seed);
    atpg_w.endObject();
    JsonWriter power_w;
    power_w.beginObject();
    power_w.kv("power_vectors", cfg.power_vectors);
    power_w.kv("power_seed", cfg.power_seed);
    power_w.endObject();

    FlowGraph g;
    g.addStage(stage("netlist", "", {}, [](const StageContext& ctx) {
        const Netlist nl = parse(ctx.source(), ctx.design());
        const NetlistStats st = computeStats(nl);
        Artifact art;
        art.setInt("n_pis", static_cast<std::int64_t>(st.n_pis));
        art.setInt("n_pos", static_cast<std::int64_t>(st.n_pos));
        art.setInt("n_ffs", static_cast<std::int64_t>(st.n_ffs));
        art.setInt("n_comb_gates", static_cast<std::int64_t>(st.n_comb_gates));
        art.setInt("logic_depth", st.logic_depth);
        art.setInt("total_ff_fanout", static_cast<std::int64_t>(st.total_ff_fanout));
        art.setInt("unique_first_level", static_cast<std::int64_t>(st.unique_first_level));
        art.setNum("area_um2", st.area_um2);
        art.setBlob("bench", writeBenchString(nl));
        return art;
    }));
    g.addStage(stage("scan", "", {"netlist"}, [](const StageContext& ctx) {
        Netlist nl = parse(ctx.input("netlist").blob("bench"), ctx.design());
        const ScanInfo si = traced("dft", "scan", [&] { return insertScan(nl); });
        Artifact art;
        art.setInt("chain_length", static_cast<std::int64_t>(si.chain_length));
        art.setInt("unique_first_level",
                   static_cast<std::int64_t>(nl.uniqueFirstLevelGates().size()));
        art.setBlob("bench", writeBenchString(nl));
        return art;
    }));
    g.addStage(dftStage("dft_enh", HoldStyle::EnhancedScan, cfg, power_w.str()));
    g.addStage(dftStage("dft_mux", HoldStyle::MuxHold, cfg, power_w.str()));
    g.addStage(dftStage("dft_flh", HoldStyle::Flh, cfg, power_w.str()));
    g.addStage(stage("fanout_opt", "", {"scan"}, [](const StageContext& ctx) {
        Netlist nl = scannedFrom(ctx);
        const FanoutOptResult r = traced("dft", "fanout_opt", [&] { return optimizeFanout(nl); });
        Artifact art;
        art.setInt("ffs_optimized", static_cast<std::int64_t>(r.ffs_optimized));
        art.setInt("inverters_added", static_cast<std::int64_t>(r.inverters_added));
        art.setInt("first_level_before", static_cast<std::int64_t>(r.first_level_before));
        art.setInt("first_level_after", static_cast<std::int64_t>(r.first_level_after));
        art.setNum("delay_before_ps", r.delay_before_ps);
        art.setNum("delay_after_ps", r.delay_after_ps);
        art.setBlob("bench", writeBenchString(nl));
        return art;
    }));
    g.addStage(stage("atpg", atpg_w.str(), {"scan"}, [cfg](const StageContext& ctx) {
        const Netlist nl = scannedFrom(ctx);
        const auto faults = allTransitionFaults(nl);
        TransitionAtpgConfig acfg;
        acfg.random_pairs = cfg.random_pairs;
        acfg.seed = cfg.atpg_seed;
        const TransitionAtpgResult r = traced("atpg", "generate", [&] {
            return generateTransitionTests(nl, TestApplication::EnhancedScan, faults, acfg);
        });
        Artifact art;
        art.setInt("n_tests", static_cast<std::int64_t>(r.tests.size()));
        art.setInt("n_faults", static_cast<std::int64_t>(faults.size()));
        art.setNum("atpg_coverage_pct", r.coverage.coveragePct());
        art.setInt("untestable", static_cast<std::int64_t>(r.untestable));
        art.setInt("aborted", static_cast<std::int64_t>(r.aborted));
        art.setBlob("tests", serializeTests(r.tests));
        return art;
    }));
    g.addStage(stage("fault_sim", "", {"scan", "atpg"}, [](const StageContext& ctx) {
        const Netlist nl = scannedFrom(ctx);
        const auto tests = parseTests(ctx.input("atpg").blob("tests"));
        const auto faults = allTransitionFaults(nl);
        FaultSimOptions opts;
        opts.threads = ctx.simThreads();
        const FaultSimResult r = traced(
            "fault", "grade", [&] { return runTransitionFaultSim(nl, tests, faults, opts); });
        Artifact art;
        art.setInt("n_tests", static_cast<std::int64_t>(tests.size()));
        art.setInt("total_faults", static_cast<std::int64_t>(r.total));
        art.setInt("detected", static_cast<std::int64_t>(r.detected));
        art.setNum("coverage_pct", r.coveragePct());
        art.setInt("work_items", static_cast<std::int64_t>(r.total));
        return art;
    }));
    return g;
}

DftEvaluation evaluateDftTraced(const Netlist& nl, const DftDesign& d,
                                const PowerConfig& power_cfg) {
    return traced("dft", "evaluate", [&] {
        DftEvaluation e;
        e.style = d.style;
        e.base_area_um2 = nl.totalAreaUm2();
        e.dft_area_um2 = dftAreaUm2(nl, d);
        e.area_increase_pct = 100.0 * e.dft_area_um2 / e.base_area_um2;

        const TimingOverlay t_ov = makeTimingOverlay(nl, d);
        const TimingResult base_t = traced("sta", "run", [&] { return runSta(nl); });
        const TimingResult with_t = traced("sta", "run", [&] { return runSta(nl, t_ov); });
        e.base_delay_ps = base_t.critical_delay_ps;
        e.delay_ps = with_t.critical_delay_ps;
        e.delay_increase_pct = 100.0 * (e.delay_ps - e.base_delay_ps) / e.base_delay_ps;

        const PowerOverlay p_ov = makePowerOverlay(nl, d);
        const PowerResult base_p =
            traced("power", "measure", [&] { return measureNormalPower(nl, {}, power_cfg); });
        const PowerResult with_p =
            traced("power", "measure", [&] { return measureNormalPower(nl, p_ov, power_cfg); });
        e.base_power_uw = base_p.totalUw();
        e.power_uw = with_p.totalUw();
        e.power_increase_pct = 100.0 * (e.power_uw - e.base_power_uw) / e.base_power_uw;
        return e;
    });
}

bool sameEvaluation(const DftEvaluation& a, const DftEvaluation& b) {
    return a.style == b.style && a.base_area_um2 == b.base_area_um2 &&
           a.dft_area_um2 == b.dft_area_um2 && a.area_increase_pct == b.area_increase_pct &&
           a.base_delay_ps == b.base_delay_ps && a.delay_ps == b.delay_ps &&
           a.delay_increase_pct == b.delay_increase_pct && a.base_power_uw == b.base_power_uw &&
           a.power_uw == b.power_uw && a.power_increase_pct == b.power_increase_pct;
}

PodemProbe probePodem(const Netlist& nl, int random_pairs, std::uint64_t atpg_seed) {
    PodemProbe p;
    const std::vector<TransitionFault> faults = allTransitionFaults(nl);

    // generateTransitionTests' random phase for EnhancedScan: V1 then V2,
    // each an all-X pattern random-filled from one Rng(seed) stream.
    Rng rng(atpg_seed);
    const auto randomPattern = [&] {
        Pattern pat;
        pat.pis.assign(nl.pis().size(), Logic::X);
        pat.state.assign(nl.flipFlops().size(), Logic::X);
        fillRandom(pat, rng);
        return pat;
    };
    std::vector<TwoPattern> pairs;
    for (int i = 0; i < random_pairs; ++i) {
        TwoPattern tp;
        tp.v1 = randomPattern();
        tp.v2 = randomPattern();
        pairs.push_back(std::move(tp));
    }
    const FaultSimResult graded =
        traced("fault", "grade", [&] { return runTransitionFaultSim(nl, pairs, faults); });

    Podem podem(nl, PodemConfig{});
    for (std::size_t fi = 0; fi < faults.size(); ++fi) {
        if (graded.detected_mask[fi]) continue;
        ++p.survivors;
        Pattern v2;
        const Clock::time_point t0 = Clock::now();
        const PodemOutcome out = traced("atpg", "podem.generate", [&] {
            return podem.generate(faults[fi].equivalentStuckAt(), v2);
        });
        const double ms = msSince(t0);
        p.backtracks += podem.backtracksUsed();
        switch (out) {
            case PodemOutcome::Success: {
                ++p.success;
                p.success_ms.push_back(ms);
                Pattern v1;
                const Clock::time_point t1 = Clock::now();
                (void)traced("atpg", "podem.justify", [&] {
                    return podem.justify(faults[fi].net, faults[fi].initialValue(), v1);
                });
                p.justify_ms.push_back(msSince(t1));
                break;
            }
            case PodemOutcome::Untestable:
                ++p.untestable;
                p.untestable_ms.push_back(ms);
                break;
            case PodemOutcome::Aborted:
                ++p.aborted;
                p.aborted_ms.push_back(ms);
                break;
        }
    }
    return p;
}

} // namespace perfbench
