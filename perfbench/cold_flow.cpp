// cold_flow: the ROADMAP north-star path. runFlow(buildPaperFlow()) with
// the cache disabled at scheduler width 4, over a fixed set of
// s1423-statistics reconstructions; ATPG does almost all the work.
//
// The ATPG problem is fixed: the circuits and the flow's default ATPG seed,
// so the registry s1423 is exactly the ROADMAP's reference cold flow. The
// workload seed drives the power stimulus (PaperFlowConfig::power_seed).
// On a 4-vCPU Xeon guest, seeding the circuits moved the cold flow between 3
// and 10 s, and seeding the ATPG between 8.3 and 11 s: spreads no bound
// could hold.
#include "bench.hpp"
#include "layers.hpp"

#include "iscas/circuits.hpp"
#include "netlist/bench_io.hpp"
#include "util/strings.hpp"

#include <cmath>
#include <fstream>
#include <thread>

namespace perfbench {

using namespace flh;

namespace {

constexpr unsigned kWidth = 4;

/// A design input as designInputFor() builds it: registry circuits by
/// name (s27 is the genuine netlist), reconstructions from their spec, both
/// with the registry's workload attributes.
DesignInput designFor(const std::string& name, const CircuitSpec* spec) {
    const Netlist nl = traced("iscas", "generate", [&] {
        return spec ? generateCircuit(*spec, library()) : makeCircuit(name, library());
    });
    DesignInput d;
    d.name = name;
    d.source = writeBenchString(nl);
    if (name != "s27") {
        const double hold = spec ? spec->ff_hold_prob : findCircuit(name).ff_hold_prob;
        d.attrs = "ff_hold_prob=" + formatNumber(hold) +
                  ";pi_toggle_prob=" + formatNumber(0.3 * (1.0 - 0.8 * hold));
    }
    return d;
}

/// The registry s1423 (the ROADMAP's reference circuit) plus one more
/// reconstruction from the same statistics; s27 and s298 in smoke mode.
std::vector<DesignInput> makeDesigns(const Options& opt) {
    std::vector<DesignInput> out;
    if (opt.smoke) {
        out.push_back(designFor("s27", nullptr));
        out.push_back(designFor("s298", nullptr));
    } else {
        CircuitSpec r1 = findCircuit("s1423");
        r1.name = "s1423_r1";
        r1.seed = mix(r1.seed, 1);
        out.push_back(designFor("s1423", nullptr));
        out.push_back(designFor(r1.name, &r1));
    }
    if (opt.inject_bad) out.push_back(DesignInput{"bad_netlist", "OUTPUT(\n", ""});
    return out;
}

const StageRecord* findRecord(const RunReport& r, const std::string& design,
                              const std::string& stage) {
    for (const StageRecord& rec : r.records())
        if (rec.design == design && rec.stage == stage) return &rec;
    return nullptr;
}

struct DesignCheck {
    bool ok = true;
    std::string why;
    double coverage = 0.0;
    double n_faults = 0.0;
    double aborted = 0.0;
};

/// Every stage ran, and the ATPG's own coverage equals the fault
/// simulator's regrade of the tests it emitted.
DesignCheck checkDesign(const RunReport& r, const std::string& design) {
    DesignCheck c;
    for (const StageRecord& rec : r.records()) {
        if (rec.design == design && rec.failed) {
            c.ok = false;
            c.why = design + "/" + rec.stage + " failed: " + rec.error;
            return c;
        }
    }
    const StageRecord* atpg = findRecord(r, design, "atpg");
    const StageRecord* fsim = findRecord(r, design, "fault_sim");
    if (!atpg || !fsim) {
        c.ok = false;
        c.why = design + ": missing atpg/fault_sim record";
        return c;
    }
    const double a = atpg->artifact.num("atpg_coverage_pct");
    c.coverage = fsim->artifact.num("coverage_pct");
    c.n_faults = static_cast<double>(atpg->artifact.integer("n_faults"));
    c.aborted = static_cast<double>(atpg->artifact.integer("aborted"));
    if (std::abs(a - c.coverage) > 1e-9) {
        c.ok = false;
        c.why = design + ": atpg_coverage_pct " + formatNumber(a) + " != fault_sim coverage_pct " +
                formatNumber(c.coverage);
    }
    return c;
}

void writeFile(const std::string& path, const std::string& text) {
    std::ofstream f(path, std::ios::binary);
    f << text;
    if (!f) throw std::runtime_error("cannot write " + path);
}

void tracedRun(const Options& opt, const PaperFlowConfig& cfg,
               const std::vector<DesignInput>& designs, const FlowOptions& fo, Result& res) {
    // Untraced pass of the real graph, then the traced replica on the same
    // inputs: same report expected, and the wall-time difference is the
    // tracing overhead.
    const Clock::time_point t0 = Clock::now();
    const RunReport plain = runFlow(buildPaperFlow(cfg), designs, fo);
    const double plain_s = secondsSince(t0);

    obs::setEnabled(true);
    const FlowGraph graph = buildTracedPaperFlow(cfg);
    const Clock::time_point t1 = Clock::now();
    const RunReport rep = traced("flow", "pass", [&] { return runFlow(graph, designs, fo); });
    const double traced_s = secondsSince(t1);

    res.check(rep.reportJson() == plain.reportJson(),
              "traced replica reportJson differs from buildPaperFlow's");
    for (const DesignInput& d : designs) {
        const DesignCheck c = checkDesign(rep, d.name);
        res.check(c.ok, c.why);
    }

    // PODEM probe over each design's random-phase survivors, one thread
    // per design, outside the measured pass.
    std::vector<PodemProbe> probes(designs.size());
    std::vector<std::string> probe_errors(designs.size());
    traced("atpg", "probe", [&] {
        std::vector<std::thread> pool;
        for (std::size_t i = 0; i < designs.size(); ++i) {
            const StageRecord* scan = findRecord(rep, designs[i].name, "scan");
            if (!scan || scan->failed) continue;
            pool.emplace_back([&, i, scan] {
                try {
                    const Netlist nl = readBenchString(scan->artifact.blob("bench"),
                                                       designs[i].name, library());
                    probes[i] = probePodem(nl, cfg.random_pairs, cfg.atpg_seed);
                } catch (const std::exception& e) {
                    probe_errors[i] = e.what();
                }
            });
        }
        for (std::thread& t : pool) t.join();
    });
    for (std::size_t i = 0; i < designs.size(); ++i)
        if (!probe_errors[i].empty())
            res.check(false, designs[i].name + ": PODEM probe failed: " + probe_errors[i]);
    obs::setEnabled(false);
    writeFile(opt.out_dir + "/trace.json", obs::traceJson());

    double tests = 0, untestable = 0, aborted = 0, faults = 0, detected = 0;
    for (const DesignInput& d : designs) {
        const StageRecord* atpg = findRecord(rep, d.name, "atpg");
        const StageRecord* fsim = findRecord(rep, d.name, "fault_sim");
        if (!atpg || atpg->failed || !fsim || fsim->failed) continue;
        tests += static_cast<double>(atpg->artifact.integer("n_tests"));
        untestable += static_cast<double>(atpg->artifact.integer("untestable"));
        aborted += static_cast<double>(atpg->artifact.integer("aborted"));
        faults += static_cast<double>(atpg->artifact.integer("n_faults"));
        detected += static_cast<double>(fsim->artifact.integer("detected"));
    }
    res.set("atpg.tests", tests, "count");
    res.set("atpg.untestable", untestable, "count");
    res.set("atpg.aborted", aborted, "count");
    res.set("atpg.aborted_pct", faults > 0 ? 100.0 * aborted / faults : 0.0, "%");
    res.set("fault.graded", faults, "count");
    res.set("fault.coverage_pct", faults > 0 ? 100.0 * detected / faults : 0.0, "%");

    static const char* kStages[] = {"netlist", "scan",       "dft_enh", "dft_mux",
                                    "dft_flh", "fanout_opt", "atpg",    "fault_sim"};
    for (const char* s : kStages) {
        double ms = 0;
        for (const StageRecord& rec : rep.records())
            if (rec.stage == s) ms += rec.wall_ms;
        res.set(std::string("flow.stage.") + s + "_ms", ms, "ms");
    }
    res.set("flow.cache.hit_ratio", rep.hitRate(), "ratio");
    res.set("flow.cache.misses", static_cast<double>(rep.misses()), "count");

    PodemProbe all;
    for (const PodemProbe& p : probes) {
        all.survivors += p.survivors;
        all.success += p.success;
        all.untestable += p.untestable;
        all.aborted += p.aborted;
        all.backtracks += p.backtracks;
        const auto append = [](std::vector<double>& to, const std::vector<double>& from) {
            to.insert(to.end(), from.begin(), from.end());
        };
        append(all.success_ms, p.success_ms);
        append(all.untestable_ms, p.untestable_ms);
        append(all.aborted_ms, p.aborted_ms);
        append(all.justify_ms, p.justify_ms);
    }
    const auto sum = [](const std::vector<double>& v) {
        double s = 0;
        for (const double x : v) s += x;
        return s;
    };
    const double busy = sum(all.success_ms) + sum(all.untestable_ms) + sum(all.aborted_ms);
    const double calls = static_cast<double>(all.survivors);
    res.set("atpg.podem.calls", calls, "count");
    res.set("atpg.podem.success", static_cast<double>(all.success), "count");
    res.set("atpg.podem.untestable", static_cast<double>(all.untestable), "count");
    res.set("atpg.podem.aborted", static_cast<double>(all.aborted), "count");
    res.set("atpg.podem.backtracks", static_cast<double>(all.backtracks), "count");
    res.set("atpg.podem.busy_ms", busy, "ms");
    res.set("atpg.podem.aborted_busy_pct", busy > 0 ? 100.0 * sum(all.aborted_ms) / busy : 0.0,
            "%");
    res.set("atpg.podem.useful_ratio", calls > 0 ? static_cast<double>(all.success) / calls : 0.0,
            "ratio");
    res.set("atpg.podem.success_ms.p50", percentile(all.success_ms, 0.5), "ms");
    res.set("atpg.podem.success_ms.p99", percentile(all.success_ms, 0.99), "ms");
    res.set("atpg.podem.aborted_ms.p50", percentile(all.aborted_ms, 0.5), "ms");
    res.set("atpg.podem.aborted_ms.p99", percentile(all.aborted_ms, 0.99), "ms");
    res.set("atpg.podem.untestable_ms.p50", percentile(all.untestable_ms, 0.5), "ms");
    res.set("atpg.podem.justify_ms", sum(all.justify_ms), "ms");

    res.set("trace.untraced_wall_ms", 1000.0 * plain_s, "ms");
    res.set("trace.traced_wall_ms", 1000.0 * traced_s, "ms");
    res.notes.push_back("traced pass " + formatNumber(traced_s) + " s vs untraced " +
                        formatNumber(plain_s) + " s; probe: " + std::to_string(all.survivors) +
                        " PODEM calls, " + std::to_string(all.aborted) + " aborted");
}

} // namespace

Result runColdFlow(const Options& opt) {
    Result res;
    PaperFlowConfig cfg;
    cfg.power_seed = mix(opt.seed, 0x90);

    // Set-up: generate the circuits. Repeated so setup_s is a median; the
    // traced run records one more generation under its own span.
    std::vector<double> setup_s;
    std::vector<DesignInput> designs;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const double c0 = cpuSeconds();
        designs = makeDesigns(opt);
        setup_s.push_back(cpuSeconds() - c0);
    }
    res.set("setup_s", median(setup_s), "s");

    FlowOptions fo;
    fo.threads = kWidth;
    fo.sim_threads = kWidth;
    fo.cache.enabled = false;

    if (opt.trace) {
        obs::reset();
        obs::setEnabled(true);
        (void)traced("iscas", "setup", [&] { return makeDesigns(opt); });
        obs::setEnabled(false);
        tracedRun(opt, cfg, designs, fo, res);
        return res;
    }

    const FlowGraph graph = buildPaperFlow(cfg);
    std::vector<double> walls, cpus;
    std::string first_report;
    double faults = 0, coverage_sum = 0, aborted = 0;
    std::size_t covered = 0;
    const Clock::time_point start = Clock::now();
    do {
        const Clock::time_point t0 = Clock::now();
        const double c0 = cpuSeconds();
        const RunReport rep = runFlow(graph, designs, fo);
        cpus.push_back(cpuSeconds() - c0);
        walls.push_back(secondsSince(t0));
        const std::string report = rep.reportJson();
        if (first_report.empty()) first_report = report;
        const bool same = report == first_report;
        for (const DesignInput& d : designs) {
            const DesignCheck c = checkDesign(rep, d.name);
            res.check(c.ok && same, c.ok ? d.name + ": report differs between iterations" : c.why);
            if (!c.ok) continue;
            if (walls.size() == 1) {
                faults += c.n_faults;
                aborted += c.aborted;
                coverage_sum += c.coverage;
                ++covered;
            }
        }
    } while (secondsSince(start) < opt.seconds);

    res.set("cpu_s", median(cpus), "s");
    res.set("result_pct", covered ? coverage_sum / static_cast<double>(covered) : 0.0, "%");
    const std::string runs = std::to_string(walls.size()) + " cold flows over " +
                             std::to_string(designs.size()) + " designs";
    res.report("flow_wall_s", median(walls), "s", "median of " + runs);
    res.report("flow_cpu_s", median(cpus), "s", "median of " + runs);
    res.report("coverage_pct", covered ? coverage_sum / static_cast<double>(covered) : 0.0, "%",
               "fault_sim transition coverage, mean over designs");
    res.report("aborted_pct", faults > 0 ? 100.0 * aborted / faults : 0.0, "%",
               "faults PODEM aborted, of all transition faults");
    return res;
}

} // namespace perfbench
