// paper_tables: the Tables I-IV computation over the paper's registry
// circuits. insertScan, then planDft + evaluateDft for each hold style
// (Tables I-III), then optimizeFanout on the Table IV circuits. dft, sta and
// power do the work; no ATPG, no cache. The workload seed drives the
// normal-mode power stimulus (PowerConfig::seed).
#include "bench.hpp"
#include "layers.hpp"

#include "dft/fanout_opt.hpp"
#include "dft/scan.hpp"
#include "iscas/circuits.hpp"
#include "util/strings.hpp"

#include <array>
#include <fstream>
#include <optional>
#include <set>

namespace perfbench {

using namespace flh;

namespace {

constexpr std::array<HoldStyle, 3> kStyles = {HoldStyle::EnhancedScan, HoldStyle::MuxHold,
                                              HoldStyle::Flh};

struct Circuit {
    std::string name;
    std::optional<Netlist> netlist; ///< unscanned, as generated; empty if unknown
    PowerConfig power;
    bool table_iv = false;
};

/// One circuit's row: the three evaluations and, for Table IV circuits,
/// the fanout optimization.
struct Row {
    std::array<DftEvaluation, 3> eval{};
    FanoutOptResult fanout{};
};

/// bench_util's powerConfigFor with the workload's stimulus seed.
PowerConfig powerFor(const std::string& name, std::uint64_t seed) {
    PowerConfig cfg;
    cfg.seed = seed;
    if (name != "s27") {
        cfg.ff_hold_prob = findCircuit(name).ff_hold_prob;
        cfg.pi_toggle_prob = 0.3 * (1.0 - 0.8 * cfg.ff_hold_prob);
    }
    return cfg;
}

std::vector<Circuit> makeCircuits(const Options& opt, std::uint64_t power_seed) {
    std::vector<std::string> names, table_iv;
    if (opt.smoke) {
        names = {"s27", "s298"};
        table_iv = {"s298"};
    } else {
        for (const CircuitSpec& s : paperCircuits()) names.push_back(s.name);
        for (const CircuitSpec& s : tableIvCircuits()) table_iv.push_back(s.name);
    }
    if (opt.inject_bad) names.push_back("s99999");
    const std::set<std::string> iv(table_iv.begin(), table_iv.end());
    std::vector<Circuit> out;
    for (const std::string& n : names) {
        Circuit c;
        c.name = n;
        c.table_iv = iv.count(n) > 0;
        try {
            c.netlist = traced("iscas", "generate", [&] { return makeCircuit(n, library()); });
            c.power = powerFor(n, power_seed);
        } catch (const std::exception&) {
            // Left empty: the pass counts it as a failed row.
        }
        out.push_back(std::move(c));
    }
    return out;
}

Row computeRow(const Circuit& c, bool use_replica) {
    Netlist nl = *c.netlist;
    (void)traced("dft", "scan", [&] { return insertScan(nl); });
    Row row;
    for (std::size_t i = 0; i < kStyles.size(); ++i) {
        const DftDesign plan = traced("dft", "plan", [&] { return planDft(nl, kStyles[i]); });
        row.eval[i] = use_replica ? evaluateDftTraced(nl, plan, c.power)
                                  : evaluateDft(nl, plan, c.power);
    }
    if (c.table_iv)
        row.fanout = traced("dft", "fanout_opt", [&] { return optimizeFanout(nl); });
    return row;
}

/// The EXPERIMENTS.md orderings marked as holding on every circuit: Table I
/// enhanced scan above MUX in area; Table II MUX largest and FLH least
/// delay; Table III enhanced > MUX > FLH power; Table IV delay never grows.
std::string orderingViolation(const Circuit& c, const Row& r) {
    const DftEvaluation& enh = r.eval[0];
    const DftEvaluation& mux = r.eval[1];
    const DftEvaluation& flh = r.eval[2];
    if (!(enh.area_increase_pct > mux.area_increase_pct)) return "Table I area enh <= mux";
    if (!(mux.delay_increase_pct > enh.delay_increase_pct &&
          mux.delay_increase_pct > flh.delay_increase_pct))
        return "Table II MUX delay not largest";
    if (!(flh.delay_increase_pct < enh.delay_increase_pct)) return "Table II FLH delay not least";
    if (!(enh.power_increase_pct > mux.power_increase_pct &&
          mux.power_increase_pct > flh.power_increase_pct))
        return "Table III power order not enh > mux > flh";
    if (c.table_iv && r.fanout.delay_after_ps > r.fanout.delay_before_ps)
        return "Table IV delay increased";
    return {};
}

/// FLH's delay-overhead improvement over enhanced scan, averaged over the
/// circuits (the paper's "71%" headline).
double flhDelayImprovement(const std::vector<Row>& rows) {
    double sum = 0;
    for (const Row& r : rows)
        sum += overheadImprovementPct(r.eval[0].delay_increase_pct, r.eval[2].delay_increase_pct);
    return rows.empty() ? 0.0 : sum / static_cast<double>(rows.size());
}

} // namespace

Result runPaperTables(const Options& opt) {
    Result res;
    const std::uint64_t power_seed = mix(opt.seed, 0x90);

    std::vector<double> setup_s;
    std::vector<Circuit> circuits;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const double c0 = cpuSeconds();
        circuits = makeCircuits(opt, power_seed);
        setup_s.push_back(cpuSeconds() - c0);
    }
    res.set("setup_s", median(setup_s), "s");

    // One pass over every circuit; a row that throws or breaks an ordering
    // is a failed operation. Returns the rows that completed.
    const auto pass = [&](bool replica) {
        std::vector<Row> rows;
        for (const Circuit& c : circuits) {
            try {
                if (!c.netlist) throw std::runtime_error("unknown circuit");
                Row r = computeRow(c, replica);
                const std::string bad = orderingViolation(c, r);
                res.check(bad.empty(), c.name + ": " + bad);
                rows.push_back(std::move(r));
            } catch (const std::exception& e) {
                res.check(false, c.name + ": " + e.what());
            }
        }
        return rows;
    };

    if (opt.trace) {
        obs::reset();
        obs::setEnabled(true);
        (void)traced("iscas", "setup", [&] { return makeCircuits(opt, power_seed); });
        obs::setEnabled(false);

        const Clock::time_point t0 = Clock::now();
        const std::vector<Row> plain = pass(false);
        const double plain_s = secondsSince(t0);
        obs::setEnabled(true);
        const Clock::time_point t1 = Clock::now();
        const std::vector<Row> rows = traced("bench", "pass", [&] { return pass(true); });
        const double traced_s = secondsSince(t1);
        obs::setEnabled(false);

        bool same = plain.size() == rows.size();
        for (std::size_t i = 0; same && i < rows.size(); ++i)
            for (std::size_t s = 0; s < kStyles.size(); ++s)
                same = same && sameEvaluation(plain[i].eval[s], rows[i].eval[s]);
        res.check(same, "traced evaluateDft replica differs from evaluateDft");

        std::ofstream f(opt.out_dir + "/trace.json", std::ios::binary);
        f << obs::traceJson();
        res.set("trace.untraced_wall_ms", 1000.0 * plain_s, "ms");
        res.set("trace.traced_wall_ms", 1000.0 * traced_s, "ms");
        return res;
    }

    std::vector<double> walls, cpus;
    std::vector<Row> first;
    const Clock::time_point start = Clock::now();
    do {
        const Clock::time_point t0 = Clock::now();
        const double c0 = cpuSeconds();
        std::vector<Row> rows = pass(false);
        cpus.push_back(cpuSeconds() - c0);
        walls.push_back(secondsSince(t0));
        if (first.empty()) first = std::move(rows);
    } while (secondsSince(start) < opt.seconds);

    res.set("cpu_s", median(cpus), "s");
    res.set("result_pct", flhDelayImprovement(first), "%");
    const std::string passes = std::to_string(walls.size()) + " passes over " +
                               std::to_string(circuits.size()) + " circuits";
    res.report("tables_wall_s", median(walls), "s", "median of " + passes);
    res.report("tables_cpu_s", median(cpus), "s", "median of " + passes);
    return res;
}

} // namespace perfbench
