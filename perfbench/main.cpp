// flh_perfbench: runs one benchmark workload and prints its result as one
// JSON object on the last line of standard output. perfbench/run.py builds
// this binary, runs it, and reduces its output to the metrics BENCHMARK.json
// lists; see perfbench/README.md.
//
//   flh_perfbench --workload cold_flow|paper_tables|serve_mix --seed N
//                 --seconds S --trace 0|1 [--smoke] [--inject-bad] [--out DIR]
#include "bench.hpp"

#include "util/json.hpp"
#include "util/strings.hpp"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

namespace perfbench {

void Result::report(const std::string& name, double value, const std::string& unit,
                    const std::string& detail) {
    notes.push_back("metric " + name + " = " + flh::formatNumber(value) + " " + unit +
                    (detail.empty() ? "" : " (" + detail + ")"));
}

double percentile(std::vector<double> v, double p) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = p * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double rssPeakMb() {
    // VmHWM, not getrusage's ru_maxrss: the latter keeps the peak of the
    // image before exec, which for a run started from Python is the
    // interpreter's.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0; // kB
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

double cpuSeconds() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
    std::uint64_t z = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

namespace {

[[noreturn]] void usage(const std::string& why) {
    std::cerr << "flh_perfbench: " << why
              << "\nusage: flh_perfbench --workload cold_flow|paper_tables|serve_mix --seed N"
                 " --seconds S --trace 0|1 [--smoke] [--inject-bad] [--out DIR]\n";
    std::exit(2);
}

Options parseArgs(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc) usage(a + " needs a value");
            return argv[++i];
        };
        if (a == "--workload") o.workload = next();
        else if (a == "--seed") o.seed = std::stoull(next());
        else if (a == "--seconds") o.seconds = std::stod(next());
        else if (a == "--trace") o.trace = next() != "0";
        else if (a == "--out") o.out_dir = next();
        else if (a == "--smoke") o.smoke = true;
        else if (a == "--inject-bad") o.inject_bad = true;
        else usage("unknown argument " + a);
    }
    if (o.workload.empty()) usage("--workload is required");
    if (!(o.seconds > 0)) usage("--seconds must be positive");
    if (o.out_dir.empty()) o.out_dir = ".";
    return o;
}

} // namespace
} // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    const Options opt = parseArgs(argc, argv);
    Result r;
    try {
        if (opt.workload == "cold_flow") r = runColdFlow(opt);
        else if (opt.workload == "paper_tables") r = runPaperTables(opt);
        else if (opt.workload == "serve_mix") r = runServeMix(opt);
        else usage("unknown workload " + opt.workload);
    } catch (const std::exception& e) {
        std::cerr << "flh_perfbench: " << opt.workload << " aborted: " << e.what() << "\n";
        return 1;
    }
    if (!r.metrics.count("rss_peak_mb")) r.set("rss_peak_mb", rssPeakMb(), "MB");
    if (!opt.trace) {
        r.report("setup_s", r.metrics["setup_s"].value, "s");
        r.report("rss_peak_mb", r.metrics["rss_peak_mb"].value, "MB");
    }

    for (const std::string& n : r.notes) std::cout << n << "\n";
    for (const std::string& f : r.failures) std::cout << "FAILED: " << f << "\n";

    flh::JsonWriter w;
    w.beginObject();
    w.kv("correct", r.failed == 0);
    w.kv("attempted", r.attempted);
    w.kv("failed", r.failed);
    w.key("metrics");
    w.beginObject();
    for (const auto& [name, m] : r.metrics) {
        w.key(name);
        w.beginObject();
        w.kv("value", m.value);
        w.kv("unit", m.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    // The writer pretty-prints; the result must be a single line.
    std::string line = w.str();
    line.erase(std::remove(line.begin(), line.end(), '\n'), line.end());
    std::cout << line << std::endl;
    return 0;
}
