// Shared vocabulary of the benchmark runner: run options, the result every
// workload fills in, and the benchmark-side span wrapper that times calls
// into the program's layers from outside (nothing under src/ is changed to
// measure it).
#pragma once

#include "obs/telemetry.hpp"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;      ///< tiny circuits, a handful of operations
    bool inject_bad = false; ///< add one operation that must be counted as failed
    std::string out_dir;     ///< trace / scratch files (inside the checkout)
};

struct Metric {
    double value = 0.0;
    std::string unit;
};

/// What a workload reports. `metrics` holds every figure the workload can
/// produce; run.py keeps the ones BENCHMARK.json lists for the run's mode.
struct Result {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, Metric> metrics;
    std::vector<std::string> failures; ///< one line per failed operation
    std::vector<std::string> notes;    ///< human-readable lines printed before the result

    void set(const std::string& name, double value, const std::string& unit) {
        metrics[name] = Metric{value, unit};
    }
    /// A note naming an end-to-end figure as ROADMAP.md does (flow_wall_s,
    /// serve_p99_ms, ...): "metric <name> = <value> <unit>[ (<detail>)]".
    void report(const std::string& name, double value, const std::string& unit,
                const std::string& detail = "");
    /// Count one operation; a false `ok` counts it as failed with `why`.
    void check(bool ok, const std::string& why) {
        ++attempted;
        if (!ok) {
            ++failed;
            if (failures.size() < 20) failures.push_back(why);
        }
    }
};

using Clock = std::chrono::steady_clock;

/// Set-ups measured per run when one set-up takes milliseconds: the median of
/// a few would follow a single noisy interval.
inline constexpr int kSetupReps = 41;

[[nodiscard]] inline double secondsSince(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}
[[nodiscard]] inline double msSince(Clock::time_point t0) { return 1000.0 * secondsSince(t0); }

/// Time `fn` under a span named "<layer>.<op>" in category "bench.<layer>".
/// While telemetry is off the span records nothing.
template <typename Fn>
decltype(auto) traced(std::string_view layer, std::string_view op, Fn&& fn) {
    const bool on = flh::obs::enabled();
    flh::obs::ScopedSpan span(on ? std::string(layer) + "." + std::string(op) : std::string(),
                              on ? "bench." + std::string(layer) : std::string());
    return std::forward<Fn>(fn)();
}

/// Percentile (0..1) of an unsorted sample; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> v, double p);
[[nodiscard]] inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Peak resident set of this process, MiB.
[[nodiscard]] double rssPeakMb();

/// CPU time of this process, every thread, seconds. Unlike wall time it
/// leaves out the time the process waits for a processor, which on a shared
/// host is most of the run-to-run spread.
[[nodiscard]] double cpuSeconds();

/// splitmix64 finaliser: derives independent sub-seeds from the workload seed.
[[nodiscard]] std::uint64_t mix(std::uint64_t a, std::uint64_t b);

Result runColdFlow(const Options& opt);
Result runPaperTables(const Options& opt);
Result runServeMix(const Options& opt);

} // namespace perfbench
