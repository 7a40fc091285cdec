// flh_serve: the flow engine as a long-lived local service.
//
//   flh_serve --socket /tmp/flh.sock --threads 0
//   flh_serve --port 7421 --queue 128 --sample 200
//
// One warm process owns the design/graph memos and a single .flowcache/
// cone; clients speak the length-prefixed JSON protocol (ping / flow /
// fuzz / equiv / metrics / shutdown — see src/serve/protocol.hpp) over a
// Unix domain socket or loopback TCP. Each request runs by itself on one
// worker, and a repeated flow replays its stages from the shared cache; a
// bounded admission queue rejects overload with structured retry-after
// errors; every request gets a trace id that threads through the
// telemetry lanes.
//
// The process runs until a shutdown request or SIGINT/SIGTERM, then writes
// the --trace/--metrics exports (telemetry spans all requests served) and
// prints a final stats line. flh_client is the matching load generator.
#include "obs/eventlog.hpp"
#include "obs/telemetry.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"

#include <atomic>
#include <csignal>
#include <iostream>
#include <thread>

#include <unistd.h>

using namespace flh;

namespace {

constexpr const char* kUsage = R"(usage: flh_serve [options]
  --socket PATH        listen on a Unix domain socket at PATH
  --port N             listen on 127.0.0.1:N (0 = kernel-assigned; printed
                       on startup). Default when --socket is absent: port 0
  --threads N          worker pool width; 0 = one per hardware thread
                       (default 0)
  --queue N            admission queue bound (default 64)
  --deadline-ms F      default queue-wait deadline for requests that carry
                       none (default 0 = none)
  --idle-ms N          drop connections that idle or stall mid-frame for
                       N ms (default 30000; 0 = never)
  --cache-dir DIR      flow result cache directory (default .flowcache)
  --cache-max-bytes N  GC byte budget (suffixes k/m/g); 0 = unbounded
  --cache-max-entries N GC entry budget; 0 = unbounded
  --cache-max-age SEC  GC age bound in seconds; 0 = none
  --cache-gc           run one cache GC pass on startup
  --no-cache           flow stages recompute every time
  --sample MS          run the metrics sampler at MS cadence; metrics
                       responses then include the time-series
  --trace FILE         write a Chrome trace_event JSON on exit (enables
                       telemetry; spans carry per-request trace ids)
  --metrics FILE       write flat telemetry metrics on exit (enables
                       telemetry)
  --events FILE        write a structured JSONL event log (overload and
                       deadline rejections, session drops; independent
                       of --trace)
  --quiet              suppress startup/summary lines
  --help
)";

} // namespace

int main(int argc, char** argv) {
    cli::ArgScan scan(argc, argv, "flh_serve", kUsage);
    cli::CommonFlags common;
    common.threads = 0; // service default: one worker per hardware thread
    cli::CacheFlags cache_flags;
    serve::ServeOptions opts;
    std::string socket_path;
    bool port_set = false;
    std::uint16_t port = 0;
    unsigned sample_ms = 0;

    while (scan.next()) {
        if (common.tryParse(scan)) continue;
        if (cache_flags.tryParse(scan)) continue;
        if (scan.is("--socket")) socket_path = scan.value();
        else if (scan.is("--port")) {
            port = scan.num<std::uint16_t>();
            port_set = true;
        }
        else if (scan.is("--queue")) opts.queue_limit = scan.num<std::size_t>();
        else if (scan.is("--deadline-ms")) opts.default_deadline_ms = scan.num<double>();
        else if (scan.is("--idle-ms")) opts.io_timeout_ms = scan.num<unsigned>();
        else if (scan.is("--sample")) sample_ms = scan.num<unsigned>();
        else scan.unknownOption();
    }
    if (!socket_path.empty() && port_set)
        scan.usageError("--socket and --port are mutually exclusive");
    opts.flow.cache = makeCacheConfig(cache_flags);

    opts.workers = common.threads;
    opts.sampler_period_ms = sample_ms;
    opts.endpoint = socket_path.empty() ? net::Endpoint::tcpAt(port)
                                        : net::Endpoint::unixAt(socket_path);

    if (common.wantsTelemetry() || sample_ms > 0) {
        obs::setEnabled(true);
        obs::setThreadLabel("main");
    }

    // Event sink: separate gate from span telemetry, closed (with its
    // drop-count trailer) on every return path below.
    struct EventSinkCloser {
        ~EventSinkCloser() { obs::closeEventSink(); }
    } event_sink_closer;
    if (!common.events_path.empty()) {
        obs::setEventLogEnabled(true);
        if (!obs::openEventSink(common.events_path)) {
            std::cerr << "flh_serve: cannot write " << common.events_path << "\n";
            return 1;
        }
    }

    // SIGINT/SIGTERM stop the server cleanly: the signals are blocked on
    // every thread and consumed by a dedicated sigwait thread (a plain
    // handler could not safely call requestStop, which takes locks).
    sigset_t stop_signals;
    sigemptyset(&stop_signals);
    sigaddset(&stop_signals, SIGINT);
    sigaddset(&stop_signals, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);

    serve::Server server(opts);
    try {
        server.start();
    } catch (const std::exception& e) {
        std::cerr << "flh_serve: " << e.what() << "\n";
        return 1;
    }

    // Cleared the instant sigwait returns: past that point the thread may
    // exit at any moment, and pthread_kill on a terminated thread is
    // undefined — so the wake-up below must go to the process, not the
    // thread, and only while this is still set.
    std::atomic<bool> signal_thread_waiting{true};
    std::thread signal_thread([&] {
        int sig = 0;
        sigwait(&stop_signals, &sig);
        signal_thread_waiting.store(false);
        server.requestStop();
    });

    if (!common.quiet) {
        std::cout << "flh_serve: listening on " << server.boundEndpoint().describe()
                  << std::endl; // flushed so wrappers can scrape the port
    }

    server.waitUntilStopped();
    // If the stop came from a shutdown request, the signal thread is still
    // parked in sigwait: a process-directed SIGTERM can only be consumed
    // by it (every thread blocks the signal). If it already took a signal,
    // either no SIGTERM is sent or the extra one stays pending-and-blocked
    // until exit — both harmless, unlike pthread_kill on a thread that may
    // have terminated.
    if (signal_thread_waiting.load()) kill(getpid(), SIGTERM);
    signal_thread.join();

    if (!common.trace_path.empty())
        cli::writeFileOrDie("flh_serve", common.trace_path, obs::traceJson());
    if (!common.metrics_path.empty())
        cli::writeFileOrDie("flh_serve", common.metrics_path, obs::metricsJson());

    if (!common.quiet) {
        const serve::StatsSnapshot s = server.stats();
        std::cout << "flh_serve: " << s.connections << " connections, " << s.ok << " ok, "
                  << s.errors << " errors (" << s.rejected_overload << " overload, "
                  << s.rejected_deadline << " deadline, " << s.rejected_shutdown
                  << " shutdown)\n";
    }
    return 0;
}
