// flh_serve: the long-lived flow-engine service.
//
// One warm process owns a FlowService (shared design/graph memos, one
// `.flowcache/` cone) and serves the wire protocol of protocol.hpp over a
// local stream socket. Threading shape:
//
//   listener thread ── accept ──> session thread per connection
//                                   │ read frame, parse, validate
//                                   │ ping/metrics/shutdown: answer inline
//                                   └ flow/fuzz/equiv: admission queue
//   worker pool (ExecPolicy-sized) ── dequeue ──> handler ──> response
//
// Connection lifecycle: a session that disconnects retires itself — its
// fd closes immediately and the listener joins the thread between
// accepts — so a long-lived daemon under connection churn holds
// resources proportional to *live* connections, not total ever accepted.
// Accepted sockets carry a recv timeout (ServeOptions::io_timeout_ms);
// a peer that stalls mid-frame or idles at a frame boundary is dropped
// rather than pinning a session thread. Transient fd exhaustion in
// accept (EMFILE) backs off and retries instead of killing the listener.
//
// Admission control: the queue is bounded (ServeOptions::queue_limit);
// a full queue rejects with a structured "overloaded" error carrying
// retry_after_ms (estimated from a service-time EMA and the current
// backlog) instead of blocking the connection. Per-request deadlines
// bound queue wait — a job still queued past its deadline is rejected as
// "deadline_exceeded", never run.
//
// No request-level coalescing: every admitted job runs by itself on one
// worker. Repeated work across requests is removed one layer down, by the
// FlowService's shared FlowCache — a repeated flow replays its stages
// from the cache instead of recomputing them.
//
// Observability: every request gets a server-assigned trace id, set as
// the thread-local obs trace id for the duration of its handler — all
// spans recorded below it (flow stages, fault-sim partitions) carry
// args.trace_id in the trace export. A request that carries a `trace`
// field continues the client's context instead: the id becomes
// "<client-trace>/r-NNNNNN", grouping client and server spans in a
// merged fleet trace. Request counters mirror into the obs registry
// (serve.* names) and into always-on internal atomics that the metrics
// request and stats() report regardless of telemetry state; queue-wait
// and service-time land in always-on per-request-type histograms
// (serve.latency.<type>.{queue_ms,service_ms}) surfaced by the metrics
// request. Decision points that produce no response detail — overload
// and deadline rejections, internal errors, session retirement — emit
// structured events (obs/eventlog.hpp).
//
// Graceful stop: new connections and admissions are refused, session
// sockets are shut down read-side only (in-flight responses still flush),
// queued-but-unstarted jobs are drained with "shutting_down" rejections,
// and every thread is joined.
#pragma once

#include "flow/service.hpp"
#include "serve/protocol.hpp"
#include "util/socket.hpp"

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace flh::obs {
class Histogram;
class Sampler;
} // namespace flh::obs

namespace flh::serve {

struct ServeOptions {
    /// Where to listen. Default: loopback TCP on an ephemeral port (read
    /// the resolved port back via boundEndpoint()).
    net::Endpoint endpoint = net::Endpoint::tcpAt(0);

    /// Worker pool width, ExecPolicy semantics: 0 = one per hardware
    /// thread, otherwise exact.
    unsigned workers = 0;

    /// Admission queue bound; a full queue rejects with "overloaded".
    std::size_t queue_limit = 64;

    /// Deadline applied to requests that do not carry their own (ms of
    /// queue wait); 0 = none.
    double default_deadline_ms = 0.0;

    /// Per-frame payload cap enforced at the transport.
    std::size_t max_frame_bytes = kMaxRequestFrame;

    /// SO_RCVTIMEO armed on every accepted socket: a peer that goes
    /// silent mid-frame (or idles at a frame boundary) for this long is
    /// dropped instead of pinning its session thread and fd forever.
    /// 0 disables.
    unsigned io_timeout_ms = 30000;

    /// The warm flow engine behind `flow` requests.
    FlowServiceOptions flow;

    // Per-request work bounds (validation rejects beyond these — the
    // admission-control story continues into the request content).
    unsigned max_flow_threads = 4;      ///< clamp on per-request cone width
    std::size_t max_flow_circuits = 16; ///< circuits per flow request
    std::size_t max_fuzz_seeds = 256;   ///< seeds per fuzz request
    std::size_t max_equiv_pairs = 256;  ///< random+atpg pairs per equiv request

    /// > 0: run an obs::Sampler at this cadence for the process lifetime;
    /// the metrics request then includes its time-series.
    unsigned sampler_period_ms = 0;
};

/// Point-in-time server counters (always on, independent of telemetry).
struct StatsSnapshot {
    std::uint64_t connections = 0;
    std::uint64_t accepted = 0;  ///< requests admitted to the queue
    std::uint64_t completed = 0; ///< handler ran to completion (ok or error)
    std::uint64_t ok = 0;
    std::uint64_t errors = 0; ///< error responses of any code
    std::uint64_t bad_requests = 0;
    std::uint64_t rejected_overload = 0;
    std::uint64_t rejected_deadline = 0;
    std::uint64_t rejected_shutdown = 0;
    std::uint64_t coalesced = 0; ///< always 0; kept because perfbench/serve_mix.cpp reads it
    std::uint64_t batched = 0;   ///< always 0; kept because perfbench/serve_mix.cpp reads it
    std::uint64_t dropped_replies = 0; ///< peer gone before the response
    std::size_t queue_depth = 0;
    std::size_t open_sessions = 0; ///< live connections (retired ones pruned)
    double ema_service_ms = 0.0;

    void writeJson(JsonWriter& w) const;
};

class Server {
public:
    explicit Server(ServeOptions opts = {});
    ~Server(); ///< stop() + join everything

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Bind, listen, and spawn the listener + worker threads. Throws on
    /// bind failure (port in use, bad unix path).
    void start();

    /// Signal stop without waiting: refuse new work, unblock every
    /// blocked thread. Idempotent, safe from any thread (the shutdown
    /// request handler calls it from a session thread).
    void requestStop() noexcept;

    /// Block until every thread has exited (listener, sessions, workers).
    void waitUntilStopped();

    /// requestStop() + waitUntilStopped(). Idempotent.
    void stop();

    /// The endpoint actually bound (TCP port 0 resolved). Valid after
    /// start().
    [[nodiscard]] const net::Endpoint& boundEndpoint() const noexcept { return bound_; }

    [[nodiscard]] StatsSnapshot stats() const;

    [[nodiscard]] FlowService& flowService() noexcept { return flow_; }

private:
    struct Session {
        net::Socket sock;
        std::mutex write_mu; ///< responses to one connection serialize
        std::thread thread;
    };

    struct Job {
        ParsedRequest req;
        std::shared_ptr<Session> session;
        std::string trace_id;
        std::chrono::steady_clock::time_point enqueued;
        double deadline_ms = 0.0;
        // Flow jobs only — parsed at admission so the queue holds
        // ready-to-run specs and validation errors answer immediately.
        FlowJobSpec spec;
    };

    void listenLoop();
    void sessionLoop(const std::shared_ptr<Session>& session);
    void workerLoop(unsigned index);

    /// Session-thread exit path: close the socket (freeing the fd now,
    /// not at shutdown) and move the session from sessions_ to the
    /// finished list for the listener to join.
    void retireSession(const std::shared_ptr<Session>& session);
    /// Join and destroy retired sessions. Called on the listener thread
    /// between accepts and from waitUntilStopped — never concurrently.
    void reapFinishedSessions();

    void handleFrame(const std::shared_ptr<Session>& session, const std::string& frame);
    void validateJob(Job& job); ///< fills spec; throws BadRequest (internal type)
    void admit(Job job);
    void process(Job job);

    [[nodiscard]] std::string flowResultJson(const Job& job);
    [[nodiscard]] std::string fuzzResultJson(const Job& job);
    [[nodiscard]] std::string equivResultJson(const Job& job);
    [[nodiscard]] std::string metricsResultJson();

    void respondOk(const Job& job, std::string result, double queue_ms, double wall_ms);
    void rejectJob(const Job& job, const char* code, std::string message,
                   double retry_after_ms = 0.0);
    void sendResponse(Session& session, const Response& resp);
    [[nodiscard]] std::string nextTraceId();
    [[nodiscard]] double retryAfterMs(std::size_t backlog) const;
    void noteServiceTime(double wall_ms);

    ServeOptions opts_;
    FlowService flow_;
    std::unique_ptr<obs::Sampler> sampler_;

    net::Socket listener_;
    net::Endpoint bound_;
    std::thread listen_thread_;
    std::vector<std::thread> workers_;
    unsigned n_workers_ = 1;

    mutable std::mutex queue_mu_;
    std::condition_variable queue_cv_;
    std::deque<Job> queue_;

    mutable std::mutex sessions_mu_;
    std::vector<std::shared_ptr<Session>> sessions_;
    /// Sessions whose loop has exited: socket closed, thread unjoined.
    std::vector<std::shared_ptr<Session>> finished_sessions_;

    std::atomic<bool> stopping_{false};
    bool started_ = false;
    bool joined_ = false;
    std::mutex lifecycle_mu_;

    std::atomic<std::uint64_t> next_trace_{0};
    std::atomic<std::uint64_t> ema_service_us_{20000}; ///< seeded at 20 ms
    std::chrono::steady_clock::time_point start_time_{};

    struct Stats {
        std::atomic<std::uint64_t> connections{0}, accepted{0}, completed{0}, ok{0},
            errors{0}, bad_requests{0}, rejected_overload{0}, rejected_deadline{0},
            rejected_shutdown{0}, dropped_replies{0};
    } stats_;

    /// Always-on per-request-type breakdown behind the metrics response's
    /// "requests" section; indexed by RequestType.
    static constexpr std::size_t kNumRequestTypes = 6;
    struct TypeCounters {
        std::atomic<std::uint64_t> ok{0}, error{0};
    };
    std::array<TypeCounters, kNumRequestTypes> type_stats_;
    /// Registry-owned latency histograms, one queue-wait + one
    /// service-time per request type; recorded via the always-on
    /// observe() path (same double-booking rule as stats_).
    std::array<obs::Histogram*, kNumRequestTypes> queue_hist_{};
    std::array<obs::Histogram*, kNumRequestTypes> service_hist_{};
};

} // namespace flh::serve
