#include "serve/server.hpp"

#include "cell/cells.hpp"
#include "dft/scan.hpp"
#include "iscas/circuits.hpp"
#include "obs/eventlog.hpp"
#include "obs/sampler.hpp"
#include "obs/telemetry.hpp"
#include "util/exec_policy.hpp"
#include "verify/equivalence.hpp"
#include "verify/fuzz.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>
#include <stdexcept>

#include <unistd.h>

namespace flh::serve {

namespace {

constexpr auto relaxed = std::memory_order_relaxed;
using Clock = std::chrono::steady_clock;

/// Request-content validation failure: answered as "bad_request", never
/// treated as a server fault.
struct BadRequest : std::runtime_error {
    using std::runtime_error::runtime_error;
};

double msSince(Clock::time_point from, Clock::time_point to = Clock::now()) {
    return std::chrono::duration<double, std::milli>(to - from).count();
}

const Library& serveLibrary() {
    static const Library lib = makeDefaultLibrary();
    return lib;
}

/// numOr + range check in one step; rejects NaN and out-of-range values
/// with a field-named error.
double boundedNum(const JsonValue& params, const std::string& key, double fallback, double lo,
                  double hi) {
    const double v = numOr(params, key, fallback);
    if (!(v >= lo && v <= hi)) // negated comparison also catches NaN
        throw BadRequest("field \"" + key + "\" must be in [" + formatNumber(lo) + ", " +
                         formatNumber(hi) + "]");
    return v;
}

std::string stripTrailingNewline(std::string s) {
    if (!s.empty() && s.back() == '\n') s.pop_back();
    return s;
}

} // namespace

void StatsSnapshot::writeJson(JsonWriter& w) const {
    w.beginObject();
    w.kv("connections", connections);
    w.kv("accepted", accepted);
    w.kv("completed", completed);
    w.kv("ok", ok);
    w.kv("errors", errors);
    w.kv("bad_requests", bad_requests);
    w.kv("rejected_overload", rejected_overload);
    w.kv("rejected_deadline", rejected_deadline);
    w.kv("rejected_shutdown", rejected_shutdown);
    w.kv("coalesced", coalesced); // metrics key kept for readers; always 0
    w.kv("batched", batched);     // metrics key kept for readers; always 0
    w.kv("dropped_replies", dropped_replies);
    w.kv("queue_depth", static_cast<std::uint64_t>(queue_depth));
    w.kv("open_sessions", static_cast<std::uint64_t>(open_sessions));
    w.kv("ema_service_ms", ema_service_ms);
    w.endObject();
}

namespace {

/// Histogram summary as a JSON object — the metrics response's latency
/// section shares the rollup shape of obs::metricsJson() histograms.
void writeLatencySummary(JsonWriter& w, const obs::Histogram& h) {
    const obs::Histogram::Summary s = h.summarize();
    w.beginObject();
    w.kv("count", s.count);
    w.kv("sum", s.sum);
    w.kv("min", s.min);
    w.kv("max", s.max);
    w.kv("p50", s.p50);
    w.kv("p95", s.p95);
    w.kv("p99", s.p99);
    w.endObject();
}

} // namespace

Server::Server(ServeOptions opts) : opts_(std::move(opts)), flow_(opts_.flow) {
    for (std::size_t i = 0; i < kNumRequestTypes; ++i) {
        const std::string t(toString(static_cast<RequestType>(i)));
        queue_hist_[i] = &obs::histogram("serve.latency." + t + ".queue_ms");
        service_hist_[i] = &obs::histogram("serve.latency." + t + ".service_ms");
    }
}

Server::~Server() { stop(); }

void Server::start() {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (started_) throw std::logic_error("serve: Server::start() called twice");

    listener_ = net::listenOn(opts_.endpoint);
    bound_ = opts_.endpoint;
    if (bound_.unix_path.empty()) bound_.port = net::boundPort(listener_);

    // ExecPolicy semantics for the pool knob; floor of one queued slot per
    // worker — a pool wider than the admission queue can never fill up.
    n_workers_ = ExecPolicy{opts_.workers, 1}.resolveThreads(
        opts_.queue_limit > 0 ? opts_.queue_limit : 1);

    if (opts_.sampler_period_ms > 0) {
        obs::SamplerOptions so;
        so.period_ms = opts_.sampler_period_ms;
        sampler_ = std::make_unique<obs::Sampler>(so);
        sampler_->start();
    }

    workers_.reserve(n_workers_);
    for (unsigned i = 0; i < n_workers_; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
    listen_thread_ = std::thread([this] { listenLoop(); });
    start_time_ = Clock::now();
    started_ = true;
}

void Server::requestStop() noexcept {
    if (stopping_.exchange(true)) return;
    listener_.shutdownBoth(); // unblocks accept -> listener exits
    queue_cv_.notify_all();   // workers wake up to drain + exit
    std::lock_guard<std::mutex> lock(sessions_mu_);
    // Read side only: pending responses of in-flight jobs still flush.
    for (const std::shared_ptr<Session>& s : sessions_) s->sock.shutdownRead();
}

void Server::waitUntilStopped() {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (!started_ || joined_) return;
    if (listen_thread_.joinable()) listen_thread_.join();
    for (std::thread& w : workers_)
        if (w.joinable()) w.join();
    // Listener is gone, so the session list is final: join the still-live
    // session threads (each retires itself on the way out), then reap the
    // retired ones the listener never got to.
    std::vector<std::shared_ptr<Session>> sessions;
    {
        std::lock_guard<std::mutex> sl(sessions_mu_);
        sessions = sessions_;
    }
    for (const std::shared_ptr<Session>& s : sessions)
        if (s->thread.joinable()) s->thread.join();
    reapFinishedSessions();
    {
        std::lock_guard<std::mutex> sl(sessions_mu_);
        sessions_.clear();
    }
    if (sampler_) sampler_->stop();
    listener_.close();
    if (!opts_.endpoint.unix_path.empty()) ::unlink(opts_.endpoint.unix_path.c_str());
    joined_ = true;
}

void Server::stop() {
    requestStop();
    waitUntilStopped();
}

StatsSnapshot Server::stats() const {
    StatsSnapshot s;
    s.connections = stats_.connections.load(relaxed);
    s.accepted = stats_.accepted.load(relaxed);
    s.completed = stats_.completed.load(relaxed);
    s.ok = stats_.ok.load(relaxed);
    s.errors = stats_.errors.load(relaxed);
    s.bad_requests = stats_.bad_requests.load(relaxed);
    s.rejected_overload = stats_.rejected_overload.load(relaxed);
    s.rejected_deadline = stats_.rejected_deadline.load(relaxed);
    s.rejected_shutdown = stats_.rejected_shutdown.load(relaxed);
    s.dropped_replies = stats_.dropped_replies.load(relaxed);
    {
        std::lock_guard<std::mutex> lock(queue_mu_);
        s.queue_depth = queue_.size();
    }
    {
        std::lock_guard<std::mutex> lock(sessions_mu_);
        s.open_sessions = sessions_.size();
    }
    s.ema_service_ms = static_cast<double>(ema_service_us_.load(relaxed)) / 1000.0;
    return s;
}

// ---- threads -----------------------------------------------------------

void Server::listenLoop() {
    obs::setThreadLabel("serve-listener");
    try {
        for (;;) {
            reapFinishedSessions();
            std::optional<net::Socket> accepted = net::acceptOn(listener_);
            if (!accepted) break;
            auto session = std::make_shared<Session>();
            session->sock = std::move(*accepted);
            if (opts_.io_timeout_ms > 0) net::setRecvTimeout(session->sock, opts_.io_timeout_ms);
            stats_.connections.fetch_add(1, relaxed);
            static obs::Counter& c_conn = obs::counter("serve.connections");
            c_conn.add();
            {
                std::lock_guard<std::mutex> lock(sessions_mu_);
                sessions_.push_back(session);
            }
            session->thread = std::thread([this, session] { sessionLoop(session); });
            // Close the race with a concurrent requestStop() that iterated
            // the session list before this connection appeared in it. Under
            // sessions_mu_ so it cannot interleave with the session closing
            // its own socket in retireSession.
            if (stopping_.load(relaxed)) {
                std::lock_guard<std::mutex> lock(sessions_mu_);
                if (std::find(sessions_.begin(), sessions_.end(), session) != sessions_.end())
                    session->sock.shutdownRead();
            }
        }
    } catch (const std::exception&) {
        // Listener socket died; stop accepting. Existing sessions live on.
    }
}

void Server::sessionLoop(const std::shared_ptr<Session>& session) {
    obs::setThreadLabel("serve-session");
    for (;;) {
        std::optional<std::string> frame;
        try {
            frame = net::readFrame(session->sock, opts_.max_frame_bytes);
        } catch (const std::exception& e) {
            // Oversized length prefix or a torn stream: answer if the pipe
            // still works, then drop the connection (no way to resync).
            stats_.errors.fetch_add(1, relaxed);
            stats_.bad_requests.fetch_add(1, relaxed);
            sendResponse(*session, Response::errorFor(0, nextTraceId(),
                                                      ErrorInfo{"bad_request", e.what(), 0.0}));
            break;
        }
        if (!frame) break; // clean disconnect, idle timeout, or stop
        handleFrame(session, *frame);
    }
    retireSession(session);
}

void Server::retireSession(const std::shared_ptr<Session>& session) {
    if (obs::eventLogEnabled()) {
        std::size_t open = 0;
        {
            std::lock_guard<std::mutex> lock(sessions_mu_);
            open = sessions_.size();
        }
        obs::logEvent(obs::EventLevel::Debug, "serve", "session_close",
                      {{"open_sessions", static_cast<std::uint64_t>(open)}});
    }
    // Unblock any send stuck on a full socket buffer before taking
    // write_mu, so a worker mid-response cannot hold the close back.
    session->sock.shutdownBoth();
    std::scoped_lock lock(sessions_mu_, session->write_mu);
    // Close under both locks: sendResponse serializes on write_mu (a late
    // response sees fd -1 and counts a dropped reply, never a reused fd),
    // and requestStop/listenLoop only touch sockets still in sessions_.
    session->sock.close();
    const auto it = std::find(sessions_.begin(), sessions_.end(), session);
    if (it != sessions_.end()) {
        finished_sessions_.push_back(std::move(*it));
        sessions_.erase(it);
    }
    // Not found: waitUntilStopped already took ownership and will join us.
}

void Server::reapFinishedSessions() {
    std::vector<std::shared_ptr<Session>> done;
    {
        std::lock_guard<std::mutex> lock(sessions_mu_);
        done.swap(finished_sessions_);
    }
    for (const std::shared_ptr<Session>& s : done)
        if (s->thread.joinable()) s->thread.join();
}

void Server::workerLoop(unsigned index) {
    obs::setThreadLabel("serve-worker-" + std::to_string(index));
    static obs::Gauge& g_depth = obs::gauge("serve.queue_depth");
    for (;;) {
        Job job;
        bool drain = false;
        {
            std::unique_lock<std::mutex> lock(queue_mu_);
            queue_cv_.wait(lock, [this] { return stopping_.load(relaxed) || !queue_.empty(); });
            if (queue_.empty()) {
                if (stopping_.load(relaxed)) return;
                continue;
            }
            job = std::move(queue_.front());
            queue_.pop_front();
            drain = stopping_.load(relaxed);
            g_depth.set(static_cast<std::int64_t>(queue_.size()));
        }
        if (drain) {
            rejectJob(job, "shutting_down", "server is shutting down");
            continue;
        }
        process(std::move(job));
    }
}

// ---- request path ------------------------------------------------------

void Server::handleFrame(const std::shared_ptr<Session>& session, const std::string& frame) {
    ParsedRequest req;
    try {
        req = parseRequest(frame);
    } catch (const std::exception& e) {
        stats_.errors.fetch_add(1, relaxed);
        stats_.bad_requests.fetch_add(1, relaxed);
        static obs::Counter& c_err = obs::counter("serve.errors");
        c_err.add();
        sendResponse(*session,
                     Response::errorFor(0, nextTraceId(), ErrorInfo{"bad_request", e.what(), 0.0}));
        return;
    }

    Job job;
    job.req = std::move(req);
    job.session = session;
    // Wire-propagated trace context: a client-supplied trace becomes the
    // prefix of the server-minted id, so the merged fleet trace groups
    // this request's client and server spans under one identity.
    job.trace_id = job.req.trace.empty() ? nextTraceId()
                                         : job.req.trace + "/" + nextTraceId();
    job.enqueued = Clock::now();
    job.deadline_ms = job.req.deadline_ms > 0.0 ? job.req.deadline_ms : opts_.default_deadline_ms;

    // ping / metrics / shutdown answer inline on the session thread: they
    // must stay responsive under full-queue overload.
    if (job.req.type == RequestType::Ping || job.req.type == RequestType::Metrics ||
        job.req.type == RequestType::Shutdown) {
        obs::ScopedTraceId tid(job.trace_id);
        obs::ScopedSpan span("serve." + std::string(toString(job.req.type)), "serve.request");
        static obs::Counter& c_req = obs::counter("serve.requests");
        c_req.add();
        const Clock::time_point t0 = Clock::now();
        std::string result;
        if (job.req.type == RequestType::Ping) {
            JsonWriter w;
            w.beginObject();
            w.kv("pong", true);
            w.kv("workers", static_cast<std::uint64_t>(n_workers_));
            w.endObject();
            result = w.str();
        } else if (job.req.type == RequestType::Metrics) {
            result = metricsResultJson();
        } else {
            JsonWriter w;
            w.beginObject();
            w.kv("stopping", true);
            w.endObject();
            result = w.str();
        }
        respondOk(job, std::move(result), /*queue_ms=*/0.0, msSince(t0));
        if (job.req.type == RequestType::Shutdown) requestStop();
        return;
    }

    try {
        validateJob(job);
    } catch (const BadRequest& e) {
        rejectJob(job, "bad_request", e.what());
        return;
    }
    admit(std::move(job));
}

void Server::validateJob(Job& job) {
    const JsonValue& p = job.req.params;

    switch (job.req.type) {
    case RequestType::Flow: {
        if (p.kind != JsonValue::Kind::Obj || !p.has("circuits"))
            throw BadRequest("flow: params.circuits (array of circuit names) is required");
        const JsonValue& cs = p.at("circuits");
        if (cs.kind != JsonValue::Kind::Arr || cs.arr.empty())
            throw BadRequest("flow: \"circuits\" must be a non-empty array");
        if (cs.arr.size() > opts_.max_flow_circuits)
            throw BadRequest("flow: at most " + std::to_string(opts_.max_flow_circuits) +
                             " circuits per request");
        // Order-preserving dedupe: a repeated circuit runs, and reports, once.
        std::set<std::string> seen;
        for (const JsonValue& c : cs.arr) {
            if (c.kind != JsonValue::Kind::Str || c.str.empty())
                throw BadRequest("flow: \"circuits\" entries must be non-empty strings");
            if (seen.insert(c.str).second) job.spec.circuits.push_back(c.str);
        }
        job.spec.cfg.random_pairs = static_cast<int>(boundedNum(p, "pairs", 64, 1, 4096));
        job.spec.cfg.atpg_seed =
            static_cast<std::uint64_t>(boundedNum(p, "atpg_seed", 11, 0, 1e15));
        job.spec.cfg.power_vectors =
            static_cast<int>(boundedNum(p, "power_vectors", 40, 1, 4096));
        job.spec.cfg.power_seed =
            static_cast<std::uint64_t>(boundedNum(p, "power_seed", 1234, 0, 1e15));
        job.spec.threads = static_cast<unsigned>(
            boundedNum(p, "threads", 1, 1, static_cast<double>(opts_.max_flow_threads)));
        break;
    }
    case RequestType::Fuzz:
        (void)boundedNum(p, "seeds", 1, 1, static_cast<double>(opts_.max_fuzz_seeds));
        break;
    case RequestType::Equiv: {
        const double total = boundedNum(p, "random_pairs", 8, 0, 1e9) +
                             boundedNum(p, "atpg_pairs", 4, 0, 1e9);
        if (total < 1 || total > static_cast<double>(opts_.max_equiv_pairs))
            throw BadRequest("equiv: random_pairs + atpg_pairs must be in [1, " +
                             std::to_string(opts_.max_equiv_pairs) + "]");
        break;
    }
    default:
        break;
    }
}

void Server::admit(Job job) {
    static obs::Gauge& g_depth = obs::gauge("serve.queue_depth");
    bool reject_shutdown = false;
    bool reject_full = false;
    std::size_t backlog = 0;
    {
        std::lock_guard<std::mutex> lock(queue_mu_);
        if (stopping_.load(relaxed)) {
            reject_shutdown = true;
        } else if (queue_.size() >= opts_.queue_limit) {
            reject_full = true;
            backlog = queue_.size();
        } else {
            queue_.push_back(std::move(job));
            g_depth.set(static_cast<std::int64_t>(queue_.size()));
            stats_.accepted.fetch_add(1, relaxed);
        }
    }
    if (reject_shutdown) {
        rejectJob(job, "shutting_down", "server is shutting down");
        return;
    }
    if (reject_full) {
        rejectJob(job, "overloaded",
                  "admission queue full (" + std::to_string(backlog) + " queued)",
                  retryAfterMs(backlog));
        return;
    }
    static obs::Counter& c_req = obs::counter("serve.requests");
    c_req.add();
    queue_cv_.notify_one();
}

void Server::process(Job job) {
    const Clock::time_point t0 = Clock::now();
    const double queue_ms = msSince(job.enqueued, t0);

    // Queue-wait deadline: an expired job is rejected, never run.
    if (job.deadline_ms > 0.0 && queue_ms > job.deadline_ms) {
        rejectJob(job, "deadline_exceeded",
                  "spent " + formatNumber(queue_ms) + " ms queued, deadline " +
                      formatNumber(job.deadline_ms) + " ms");
        return;
    }

    obs::ScopedTraceId tid(job.trace_id);
    obs::ScopedSpan span("serve." + std::string(toString(job.req.type)), "serve.request");
    try {
        std::string result = job.req.type == RequestType::Flow   ? flowResultJson(job)
                             : job.req.type == RequestType::Fuzz ? fuzzResultJson(job)
                                                                 : equivResultJson(job);
        respondOk(job, std::move(result), queue_ms, msSince(t0));
    } catch (const BadRequest& e) {
        rejectJob(job, "bad_request", e.what());
    } catch (const std::exception& e) {
        rejectJob(job, "internal", e.what());
    }
}

// ---- handlers ----------------------------------------------------------

std::string Server::flowResultJson(const Job& job) {
    // FlowService::run throws only when a circuit does not resolve; stage
    // failures come back per record.
    const RunReport report = [&] {
        try {
            return flow_.run(job.spec);
        } catch (const std::exception& e) {
            throw BadRequest("flow: " + std::string(e.what()));
        }
    }();
    std::size_t hits = 0, misses = 0, failures = 0;
    JsonWriter w;
    w.beginObject();
    w.key("circuits");
    w.beginArray();
    for (const std::string& c : job.spec.circuits) w.value(c);
    w.endArray();
    w.key("records");
    w.beginArray();
    for (const StageRecord& r : report.records()) {
        if (r.failed)
            ++failures;
        else if (r.cache_hit)
            ++hits;
        else
            ++misses;
        w.beginObject();
        w.kv("design", r.design);
        w.kv("stage", r.stage);
        w.kv("cache_hit", r.cache_hit);
        w.kv("failed", r.failed);
        w.kv("wall_ms", r.wall_ms);
        w.endObject();
    }
    w.endArray();
    w.kv("stages", static_cast<std::uint64_t>(report.records().size()));
    w.kv("hits", static_cast<std::uint64_t>(hits));
    w.kv("misses", static_cast<std::uint64_t>(misses));
    w.kv("failures", static_cast<std::uint64_t>(failures));
    w.kv("hit_rate", (hits + misses) > 0
                         ? static_cast<double>(hits) / static_cast<double>(hits + misses)
                         : 0.0);
    w.endObject();
    return w.str();
}

std::string Server::fuzzResultJson(const Job& job) {
    const JsonValue& p = job.req.params;
    FuzzOptions fo;
    fo.start_seed = static_cast<std::uint64_t>(boundedNum(p, "start_seed", 1, 0, 1e15));
    fo.seeds = static_cast<std::size_t>(
        boundedNum(p, "seeds", 1, 1, static_cast<double>(opts_.max_fuzz_seeds)));
    fo.random_pairs = static_cast<std::size_t>(boundedNum(p, "random_pairs", 4, 0, 64));
    fo.atpg_pairs = static_cast<std::size_t>(boundedNum(p, "atpg_pairs", 2, 0, 64));
    fo.stuck_patterns = static_cast<std::size_t>(boundedNum(p, "patterns", 8, 1, 256));
    fo.max_faults = static_cast<std::size_t>(boundedNum(p, "max_faults", 48, 1, 4096));
    // Service posture: cones already run on a shared worker pool, so the
    // differential checks stay single-threaded and narrow, and findings are
    // data in the response — no shrinking, no corpus writes, no early stop.
    fo.thread_counts = {1};
    fo.word_widths = {1, 4};
    fo.shrink = false;
    fo.corpus_dir.clear();
    fo.stop_on_first = false;

    const FuzzReport rep = runFuzz(fo);
    JsonWriter w;
    w.beginObject();
    w.kv("seeds_run", static_cast<std::uint64_t>(rep.seeds_run));
    w.kv("checks_run", static_cast<std::uint64_t>(rep.checks_run));
    w.kv("ok", rep.ok());
    w.key("findings");
    w.beginArray();
    for (const FuzzFinding& f : rep.findings) {
        w.beginObject();
        w.kv("seed", f.seed);
        w.kv("check", f.check);
        w.kv("detail", f.detail);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

std::string Server::equivResultJson(const Job& job) {
    const JsonValue& p = job.req.params;
    const std::string circuit = strOr(p, "circuit", "s27");
    const auto random_pairs = static_cast<std::size_t>(boundedNum(p, "random_pairs", 8, 0, 1e9));
    const auto atpg_pairs = static_cast<std::size_t>(boundedNum(p, "atpg_pairs", 4, 0, 1e9));
    const auto seed = static_cast<std::uint64_t>(boundedNum(p, "seed", 3, 0, 1e15));

    Netlist nl = [&]() -> Netlist {
        try {
            return makeCircuit(circuit, serveLibrary());
        } catch (const std::exception& e) {
            throw BadRequest("equiv: " + std::string(e.what()));
        }
    }();
    insertScan(nl);
    const std::vector<TwoPattern> pairs = makeEquivalencePairs(nl, random_pairs, atpg_pairs, seed);
    const EquivalenceReport rep = checkDftEquivalence(nl, pairs);

    JsonWriter w;
    w.beginObject();
    w.kv("circuit", circuit);
    w.kv("pairs_checked", static_cast<std::uint64_t>(rep.pairs_checked));
    w.kv("comparisons", static_cast<std::uint64_t>(rep.comparisons));
    w.kv("equivalent", rep.ok());
    w.key("mismatches");
    w.beginArray();
    for (const EquivalenceMismatch& m : rep.mismatches) w.value(m.describe());
    w.endArray();
    w.endObject();
    return w.str();
}

std::string Server::metricsResultJson() {
    JsonWriter w;
    w.beginObject();
    // v2: adds uptime_s, the per-type "requests" breakdown, and "latency"
    // histogram summaries next to the v1 serve/cache/metrics sections.
    w.kv("schema", "flh.serve.metrics/2");
    w.kv("uptime_s", msSince(start_time_) / 1000.0);
    w.key("serve");
    stats().writeJson(w);
    w.key("requests");
    w.beginObject();
    for (std::size_t i = 0; i < kNumRequestTypes; ++i) {
        w.key(toString(static_cast<RequestType>(i)));
        w.beginObject();
        w.kv("ok", type_stats_[i].ok.load(relaxed));
        w.kv("error", type_stats_[i].error.load(relaxed));
        w.kv("coalesced", std::uint64_t{0}); // metrics key kept for readers
        w.endObject();
    }
    w.endObject();
    w.key("latency");
    w.beginObject();
    for (std::size_t i = 0; i < kNumRequestTypes; ++i) {
        if (queue_hist_[i]->count() == 0 && service_hist_[i]->count() == 0) continue;
        w.key(toString(static_cast<RequestType>(i)));
        w.beginObject();
        w.key("queue_ms");
        writeLatencySummary(w, *queue_hist_[i]);
        w.key("service_ms");
        writeLatencySummary(w, *service_hist_[i]);
        w.endObject();
    }
    w.endObject();
    // Cache stats come straight from the service's shared FlowCache handle
    // (always-on, like the serve stats) rather than the obs gauges, which
    // only record when telemetry is enabled.
    if (const std::shared_ptr<FlowCache>& c = flow_.cache()) {
        w.key("cache");
        c->stats().writeJson(w);
    }
    w.key("metrics");
    w.rawValue(stripTrailingNewline(obs::metricsJson()));
    if (sampler_) {
        w.key("timeseries");
        w.rawValue(stripTrailingNewline(sampler_->timeseriesJson()));
    }
    w.endObject();
    return w.str();
}

// ---- response plumbing -------------------------------------------------

void Server::respondOk(const Job& job, std::string result, double queue_ms, double wall_ms) {
    stats_.completed.fetch_add(1, relaxed);
    stats_.ok.fetch_add(1, relaxed);
    static obs::Counter& c_ok = obs::counter("serve.ok");
    c_ok.add();
    const auto ti = static_cast<std::size_t>(job.req.type);
    type_stats_[ti].ok.fetch_add(1, relaxed);
    // Always-on observe(): the latency breakdown in the metrics response
    // works with telemetry off, like the rest of stats_.
    queue_hist_[ti]->observe(queue_ms);
    service_hist_[ti]->observe(wall_ms);
    Response r = Response::okFor(job.req.id, job.trace_id, std::move(result));
    r.queue_ms = queue_ms;
    r.wall_ms = wall_ms;
    sendResponse(*job.session, r);
    noteServiceTime(wall_ms);
}

void Server::rejectJob(const Job& job, const char* code, std::string message,
                       double retry_after_ms) {
    const std::string_view c{code};
    stats_.errors.fetch_add(1, relaxed);
    type_stats_[static_cast<std::size_t>(job.req.type)].error.fetch_add(1, relaxed);
    if (c == "overloaded") {
        stats_.rejected_overload.fetch_add(1, relaxed);
        obs::logEvent(obs::EventLevel::Warn, "serve", "overload_reject",
                      {{"type", std::string(toString(job.req.type))},
                       {"retry_after_ms", retry_after_ms},
                       {"trace", job.trace_id}});
    } else if (c == "deadline_exceeded") {
        stats_.rejected_deadline.fetch_add(1, relaxed);
        obs::logEvent(obs::EventLevel::Info, "serve", "deadline_reject",
                      {{"type", std::string(toString(job.req.type))},
                       {"deadline_ms", job.deadline_ms},
                       {"trace", job.trace_id}});
    } else if (c == "shutting_down") {
        stats_.rejected_shutdown.fetch_add(1, relaxed);
    } else if (c == "bad_request") {
        stats_.bad_requests.fetch_add(1, relaxed);
    } else if (c == "internal") {
        obs::logEvent(obs::EventLevel::Error, "serve", "internal_error",
                      {{"type", std::string(toString(job.req.type))},
                       {"trace", job.trace_id}});
    }
    static obs::Counter& c_err = obs::counter("serve.errors");
    c_err.add();
    sendResponse(*job.session, Response::errorFor(job.req.id, job.trace_id,
                                                  ErrorInfo{std::string(c), std::move(message),
                                                            retry_after_ms}));
}

void Server::sendResponse(Session& session, const Response& resp) {
    const std::string payload = resp.toJson();
    std::lock_guard<std::mutex> lock(session.write_mu);
    try {
        if (!net::writeFrame(session.sock, payload)) stats_.dropped_replies.fetch_add(1, relaxed);
    } catch (const std::exception&) {
        stats_.dropped_replies.fetch_add(1, relaxed);
    }
}

std::string Server::nextTraceId() {
    const std::uint64_t n = next_trace_.fetch_add(1, relaxed) + 1;
    std::string digits = std::to_string(n);
    if (digits.size() < 6) digits.insert(0, 6 - digits.size(), '0');
    return "r-" + digits;
}

double Server::retryAfterMs(std::size_t backlog) const {
    const double ema_ms = static_cast<double>(ema_service_us_.load(relaxed)) / 1000.0;
    const double workers = static_cast<double>(n_workers_ > 0 ? n_workers_ : 1);
    return std::max(10.0, ema_ms * (static_cast<double>(backlog + 1) / workers));
}

void Server::noteServiceTime(double wall_ms) {
    // EMA with alpha 0.2; the load/store race just blurs the estimate.
    const auto sample = static_cast<std::uint64_t>(std::max(0.0, wall_ms) * 1000.0);
    const std::uint64_t prev = ema_service_us_.load(relaxed);
    ema_service_us_.store(prev - prev / 5 + sample / 5, relaxed);
}

} // namespace flh::serve
