// flh_serve subsystem: wire protocol round-trips and the server end-to-end
// over a real socket — warm-cache replay, duplicate-circuit dedupe,
// admission control (overload rejections with retry-after, queue-wait
// deadlines), malformed frames, graceful shutdown, and a multi-client
// concurrency soak.
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "obs/telemetry.hpp"
#include "util/socket.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

namespace flh::serve {
namespace {

namespace fs = std::filesystem;

// ---- protocol ----------------------------------------------------------

TEST(ServeProtocol, RequestRoundTrips) {
    Request req;
    req.id = 42;
    req.type = RequestType::Flow;
    req.deadline_ms = 1500.5;
    req.params_json = R"({"circuits": ["s27"], "pairs": 8})";

    const ParsedRequest p = parseRequest(req.toJson());
    EXPECT_EQ(p.id, 42u);
    EXPECT_EQ(p.type, RequestType::Flow);
    EXPECT_DOUBLE_EQ(p.deadline_ms, 1500.5);
    ASSERT_EQ(p.params.kind, JsonValue::Kind::Obj);
    EXPECT_EQ(p.params.at("circuits").arr.at(0).str, "s27");
    EXPECT_DOUBLE_EQ(p.params.at("pairs").num, 8.0);
}

TEST(ServeProtocol, RequestDefaultsAndMissingParams) {
    const ParsedRequest p = parseRequest(R"({"id": 1, "type": "ping"})");
    EXPECT_EQ(p.type, RequestType::Ping);
    EXPECT_DOUBLE_EQ(p.deadline_ms, 0.0);
    EXPECT_EQ(p.params.kind, JsonValue::Kind::Null);
}

TEST(ServeProtocol, RequestRejectsGarbage) {
    EXPECT_THROW((void)parseRequest("not json"), std::runtime_error);
    EXPECT_THROW((void)parseRequest("[1,2]"), std::runtime_error);
    EXPECT_THROW((void)parseRequest(R"({"id": 1, "type": "warp"})"), std::runtime_error);
    EXPECT_THROW((void)parseRequest(R"({"id": "x", "type": "ping"})"), std::runtime_error);
    EXPECT_THROW((void)parseRequest(R"({"v": 99, "id": 1, "type": "ping"})"),
                 std::runtime_error);
}

TEST(ServeProtocol, RejectsNumbersThatWouldOverflowTheirCasts) {
    // Doubles outside the target type's range make the narrowing cast UB;
    // each of these must be rejected before any cast runs.
    EXPECT_THROW((void)parseRequest(R"({"id": 1e300, "type": "ping"})"), std::runtime_error);
    EXPECT_THROW((void)parseRequest(R"({"id": 1.5, "type": "ping"})"), std::runtime_error);
    EXPECT_THROW((void)parseRequest(R"({"id": -1, "type": "ping"})"), std::runtime_error);
    EXPECT_THROW((void)parseRequest(R"({"v": 1e300, "id": 1, "type": "ping"})"),
                 std::runtime_error);
    EXPECT_THROW((void)parseRequest(R"({"v": 1.25, "id": 1, "type": "ping"})"),
                 std::runtime_error);
    // Largest exactly-representable id (2^53 - 1) still round-trips.
    const ParsedRequest p = parseRequest(R"({"id": 9007199254740991, "type": "ping"})");
    EXPECT_EQ(p.id, 9007199254740991u);
}

TEST(ServeProtocol, ResponseOkRoundTrips) {
    Response resp = Response::okFor(7, "r-000001", R"({"pong": true})");
    resp.queue_ms = 0.25;
    resp.wall_ms = 3.5;
    resp.coalesced = true;

    const ParsedResponse p = parseResponse(resp.toJson());
    EXPECT_EQ(p.id, 7u);
    EXPECT_TRUE(p.ok);
    EXPECT_EQ(p.trace_id, "r-000001");
    EXPECT_DOUBLE_EQ(p.queue_ms, 0.25);
    EXPECT_DOUBLE_EQ(p.wall_ms, 3.5);
    EXPECT_TRUE(p.coalesced);
    EXPECT_TRUE(p.result.at("pong").b);
}

TEST(ServeProtocol, ResponseErrorRoundTrips) {
    const Response resp =
        Response::errorFor(9, "r-000002", {"overloaded", "queue full", 48.0});
    const ParsedResponse p = parseResponse(resp.toJson());
    EXPECT_EQ(p.id, 9u);
    EXPECT_FALSE(p.ok);
    EXPECT_EQ(p.error.code, "overloaded");
    EXPECT_EQ(p.error.message, "queue full");
    EXPECT_DOUBLE_EQ(p.error.retry_after_ms, 48.0);
}

TEST(ServeProtocol, CanonicalJsonIgnoresKeyOrderAndWhitespace) {
    const JsonValue a = parseJson(R"({"pairs": 8, "circuits": ["s27"]})");
    const JsonValue b = parseJson("{ \"circuits\" : [ \"s27\" ],\n  \"pairs\" : 8 }");
    EXPECT_EQ(canonicalJson(a), canonicalJson(b));
    const JsonValue c = parseJson(R"({"pairs": 9, "circuits": ["s27"]})");
    EXPECT_NE(canonicalJson(a), canonicalJson(c));
}

// ---- server end-to-end -------------------------------------------------

/// Running server on an ephemeral loopback port with a throwaway cache
/// directory; connections are plain blocking sockets.
struct ServerFixture {
    std::string cache_dir;
    Server server;

    explicit ServerFixture(ServeOptions opts = {}) : server(configure(opts)) {
        server.start();
    }
    ~ServerFixture() {
        server.stop();
        std::error_code ec;
        fs::remove_all(cache_dir, ec);
    }

    ServeOptions configure(ServeOptions opts) {
        static std::atomic<int> counter{0};
        cache_dir = (fs::temp_directory_path() /
                     ("flh_serve_test_" + std::to_string(::getpid()) + "_" +
                      std::to_string(counter.fetch_add(1))))
                        .string();
        if (opts.endpoint.unix_path.empty()) opts.endpoint = net::Endpoint::tcpAt(0);
        opts.flow.cache.dir = cache_dir;
        return opts;
    }

    [[nodiscard]] net::Socket connect() const {
        return net::connectTo(server.boundEndpoint());
    }
};

ParsedResponse roundTrip(const net::Socket& sock, const Request& req) {
    EXPECT_TRUE(net::writeFrame(sock, req.toJson()));
    const std::optional<std::string> raw = net::readFrame(sock);
    if (!raw) throw std::runtime_error("connection closed before a reply");
    return parseResponse(*raw);
}

/// A length-prefixed frame as raw bytes, so several frames can go out in
/// one send.
std::string frameBytes(const std::string& payload) {
    const auto n = static_cast<std::uint32_t>(payload.size());
    return std::string{static_cast<char>(n >> 24), static_cast<char>(n >> 16),
                       static_cast<char>(n >> 8), static_cast<char>(n)} +
           payload;
}

Request flowRequest(std::uint64_t id, const std::string& circuits_json, int pairs) {
    Request req;
    req.id = id;
    req.type = RequestType::Flow;
    req.params_json =
        R"({"circuits": )" + circuits_json + R"(, "pairs": )" + std::to_string(pairs) + "}";
    return req;
}

TEST(ServeServer, PingRoundTrips) {
    ServerFixture fx;
    const net::Socket sock = fx.connect();
    Request req;
    req.id = 5;
    const ParsedResponse resp = roundTrip(sock, req);
    EXPECT_TRUE(resp.ok);
    EXPECT_EQ(resp.id, 5u);
    EXPECT_TRUE(resp.result.at("pong").b);
    EXPECT_GE(resp.result.at("workers").num, 1.0);
    EXPECT_FALSE(resp.trace_id.empty());
}

TEST(ServeServer, MalformedFrameGetsBadRequestNotDisconnect) {
    ServerFixture fx;
    const net::Socket sock = fx.connect();
    ASSERT_TRUE(net::writeFrame(sock, "this is not json"));
    const std::optional<std::string> raw = net::readFrame(sock);
    ASSERT_TRUE(raw.has_value());
    const ParsedResponse resp = parseResponse(*raw);
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.error.code, "bad_request");

    // The session survives a bad frame; a good request still works.
    Request req;
    req.id = 2;
    EXPECT_TRUE(roundTrip(sock, req).ok);
    EXPECT_EQ(fx.server.stats().bad_requests, 1u);
}

TEST(ServeServer, UnknownFlowCircuitIsBadRequest) {
    ServerFixture fx;
    const net::Socket sock = fx.connect();
    const ParsedResponse resp =
        roundTrip(sock, flowRequest(1, R"(["no_such_circuit"])", 4));
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.error.code, "bad_request");
}

TEST(ServeServer, WarmReplayServesFromCache) {
    ServerFixture fx;
    const net::Socket sock = fx.connect();
    const ParsedResponse cold = roundTrip(sock, flowRequest(1, R"(["s27"])", 8));
    ASSERT_TRUE(cold.ok);
    EXPECT_DOUBLE_EQ(cold.result.at("failures").num, 0.0);
    EXPECT_GT(cold.result.at("stages").num, 0.0);

    const ParsedResponse warm = roundTrip(sock, flowRequest(2, R"(["s27"])", 8));
    ASSERT_TRUE(warm.ok);
    EXPECT_DOUBLE_EQ(warm.result.at("hit_rate").num, 1.0);
    EXPECT_DOUBLE_EQ(warm.result.at("misses").num, 0.0);
}

TEST(ServeServer, DuplicateCircuitsRunAndReportOnce) {
    ServerFixture fx;
    const net::Socket sock = fx.connect();
    const ParsedResponse once = roundTrip(sock, flowRequest(1, R"(["s27"])", 8));
    const ParsedResponse twice = roundTrip(sock, flowRequest(2, R"(["s27", "s298", "s27"])", 8));
    ASSERT_TRUE(once.ok);
    ASSERT_TRUE(twice.ok);

    // The request is deduped in order at admission, so each design's
    // records appear once.
    const std::vector<JsonValue>& circuits = twice.result.at("circuits").arr;
    ASSERT_EQ(circuits.size(), 2u);
    EXPECT_EQ(circuits[0].str, "s27");
    EXPECT_EQ(circuits[1].str, "s298");
    std::size_t s27_records = 0;
    for (const JsonValue& r : twice.result.at("records").arr)
        s27_records += r.at("design").str == "s27" ? 1 : 0;
    EXPECT_EQ(static_cast<double>(s27_records), once.result.at("stages").num);
    EXPECT_EQ(twice.result.at("records").arr.size(),
              static_cast<std::size_t>(twice.result.at("stages").num));
}

TEST(ServeServer, OverloadRejectsWithRetryAfter) {
    ServeOptions opts;
    opts.workers = 1;
    opts.queue_limit = 1;
    ServerFixture fx(opts);

    // Distinct configs keep every job a cold cone: one runs, one queues,
    // the rest must be rejected with a structured retry-after.
    std::vector<net::Socket> socks;
    for (int i = 0; i < 4; ++i) socks.push_back(fx.connect());
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(net::writeFrame(
            socks[static_cast<std::size_t>(i)],
            flowRequest(static_cast<std::uint64_t>(i) + 1, R"(["s298"])", 200 + i)
                .toJson()));

    std::size_t ok = 0;
    std::size_t overloaded = 0;
    for (const net::Socket& s : socks) {
        const std::optional<std::string> raw = net::readFrame(s);
        ASSERT_TRUE(raw.has_value());
        const ParsedResponse resp = parseResponse(*raw);
        if (resp.ok) {
            ++ok;
        } else {
            ASSERT_EQ(resp.error.code, "overloaded");
            EXPECT_GE(resp.error.retry_after_ms, 10.0);
            ++overloaded;
        }
    }
    EXPECT_EQ(ok + overloaded, 4u);
    EXPECT_GE(overloaded, 1u);
    EXPECT_EQ(fx.server.stats().rejected_overload, overloaded);
}

TEST(ServeServer, QueueWaitDeadlineIsEnforced) {
    ServeOptions opts;
    opts.workers = 1;
    opts.queue_limit = 8;
    ServerFixture fx(opts);

    // Both frames in one send on one connection: the session admits them
    // in order and the single worker dequeues FIFO, so the doomed job
    // always waits behind the pinner's cold flow. (Two sends would let
    // Nagle hold the second frame back until the pinner's reply.)
    const net::Socket sock = fx.connect();
    Request doomed = flowRequest(2, R"(["s27"])", 4);
    doomed.deadline_ms = 1e-6; // any queue wait at all exceeds it
    ASSERT_TRUE(net::writeAll(
        sock, frameBytes(flowRequest(1, R"(["s27"])", 8).toJson()) + frameBytes(doomed.toJson())));

    std::optional<std::string> raw = net::readFrame(sock);
    ASSERT_TRUE(raw.has_value());
    const ParsedResponse pinned = parseResponse(*raw);
    EXPECT_EQ(pinned.id, 1u);
    EXPECT_TRUE(pinned.ok); // the pinner itself ran to completion
    raw = net::readFrame(sock);
    ASSERT_TRUE(raw.has_value());
    const ParsedResponse resp = parseResponse(*raw);
    EXPECT_EQ(resp.id, 2u);
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.error.code, "deadline_exceeded");
    EXPECT_EQ(fx.server.stats().rejected_deadline, 1u);
}

TEST(ServeServer, MetricsReportsServeStats) {
    ServerFixture fx;
    const net::Socket sock = fx.connect();
    ASSERT_TRUE(roundTrip(sock, flowRequest(1, R"(["s27"])", 8)).ok);

    Request req;
    req.id = 2;
    req.type = RequestType::Metrics;
    const ParsedResponse resp = roundTrip(sock, req);
    ASSERT_TRUE(resp.ok);
    const JsonValue& serve = resp.result.at("serve");
    EXPECT_GE(serve.at("completed").num, 1.0);
    EXPECT_GE(serve.at("connections").num, 1.0);
    EXPECT_TRUE(resp.result.has("metrics"));
    // The flow cache section is always on (it reads the service's shared
    // FlowCache handle, not the gated obs gauges).
    ASSERT_TRUE(resp.result.has("cache"));
    const JsonValue& cache = resp.result.at("cache");
    EXPECT_GE(cache.at("stores").num, 1.0);
    EXPECT_GE(cache.at("entries").num, 1.0);
    EXPECT_GT(cache.at("bytes").num, 0.0);
}

TEST(ServeServer, ShutdownAcksThenStops) {
    ServerFixture fx;
    const net::Socket sock = fx.connect();
    Request req;
    req.id = 1;
    req.type = RequestType::Shutdown;
    const ParsedResponse resp = roundTrip(sock, req);
    ASSERT_TRUE(resp.ok);
    EXPECT_TRUE(resp.result.at("stopping").b);
    fx.server.waitUntilStopped();
    EXPECT_THROW((void)fx.connect(), std::runtime_error);
}

TEST(ServeServer, FourClientMixedSoakHasZeroFailures) {
    ServeOptions opts;
    opts.workers = 2;
    ServerFixture fx(opts);

    constexpr int kClients = 4;
    constexpr int kPerClient = 12;
    std::atomic<int> bad{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            const net::Socket sock = fx.connect();
            for (int i = 0; i < kPerClient; ++i) {
                const std::uint64_t id =
                    static_cast<std::uint64_t>(c) * 100 + static_cast<std::uint64_t>(i);
                Request req;
                if (i % 3 == 0) {
                    req.id = id;
                    req.type = RequestType::Ping;
                } else {
                    req = flowRequest(id, R"(["s27"])", 8);
                }
                try {
                    const ParsedResponse resp = roundTrip(sock, req);
                    if (!resp.ok || resp.id != id) bad.fetch_add(1);
                } catch (const std::exception&) {
                    bad.fetch_add(1);
                }
            }
        });
    }
    for (std::thread& t : clients) t.join();
    EXPECT_EQ(bad.load(), 0);
    const StatsSnapshot s = fx.server.stats();
    EXPECT_EQ(s.ok, static_cast<std::uint64_t>(kClients * kPerClient));
    EXPECT_EQ(s.errors, 0u);
    EXPECT_EQ(s.dropped_replies, 0u);
}

TEST(ServeServer, UnixSocketWorksAndUnlinksOnStop) {
    const std::string path =
        (fs::temp_directory_path() /
         ("flh_serve_ux_" + std::to_string(::getpid()) + ".sock"))
            .string();
    ServeOptions opts;
    opts.endpoint = net::Endpoint::unixAt(path);
    {
        ServerFixture fx(opts);
        const net::Socket sock = net::connectTo(net::Endpoint::unixAt(path));
        Request req;
        req.id = 1;
        EXPECT_TRUE(roundTrip(sock, req).ok);
    }
    EXPECT_FALSE(fs::exists(path));
}

TEST(ServeServer, SessionsArePrunedAfterDisconnect) {
    ServerFixture fx;
    constexpr int kChurn = 8;
    for (int i = 0; i < kChurn; ++i) {
        const net::Socket sock = fx.connect();
        Request req;
        req.id = static_cast<std::uint64_t>(i) + 1;
        EXPECT_TRUE(roundTrip(sock, req).ok);
    } // each socket closes on scope exit
    // Sessions retire themselves when the peer disconnects (fd closed,
    // thread handed to the reaper) — the list must drain without a server
    // stop. Poll briefly: retirement is asynchronous to our close().
    std::size_t open = 0;
    for (int tries = 0; tries < 500; ++tries) {
        open = fx.server.stats().open_sessions;
        if (open == 0) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(open, 0u);
    EXPECT_EQ(fx.server.stats().connections, static_cast<std::uint64_t>(kChurn));
}

TEST(ServeServer, IdlePeerIsDroppedAfterTimeout) {
    ServeOptions opts;
    opts.io_timeout_ms = 100;
    ServerFixture fx(opts);
    const net::Socket sock = fx.connect();
    // Send nothing: the server must drop the connection instead of
    // pinning a session thread and fd forever.
    EXPECT_FALSE(net::readFrame(sock).has_value());
}

TEST(ServeServer, MidFrameStallGetsBadRequestThenDisconnect) {
    ServeOptions opts;
    opts.io_timeout_ms = 100;
    ServerFixture fx(opts);
    const net::Socket sock = fx.connect();
    // Half a frame header, then silence — a slowloris-style stall.
    ASSERT_TRUE(net::writeAll(sock, std::string_view("\x00\x00", 2)));
    const std::optional<std::string> raw = net::readFrame(sock);
    ASSERT_TRUE(raw.has_value());
    const ParsedResponse resp = parseResponse(*raw);
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.error.code, "bad_request");
    EXPECT_FALSE(net::readFrame(sock).has_value()); // connection is gone
}

TEST(ServeServer, OversizedFrameIsRejectedAsBadRequest) {
    ServerFixture fx;
    const net::Socket sock = fx.connect();
    // The server rejects on the length prefix alone, so it may cut the
    // connection while we are still writing the payload — a failed or
    // reset write is as much a rejection as the bad_request reply.
    const std::string huge(kMaxRequestFrame + 1, 'x');
    try {
        if (!net::writeFrame(sock, huge)) return;
    } catch (const std::runtime_error&) {
        return;
    }
    const std::optional<std::string> raw = net::readFrame(sock);
    ASSERT_TRUE(raw.has_value());
    const ParsedResponse resp = parseResponse(*raw);
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.error.code, "bad_request");
}

// ---- observability -----------------------------------------------------

TEST(ServeProtocol, TraceFieldRoundTripsAndIsBounded) {
    Request req;
    req.id = 9;
    req.trace = "cli-1.c0.r9";
    const ParsedRequest p = parseRequest(req.toJson());
    EXPECT_EQ(p.trace, "cli-1.c0.r9");

    // Absent trace parses to empty; the field is optional on the wire.
    EXPECT_TRUE(parseRequest(R"({"id": 1, "type": "ping"})").trace.empty());
    // Non-string or oversized traces are rejected at the frame layer.
    EXPECT_THROW((void)parseRequest(R"({"id": 1, "type": "ping", "trace": 7})"),
                 std::runtime_error);
    const std::string big(kMaxTraceBytes + 1, 't');
    EXPECT_THROW(
        (void)parseRequest(R"({"id": 1, "type": "ping", "trace": ")" + big + "\"}"),
        std::runtime_error);
    const std::string edge(kMaxTraceBytes, 't');
    EXPECT_EQ(parseRequest(R"({"id": 1, "type": "ping", "trace": ")" + edge + "\"}").trace,
              edge);
}

TEST(ServeServer, WireTraceBecomesServerTraceIdPrefix) {
    obs::setEnabled(true);
    obs::reset();
    {
        ServerFixture fx;
        const net::Socket sock = fx.connect();
        Request req = flowRequest(1, R"(["s27"])", 4);
        req.trace = "flhc-42.c0.r1";
        const ParsedResponse resp = roundTrip(sock, req);
        ASSERT_TRUE(resp.ok);
        // The server adopts the wire trace as the prefix of its own id.
        EXPECT_EQ(resp.trace_id.rfind("flhc-42.c0.r1/", 0), 0u);

        // ... and the adopted id reaches the spans the worker recorded, so
        // a merged fleet trace groups client and server by request.
        const JsonValue trace = parseJson(obs::traceJson());
        bool saw = false;
        for (const JsonValue& e : trace.at("traceEvents").arr) {
            if (!e.has("args") || !e.at("args").has("trace_id")) continue;
            if (e.at("args").at("trace_id").str.rfind("flhc-42.c0.r1/", 0) == 0) saw = true;
        }
        EXPECT_TRUE(saw);

        // A request without the field keeps the server-minted id alone.
        const ParsedResponse bare = roundTrip(sock, flowRequest(2, R"(["s27"])", 4));
        ASSERT_TRUE(bare.ok);
        EXPECT_EQ(bare.trace_id.find('/'), std::string::npos);
    }
    obs::setEnabled(false);
    obs::reset();
}

TEST(ServeServer, MetricsV2ReportsUptimeRequestsAndLatency) {
    obs::reset(); // latency histograms live in the process-global registry
    ServerFixture fx;
    const net::Socket sock = fx.connect();
    ASSERT_TRUE(roundTrip(sock, flowRequest(1, R"(["s27"])", 8)).ok);

    Request req;
    req.id = 2;
    req.type = RequestType::Metrics;
    const ParsedResponse resp = roundTrip(sock, req);
    ASSERT_TRUE(resp.ok);
    EXPECT_EQ(resp.result.at("schema").str, "flh.serve.metrics/2");
    EXPECT_GE(resp.result.at("uptime_s").num, 0.0);

    // Per-type request breakdown covers every type, counted always-on.
    const JsonValue& reqs = resp.result.at("requests");
    for (const char* type : {"ping", "flow", "fuzz", "equiv", "metrics", "shutdown"})
        ASSERT_TRUE(reqs.has(type)) << type;
    EXPECT_DOUBLE_EQ(reqs.at("flow").at("ok").num, 1.0);
    EXPECT_DOUBLE_EQ(reqs.at("flow").at("error").num, 0.0);
    EXPECT_DOUBLE_EQ(reqs.at("flow").at("coalesced").num, 0.0);

    // Latency histograms are always-on too (double-booked next to the
    // gated telemetry): the one flow request shows up with a sane
    // queue/service split.
    const JsonValue& lat = resp.result.at("latency");
    ASSERT_TRUE(lat.has("flow"));
    const JsonValue& flow = lat.at("flow");
    EXPECT_DOUBLE_EQ(flow.at("service_ms").at("count").num, 1.0);
    EXPECT_GT(flow.at("service_ms").at("max").num, 0.0);
    EXPECT_GE(flow.at("service_ms").at("p95").num, flow.at("service_ms").at("p50").num);
    EXPECT_DOUBLE_EQ(flow.at("queue_ms").at("count").num, 1.0);
}

} // namespace
} // namespace flh::serve
