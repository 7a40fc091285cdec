// flh_serve wire protocol: length-prefixed JSON request/response pairs.
//
// Transport framing lives in util/socket.hpp (u32 big-endian length +
// payload); this layer defines what the payload bytes mean. One frame
// carries exactly one JSON object. Requests:
//
//   { "v": 1, "id": 7, "type": "flow", "deadline_ms": 5000,
//     "params": { "circuits": ["s27", "s298"], "pairs": 64, "seed": 11 } }
//
// `id` is chosen by the client and echoed verbatim — clients may pipeline
// requests and match responses out of order. `deadline_ms` bounds queue
// wait (a request still queued past its deadline is rejected, not run).
// Request types: ping, flow, fuzz, equiv, metrics, shutdown. Responses:
//
//   { "v": 1, "id": 7, "ok": true, "trace_id": "r-000042",
//     "queue_ms": 0.4, "wall_ms": 18.2, "coalesced": false,
//     "result": { ... } }                          // per request type
//   { "v": 1, "id": 7, "ok": false, "trace_id": "r-000043",
//     "error": { "code": "overloaded", "message": "...",
//                "retry_after_ms": 50 } }
//
// Error codes: bad_request, overloaded (carries retry_after_ms),
// deadline_exceeded, shutting_down, internal. `trace_id` is the server-
// assigned request identity, also threaded through the telemetry lanes
// (obs::ScopedTraceId) so a trace export groups one request's spans.
//
// Trace context propagates over the wire: a request may carry an optional
// `trace` string (client-chosen, <= kMaxTraceBytes). The server adopts it
// as the prefix of its own id — the response's trace_id and every server
// span become "<trace>/r-NNNNNN" — so one request's client and server
// spans group under one identity in a merged fleet trace. Requests
// without `trace` keep plain server-minted ids.
//
// Server-side parsing runs under kWireLimits — the untrusted-input bounds
// of util/json.hpp's parseJson — plus a frame-size cap at the transport.
#pragma once

#include "util/json.hpp"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace flh::serve {

inline constexpr int kProtocolVersion = 1;

/// parseJson bounds for untrusted wire payloads: requests are small,
/// shallow documents — anything outside these limits is hostile or broken.
inline constexpr JsonLimits kWireLimits{/*max_depth=*/16,
                                        /*max_string_bytes=*/1u << 20,
                                        /*max_number_chars=*/64};

/// Frame payload cap the server reads under (well below the transport's
/// 64 MiB hard limit; a request has no business being this large).
inline constexpr std::size_t kMaxRequestFrame = 1u << 20;

/// Cap on the client-supplied `trace` field: ids are for humans and trace
/// viewers, not payload smuggling.
inline constexpr std::size_t kMaxTraceBytes = 128;

enum class RequestType { Ping, Flow, Fuzz, Equiv, Metrics, Shutdown };

[[nodiscard]] std::string_view toString(RequestType t) noexcept;
[[nodiscard]] std::optional<RequestType> requestTypeFromString(std::string_view s) noexcept;

/// Build side of a request (client). `params_json` is a complete JSON
/// value (object) spliced verbatim.
struct Request {
    std::uint64_t id = 0;
    RequestType type = RequestType::Ping;
    double deadline_ms = 0.0; ///< 0 = no deadline
    std::string trace;        ///< optional client trace context, "" = none
    std::string params_json = "{}";

    [[nodiscard]] std::string toJson() const;
};

/// Parse side of a request (server). Throws std::runtime_error with a
/// client-presentable message on malformed frames (bad JSON, missing or
/// mistyped fields, unknown type, unsupported version).
struct ParsedRequest {
    std::uint64_t id = 0;
    RequestType type = RequestType::Ping;
    double deadline_ms = 0.0;
    std::string trace; ///< validated client trace context, "" = none
    JsonValue params;  ///< object, or Null when the request omitted it
};

[[nodiscard]] ParsedRequest parseRequest(std::string_view frame);

struct ErrorInfo {
    std::string code;
    std::string message;
    double retry_after_ms = 0.0; ///< only meaningful for "overloaded"
};

/// Build side of a response (server). `result_json` is a complete JSON
/// value spliced verbatim when ok.
struct Response {
    std::uint64_t id = 0;
    bool ok = true;
    std::string trace_id;
    double queue_ms = 0.0;
    double wall_ms = 0.0;
    bool coalesced = false; ///< always false; kept because perfbench/serve_mix.cpp reads it
    std::string result_json = "{}";
    ErrorInfo error;

    [[nodiscard]] std::string toJson() const;

    [[nodiscard]] static Response okFor(std::uint64_t id, std::string trace_id,
                                        std::string result_json);
    [[nodiscard]] static Response errorFor(std::uint64_t id, std::string trace_id,
                                           ErrorInfo err);
};

/// Parse side of a response (client / tests). Throws on malformed frames.
struct ParsedResponse {
    std::uint64_t id = 0;
    bool ok = false;
    std::string trace_id;
    double queue_ms = 0.0;
    double wall_ms = 0.0;
    bool coalesced = false; ///< always false; kept because perfbench/serve_mix.cpp reads it
    JsonValue result;
    ErrorInfo error;
};

[[nodiscard]] ParsedResponse parseResponse(std::string_view frame);

/// Serialize a parsed JsonValue back to the writer (keys in sorted map
/// order) — the canonical form flh_client sends manifest params in: two
/// values that differ only in key order or whitespace canonicalize to
/// the same bytes.
void writeValue(JsonWriter& w, const JsonValue& v);
[[nodiscard]] std::string canonicalJson(const JsonValue& v);

// ---- params access helpers (tolerant lookups with defaults) ------------

[[nodiscard]] double numOr(const JsonValue& obj, const std::string& key, double fallback);
[[nodiscard]] std::string strOr(const JsonValue& obj, const std::string& key,
                                const std::string& fallback);

} // namespace flh::serve
