#include "serve/protocol.hpp"

#include <cmath>
#include <stdexcept>

namespace flh::serve {

namespace {

[[noreturn]] void badFrame(const std::string& what) {
    throw std::runtime_error("protocol: " + what);
}

/// Require an object member of a given kind; throws a client-presentable
/// error naming the field.
const JsonValue& want(const JsonValue& obj, const std::string& key, JsonValue::Kind kind,
                      const char* kind_name) {
    if (!obj.has(key)) badFrame("missing field \"" + key + "\"");
    const JsonValue& v = obj.at(key);
    if (v.kind != kind) badFrame("field \"" + key + "\" must be " + kind_name);
    return v;
}

std::uint64_t idFrom(const JsonValue& obj) {
    const JsonValue& v = want(obj, "id", JsonValue::Kind::Num, "a number");
    // The value is an untrusted double off the wire: casting a NaN or a
    // number beyond the target range to uint64_t is undefined behavior,
    // so bound it to the exactly-representable integers first (the
    // negated comparison also rejects NaN).
    constexpr double kMaxExactInt = 9007199254740992.0; // 2^53
    if (!(v.num >= 0.0 && v.num < kMaxExactInt) || v.num != std::floor(v.num))
        badFrame("field \"id\" must be an integer in [0, 2^53)");
    return static_cast<std::uint64_t>(v.num);
}

void checkVersion(const JsonValue& obj) {
    if (!obj.has("v")) return; // tolerated: assume current version
    const JsonValue& v = obj.at("v");
    // Same cast hazard as idFrom: validate the double is a small integer
    // before static_cast<int> can run on it.
    if (v.kind != JsonValue::Kind::Num || !(v.num >= 0.0 && v.num <= 1e6) ||
        v.num != std::floor(v.num) || static_cast<int>(v.num) != kProtocolVersion)
        badFrame("unsupported protocol version");
}

} // namespace

std::string_view toString(RequestType t) noexcept {
    switch (t) {
    case RequestType::Ping: return "ping";
    case RequestType::Flow: return "flow";
    case RequestType::Fuzz: return "fuzz";
    case RequestType::Equiv: return "equiv";
    case RequestType::Metrics: return "metrics";
    case RequestType::Shutdown: return "shutdown";
    }
    return "?";
}

std::optional<RequestType> requestTypeFromString(std::string_view s) noexcept {
    if (s == "ping") return RequestType::Ping;
    if (s == "flow") return RequestType::Flow;
    if (s == "fuzz") return RequestType::Fuzz;
    if (s == "equiv") return RequestType::Equiv;
    if (s == "metrics") return RequestType::Metrics;
    if (s == "shutdown") return RequestType::Shutdown;
    return std::nullopt;
}

std::string Request::toJson() const {
    JsonWriter w;
    w.beginObject();
    w.kv("v", kProtocolVersion);
    w.kv("id", id);
    w.kv("type", toString(type));
    if (deadline_ms > 0.0) w.kv("deadline_ms", deadline_ms);
    if (!trace.empty()) w.kv("trace", trace);
    w.key("params");
    w.rawValue(params_json.empty() ? "{}" : params_json);
    w.endObject();
    return w.str();
}

ParsedRequest parseRequest(std::string_view frame) {
    const JsonValue doc = parseJson(frame, kWireLimits);
    if (doc.kind != JsonValue::Kind::Obj) badFrame("request must be a JSON object");
    checkVersion(doc);

    ParsedRequest req;
    req.id = idFrom(doc);

    const JsonValue& type = want(doc, "type", JsonValue::Kind::Str, "a string");
    const std::optional<RequestType> t = requestTypeFromString(type.str);
    if (!t) badFrame("unknown request type \"" + type.str + "\"");
    req.type = *t;

    if (doc.has("deadline_ms")) {
        const JsonValue& d = doc.at("deadline_ms");
        if (d.kind != JsonValue::Kind::Num || !(d.num >= 0) || !std::isfinite(d.num))
            badFrame("field \"deadline_ms\" must be a finite non-negative number");
        req.deadline_ms = d.num;
    }

    if (doc.has("trace")) {
        const JsonValue& tr = doc.at("trace");
        if (tr.kind != JsonValue::Kind::Str)
            badFrame("field \"trace\" must be a string");
        if (tr.str.size() > kMaxTraceBytes)
            badFrame("field \"trace\" must be at most " + std::to_string(kMaxTraceBytes) +
                     " bytes");
        req.trace = tr.str;
    }

    if (doc.has("params")) {
        const JsonValue& p = doc.at("params");
        if (p.kind != JsonValue::Kind::Obj && p.kind != JsonValue::Kind::Null)
            badFrame("field \"params\" must be an object");
        req.params = p;
    }
    return req;
}

std::string Response::toJson() const {
    JsonWriter w;
    w.beginObject();
    w.kv("v", kProtocolVersion);
    w.kv("id", id);
    w.kv("ok", ok);
    w.kv("trace_id", trace_id);
    if (ok) {
        w.kv("queue_ms", queue_ms);
        w.kv("wall_ms", wall_ms);
        w.kv("coalesced", coalesced); // wire key kept for existing clients; always false
        w.key("result");
        w.rawValue(result_json.empty() ? "{}" : result_json);
    } else {
        w.key("error");
        w.beginObject();
        w.kv("code", error.code);
        w.kv("message", error.message);
        if (error.retry_after_ms > 0.0) w.kv("retry_after_ms", error.retry_after_ms);
        w.endObject();
    }
    w.endObject();
    return w.str();
}

Response Response::okFor(std::uint64_t id, std::string trace_id, std::string result_json) {
    Response r;
    r.id = id;
    r.ok = true;
    r.trace_id = std::move(trace_id);
    r.result_json = std::move(result_json);
    return r;
}

Response Response::errorFor(std::uint64_t id, std::string trace_id, ErrorInfo err) {
    Response r;
    r.id = id;
    r.ok = false;
    r.trace_id = std::move(trace_id);
    r.error = std::move(err);
    return r;
}

ParsedResponse parseResponse(std::string_view frame) {
    const JsonValue doc = parseJson(frame, kWireLimits);
    if (doc.kind != JsonValue::Kind::Obj) badFrame("response must be a JSON object");
    checkVersion(doc);

    ParsedResponse resp;
    resp.id = idFrom(doc);
    resp.ok = want(doc, "ok", JsonValue::Kind::Bool, "a bool").b;
    resp.trace_id = strOr(doc, "trace_id", "");
    if (resp.ok) {
        resp.queue_ms = numOr(doc, "queue_ms", 0.0);
        resp.wall_ms = numOr(doc, "wall_ms", 0.0);
        if (doc.has("coalesced") && doc.at("coalesced").kind == JsonValue::Kind::Bool)
            resp.coalesced = doc.at("coalesced").b;
        if (doc.has("result")) resp.result = doc.at("result");
    } else {
        const JsonValue& e = want(doc, "error", JsonValue::Kind::Obj, "an object");
        resp.error.code = strOr(e, "code", "internal");
        resp.error.message = strOr(e, "message", "");
        resp.error.retry_after_ms = numOr(e, "retry_after_ms", 0.0);
    }
    return resp;
}

void writeValue(JsonWriter& w, const JsonValue& v) {
    switch (v.kind) {
    case JsonValue::Kind::Null:
        w.rawValue("null");
        return;
    case JsonValue::Kind::Bool:
        w.value(v.b);
        return;
    case JsonValue::Kind::Num:
        w.value(v.num);
        return;
    case JsonValue::Kind::Str:
        w.value(v.str);
        return;
    case JsonValue::Kind::Arr:
        w.beginArray();
        for (const JsonValue& e : v.arr) writeValue(w, e);
        w.endArray();
        return;
    case JsonValue::Kind::Obj:
        w.beginObject();
        // std::map iteration order == sorted keys == canonical order.
        for (const auto& [k, e] : v.obj) {
            w.key(k);
            writeValue(w, e);
        }
        w.endObject();
        return;
    }
}

std::string canonicalJson(const JsonValue& v) {
    JsonWriter w;
    writeValue(w, v);
    return w.str();
}

double numOr(const JsonValue& obj, const std::string& key, double fallback) {
    if (obj.kind != JsonValue::Kind::Obj || !obj.has(key)) return fallback;
    const JsonValue& v = obj.at(key);
    return v.kind == JsonValue::Kind::Num ? v.num : fallback;
}

std::string strOr(const JsonValue& obj, const std::string& key, const std::string& fallback) {
    if (obj.kind != JsonValue::Kind::Obj || !obj.has(key)) return fallback;
    const JsonValue& v = obj.at(key);
    return v.kind == JsonValue::Kind::Str ? v.str : fallback;
}

} // namespace flh::serve
