// Structured, leveled JSONL event log.
//
// Spans and counters answer "how long / how many"; the event log answers
// "what happened and why" at the decision points that otherwise vanish:
// overload and deadline rejections, GC evictions, manifest claim races,
// session drops. Design rules, mirroring telemetry.hpp:
//
//  1. Near-zero cost when disabled: every logEvent() call first checks
//     one process-global relaxed atomic through an inlined function and
//     allocates nothing on the disabled path. The event log has its own
//     flag — a drainer can keep events on while full span tracing stays
//     off.
//
//  2. Bounded everywhere. Events land in a fixed-capacity ring (oldest
//     overwritten) and optionally stream to a JSONL file sink. A
//     per-(component, level) token bucket rate-limits bursty emitters
//     (e.g. one event per GC eviction) instead of letting them flood the
//     sink; drops are counted, never silent.
//
//  3. Determinism firewall, same as telemetry: events never feed any
//     deterministic report byte.
//
// File sink format: first line is a header record
// {"schema":"flh.obs.events/1","wall_epoch_us":...}, then one event
// object per line. ts_us is relative to the telemetry epoch (nowUs()),
// so the header's wall anchor aligns event timelines across processes
// exactly like trace files.
#pragma once

#include "obs/telemetry.hpp" // FLH_OBS_COMPILED_IN, nowUs(), currentTraceId()

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

namespace flh::obs {

enum class EventLevel : int { Debug = 0, Info = 1, Warn = 2, Error = 3 };

[[nodiscard]] const char* eventLevelName(EventLevel level) noexcept;

namespace detail {
extern std::atomic<bool> g_events_enabled;
} // namespace detail

/// True while the event log is recording. Inline relaxed load — the only
/// cost a disabled logEvent() pays.
[[nodiscard]] inline bool eventLogEnabled() noexcept {
#if FLH_OBS_COMPILED_IN
    return detail::g_events_enabled.load(std::memory_order_relaxed);
#else
    return false;
#endif
}

void setEventLogEnabled(bool on) noexcept;

/// One key/value field. Accepts strings and numbers; numbers export as
/// JSON numbers, everything else as strings.
struct EventKv {
    EventKv(std::string k, std::string v) : key(std::move(k)), str(std::move(v)) {}
    EventKv(std::string k, const char* v) : key(std::move(k)), str(v) {}
    EventKv(std::string k, double v) : key(std::move(k)), num(v), is_num(true) {}
    EventKv(std::string k, std::uint64_t v)
        : key(std::move(k)), num(static_cast<double>(v)), is_num(true) {}
    EventKv(std::string k, std::int64_t v)
        : key(std::move(k)), num(static_cast<double>(v)), is_num(true) {}
    EventKv(std::string k, int v) : key(std::move(k)), num(v), is_num(true) {}

    std::string key;
    std::string str;
    double num = 0.0;
    bool is_num = false;
};

/// Record one event. The calling thread's current trace id (if any) is
/// attached automatically, so events correlate with spans in a merged
/// view. Rate-limited per (component, level); limited events are counted
/// in dropped_rate_limited and otherwise discarded.
void logEvent(EventLevel level, std::string_view component, std::string_view event,
              std::initializer_list<EventKv> fields = {});

/// Tuning knobs, applied by configureEventLog(). Defaults are generous
/// for decision-point events and tight enough that a pathological emitter
/// (per-entry GC evictions on a huge cache) cannot flood a sink.
struct EventLogConfig {
    std::size_t ring_capacity = 4096;
    double tokens_per_sec = 200.0; ///< refill rate per (component, level)
    double burst = 64.0;           ///< bucket capacity per (component, level)
};

/// Reconfigure ring size and rate limits. Clears the ring.
void configureEventLog(const EventLogConfig& cfg);

/// Open (truncate) a JSONL file sink and write the header line. Returns
/// false (and logs nothing) if the file cannot be opened. Event recording
/// must still be enabled separately via setEventLogEnabled().
[[nodiscard]] bool openEventSink(const std::string& path);

/// Flush and close the file sink, appending a trailer event with drop
/// counts so truncated observability is visible in the artifact itself.
void closeEventSink();

struct EventLogStats {
    std::uint64_t emitted = 0;             ///< accepted into the ring (and sink)
    std::uint64_t dropped_rate_limited = 0;///< discarded by the token bucket
    std::uint64_t evicted_ring = 0;        ///< overwritten in the ring (still in sink)
};
[[nodiscard]] EventLogStats eventLogStats();

/// Snapshot the ring as {"schema":"flh.obs.events/1","events":[...]}.
/// Oldest first; ends with a newline.
[[nodiscard]] std::string eventsJson();

/// Drop ring contents and zero drop counters (for tests). Leaves the
/// enabled flag and any open sink alone.
void resetEventLog();

} // namespace flh::obs
