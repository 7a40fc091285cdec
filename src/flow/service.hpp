// FlowService: the warm, re-entrant front door to the flow engine.
//
// Every `flh_flow` invocation pays the full cold start — design
// resolution (registry generation or .bench parse), graph construction,
// and a fresh FlowCache handle — once per process. A long-lived server
// cannot afford that per request, and it needs one entry point that many
// worker threads can call at once. FlowService keeps the reusable assets
// warm across calls:
//
//   * a design memo: circuit name -> resolved DesignInput (the synthetic
//     ISCAS reconstruction is generated once, .bench files are read once
//     per process — server semantics, documented);
//   * a graph memo: one immutable FlowGraph per distinct PaperFlowConfig,
//     shared by reference (stage functions are pure, so concurrent
//     runFlow calls over one graph are safe);
//   * one persistent FlowCache handle shared by every cone (atomic-rename
//     stores make concurrent writers safe, and the shared handle keeps one
//     pin set for the whole process — see cache.hpp). It is the service's
//     only cross-request dedupe: a repeated cone replays its stages from
//     the cache; requests are never merged.
//
// run() is thread-safe and re-entrant: N serve workers each running a
// cone concurrently is the intended shape — the serve worker pool *is*
// the shared scheduler, so cones default to threads = 1 (inline) and the
// cross-request parallelism comes from the pool above.
#pragma once

#include "flow/paper_flow.hpp"

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace flh {

struct FlowServiceOptions {
    /// The one cache configuration (directory, GC budgets, enabled flag),
    /// shared verbatim with the engine below and the serve CLI above.
    CacheConfig cache;
    /// Inner fault-sim budget per stage (FaultSimOptions::threads).
    unsigned sim_threads = 1;
};

/// One cone request: which designs through which config, at what
/// scheduler width.
struct FlowJobSpec {
    std::vector<std::string> circuits;
    PaperFlowConfig cfg;
    /// Scheduler width for this cone; 1 = inline on the calling worker
    /// (the serve default — the worker pool above provides parallelism).
    unsigned threads = 1;
};

class FlowService {
public:
    explicit FlowService(FlowServiceOptions opts = {});

    /// Run one cone. Safe for any number of concurrent callers; throws on
    /// unresolvable circuits (stage failures are reported per record, as
    /// in runFlow).
    [[nodiscard]] RunReport run(const FlowJobSpec& spec);

    [[nodiscard]] const FlowServiceOptions& options() const noexcept { return opts_; }

    /// The warm cache handle every run() shares (null when the cache is
    /// disabled). The serve metrics request exports its stats; a serve
    /// admin GC goes through it so eviction respects the live pins.
    [[nodiscard]] const std::shared_ptr<FlowCache>& cache() const noexcept { return cache_; }

    /// Memo inspection (serve metrics export).
    [[nodiscard]] std::size_t designMemoSize() const;
    [[nodiscard]] std::size_t graphMemoSize() const;

private:
    [[nodiscard]] std::shared_ptr<const FlowGraph> graphFor(const PaperFlowConfig& cfg);
    [[nodiscard]] DesignInput designFor(const std::string& circuit);

    FlowServiceOptions opts_;
    std::shared_ptr<FlowCache> cache_; ///< one handle for every cone
    mutable std::mutex mu_;
    std::map<std::string, DesignInput> designs_;
    std::map<std::string, std::shared_ptr<const FlowGraph>> graphs_;
};

} // namespace flh
