// Sharded, multi-process, content-addressed flow cache.
//
// Key scheme (see DESIGN.md Section 9): a stage's cache key is the 128-bit
// content hash of
//
//   code version ++ stage name ++ stage config ++ design source text
//                ++ design attributes ++ cache keys of every dependency
//
// each component length-prefixed. Dependency keys chain, so editing a
// stage's config (or the netlist text) re-keys exactly that stage and its
// downstream cone — everything else is served from cache.
//
// On-disk layout (version 2, sharded):
//
//   <dir>/<hh>/<key>.art     artifact, one file per key; hh = first two
//                            hex chars of the key (256-way fan-out)
//   <dir>/<hh>/index.log     append-only touch/put log for that shard
//   <dir>/<hh>/index.lock    flock() file guarding compaction + eviction
//
// Artifacts are written to a uniquely-named temp file and atomically
// renamed, so a killed run never leaves a half-written (and thus poisoned)
// entry; that rename is also what makes interrupted sweeps resumable, and
// it is the whole multi-process write story: the last rename wins and
// readers see either a complete artifact or a miss.
//
// The index log is advisory LRU metadata, not ground truth: `P <key>
// <bytes> <ts>` on store, `T <key> <ts>` on hit, `D <key> <ts>` on
// eviction, each appended with a single O_APPEND write (no lock — small
// same-fd appends do not interleave on local filesystems). Readers never
// lock either: they fold the log and ignore a torn trailing line.
// Compaction (triggered by log growth, and by every GC pass) rewrites the
// folded log via temp-file + rename under the shard's flock, so a crash
// mid-compaction leaves the old log intact plus a swept-later temp file.
// A lost append costs only LRU precision — GC rediscovers untracked
// artifacts by directory scan and falls back to their file mtime.
//
// GC evicts least-recently-touched entries until the configured byte /
// entry budgets hold (age-based eviction runs first), skipping keys this
// process has pinned (every key this handle stored or hit — "referenced
// by the live run"), and sweeps stale `*.tmp` droppings left by crashed
// writers. Eviction re-checks freshness under the shard lock, so an entry
// another process touched after the GC scan is spared.
#pragma once

#include "flow/artifact.hpp"
#include "util/json.hpp"

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

namespace flh {

namespace cli {
struct CacheFlags;
} // namespace cli

/// Bump when stage semantics change in a way that must invalidate all
/// previously cached artifacts (part of every cache key). v2: sharded
/// cache layout + index logs — old flat-cache entries are cold misses,
/// never misread (the artifact format itself is unchanged). v3: ATPG
/// settles PODEM's aborts with SAT and classifies EnhancedScan V1
/// failures, so the atpg stage's tests and counts differ.
inline constexpr std::string_view kFlowCodeVersion = "flh-flow-3";

/// Shard fan-out: first byte of the key, i.e. the first two hex chars.
inline constexpr unsigned kCacheShards = 256;

/// Validated 128-bit cache key. Construction is the only place validation
/// happens — a CacheKey in hand is always well-formed, so the path/shard
/// helpers cannot fail at use-time (the old ResultCache::pathFor threw on
/// short strings deep inside the engine instead).
class CacheKey {
public:
    CacheKey() = default; ///< null key (all zeros); valid but never produced by hashing

    [[nodiscard]] static CacheKey fromHash(Hash128 h) noexcept { return CacheKey(h); }

    /// Parse 32 hex chars (the report/wire rendering). Throws
    /// std::invalid_argument on anything else.
    [[nodiscard]] static CacheKey parse(std::string_view hex);

    /// 32 lowercase hex chars (hi then lo) — matches Hash128::hex().
    [[nodiscard]] std::string hex() const { return h_.hex(); }

    /// Shard index in [0, kCacheShards): the key's leading byte, so the
    /// shard directory name is exactly the first two hex chars.
    [[nodiscard]] unsigned shard() const noexcept {
        return static_cast<unsigned>(h_.hi >> 56);
    }

    [[nodiscard]] Hash128 hash() const noexcept { return h_; }
    [[nodiscard]] bool operator==(const CacheKey&) const noexcept = default;

private:
    explicit CacheKey(Hash128 h) noexcept : h_(h) {}
    Hash128 h_;
};

/// The one cache configuration struct, threaded engine -> service -> serve
/// (it used to be a cache_dir string duplicated across FlowOptions,
/// FlowServiceOptions, and the serve CLI).
struct CacheConfig {
    std::string dir = ".flowcache";
    bool enabled = true; ///< false: every stage recomputes, nothing is touched

    // ---- GC policy (0 = unbounded / disabled) --------------------------
    std::uint64_t max_bytes = 0;   ///< evict LRU until total artifact bytes <= this
    std::uint64_t max_entries = 0; ///< evict LRU until entry count <= this
    double max_age_s = 0.0;        ///< evict entries untouched for longer than this
    bool gc_on_open = false;       ///< run one GC pass in the constructor

    /// GC removes `*.tmp` files older than this (crashed writers); 0 sweeps
    /// every temp it sees (tests). Live writers hold temps for milliseconds.
    double temp_sweep_age_s = 3600.0;

    /// Test seam: wall-clock milliseconds used for touch records and age
    /// decisions. Null = system clock.
    std::function<std::uint64_t()> clock;
};

/// Point-in-time cache statistics: the handle-local counters plus (when
/// scanned) the on-disk totals. Exported through `flh_flow --metrics` /
/// --gc-json and the serve `metrics` response.
struct CacheStats {
    // Handle-local (this process, this handle).
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stores = 0;
    std::uint64_t evictions = 0;
    std::uint64_t gc_runs = 0;
    std::uint64_t compactions = 0;

    // On-disk, from the most recent scan (stats(true) / gc()).
    std::uint64_t entries = 0;
    std::uint64_t bytes = 0;
    std::uint64_t shards_used = 0;
    std::uint64_t max_shard_entries = 0;
    /// max_shard_entries / mean entries per used shard (1.0 = perfectly
    /// even); 0 while the cache is empty.
    double shard_skew = 0.0;

    void writeJson(JsonWriter& w) const;
};

/// Outcome of one GC pass.
struct GcResult {
    std::uint64_t scanned_entries = 0;
    std::uint64_t scanned_bytes = 0;
    std::uint64_t evicted_entries = 0;
    std::uint64_t evicted_bytes = 0;
    std::uint64_t swept_temps = 0;
    std::uint64_t live_entries = 0; ///< after eviction
    std::uint64_t live_bytes = 0;   ///< after eviction

    void writeJson(JsonWriter& w) const;
};

/// The cache handle. Thread-safe; any number of FlowCache handles in any
/// number of processes may share one directory tree (see the layout notes
/// above for the protocol).
class FlowCache {
public:
    /// Opens (and lazily creates) the cache rooted at `cfg.dir`; runs one
    /// GC pass first if `cfg.gc_on_open`. Throws on an empty directory.
    explicit FlowCache(CacheConfig cfg);

    [[nodiscard]] const CacheConfig& config() const noexcept { return cfg_; }
    [[nodiscard]] const std::string& dir() const noexcept { return cfg_.dir; }

    /// Single-probe load: the artifact stored under `key`, or nullopt on a
    /// miss. A corrupt entry is a miss (a store will replace it). A hit
    /// appends an LRU touch record and pins the key for this process.
    /// There is deliberately no contains(): check-then-load was a TOCTOU
    /// hole once other processes could evict between the two calls.
    [[nodiscard]] std::optional<Artifact> get(const CacheKey& key);

    /// Store `art` under `key`: temp file + atomic rename (a failed rename
    /// removes the temp before rethrowing), then an index put record.
    /// Pins the key for this process.
    void put(const CacheKey& key, const Artifact& art);

    /// One GC pass under the configured budgets: scan every shard, sweep
    /// stale temps, evict by age then LRU to the byte/entry budgets
    /// (skipping this handle's pinned keys), and compact every shard index.
    GcResult gc();

    /// Current statistics. scan_disk = true walks the shard directories
    /// for entry/byte/skew totals (and refreshes the cache.entries/bytes
    /// obs gauges); false reports only the handle-local counters plus the
    /// totals from the last scan.
    [[nodiscard]] CacheStats stats(bool scan_disk = true) const;

    /// Keys this handle has stored or hit — GC never evicts them.
    [[nodiscard]] std::size_t pinnedCount() const;

private:
    [[nodiscard]] std::string shardDir(unsigned shard) const;
    [[nodiscard]] std::string artifactPath(const CacheKey& key) const;
    void appendIndex(unsigned shard, char tag, const std::string& key_hex,
                     std::uint64_t bytes) const;
    void maybeCompact(unsigned shard);
    [[nodiscard]] std::uint64_t nowMs() const;

    CacheConfig cfg_;

    mutable std::mutex pins_mu_;
    std::unordered_set<std::string> pins_; ///< key hex this handle stored or hit

    mutable std::atomic<std::uint64_t> hits_{0}, misses_{0}, stores_{0}, evictions_{0},
        gc_runs_{0}, compactions_{0};
    mutable std::atomic<std::uint64_t> scanned_entries_{0}, scanned_bytes_{0},
        shards_used_{0}, max_shard_entries_{0};
};

/// Map the shared CLI flag block (util/cli.hpp) onto a CacheConfig — the
/// one place flag semantics (e.g. --no-cache) become config fields.
[[nodiscard]] CacheConfig makeCacheConfig(const cli::CacheFlags& flags);

} // namespace flh
