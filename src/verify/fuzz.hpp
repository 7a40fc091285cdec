// Cross-engine differential fuzzing.
//
// A seeded loop over random circuit specs; each seed cross-checks every
// independent computation of the same fact the repository offers:
//
//  1. packed per-net values — PackedSim (the one event-driven engine, SIMD
//     kernel) vs the naive reference evaluator (verify/reference.hpp, which
//     shares no code with it) at W = 1 and every requested word width, on
//     X-laden patterns including an all-X one and the padded tail slots;
//  2. sequential capture — SequentialSim::clock vs the reference's FF D
//     values;
//  3. stuck-at detection bitmaps — the reference's per-fault, per-pattern
//     verdicts vs runStuckAtFaultSim at every requested thread count x word
//     width, W = 1 always included (threads forced into a real pool via
//     min_items_per_worker = 1), mask bit for mask bit, with stuck-at sites
//     on PI and PO nets always present in the fault list;
//  4. transition detection bitmaps — the same against runTransitionFaultSim;
//  5. n-detect counts — the reference's transition n-detect counts vs
//     countTransitionDetections across the same thread counts and widths;
//  6. DFT equivalence — the Fig. 5b protocol under enhanced scan, MUX-hold,
//     and FLH vs direct evaluation (verify/equivalence.hpp), on random and
//     ATPG-generated pairs.
//
// Any mismatch becomes a FuzzFinding; with a corpus directory configured it
// is greedily shrunk (verify/shrink.hpp) and written out as a standalone
// .bench + .pairs reproducer. Per-seed work is wrapped in telemetry spans
// (category "verify.seed") with verify.* counters, so `flh_fuzz --trace`
// shows where a budget went.
#pragma once

#include "iscas/circuits.hpp"
#include "verify/equivalence.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace flh {

struct FuzzOptions {
    std::uint64_t start_seed = 1;
    std::size_t seeds = 100;

    std::size_t random_pairs = 12; ///< arbitrary (V1, V2) pairs per seed
    std::size_t atpg_pairs = 6;    ///< ATPG-generated pairs per seed
    std::size_t stuck_patterns = 16;
    std::size_t max_faults = 96; ///< fault-list cap per seed (cost control)
    std::vector<unsigned> thread_counts{1, 4};

    /// Packed word widths to cross-check against the naive reference, each
    /// in [1, kMaxPackedWords] (runFuzz throws std::invalid_argument
    /// otherwise). The per-net and bitmap/n-detect checks run W = 1 plus
    /// every width listed here, at every thread count.
    std::vector<unsigned> word_widths{1, 4, 8};

    bool shrink = true;
    std::size_t shrink_rounds = 6;
    std::string corpus_dir; ///< non-empty: write shrunk reproducers here

    /// Non-zero: corrupt the FLH variant with injectMutant(seed ^ this) —
    /// the mutation-testing mode where a finding is the *expected* outcome.
    std::uint64_t mutant_seed = 0;

    bool stop_on_first = true;
};

struct FuzzFinding {
    std::uint64_t seed = 0;
    std::string check; ///< "packed-pernet", "seq-capture", "stuck-bitmap",
                       ///< "transition-bitmap", "n-detect",
                       ///< "dft-equivalence"
    std::string detail;
    std::string bench_path; ///< written reproducer (empty when not shrunk)
    std::string pairs_path;
    std::size_t shrunk_gates = 0;
};

struct FuzzReport {
    std::size_t seeds_run = 0;
    std::size_t checks_run = 0;
    std::vector<FuzzFinding> findings;

    [[nodiscard]] bool ok() const noexcept { return findings.empty(); }
};

/// The deterministic spec fuzzed for a seed (exported so tests and the CLI
/// can rebuild the exact circuit behind a finding).
[[nodiscard]] CircuitSpec fuzzSpec(std::uint64_t seed);

[[nodiscard]] FuzzReport runFuzz(const FuzzOptions& opts = {});

} // namespace flh
