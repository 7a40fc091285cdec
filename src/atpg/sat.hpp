// A small conflict-driven clause-learning (CDCL) SAT solver.
//
// It settles what PODEM gives up on (atpg/circuit_sat.hpp builds the
// formulas). The search is the textbook one (MiniSat, Eén and Sörensson
// 2003):
//  * two watched literals per clause, each watch carrying a blocker literal
//    that skips the clause while it is true;
//  * first-UIP conflict analysis, with learnt clauses minimized by dropping
//    literals whose reason is subsumed by the rest of the clause;
//  * VSIDS: bumped variable activities on a binary heap, ties broken by the
//    smaller variable index, so the first decisions follow creation order;
//  * phase saving, and Luby-sequence restarts;
//  * at restarts, learnt clauses beyond a growing cap are reduced to the
//    better half by literal-block distance (LBD).
//
// The solver has no randomness and no global state: the same clauses in the
// same order give the same search, model and proof on any thread.
//
// Proofs. A ProofSink passed to reset() receives every clause of the
// formula as added, then every clause the solver learns or deletes, in
// DIMACS numbering (variable v is v + 1, negation is the sign). Each learnt
// clause is a reverse-unit-propagation (RUP) consequence of the clauses
// before it, and an Unsat answer ends with the empty clause: a DRUP proof
// that verify/drup.hpp checks without sharing any code with this file.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <new>
#include <span>
#include <vector>

namespace flh::sat {

using Var = std::uint32_t;

/// A literal: variable `var()`, complemented if `negated()`.
struct Lit {
    std::uint32_t code = 0; ///< 2 * var + negated

    [[nodiscard]] static constexpr Lit make(Var v, bool negated = false) noexcept {
        return Lit{2 * v + (negated ? 1u : 0u)};
    }
    [[nodiscard]] constexpr Var var() const noexcept { return code >> 1; }
    [[nodiscard]] constexpr bool negated() const noexcept { return (code & 1u) != 0; }
    [[nodiscard]] constexpr Lit operator~() const noexcept { return Lit{code ^ 1u}; }
    [[nodiscard]] constexpr bool operator==(const Lit&) const noexcept = default;
};

enum class Result : std::uint8_t { Sat, Unsat, Unknown };

namespace detail {

/// Anonymous pages from mmap, handed back with munmap.
[[nodiscard]] void* mapPages(std::size_t bytes);
void unmapPages(void* p, std::size_t bytes) noexcept;
inline constexpr std::size_t kPageBytes = 4096;

/// The solver's buffers take whole pages straight from the kernel once they
/// reach a page. Memory that malloc frees stays in the arena of the thread
/// that freed it, and the flow engine runs ATPG on whichever worker is
/// free, so with malloc every worker's arena ends up keeping a solver's
/// worth of pages. Pages also cost nothing until touched, so a vector's
/// spare capacity is free.
template <typename T>
struct PageAllocator {
    using value_type = T;
    PageAllocator() noexcept = default;
    template <typename U>
    PageAllocator(const PageAllocator<U>& /*other*/) noexcept {}
    [[nodiscard]] T* allocate(std::size_t n) {
        const std::size_t bytes = n * sizeof(T);
        return static_cast<T*>(bytes >= kPageBytes ? mapPages(bytes) : ::operator new(bytes));
    }
    void deallocate(T* p, std::size_t n) noexcept {
        const std::size_t bytes = n * sizeof(T);
        if (bytes >= kPageBytes) {
            unmapPages(p, bytes);
        } else {
            ::operator delete(p);
        }
    }
    template <typename U>
    [[nodiscard]] bool operator==(const PageAllocator<U>& /*other*/) const noexcept {
        return true;
    }
};

template <typename T>
using Buffer = std::vector<T, PageAllocator<T>>;

} // namespace detail

/// Receiver of a solver's clause trail, for independent proof checking.
class ProofSink {
public:
    virtual ~ProofSink() = default;
    /// A clause of the formula, exactly as the caller added it.
    virtual void original(std::span<const int> clause) = 0;
    /// A clause the solver derived; the empty clause closes an Unsat proof.
    virtual void learnt(std::span<const int> clause) = 0;
    /// A clause the solver dropped from its database.
    virtual void deleted(std::span<const int> clause) = 0;
};

class Solver {
public:
    /// Drop every variable and clause but keep the buffers, so one Solver
    /// serves many formulas without allocating. `proof` (may be null)
    /// receives the next formula's clauses and derivation.
    void reset(ProofSink* proof = nullptr);

    [[nodiscard]] Var newVar();

    /// Add a clause; duplicate literals and tautologies are fine.
    void addClause(std::span<const Lit> lits);
    void addClause(std::initializer_list<Lit> lits) {
        addClause(std::span<const Lit>(lits.begin(), lits.size()));
    }

    /// Search until the formula is decided or `max_conflicts` conflicts
    /// have been analysed (then Unknown).
    [[nodiscard]] Result solve(std::uint64_t max_conflicts);

    /// Value of `v` in the model of the last Sat answer.
    [[nodiscard]] bool modelValue(Var v) const { return model_.at(v) != 0; }

    /// Conflicts analysed by the last solve().
    [[nodiscard]] std::uint64_t conflicts() const noexcept { return conflicts_; }

private:
    using CRef = std::uint32_t;
    static constexpr CRef kNoRef = ~0u;
    static constexpr std::size_t kFirstLearntCap = 2000; ///< learnt clauses before a reduction
    static constexpr std::size_t kLearntCapStep = 500;   ///< cap growth per reduction

    // Clause layout in arena_: [size << 8 | lbd << 1 | learnt, next0, next1,
    // literal codes...]. The clause sits on the watch lists of its first two
    // literals, threaded through next0 and next1: the lists are intrusive,
    // so a formula costs no allocation beyond the arena and one list head
    // per literal, whatever its shape.
    [[nodiscard]] std::uint32_t size(CRef c) const noexcept { return arena_[c] >> 8; }
    [[nodiscard]] bool isLearnt(CRef c) const noexcept { return (arena_[c] & 1u) != 0; }
    [[nodiscard]] std::uint32_t lbd(CRef c) const noexcept { return (arena_[c] >> 1) & 0x7Fu; }
    /// The clause's literal codes.
    [[nodiscard]] std::uint32_t* lits(CRef c) noexcept { return &arena_[c + 3]; }
    [[nodiscard]] const std::uint32_t* lits(CRef c) const noexcept { return &arena_[c + 3]; }

    /// +1 true, -1 false, 0 unassigned.
    [[nodiscard]] int value(std::uint32_t code) const noexcept { return val_[code]; }
    [[nodiscard]] std::uint32_t decisionLevel() const noexcept {
        return static_cast<std::uint32_t>(trail_lim_.size());
    }

    CRef store(std::span<const Lit> lits, bool learnt, std::uint32_t lbd);
    void attach(CRef c);
    void enqueue(Lit l, CRef reason);
    CRef propagate();
    /// First-UIP analysis of `confl` into learnt_; returns the backjump level.
    std::uint32_t analyze(CRef confl);
    [[nodiscard]] bool redundant(Lit l) const;
    void cancelUntil(std::uint32_t level);
    void reduceLearnts();
    [[nodiscard]] bool pickBranch(Lit& out);

    void bump(Var v);
    void heapInsert(Var v);
    void heapUp(std::size_t i);
    void heapDown(std::size_t i);
    [[nodiscard]] bool heapBefore(Var a, Var b) const noexcept {
        return activity_[a] > activity_[b] || (activity_[a] == activity_[b] && a < b);
    }

    void emit(void (ProofSink::*fn)(std::span<const int>), std::span<const Lit> lits);

    detail::Buffer<std::uint32_t> arena_;
    detail::Buffer<CRef> learnts_;
    detail::Buffer<CRef> watch_head_; ///< per literal: first clause watching it
    detail::Buffer<std::int8_t> val_; ///< per literal
    detail::Buffer<std::uint32_t> level_; ///< per variable
    detail::Buffer<CRef> reason_;
    detail::Buffer<float> activity_;
    detail::Buffer<std::uint8_t> phase_; ///< saved polarity: 1 = last assigned true
    detail::Buffer<std::uint8_t> seen_;
    detail::Buffer<int> heap_pos_; ///< -1 = not in the heap
    detail::Buffer<Var> heap_;
    detail::Buffer<Lit> trail_;
    std::vector<std::uint32_t> trail_lim_;
    std::size_t qhead_ = 0;
    std::size_t units_proved_ = 0; ///< level-0 trail prefix already written to the proof
    std::vector<Lit> learnt_;
    std::vector<Lit> tmp_;
    std::vector<Var> to_clear_;
    detail::Buffer<std::uint32_t> level_stamp_;
    std::uint32_t stamp_ = 0;
    std::vector<int> dimacs_;
    detail::Buffer<std::uint8_t> model_;
    float var_inc_ = 1.0f;
    std::size_t max_learnts_ = kFirstLearntCap;
    std::uint64_t conflicts_ = 0;
    bool ok_ = true; ///< false once the empty clause is derived
    ProofSink* proof_ = nullptr;
};

} // namespace flh::sat
