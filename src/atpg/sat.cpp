#include "atpg/sat.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <new>
#include <utility>

namespace flh::sat {

void* detail::mapPages(std::size_t bytes) {
    void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return p;
}

void detail::unmapPages(void* p, std::size_t bytes) noexcept { munmap(p, bytes); }

namespace {

constexpr float kVarDecay = 0.95f;
constexpr float kActivityCap = 1e30f; ///< rescale every activity past this
constexpr std::uint64_t kRestartUnit = 64; ///< conflicts per Luby unit

/// The Luby sequence 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ..., 0-based.
std::uint64_t luby(std::uint64_t i) {
    std::uint64_t size = 1;
    int seq = 0;
    while (size < i + 1) {
        ++seq;
        size = 2 * size + 1;
    }
    while (size - 1 != i) {
        size = (size - 1) >> 1;
        --seq;
        i %= size;
    }
    return std::uint64_t{1} << seq;
}

} // namespace

void Solver::reset(ProofSink* proof) {
    arena_.clear();
    learnts_.clear();
    watch_head_.clear();
    val_.clear();
    level_.clear();
    reason_.clear();
    activity_.clear();
    phase_.clear();
    seen_.clear();
    heap_pos_.clear();
    heap_.clear();
    trail_.clear();
    trail_lim_.clear();
    level_stamp_.clear();
    model_.clear();
    qhead_ = 0;
    units_proved_ = 0;
    stamp_ = 0;
    var_inc_ = 1.0f;
    max_learnts_ = kFirstLearntCap;
    conflicts_ = 0;
    ok_ = true;
    proof_ = proof;
}

Var Solver::newVar() {
    const Var v = static_cast<Var>(level_.size());
    level_.push_back(0);
    reason_.push_back(kNoRef);
    activity_.push_back(0.0f);
    phase_.push_back(0);
    seen_.push_back(0);
    level_stamp_.resize(level_.size() + 1, 0); // decision levels run 0..vars
    heap_pos_.push_back(-1);
    val_.push_back(0);
    val_.push_back(0);
    watch_head_.push_back(kNoRef);
    watch_head_.push_back(kNoRef);
    heapInsert(v);
    return v;
}

void Solver::emit(void (ProofSink::*fn)(std::span<const int>), std::span<const Lit> lits) {
    dimacs_.clear();
    for (const Lit l : lits) {
        const int v = static_cast<int>(l.var()) + 1;
        dimacs_.push_back(l.negated() ? -v : v);
    }
    (proof_->*fn)(dimacs_);
}

Solver::CRef Solver::store(std::span<const Lit> lits, bool learnt, std::uint32_t lbd) {
    const CRef c = static_cast<CRef>(arena_.size());
    arena_.push_back(static_cast<std::uint32_t>(lits.size()) << 8 | std::min(lbd, 0x7Fu) << 1 |
                     (learnt ? 1u : 0u));
    arena_.push_back(kNoRef);
    arena_.push_back(kNoRef);
    for (const Lit l : lits) arena_.push_back(l.code);
    return c;
}

void Solver::attach(CRef c) {
    const std::uint32_t* cl = lits(c);
    arena_[c + 1] = watch_head_[cl[0]];
    watch_head_[cl[0]] = c;
    arena_[c + 2] = watch_head_[cl[1]];
    watch_head_[cl[1]] = c;
}

void Solver::enqueue(Lit l, CRef reason) {
    val_[l.code] = 1;
    val_[l.code ^ 1u] = -1;
    level_[l.var()] = decisionLevel();
    reason_[l.var()] = reason;
    trail_.push_back(l);
}

void Solver::addClause(std::span<const Lit> lits) {
    if (proof_) emit(&ProofSink::original, lits);
    if (!ok_) return;
    // Only level 0 is ever current between solves.
    tmp_.assign(lits.begin(), lits.end());
    std::sort(tmp_.begin(), tmp_.end(), [](Lit a, Lit b) { return a.code < b.code; });
    tmp_.erase(std::unique(tmp_.begin(), tmp_.end()), tmp_.end());
    for (std::size_t i = 0; i < tmp_.size(); ++i) {
        if (value(tmp_[i].code) > 0) return;                          // satisfied
        if (i + 1 < tmp_.size() && tmp_[i + 1] == ~tmp_[i]) return; // tautology
    }
    // Watch literals that are not false yet, so the clause is seen when they go.
    std::size_t open = 0;
    for (std::size_t i = 0; i < tmp_.size(); ++i)
        if (value(tmp_[i].code) == 0) std::swap(tmp_[open++], tmp_[i]);
    if (tmp_.empty() || value(tmp_[0].code) < 0) {
        ok_ = false;
        if (proof_) emit(&ProofSink::learnt, {});
        return;
    }
    if (tmp_.size() == 1) {
        enqueue(tmp_[0], kNoRef);
        return;
    }
    const CRef c = store(tmp_, false, 0);
    attach(c);
    if (value(tmp_[1].code) < 0) enqueue(tmp_[0], c); // unit under level-0 values
}

Solver::CRef Solver::propagate() {
    while (qhead_ < trail_.size()) {
        const std::uint32_t false_lit = trail_[qhead_++].code ^ 1u;
        // `link` holds the next clause of false_lit's list; unlinking a
        // clause rewrites it in place.
        std::uint32_t* link = &watch_head_[false_lit];
        while (*link != kNoRef) {
            const CRef c = *link;
            std::uint32_t* cl = lits(c);
            // Put the falsified watch at position 1, its list link with it.
            if (cl[0] == false_lit) {
                std::swap(cl[0], cl[1]);
                std::swap(arena_[c + 1], arena_[c + 2]);
            }
            std::uint32_t& next = arena_[c + 2];
            if (value(cl[0]) > 0) {
                link = &next;
                continue;
            }
            const std::uint32_t sz = size(c);
            std::uint32_t k = 2;
            while (k < sz && value(cl[k]) < 0) ++k;
            if (k < sz) {
                // Move the watch to cl[k]: off this list, onto its own.
                std::swap(cl[1], cl[k]);
                *link = next;
                next = watch_head_[cl[1]];
                watch_head_[cl[1]] = c;
                continue;
            }
            if (value(cl[0]) < 0) {
                qhead_ = trail_.size();
                return c;
            }
            enqueue(Lit{cl[0]}, c);
            link = &next;
        }
    }
    return kNoRef;
}

bool Solver::redundant(Lit l) const {
    // Local minimization: `l` is implied by the other learnt literals when
    // every antecedent of its reason is in the clause or fixed at level 0.
    const CRef r = reason_[l.var()];
    if (r == kNoRef) return false;
    const std::uint32_t* cl = lits(r);
    for (std::uint32_t k = 1; k < size(r); ++k) {
        const Var v = cl[k] >> 1;
        if (!seen_[v] && level_[v] > 0) return false;
    }
    return true;
}

std::uint32_t Solver::analyze(CRef confl) {
    learnt_.clear();
    learnt_.push_back(Lit{}); // the asserting literal goes here
    int open = 0;
    Lit p{};
    bool have_p = false;
    std::size_t index = trail_.size();
    do {
        const std::uint32_t* cl = lits(confl);
        const std::uint32_t sz = size(confl);
        for (std::uint32_t k = have_p ? 1 : 0; k < sz; ++k) {
            const Lit q{cl[k]};
            const Var v = q.var();
            if (seen_[v] || level_[v] == 0) continue;
            bump(v);
            seen_[v] = 1;
            if (level_[v] >= decisionLevel()) {
                ++open;
            } else {
                learnt_.push_back(q);
            }
        }
        while (!seen_[trail_[--index].var()]) {
        }
        p = trail_[index];
        have_p = true;
        confl = reason_[p.var()];
        seen_[p.var()] = 0;
        --open;
    } while (open > 0);
    learnt_[0] = ~p;

    to_clear_.clear();
    for (std::size_t k = 1; k < learnt_.size(); ++k) to_clear_.push_back(learnt_[k].var());
    std::size_t keep = 1;
    for (std::size_t k = 1; k < learnt_.size(); ++k)
        if (!redundant(learnt_[k])) learnt_[keep++] = learnt_[k];
    learnt_.resize(keep);
    for (const Var v : to_clear_) seen_[v] = 0;

    // Backjump to the second-highest level; its literal becomes watch 1.
    std::uint32_t bt = 0;
    if (learnt_.size() > 1) {
        std::size_t max_k = 1;
        for (std::size_t k = 2; k < learnt_.size(); ++k)
            if (level_[learnt_[k].var()] > level_[learnt_[max_k].var()]) max_k = k;
        std::swap(learnt_[1], learnt_[max_k]);
        bt = level_[learnt_[1].var()];
    }
    return bt;
}

void Solver::cancelUntil(std::uint32_t level) {
    if (decisionLevel() <= level) return;
    for (std::size_t k = trail_.size(); k-- > trail_lim_[level];) {
        const Lit l = trail_[k];
        const Var v = l.var();
        val_[l.code] = 0;
        val_[l.code ^ 1u] = 0;
        reason_[v] = kNoRef;
        phase_[v] = l.negated() ? 0 : 1;
        if (heap_pos_[v] < 0) heapInsert(v);
    }
    trail_.resize(trail_lim_[level]);
    trail_lim_.resize(level);
    qhead_ = trail_.size();
}

void Solver::reduceLearnts() {
    // At level 0, after a restart. The level-0 trail goes into the proof
    // first: a deleted learnt clause may be the only reason for one of
    // those units, and the checker must keep them.
    if (proof_) {
        for (; units_proved_ < trail_.size(); ++units_proved_)
            emit(&ProofSink::learnt, std::span<const Lit>(&trail_[units_proved_], 1));
    }
    std::vector<CRef> order(learnts_.begin(), learnts_.end());
    std::stable_sort(order.begin(), order.end(), [&](CRef a, CRef b) {
        return lbd(a) != lbd(b) ? lbd(a) < lbd(b) : size(a) < size(b);
    });
    std::vector<CRef> dropped;
    for (std::size_t k = order.size() / 2; k < order.size(); ++k) {
        if (lbd(order[k]) <= 2) continue; // "glue" clauses stay
        dropped.push_back(order[k]);
    }
    std::sort(dropped.begin(), dropped.end());
    if (proof_) {
        for (const CRef c : dropped) {
            tmp_.clear();
            for (std::uint32_t k = 0; k < size(c); ++k) tmp_.push_back(Lit{lits(c)[k]});
            emit(&ProofSink::deleted, tmp_);
        }
    }
    // Compact the arena in place (survivors only move towards the front)
    // and re-watch every survivor. Level-0 reasons are never read again
    // (analysis skips level 0), so they are cleared.
    CRef to = 0;
    learnts_.clear();
    for (CRef c = 0; c < arena_.size();) {
        const std::uint32_t words = 3 + size(c);
        if (!std::binary_search(dropped.begin(), dropped.end(), c)) {
            if (isLearnt(c)) learnts_.push_back(to);
            std::copy(arena_.begin() + c, arena_.begin() + c + words, arena_.begin() + to);
            to += words;
        }
        c += words;
    }
    arena_.resize(to);
    for (const Lit l : trail_) reason_[l.var()] = kNoRef;
    std::fill(watch_head_.begin(), watch_head_.end(), kNoRef);
    for (CRef c = 0; c < arena_.size(); c += 3 + size(c)) attach(c);
    max_learnts_ += kLearntCapStep;
}

void Solver::bump(Var v) {
    activity_[v] += var_inc_;
    if (activity_[v] > kActivityCap) {
        for (float& a : activity_) a /= kActivityCap;
        var_inc_ /= kActivityCap;
    }
    if (heap_pos_[v] >= 0) heapUp(static_cast<std::size_t>(heap_pos_[v]));
}

void Solver::heapInsert(Var v) {
    heap_pos_[v] = static_cast<int>(heap_.size());
    heap_.push_back(v);
    heapUp(heap_.size() - 1);
}

void Solver::heapUp(std::size_t i) {
    const Var v = heap_[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!heapBefore(v, heap_[parent])) break;
        heap_[i] = heap_[parent];
        heap_pos_[heap_[i]] = static_cast<int>(i);
        i = parent;
    }
    heap_[i] = v;
    heap_pos_[v] = static_cast<int>(i);
}

void Solver::heapDown(std::size_t i) {
    const Var v = heap_[i];
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= heap_.size()) break;
        if (child + 1 < heap_.size() && heapBefore(heap_[child + 1], heap_[child])) ++child;
        if (!heapBefore(heap_[child], v)) break;
        heap_[i] = heap_[child];
        heap_pos_[heap_[i]] = static_cast<int>(i);
        i = child;
    }
    heap_[i] = v;
    heap_pos_[v] = static_cast<int>(i);
}

bool Solver::pickBranch(Lit& out) {
    while (!heap_.empty()) {
        const Var v = heap_[0];
        heap_pos_[v] = -1;
        const Var last = heap_.back();
        heap_.pop_back();
        if (!heap_.empty()) {
            heap_[0] = last;
            heap_pos_[last] = 0;
            heapDown(0);
        }
        if (val_[2 * v] == 0) {
            out = Lit::make(v, phase_[v] == 0);
            return true;
        }
    }
    return false;
}

Result Solver::solve(std::uint64_t max_conflicts) {
    conflicts_ = 0;
    model_.clear();
    if (!ok_) return Result::Unsat;
    std::uint64_t restarts = 0;
    std::uint64_t restart_at = luby(0) * kRestartUnit;
    for (;;) {
        const CRef confl = propagate();
        if (confl != kNoRef) {
            ++conflicts_;
            if (decisionLevel() == 0) {
                ok_ = false;
                if (proof_) emit(&ProofSink::learnt, {});
                return Result::Unsat;
            }
            const std::uint32_t bt = analyze(confl);
            cancelUntil(bt);
            if (proof_) emit(&ProofSink::learnt, learnt_);
            if (learnt_.size() == 1) {
                enqueue(learnt_[0], kNoRef);
            } else {
                // LBD: the number of distinct decision levels in the clause.
                ++stamp_;
                std::uint32_t glue = 0;
                for (const Lit l : learnt_) {
                    const std::uint32_t lv = level_[l.var()];
                    if (level_stamp_[lv] != stamp_) {
                        level_stamp_[lv] = stamp_;
                        ++glue;
                    }
                }
                const CRef c = store(learnt_, true, glue);
                attach(c);
                learnts_.push_back(c);
                enqueue(learnt_[0], c);
            }
            var_inc_ /= kVarDecay;
            if (conflicts_ >= max_conflicts) {
                cancelUntil(0);
                return Result::Unknown;
            }
            continue;
        }
        if (conflicts_ >= restart_at) {
            cancelUntil(0);
            restart_at = conflicts_ + luby(++restarts) * kRestartUnit;
            if (learnts_.size() >= max_learnts_) reduceLearnts();
            continue;
        }
        Lit next;
        if (!pickBranch(next)) {
            model_.resize(level_.size());
            for (Var v = 0; v < level_.size(); ++v) model_[v] = val_[2 * v] > 0 ? 1 : 0;
            cancelUntil(0);
            return Result::Sat;
        }
        trail_lim_.push_back(static_cast<std::uint32_t>(trail_.size()));
        enqueue(next, kNoRef);
    }
}

} // namespace flh::sat
