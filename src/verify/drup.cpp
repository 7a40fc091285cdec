#include "verify/drup.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>

namespace flh {

namespace {

/// Literal index: 2 * (|d| - 1) + (d < 0).
std::size_t litIndex(int d) {
    return 2 * static_cast<std::size_t>(std::abs(d) - 1) + (d < 0 ? 1 : 0);
}

class ClauseStore {
public:
    explicit ClauseStore(int max_var)
        : occurs_(2 * static_cast<std::size_t>(max_var)), value_(static_cast<std::size_t>(max_var), 0) {}

    /// Add a clause (literals sorted, duplicates removed by the caller).
    void add(std::vector<int> clause) {
        const std::size_t id = clauses_.size();
        for (const int d : clause) occurs_[litIndex(d)].push_back(id);
        by_key_[clause].push_back(id);
        clauses_.push_back(std::move(clause));
        alive_.push_back(1);
        false_count_.push_back(0);
    }

    /// Remove one copy of `clause`; false if there is none.
    bool erase(const std::vector<int>& clause) {
        const auto it = by_key_.find(clause);
        if (it == by_key_.end() || it->second.empty()) return false;
        alive_[it->second.back()] = 0;
        it->second.pop_back();
        return true;
    }

    /// True if assigning every literal of `clause` false and propagating
    /// every live clause to fixpoint runs into a conflict.
    bool implies(const std::vector<int>& clause) {
        bool conflict = false;
        for (const int d : clause)
            if (!assign(-d)) conflict = true;
        for (std::size_t id = 0; id < clauses_.size() && !conflict; ++id) {
            if (!alive_[id]) continue;
            if (clauses_[id].empty()) conflict = true;
            if (clauses_[id].size() == 1 && !assign(clauses_[id][0])) conflict = true;
        }
        for (std::size_t q = 0; q < queue_.size() && !conflict; ++q) {
            const int falsified = -queue_[q];
            for (const std::size_t id : occurs_[litIndex(falsified)]) {
                if (!alive_[id]) continue;
                if (false_count_[id]++ == 0) touched_.push_back(id);
                const std::vector<int>& c = clauses_[id];
                if (false_count_[id] + 1 < c.size()) continue;
                // At most one literal is not false: find it, unless one is true.
                int open = 0;
                bool satisfied = false;
                for (const int d : c) {
                    const int v = valueOf(d);
                    if (v > 0) satisfied = true;
                    if (v == 0) open = d;
                }
                if (satisfied) continue;
                if (open == 0) {
                    conflict = true;
                    break;
                }
                (void)assign(open);
            }
        }
        clearAssignment();
        return conflict;
    }

private:
    [[nodiscard]] int valueOf(int d) const {
        const int v = value_[static_cast<std::size_t>(std::abs(d) - 1)];
        return d < 0 ? -v : v;
    }

    /// Make `d` true; false if it already is false.
    bool assign(int d) {
        const int v = valueOf(d);
        if (v != 0) return v > 0;
        value_[static_cast<std::size_t>(std::abs(d) - 1)] = d < 0 ? -1 : 1;
        queue_.push_back(d);
        return true;
    }

    void clearAssignment() {
        for (const int d : queue_) value_[static_cast<std::size_t>(std::abs(d) - 1)] = 0;
        queue_.clear();
        for (const std::size_t id : touched_) false_count_[id] = 0;
        touched_.clear();
    }

    std::vector<std::vector<int>> clauses_;
    std::vector<std::uint8_t> alive_;
    std::vector<std::size_t> false_count_;
    std::vector<std::vector<std::size_t>> occurs_;
    std::map<std::vector<int>, std::vector<std::size_t>> by_key_;
    std::vector<int> value_; ///< per variable: 1, -1 or 0
    std::vector<int> queue_; ///< literals made true, in order
    std::vector<std::size_t> touched_;
};

/// Sorted, duplicate-free copy; false for a clause holding 0 (not DIMACS).
bool normalize(const std::vector<int>& in, std::vector<int>& out) {
    out = in;
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return std::find(out.begin(), out.end(), 0) == out.end();
}

} // namespace

DrupVerdict checkDrup(const DrupProof& proof) {
    DrupVerdict verdict;
    int max_var = 0;
    for (const auto& c : proof.formula)
        for (const int d : c) max_var = std::max(max_var, std::abs(d));
    for (const DrupStep& s : proof.steps)
        for (const int d : s.clause) max_var = std::max(max_var, std::abs(d));

    ClauseStore store(max_var);
    std::vector<int> clause;
    for (const auto& c : proof.formula) {
        if (!normalize(c, clause)) {
            verdict.why = "formula clause holds literal 0";
            return verdict;
        }
        store.add(clause);
    }
    for (std::size_t i = 0; i < proof.steps.size(); ++i) {
        const DrupStep& s = proof.steps[i];
        verdict.step = i;
        if (!normalize(s.clause, clause)) {
            verdict.why = "step holds literal 0";
            return verdict;
        }
        if (s.deletion) {
            if (!store.erase(clause)) {
                verdict.why = "deleted clause is not in the database";
                return verdict;
            }
            continue;
        }
        if (!store.implies(clause)) {
            verdict.why = "lemma is not a RUP consequence";
            return verdict;
        }
        if (clause.empty()) {
            verdict.ok = true;
            verdict.step = proof.steps.size();
            return verdict;
        }
        store.add(clause);
    }
    verdict.step = proof.steps.size();
    verdict.why = "the proof never derives the empty clause";
    return verdict;
}

} // namespace flh
