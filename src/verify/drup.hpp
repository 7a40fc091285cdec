// Independent checker for DRUP refutations (Heule, Hunt and Wetzler, "Trimming
// while checking clausal proofs", FMCAD 2013), the oracle for every
// Untestable verdict the SAT engine (atpg/sat.hpp) returns.
//
// A proof is the formula plus a sequence of lemma additions and clause
// deletions, all in DIMACS numbering. Each added lemma must be a reverse-
// unit-propagation (RUP) consequence of the clauses present at that point:
// assigning every lemma literal false and unit-propagating over those
// clauses must reach a conflict. The proof is a refutation when it adds the
// empty clause, which passes the same check.
//
// The checker deliberately shares no code with the solver: it keeps its own
// clause store and propagates by counting false literals per clause over
// occurrence lists, re-deriving every check from an empty assignment. That
// is slower than watched literals and fine for the formulas of tests.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace flh {

struct DrupStep {
    bool deletion = false;
    std::vector<int> clause;
};

struct DrupProof {
    std::vector<std::vector<int>> formula;
    std::vector<DrupStep> steps;
};

struct DrupVerdict {
    bool ok = false;     ///< every lemma checks and the empty clause is derived
    std::size_t step = 0; ///< the first failing step (steps.size() if none)
    std::string why;      ///< empty when ok
};

/// Check `proof` as a refutation of its formula.
[[nodiscard]] DrupVerdict checkDrup(const DrupProof& proof);

} // namespace flh
