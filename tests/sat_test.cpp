// The CDCL solver (atpg/sat.hpp) against brute force, and its DRUP proofs
// against the independent checker (verify/drup.hpp).
#include "atpg/sat.hpp"
#include "proof_recorder.hpp"
#include "util/rng.hpp"
#include "verify/drup.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace flh {
namespace {

using Cnf = std::vector<std::vector<int>>; // DIMACS literals

void load(sat::Solver& s, const Cnf& cnf, int vars, sat::ProofSink* proof = nullptr) {
    s.reset(proof);
    for (int v = 0; v < vars; ++v) (void)s.newVar();
    std::vector<sat::Lit> lits;
    for (const auto& c : cnf) {
        lits.clear();
        for (const int d : c) lits.push_back(sat::Lit::make(static_cast<sat::Var>(std::abs(d) - 1), d < 0));
        s.addClause(lits);
    }
}

bool satisfiedBy(const Cnf& cnf, const std::vector<bool>& assignment) {
    for (const auto& c : cnf) {
        bool sat = false;
        for (const int d : c) sat = sat || assignment[static_cast<std::size_t>(std::abs(d) - 1)] == (d > 0);
        if (!sat) return false;
    }
    return true;
}

std::vector<bool> model(const sat::Solver& s, int vars) {
    std::vector<bool> m;
    for (int v = 0; v < vars; ++v) m.push_back(s.modelValue(static_cast<sat::Var>(v)));
    return m;
}

/// n + 1 pigeons in n holes: unsatisfiable, and hard for resolution.
Cnf pigeonhole(int holes, int& vars) {
    const int pigeons = holes + 1;
    const auto x = [&](int p, int h) { return p * holes + h + 1; };
    vars = pigeons * holes;
    Cnf cnf;
    for (int p = 0; p < pigeons; ++p) {
        std::vector<int> c;
        for (int h = 0; h < holes; ++h) c.push_back(x(p, h));
        cnf.push_back(c);
    }
    for (int h = 0; h < holes; ++h)
        for (int p = 0; p < pigeons; ++p)
            for (int q = p + 1; q < pigeons; ++q) cnf.push_back({-x(p, h), -x(q, h)});
    return cnf;
}

TEST(Sat, RandomFormulasAgreeWithBruteForce) {
    constexpr int kVars = 12;
    Rng rng(2024);
    sat::Solver solver;
    int sat_count = 0;
    int unsat_count = 0;
    for (int round = 0; round < 300; ++round) {
        Cnf cnf;
        const int clauses = rng.range(30, 70);
        for (int c = 0; c < clauses; ++c) {
            std::vector<int> cl;
            for (int k = 0; k < 3; ++k) {
                const int v = rng.range(1, kVars);
                cl.push_back(rng.chance(0.5) ? v : -v);
            }
            cnf.push_back(cl);
        }
        bool exists = false;
        for (std::uint32_t bits = 0; bits < (1u << kVars) && !exists; ++bits) {
            std::vector<bool> a;
            for (int v = 0; v < kVars; ++v) a.push_back(((bits >> v) & 1) != 0);
            exists = satisfiedBy(cnf, a);
        }
        ProofRecorder rec;
        load(solver, cnf, kVars, &rec);
        const sat::Result r = solver.solve(100000);
        ASSERT_NE(r, sat::Result::Unknown);
        ASSERT_EQ(r == sat::Result::Sat, exists) << "round " << round;
        if (r == sat::Result::Sat) {
            ++sat_count;
            EXPECT_TRUE(satisfiedBy(cnf, model(solver, kVars))) << "round " << round;
        } else {
            ++unsat_count;
            const DrupVerdict v = checkDrup(rec.proof());
            EXPECT_TRUE(v.ok) << "round " << round << ": " << v.why << " at step " << v.step;
        }
    }
    // Both answers must be exercised.
    EXPECT_GT(sat_count, 20);
    EXPECT_GT(unsat_count, 20);
}

TEST(Sat, PigeonholeProofWithDeletionsChecks) {
    int vars = 0;
    const Cnf cnf = pigeonhole(7, vars);
    sat::Solver solver;
    ProofRecorder rec;
    load(solver, cnf, vars, &rec);
    ASSERT_EQ(solver.solve(1000000), sat::Result::Unsat);
    std::size_t deletions = 0;
    for (const DrupStep& s : rec.proof().steps) deletions += s.deletion ? 1 : 0;
    // Long enough to reduce the learnt clauses at least once.
    EXPECT_GT(deletions, 0u);
    const DrupVerdict v = checkDrup(rec.proof());
    EXPECT_TRUE(v.ok) << v.why << " at step " << v.step;
}

TEST(Sat, ConflictCapAnswersUnknown) {
    int vars = 0;
    const Cnf cnf = pigeonhole(8, vars);
    sat::Solver solver;
    load(solver, cnf, vars);
    EXPECT_EQ(solver.solve(10), sat::Result::Unknown);
    EXPECT_EQ(solver.conflicts(), 10u);
}

TEST(Sat, EmptyAndContradictoryUnitClausesAreUnsat) {
    sat::Solver solver;
    ProofRecorder rec;
    load(solver, {{1}, {-1}}, 1, &rec);
    EXPECT_EQ(solver.solve(10), sat::Result::Unsat);
    EXPECT_TRUE(checkDrup(rec.proof()).ok);

    rec.clear();
    load(solver, {{}}, 0, &rec);
    EXPECT_EQ(solver.solve(10), sat::Result::Unsat);
    EXPECT_TRUE(checkDrup(rec.proof()).ok);
}

TEST(Sat, SameFormulaSameSearch) {
    int vars = 0;
    const Cnf cnf = pigeonhole(6, vars);
    sat::Solver a;
    sat::Solver b;
    ProofRecorder ra;
    ProofRecorder rb;
    load(a, cnf, vars, &ra);
    ASSERT_EQ(a.solve(1000000), sat::Result::Unsat);
    // A reused solver searches exactly like a fresh one.
    int small_vars = 0;
    const Cnf small = pigeonhole(3, small_vars);
    load(b, small, small_vars);
    (void)b.solve(1000);
    load(b, cnf, vars, &rb);
    ASSERT_EQ(b.solve(1000000), sat::Result::Unsat);
    EXPECT_EQ(a.conflicts(), b.conflicts());
    ASSERT_EQ(ra.proof().steps.size(), rb.proof().steps.size());
    for (std::size_t i = 0; i < ra.proof().steps.size(); ++i)
        EXPECT_EQ(ra.proof().steps[i].clause, rb.proof().steps[i].clause) << i;
}

TEST(Drup, AcceptsHandWrittenRefutation) {
    DrupProof p;
    p.formula = {{1, 2}, {1, -2}, {-1, 2}, {-1, -2}};
    p.steps = {{false, {1}}, {false, {}}};
    const DrupVerdict v = checkDrup(p);
    EXPECT_TRUE(v.ok) << v.why;
}

TEST(Drup, RejectsLemmaThatIsNotRup) {
    // The formula implies x1, but only by a case split on x2 and x3: with x1
    // false no clause becomes unit, so the lemma {x1} is not RUP.
    DrupProof p;
    p.formula = {{1, 2, 3}, {1, 2, -3}, {1, -2, 3}, {1, -2, -3}, {-1}};
    p.steps = {{false, {1}}, {false, {}}};
    const DrupVerdict v = checkDrup(p);
    EXPECT_FALSE(v.ok);
    EXPECT_EQ(v.step, 0u);
}

TEST(Drup, RejectsProofWithoutEmptyClause) {
    DrupProof p;
    p.formula = {{1, 2}, {1, -2}, {-1, 2}, {-1, -2}};
    p.steps = {{false, {1}}};
    EXPECT_FALSE(checkDrup(p).ok);
}

TEST(Drup, RejectsDeletingAClauseNotPresent) {
    DrupProof p;
    p.formula = {{1, 2}, {-1}, {-2}};
    p.steps = {{true, {1, 3}}, {false, {}}};
    const DrupVerdict v = checkDrup(p);
    EXPECT_FALSE(v.ok);
    EXPECT_EQ(v.step, 0u);
}

TEST(Drup, DeletedClausesNoLongerPropagate) {
    DrupProof p;
    p.formula = {{1, 2}, {1, -2}, {-1, 2}, {-1, -2}};
    // Without {-1, -2} the formula is satisfiable: nothing refutes it.
    p.steps = {{true, {-2, -1}}, {false, {1}}, {false, {}}};
    EXPECT_FALSE(checkDrup(p).ok);
}

} // namespace
} // namespace flh
