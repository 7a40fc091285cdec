// Test glue between the SAT engine's proof output (atpg/sat.hpp) and the
// independent DRUP checker (verify/drup.hpp): records one solver call's
// formula and derivation as a DrupProof.
#pragma once

#include "atpg/sat.hpp"
#include "verify/drup.hpp"

namespace flh {

class ProofRecorder final : public sat::ProofSink {
public:
    void original(std::span<const int> clause) override {
        proof_.formula.emplace_back(clause.begin(), clause.end());
    }
    void learnt(std::span<const int> clause) override {
        proof_.steps.push_back(DrupStep{false, {clause.begin(), clause.end()}});
    }
    void deleted(std::span<const int> clause) override {
        proof_.steps.push_back(DrupStep{true, {clause.begin(), clause.end()}});
    }

    /// True once a solver wrote a formula here, i.e. SAT decided the call.
    [[nodiscard]] bool used() const noexcept { return !proof_.formula.empty(); }
    [[nodiscard]] const DrupProof& proof() const noexcept { return proof_; }
    void clear() { proof_ = {}; }

private:
    DrupProof proof_;
};

} // namespace flh
