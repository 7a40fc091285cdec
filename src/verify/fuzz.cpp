#include "verify/fuzz.hpp"

#include "dft/scan.hpp"
#include "fault/parallel_sim.hpp"
#include "obs/telemetry.hpp"
#include "sim/packed_sim.hpp"
#include "util/rng.hpp"
#include "verify/corpus.hpp"
#include "verify/reference.hpp"
#include "verify/shrink.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <stdexcept>

namespace flh {

namespace {

constexpr std::uint64_t kPairSeedMix = 0xD1B54A32D192ED03ULL;
constexpr std::uint64_t kEngineSeedMix = 0x8CB92BA72F3D8DD7ULL;

/// Word widths every engine check runs: W = 1 (the width PODEM and
/// SequentialSim run at) first, then every other requested width.
std::vector<unsigned> widthsUnderTest(const FuzzOptions& opts) {
    std::vector<unsigned> ws{1};
    for (const unsigned w : opts.word_widths)
        if (std::find(ws.begin(), ws.end(), w) == ws.end()) ws.push_back(w);
    return ws;
}

/// PackedSim (word-packed SIMD engine) vs the naive reference, at W = 1 and
/// every requested word width. The first pattern is replaced by an all-X
/// vector so the widest Kleene case is always present, the list is padded by
/// repeating the last pattern (as the fault-sim loaders do), and the padded
/// tail slot of the last word is checked too.
bool packedPerNetMismatch(const Netlist& nl, const std::vector<TwoPattern>& pairs,
                          const FuzzOptions& opts, std::string* detail) {
    if (pairs.empty()) return false;
    std::vector<Pattern> pats;
    pats.reserve(pairs.size());
    for (const TwoPattern& tp : pairs) pats.push_back(tp.v1);
    for (Logic& b : pats[0].pis) b = Logic::X;
    for (Logic& b : pats[0].state) b = Logic::X;
    std::vector<std::vector<Logic>> refs;
    refs.reserve(pats.size());
    for (const Pattern& p : pats) refs.push_back(refEval(nl, p));

    for (const unsigned W : widthsUnderTest(opts)) {
        PackedSim sim(nl, W);
        const auto loadSource = [&](NetId net, auto&& bit) {
            for (unsigned w = 0; w < W; ++w) {
                PV v;
                for (unsigned slot = 0; slot < 64; ++slot) {
                    const std::size_t i = std::min<std::size_t>(64ULL * w + slot, pats.size() - 1);
                    v.set(slot, bit(pats[i]));
                }
                sim.setNet(net, w, v);
            }
        };
        for (std::size_t k = 0; k < nl.pis().size(); ++k)
            loadSource(nl.pis()[k], [k](const Pattern& p) { return p.pis[k]; });
        for (std::size_t k = 0; k < nl.flipFlops().size(); ++k)
            loadSource(nl.gate(nl.flipFlops()[k]).output,
                       [k](const Pattern& p) { return p.state[k]; });
        sim.evalAll();

        const auto mismatchAt = [&](std::size_t pat, unsigned w, unsigned slot) {
            for (NetId net = 0; net < nl.netCount(); ++net) {
                if (sim.get(net, w, slot) == refs[pat][net]) continue;
                if (detail) {
                    std::ostringstream os;
                    os << "words=" << W << " net " << nl.net(net).name << " word " << w
                       << " slot " << slot << ": reference " << toChar(refs[pat][net])
                       << ", PackedSim " << toChar(sim.get(net, w, slot));
                    *detail = os.str();
                }
                return true;
            }
            return false;
        };
        for (std::size_t i = 0; i < pats.size() && i < 64ULL * W; ++i)
            if (mismatchAt(i, static_cast<unsigned>(i / 64), static_cast<unsigned>(i % 64)))
                return true;
        if (mismatchAt(pats.size() - 1, W - 1, 63)) return true; // padded tail
    }
    return false;
}

/// SequentialSim::clock vs the FF D values of the naive reference.
bool seqCaptureMismatch(const Netlist& nl, const std::vector<TwoPattern>& pairs,
                        std::string* detail) {
    for (std::size_t pi = 0; pi < pairs.size(); ++pi) {
        const Pattern& p = pairs[pi].v1;
        SequentialSim seq(nl, HoldStyle::None);
        std::vector<PV> st(p.state.size());
        for (std::size_t k = 0; k < st.size(); ++k) st[k] = PV::all(p.state[k]);
        seq.setState(st);
        std::vector<PV> pis(p.pis.size());
        for (std::size_t k = 0; k < pis.size(); ++k) pis[k] = PV::all(p.pis[k]);
        seq.setPis(pis);
        seq.settle();
        seq.clock();
        const std::vector<Logic> ref = refEval(nl, p);
        for (std::size_t k = 0; k < seq.ffCount(); ++k) {
            const Logic want = ref[nl.gate(nl.flipFlops()[k]).inputs[0]];
            if (seq.state()[k].get(0) == want) continue;
            if (detail) {
                std::ostringstream os;
                os << "pair " << pi << " FF " << k << ": reference " << toChar(want)
                   << ", SequentialSim::clock " << toChar(seq.state()[k].get(0));
                *detail = os.str();
            }
            return true;
        }
    }
    return false;
}

/// Output faults on a PI and a PO net are engine edge cases (fault at the
/// very source / sink of the cone); the capped collapsed list can drop
/// them, so they are always re-appended.
void addBoundaryStuckSites(const Netlist& nl, std::vector<FaultSite>& f) {
    const auto addNetFault = [&](NetId net) {
        for (const bool sa1 : {false, true}) {
            FaultSite s;
            s.net = net;
            s.stuck_at_one = sa1;
            if (std::find(f.begin(), f.end(), s) == f.end()) f.push_back(s);
        }
    };
    if (!nl.pis().empty()) addNetFault(nl.pis().front());
    if (!nl.pos().empty()) addNetFault(nl.pos().front());
}

void addBoundaryTransitionSites(const Netlist& nl, std::vector<TransitionFault>& f) {
    const auto addNetFault = [&](NetId net) {
        for (const Transition k : {Transition::SlowToRise, Transition::SlowToFall}) {
            const TransitionFault tf{net, k};
            if (std::find(f.begin(), f.end(), tf) == f.end()) f.push_back(tf);
        }
    };
    if (!nl.pis().empty()) addNetFault(nl.pis().front());
    if (!nl.pos().empty()) addNetFault(nl.pos().front());
}

std::vector<FaultSite> stuckFaults(const Netlist& nl, std::size_t cap) {
    std::vector<FaultSite> f = collapsedStuckAtFaults(nl);
    if (f.size() > cap) f.resize(cap);
    addBoundaryStuckSites(nl, f);
    return f;
}

std::vector<TransitionFault> transitionFaults(const Netlist& nl, std::size_t cap) {
    std::vector<TransitionFault> f = allTransitionFaults(nl);
    if (f.size() > cap) f.resize(cap);
    addBoundaryTransitionSites(nl, f);
    return f;
}

FaultSimOptions poolOptions(unsigned threads, unsigned words) {
    FaultSimOptions o;
    o.threads = threads;
    o.min_faults_per_worker = 1; // force a real pool even on tiny fault lists
    o.words = words;
    return o;
}

/// First fault whose engine verdict differs from the reference's, if any.
template <typename T>
std::optional<std::size_t> firstDifference(const std::vector<T>& want, const std::vector<T>& got) {
    for (std::size_t i = 0; i < want.size(); ++i)
        if (i >= got.size() || got[i] != want[i]) return i;
    return std::nullopt;
}

/// Run `engine` with the options of every requested thread count x word
/// width and compare each per-fault result against `want`.
template <typename T, typename Fault, typename Engine>
bool engineMismatch(const Netlist& nl, const std::vector<Fault>& faults,
                    const std::vector<T>& want, const FuzzOptions& opts, const Engine& engine,
                    std::string* detail) {
    for (const unsigned t : opts.thread_counts) {
        for (const unsigned w : widthsUnderTest(opts)) {
            const std::vector<T> got = engine(poolOptions(t, w));
            const std::optional<std::size_t> where = firstDifference(want, got);
            if (!where) continue;
            if (detail) {
                std::ostringstream os;
                os << "threads=" << t << " words=" << w << " fault "
                   << toString(nl, faults[*where]) << ": reference " << want[*where]
                   << ", engine "
                   << (*where < got.size() ? std::to_string(got[*where])
                                           : std::string("<missing>"));
                *detail = os.str();
            }
            return true;
        }
    }
    return false;
}

bool stuckBitmapMismatch(const Netlist& nl, const std::vector<TwoPattern>& pairs,
                         const FuzzOptions& opts, std::string* detail) {
    std::vector<Pattern> pats;
    pats.reserve(pairs.size());
    for (const TwoPattern& tp : pairs) pats.push_back(tp.v1);
    const std::vector<FaultSite> faults = stuckFaults(nl, opts.max_faults);
    std::vector<bool> want;
    for (const std::vector<bool>& per_pattern : refStuckAtDetections(nl, pats, faults))
        want.push_back(std::find(per_pattern.begin(), per_pattern.end(), true) !=
                       per_pattern.end());
    return engineMismatch(
        nl, faults, want, opts,
        [&](const FaultSimOptions& o) {
            return runStuckAtFaultSim(nl, pats, faults, o).detected_mask;
        },
        detail);
}

bool transitionBitmapMismatch(const Netlist& nl, const std::vector<TwoPattern>& pairs,
                              const FuzzOptions& opts, std::string* detail) {
    const std::vector<TransitionFault> faults = transitionFaults(nl, opts.max_faults);
    std::vector<bool> want;
    for (const std::size_t n : refTransitionDetections(nl, pairs, faults)) want.push_back(n > 0);
    return engineMismatch(
        nl, faults, want, opts,
        [&](const FaultSimOptions& o) {
            return runTransitionFaultSim(nl, pairs, faults, o).detected_mask;
        },
        detail);
}

bool nDetectMismatch(const Netlist& nl, const std::vector<TwoPattern>& pairs,
                     const FuzzOptions& opts, std::string* detail) {
    const std::vector<TransitionFault> faults = transitionFaults(nl, opts.max_faults);
    return engineMismatch(
        nl, faults, refTransitionDetections(nl, pairs, faults), opts,
        [&](const FaultSimOptions& o) { return countTransitionDetections(nl, pairs, faults, o); },
        detail);
}

/// Inject some X bits so Kleene propagation is fuzzed too (the fault-sim
/// checks keep the fully-specified list; X-detection semantics are theirs
/// to define, value agreement is not).
std::vector<TwoPattern> withXBits(std::vector<TwoPattern> pairs, std::uint64_t seed) {
    Rng rng(seed);
    for (TwoPattern& tp : pairs)
        for (Pattern* p : {&tp.v1, &tp.v2}) {
            for (Logic& b : p->pis)
                if (rng.chance(0.12)) b = Logic::X;
            for (Logic& b : p->state)
                if (rng.chance(0.12)) b = Logic::X;
        }
    return pairs;
}

struct CheckDef {
    const char* name;
    FailurePredicate fails;
    const std::vector<TwoPattern>* pairs;
};

} // namespace

CircuitSpec fuzzSpec(std::uint64_t seed) {
    Rng rng(seed ^ 0xF022);
    CircuitSpec s;
    s.name = "fuzz" + std::to_string(seed);
    s.n_pis = rng.range(3, 8);
    s.n_pos = rng.range(2, 4);
    s.n_ffs = rng.range(3, 10);
    s.depth = rng.range(4, 11);
    s.n_comb_gates = rng.range(30, 110);
    s.ff_fanout_avg = 1.5 + rng.uniform() * 2.0;
    s.unique_ratio = 1.0 + rng.uniform() * std::min(2.0, s.ff_fanout_avg - 1.0);
    s.seed = rng.next();
    // The generator needs enough interior gates beyond the first level to
    // drive every FF D pin after reserving one backbone gate per level:
    // n_comb_gates >= n_fl + (depth - 1) + n_ffs.
    const int n_fl = static_cast<int>(s.unique_ratio * s.n_ffs + 0.5);
    s.n_comb_gates = std::max(s.n_comb_gates, n_fl + s.depth + s.n_ffs + 4);
    return s;
}

FuzzReport runFuzz(const FuzzOptions& opts) {
    static obs::Counter& c_seeds = obs::counter("verify.fuzz.seeds");
    static obs::Counter& c_checks = obs::counter("verify.fuzz.checks");
    static obs::Counter& c_findings = obs::counter("verify.fuzz.findings");

    const Library& lib = [] () -> const Library& {
        static const Library l = makeDefaultLibrary();
        return l;
    }();

    for (const unsigned w : opts.word_widths)
        if (w < 1 || w > kMaxPackedWords)
            throw std::invalid_argument("runFuzz: word width " + std::to_string(w) +
                                        " outside [1, " + std::to_string(kMaxPackedWords) + "]");

    FuzzReport rep;
    for (std::uint64_t seed = opts.start_seed; seed < opts.start_seed + opts.seeds; ++seed) {
        obs::ScopedSpan seed_span("seed-" + std::to_string(seed), "verify.seed");
        c_seeds.add(1);
        ++rep.seeds_run;

        Netlist scanned = generateCircuit(fuzzSpec(seed), lib);
        insertScan(scanned);

        const std::vector<TwoPattern> engine_pairs =
            randomTwoPatterns(scanned, opts.stuck_patterns, seed * kEngineSeedMix + 1);
        const std::vector<TwoPattern> x_pairs = withXBits(engine_pairs, seed ^ 0x5E);
        const std::vector<TwoPattern> eq_pairs =
            makeEquivalencePairs(scanned, opts.random_pairs, opts.atpg_pairs,
                                 seed * kPairSeedMix + 1);

        const EquivalenceOptions eq_opts;
        std::optional<Netlist> mutant;
        VariantNetlists variants;
        MutantInfo mutant_info;
        if (opts.mutant_seed != 0) {
            mutant = injectMutant(scanned, opts.mutant_seed ^ (seed * kPairSeedMix),
                                  &mutant_info);
            variants.flh = &*mutant;
        }

        const std::vector<CheckDef> checks = {
            {"packed-pernet",
             [&opts](const Netlist& n, const std::vector<TwoPattern>& ps) {
                 return packedPerNetMismatch(n, ps, opts, nullptr);
             },
             &x_pairs},
            {"seq-capture",
             [](const Netlist& n, const std::vector<TwoPattern>& ps) {
                 return seqCaptureMismatch(n, ps, nullptr);
             },
             &x_pairs},
            {"stuck-bitmap",
             [&opts](const Netlist& n, const std::vector<TwoPattern>& ps) {
                 return stuckBitmapMismatch(n, ps, opts, nullptr);
             },
             &engine_pairs},
            {"transition-bitmap",
             [&opts](const Netlist& n, const std::vector<TwoPattern>& ps) {
                 return transitionBitmapMismatch(n, ps, opts, nullptr);
             },
             &engine_pairs},
            {"n-detect",
             [&opts](const Netlist& n, const std::vector<TwoPattern>& ps) {
                 return nDetectMismatch(n, ps, opts, nullptr);
             },
             &engine_pairs},
            {"dft-equivalence",
             [&eq_opts, &variants](const Netlist& n, const std::vector<TwoPattern>& ps) {
                 return !checkDftEquivalence(n, ps, eq_opts, variants).ok();
             },
             &eq_pairs},
        };

        for (const CheckDef& check : checks) {
            obs::ScopedSpan check_span(check.name, "verify.check");
            c_checks.add(1);
            ++rep.checks_run;
            if (!check.fails(scanned, *check.pairs)) continue;

            c_findings.add(1);
            FuzzFinding finding;
            finding.seed = seed;
            finding.check = check.name;

            // Re-run the detailed probe for the report text.
            std::string detail;
            if (finding.check == "packed-pernet")
                packedPerNetMismatch(scanned, *check.pairs, opts, &detail);
            else if (finding.check == "seq-capture")
                seqCaptureMismatch(scanned, *check.pairs, &detail);
            else if (finding.check == "stuck-bitmap")
                stuckBitmapMismatch(scanned, *check.pairs, opts, &detail);
            else if (finding.check == "transition-bitmap")
                transitionBitmapMismatch(scanned, *check.pairs, opts, &detail);
            else if (finding.check == "n-detect")
                nDetectMismatch(scanned, *check.pairs, opts, &detail);
            else
                detail = checkDftEquivalence(scanned, *check.pairs, eq_opts, variants).summary();
            if (opts.mutant_seed != 0 && finding.check == "dft-equivalence")
                detail += " [injected mutant: " + mutant_info.describe() + "]";
            finding.detail = detail;

            // Shrink and persist — except expected mutant findings, which
            // are the mutation-testing success signal, not a bug.
            const bool expected_mutant =
                opts.mutant_seed != 0 && finding.check == "dft-equivalence";
            if (opts.shrink && !opts.corpus_dir.empty() && !expected_mutant) {
                ShrinkOptions sh;
                sh.max_rounds = opts.shrink_rounds;
                const ShrinkResult shrunk =
                    shrinkReproducer(scanned, *check.pairs, check.fails, sh);
                finding.shrunk_gates = shrunk.gates_after;
                std::ostringstream note;
                note << "fuzz seed " << seed << " check " << finding.check << ": " << detail
                     << "\nshrunk from " << shrunk.gates_before << " gates / "
                     << shrunk.pairs_before << " pairs to " << shrunk.gates_after << " / "
                     << shrunk.pairs_after;
                std::string stem = "fuzz_seed" + std::to_string(seed) + "_" + finding.check;
                std::replace(stem.begin(), stem.end(), '-', '_');
                const ReproducerPaths paths = writeReproducer(
                    opts.corpus_dir, stem, shrunk.netlist, shrunk.pairs, note.str());
                finding.bench_path = paths.bench;
                finding.pairs_path = paths.pairs;
            }
            rep.findings.push_back(std::move(finding));
            if (opts.stop_on_first) return rep;
        }
    }
    return rep;
}

} // namespace flh
