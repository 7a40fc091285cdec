// serve_mix: an in-process serve::Server (fresh cache directory, default
// workers) driven closed-loop over 4 loopback connections by a seeded mix:
// mostly flow requests whose cones were warmed during set-up, some flow
// requests with fresh ATPG seeds (cold atpg/fault_sim cones), some of those
// sent as the same request on two connections at once, fuzz and equiv
// requests with distinct seeds, and pings. serve, the flow cache and verify
// do the work.
//
// The mix is sent in rounds of a fixed request count; every round draws
// fresh cold seeds, so later rounds are no warmer than the first.
#include "bench.hpp"
#include "layers.hpp"

#include "dft/scan.hpp"
#include "flow/hash.hpp"
#include "flow/paper_flow.hpp"
#include "iscas/circuits.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"
#include "util/strings.hpp"
#include "verify/fuzz.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

namespace perfbench {

using namespace flh;
using flh::serve::RequestType;

namespace {

constexpr unsigned kConnections = 4;
constexpr std::uint64_t kWarmupRound = 1u << 20; ///< round ids of set-up rounds
/// Rounds after which rss_peak_mb is read. The process grows by about 80 KB
/// a round, so a peak read at the end of the run would follow the host's
/// speed rather than the program.
constexpr std::uint64_t kRssRounds = 30;

enum class Kind { WarmFlow, ColdFlow, Fuzz, Equiv, Ping, Bad };

const char* kindName(Kind k) {
    switch (k) {
        case Kind::WarmFlow: return "flow_warm";
        case Kind::ColdFlow: return "flow_cold";
        case Kind::Fuzz: return "fuzz";
        case Kind::Equiv: return "equiv";
        case Kind::Ping: return "ping";
        case Kind::Bad: return "bad";
    }
    return "?";
}

struct Req {
    Kind kind = Kind::Ping;
    RequestType type = RequestType::Ping;
    std::string params = "{}";
    std::string spec; ///< flow requests: the canonical params, for digest comparison
    bool twin = false; ///< second half of a concurrent duplicate pair
};

struct Outcome {
    double ms = 0.0;
    bool ok = false;
    bool coalesced = false;
    bool warm_hit = false; ///< flow: every stage a cache hit
    std::string digest;    ///< flow: deterministic content of the response
    std::string error;
};

std::string flowParams(const std::vector<std::string>& circuits, std::uint64_t atpg_seed) {
    std::string p = "{\"circuits\":[";
    for (std::size_t i = 0; i < circuits.size(); ++i)
        p += (i ? ",\"" : "\"") + circuits[i] + "\"";
    return p + "],\"atpg_seed\":" + std::to_string(atpg_seed) + "}";
}

/// The mix. Every round holds exactly these request counts, in an order
/// shuffled per round from the workload seed; the warm specs use the flow's
/// default ATPG seed, so set-up does the same work for every seed.
struct Mix {
    std::vector<std::vector<std::string>> warm_circuits;
    std::vector<std::string> warm_params;
    std::vector<std::string> cold_circuits;
    std::vector<std::string> equiv_circuits;
    int warm = 0, cold = 0, cold_pairs = 0, fuzz = 0, equiv = 0, ping = 0;

    [[nodiscard]] std::size_t roundSize() const {
        return static_cast<std::size_t>(warm + cold + 2 * cold_pairs + fuzz + equiv + ping);
    }
};

Mix makeMix(const Options& opt) {
    Mix m;
    if (opt.smoke) {
        m.warm_circuits = {{"s27"}, {"s298"}};
        m.cold_circuits = {"s27"};
        m.equiv_circuits = {"s27"};
        m.warm = 5, m.cold = 1, m.cold_pairs = 1, m.fuzz = 1, m.equiv = 1, m.ping = 2;
    } else {
        // 200 requests: 50% warm flow, 8% cold flow, 8% cold flow as 8
        // concurrent duplicate pairs, 10% fuzz, 10% equiv, 14% ping.
        m.warm_circuits = {{"s27"}, {"s298"}, {"s344"}, {"s386"}, {"s27", "s298"}, {"s510"}};
        m.cold_circuits = {"s298", "s344", "s386"};
        m.equiv_circuits = {"s27", "s298"};
        m.warm = 100, m.cold = 16, m.cold_pairs = 8, m.fuzz = 20, m.equiv = 20, m.ping = 28;
    }
    for (const auto& circuits : m.warm_circuits)
        m.warm_params.push_back(flowParams(circuits, PaperFlowConfig{}.atpg_seed));
    return m;
}

/// One round's requests. Cold flows, fuzz and equiv get seeds no other
/// request of the run uses; a duplicate pair is two adjacent requests, so
/// the shared cursor hands the second to the next connection that frees up
/// while the first is still being served.
std::vector<Req> makeRound(const Options& opt, const Mix& m, std::uint64_t round) {
    std::uint64_t n = 0;
    const auto fresh = [&] { return mix(mix(opt.seed, round), ++n) % 1000000000ULL; };
    std::vector<std::vector<Req>> slots;
    const auto add = [&](Kind kind, RequestType type, std::string params, bool pair) {
        Req r;
        r.kind = kind;
        r.type = type;
        r.params = std::move(params);
        if (type == RequestType::Flow) r.spec = r.params;
        std::vector<Req> slot{r};
        if (pair) {
            r.twin = true;
            slot.push_back(r);
        }
        slots.push_back(std::move(slot));
    };
    for (int i = 0; i < m.warm; ++i)
        add(Kind::WarmFlow, RequestType::Flow, m.warm_params[i % m.warm_params.size()], false);
    for (int i = 0; i < m.cold + m.cold_pairs; ++i)
        add(Kind::ColdFlow, RequestType::Flow,
            flowParams({m.cold_circuits[i % m.cold_circuits.size()]}, fresh()), i >= m.cold);
    for (int i = 0; i < m.fuzz; ++i)
        add(Kind::Fuzz, RequestType::Fuzz,
            "{\"start_seed\":" + std::to_string(fresh()) + ",\"seeds\":1}", false);
    for (int i = 0; i < m.equiv; ++i)
        add(Kind::Equiv, RequestType::Equiv,
            "{\"circuit\":\"" + m.equiv_circuits[i % m.equiv_circuits.size()] +
                "\",\"seed\":" + std::to_string(fresh()) + "}",
            false);
    for (int i = 0; i < m.ping; ++i) add(Kind::Ping, RequestType::Ping, "{}", false);
    if (opt.inject_bad && round == 0)
        add(Kind::Bad, RequestType::Flow, flowParams({"s99999"}, 11), false);

    Rng rng(mix(opt.seed, 0x5E00 + round));
    for (std::size_t i = slots.size(); i > 1; --i) std::swap(slots[i - 1], slots[rng.below(i)]);
    std::vector<Req> out;
    for (std::vector<Req>& slot : slots)
        for (Req& r : slot) out.push_back(std::move(r));
    return out;
}

/// The deterministic part of a flow response: circuits and, per record,
/// design/stage/failed. Timing and cache verdicts are left out.
std::string flowDigest(const JsonValue& result) {
    std::string s;
    for (const JsonValue& c : result.at("circuits").arr) s += c.str + ",";
    for (const JsonValue& r : result.at("records").arr)
        s += "|" + r.at("design").str + "/" + r.at("stage").str + (r.at("failed").b ? "!" : "");
    return contentHash(s).hex();
}

/// Send one request and judge its response.
Outcome roundTrip(const net::Socket& sock, std::uint64_t id, const Req& r) {
    Outcome o;
    serve::Request req;
    req.id = id;
    req.type = r.type;
    req.params_json = r.params;
    const Clock::time_point t0 = Clock::now();
    std::optional<std::string> raw;
    traced("serve", serve::toString(r.type), [&] {
        if (net::writeFrame(sock, req.toJson())) raw = net::readFrame(sock);
    });
    o.ms = msSince(t0);
    if (!raw) {
        o.error = "connection closed";
        return o;
    }
    const serve::ParsedResponse resp = serve::parseResponse(*raw);
    o.coalesced = resp.coalesced;
    if (resp.id != id) {
        o.error = "response id " + std::to_string(resp.id) + " for request " + std::to_string(id);
        return o;
    }
    if (!resp.ok) {
        o.error = resp.error.code + ": " + resp.error.message;
        return o;
    }
    switch (r.type) {
        case RequestType::Flow: {
            if (resp.result.at("failures").num != 0) {
                o.error = "flow reported failed stages";
                return o;
            }
            o.digest = flowDigest(resp.result);
            o.warm_hit = resp.result.at("misses").num == 0;
            break;
        }
        case RequestType::Fuzz:
            if (!resp.result.at("ok").b || !resp.result.at("findings").arr.empty()) {
                o.error = "fuzz findings for " + r.params;
                return o;
            }
            break;
        case RequestType::Equiv:
            if (!resp.result.at("equivalent").b) {
                o.error = "not equivalent: " + r.params;
                return o;
            }
            break;
        default:
            break;
    }
    o.ok = true;
    return o;
}

/// Requests with their outcomes, index-aligned.
struct Batch {
    std::vector<Req> reqs;
    std::vector<Outcome> outs;

    explicit Batch(std::vector<Req> r) : reqs(std::move(r)), outs(reqs.size()) {}
};

/// The client: kConnections persistent connections, each sending its next
/// request only after the previous reply (closed loop). A shared cursor
/// deals the requests out, so a duplicate pair's second half goes to the
/// next connection that frees up while the first is still being served.
class Client {
public:
    explicit Client(const net::Endpoint& ep) {
        for (unsigned i = 0; i < kConnections; ++i) socks_.push_back(net::connectTo(ep));
    }

    /// Send every request of `b` and fill in its outcomes.
    void run(Batch& b) {
        std::size_t cursor = 0;
        std::mutex mu;
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < kConnections; ++c) {
            threads.emplace_back([&, c] {
                for (;;) {
                    std::size_t i;
                    {
                        std::lock_guard<std::mutex> lock(mu);
                        if (cursor == b.reqs.size()) return;
                        i = cursor++;
                    }
                    try {
                        b.outs[i] = roundTrip(socks_[c], ++ids_[c] * kConnections + c, b.reqs[i]);
                    } catch (const std::exception& e) {
                        b.outs[i].error = e.what();
                    }
                }
            });
        }
        for (std::thread& t : threads) t.join();
    }

private:
    std::vector<net::Socket> socks_;
    std::uint64_t ids_[kConnections] = {};
};

/// A server with a fresh cache directory whose warm specs have been sent
/// once each over the wire.
struct Deployment {
    std::unique_ptr<serve::Server> server;
    std::unique_ptr<Client> client;
    std::string cache_dir;
};

Deployment deploy(const Options& opt, const Mix& m, int index) {
    Deployment d;
    d.cache_dir = opt.out_dir + "/serve_cache_" + std::to_string(index);
    std::filesystem::remove_all(d.cache_dir);
    serve::ServeOptions so;
    so.endpoint = net::Endpoint::tcpAt(0);
    so.flow.cache.dir = d.cache_dir;
    d.server = std::make_unique<serve::Server>(so);
    d.server->start();
    d.client = std::make_unique<Client>(d.server->boundEndpoint());
    std::vector<Req> warm_reqs;
    for (const std::string& p : m.warm_params) {
        Req r;
        r.kind = Kind::WarmFlow;
        r.type = RequestType::Flow;
        r.params = p;
        warm_reqs.push_back(r);
    }
    Batch warm(std::move(warm_reqs));
    // Then one untimed round of the mix (seeds no measured round uses): the
    // first round after start runs slower than later ones (about 1.7x on a
    // 4-vCPU Xeon guest).
    Batch first(makeRound(opt, m, kWarmupRound + index));
    for (Batch* b : {&warm, &first}) {
        d.client->run(*b);
        for (const Outcome& o : b->outs)
            if (!o.ok) throw std::runtime_error("set-up request failed: " + o.error);
    }
    return d;
}

void shutDown(Deployment& d) {
    d.client.reset();
    if (d.server) d.server->stop();
    d.server.reset();
    if (!d.cache_dir.empty()) std::filesystem::remove_all(d.cache_dir);
}

JsonValue latencySection(serve::Server& server) {
    net::Socket s = net::connectTo(server.boundEndpoint());
    serve::Request req;
    req.id = 1;
    req.type = RequestType::Metrics;
    if (!net::writeFrame(s, req.toJson())) throw std::runtime_error("metrics request failed");
    const std::optional<std::string> raw = net::readFrame(s);
    if (!raw) throw std::runtime_error("metrics request got no reply");
    const serve::ParsedResponse resp = serve::parseResponse(*raw);
    if (!resp.ok) throw std::runtime_error("metrics request: " + resp.error.message);
    return resp.result.at("latency");
}

/// Tally of every round's outcomes plus the correctness checks.
struct Tally {
    std::map<Kind, std::vector<double>> ms;
    std::vector<double> all_ms;
    std::map<std::string, std::string> spec_digest; ///< first digest per flow spec
    std::vector<std::string> cold_specs;
    std::size_t ok = 0, warm = 0, warm_hits = 0, twins = 0, twins_coalesced = 0;

    /// Judge every request of `b`.
    void add(const Batch& b, Result& res) {
        const std::vector<Outcome>& out = b.outs;
        for (std::size_t i = 0; i < out.size(); ++i) {
            const Req& r = b.reqs[i];
            const Outcome& o = out[i];
            bool good = o.ok;
            std::string why = std::string(kindName(r.kind)) + " " + r.params + ": " + o.error;
            if (good && r.type == RequestType::Flow) {
                const auto [it, fresh] = spec_digest.emplace(r.spec, o.digest);
                if (fresh && r.kind == Kind::ColdFlow) cold_specs.push_back(r.spec);
                if (it->second != o.digest) {
                    good = false;
                    why = "flow " + r.spec + ": response differs from an earlier repeat";
                }
            }
            res.check(good, why);
            if (!good) continue;
            ++ok;
            ms[r.kind].push_back(o.ms);
            all_ms.push_back(o.ms);
            if (r.kind == Kind::WarmFlow) {
                ++warm;
                warm_hits += o.warm_hit ? 1 : 0;
            }
            if (r.twin) {
                ++twins;
                twins_coalesced += (o.coalesced || out[i - 1].coalesced) ? 1 : 0;
            }
        }
    }
};

/// Recompute flow specs cold through a cache-less FlowService and compare
/// with what the server's cache now replays for the same specs.
void checkCachedReports(serve::Server& server, const std::vector<std::string>& specs,
                        Result& res, double* coverage) {
    FlowServiceOptions ref_opts;
    ref_opts.cache.enabled = false;
    FlowService reference(ref_opts);
    double cov_sum = 0;
    std::size_t cov_n = 0;
    for (const std::string& spec_json : specs) {
        const JsonValue p = parseJson(spec_json);
        FlowJobSpec spec;
        for (const JsonValue& c : p.at("circuits").arr) spec.circuits.push_back(c.str);
        spec.cfg.atpg_seed = static_cast<std::uint64_t>(p.at("atpg_seed").num);
        const RunReport cached = server.flowService().run(spec);
        const RunReport cold = reference.run(spec);
        res.check(cached.reportJson() == cold.reportJson(),
                  "flow " + spec_json + ": cached report differs from a cold recompute");
        for (const StageRecord& rec : cached.records()) {
            if (rec.stage != "fault_sim" || rec.failed) continue;
            cov_sum += rec.artifact.num("coverage_pct");
            ++cov_n;
        }
    }
    if (coverage) *coverage = cov_n ? cov_sum / static_cast<double>(cov_n) : 0.0;
}

/// Direct calls into verify with the server's fuzz/equiv settings.
void verifyProbe(const Options& opt, const Mix& m, Result& res) {
    std::vector<double> fuzz_ms, equiv_ms;
    const int n = opt.smoke ? 2 : 12;
    for (int i = 0; i < n; ++i) {
        FuzzOptions fo;
        fo.start_seed = mix(opt.seed, 0xF000 + i) % 1000000000ULL;
        fo.seeds = 1;
        fo.random_pairs = 4;
        fo.atpg_pairs = 2;
        fo.stuck_patterns = 8;
        fo.max_faults = 48;
        fo.thread_counts = {1};
        fo.word_widths = {1, 4};
        fo.shrink = false;
        fo.stop_on_first = false;
        const Clock::time_point t0 = Clock::now();
        const FuzzReport rep = traced("verify", "fuzz", [&] { return runFuzz(fo); });
        fuzz_ms.push_back(msSince(t0));
        res.check(rep.ok(), "verify probe: fuzz findings at seed " + std::to_string(fo.start_seed));

        const std::string& circuit = m.equiv_circuits[i % m.equiv_circuits.size()];
        const Clock::time_point t1 = Clock::now();
        const EquivalenceReport eq = traced("verify", "equiv", [&] {
            Netlist nl = makeCircuit(circuit, library());
            insertScan(nl);
            const auto pairs = makeEquivalencePairs(nl, 8, 4, mix(opt.seed, 0xE000 + i));
            return checkDftEquivalence(nl, pairs);
        });
        equiv_ms.push_back(msSince(t1));
        res.check(eq.ok(), "verify probe: " + circuit + " not equivalent");
    }
    res.set("verify.fuzz_ms.p50", percentile(fuzz_ms, 0.5), "ms");
    res.set("verify.fuzz_ms.p99", percentile(fuzz_ms, 0.99), "ms");
    res.set("verify.equiv_ms.p50", percentile(equiv_ms, 0.5), "ms");
    res.set("verify.equiv_ms.p99", percentile(equiv_ms, 0.99), "ms");
}

void layerMetrics(serve::Server& server, const Tally& t, Result& res) {
    const JsonValue lat = latencySection(server);
    for (const char* type : {"flow", "fuzz", "equiv"}) {
        for (const char* part : {"queue_ms", "service_ms"}) {
            for (const char* q : {"p50", "p99"}) {
                double v = 0;
                if (lat.has(type) && lat.at(type).has(part)) v = lat.at(type).at(part).at(q).num;
                res.set(std::string("serve.") + part + "." + type + "." + q, v, "ms");
            }
        }
    }
    const serve::StatsSnapshot st = server.stats();
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    res.set("serve.coalesced_ratio",
            ratio(static_cast<double>(st.coalesced), static_cast<double>(st.completed)), "ratio");
    double flows = 0;
    for (const auto& [k, v] : t.ms)
        if (k == Kind::WarmFlow || k == Kind::ColdFlow) flows += static_cast<double>(v.size());
    res.set("serve.batched_ratio", ratio(static_cast<double>(st.batched), flows), "ratio");
    res.set("serve.rejected",
            static_cast<double>(st.rejected_overload + st.rejected_deadline + st.rejected_shutdown),
            "count");
    const auto kindMs = [&](Kind k) {
        const auto it = t.ms.find(k);
        return it == t.ms.end() ? std::vector<double>{} : it->second;
    };
    res.set("serve.flow_warm_ms.p50", percentile(kindMs(Kind::WarmFlow), 0.5), "ms");
    res.set("serve.flow_warm_ms.p99", percentile(kindMs(Kind::WarmFlow), 0.99), "ms");
    res.set("serve.flow_cold_ms.p50", percentile(kindMs(Kind::ColdFlow), 0.5), "ms");
    res.set("serve.flow_cold_ms.p99", percentile(kindMs(Kind::ColdFlow), 0.99), "ms");
    res.set("serve.ping_ms.p50", percentile(kindMs(Kind::Ping), 0.5), "ms");
    res.set("serve.warm_hit_share", ratio(static_cast<double>(t.warm_hits), t.warm), "ratio");
    res.set("serve.dup_coalesced_share",
            ratio(static_cast<double>(t.twins_coalesced), static_cast<double>(t.twins)), "ratio");
    if (const std::shared_ptr<FlowCache>& c = server.flowService().cache()) {
        const CacheStats cs = c->stats();
        res.set("flow.cache.hit_ratio",
                ratio(static_cast<double>(cs.hits), static_cast<double>(cs.hits + cs.misses)),
                "ratio");
        res.set("flow.cache.misses", static_cast<double>(cs.misses), "count");
    }
}

} // namespace

Result runServeMix(const Options& opt) {
    Result res;
    const Mix m = makeMix(opt);

    // Set-up: server start + cache warm-up, three times on fresh cache
    // directories; the last deployment serves the measured rounds.
    std::vector<double> setup_s;
    Deployment dep;
    for (int i = 0; i < 3; ++i) {
        shutDown(dep);
        const double c0 = cpuSeconds();
        dep = deploy(opt, m, i);
        setup_s.push_back(cpuSeconds() - c0);
    }
    res.set("setup_s", median(setup_s), "s");

    Tally tally;
    double cpu_s = 0.0, rps = 0.0;
    if (opt.trace) {
        // One untraced and one traced round of the mix.
        obs::reset();
        double walls[2] = {};
        for (int i = 0; i < 2; ++i) {
            Batch b(makeRound(opt, m, static_cast<std::uint64_t>(i)));
            obs::setEnabled(i == 1);
            const Clock::time_point t0 = Clock::now();
            if (i == 1)
                traced("bench", "pass", [&] { dep.client->run(b); });
            else
                dep.client->run(b);
            walls[i] = secondsSince(t0);
            tally.add(b, res);
        }
        traced("verify", "probe", [&] { verifyProbe(opt, m, res); });
        obs::setEnabled(false);
        std::ofstream f(opt.out_dir + "/trace.json", std::ios::binary);
        f << obs::traceJson();
        res.set("trace.untraced_wall_ms", 1000.0 * walls[0], "ms");
        res.set("trace.traced_wall_ms", 1000.0 * walls[1], "ms");
        layerMetrics(*dep.server, tally, res);
        rps = static_cast<double>(tally.ok) / (walls[0] + walls[1]);
    } else {
        // Rounds of the mix, one after another, until `seconds` have passed;
        // cpu_s is the median CPU time the process (server and client)
        // spends on a round. The idle tail of a round, while its last
        // requests finish, costs no CPU; only the round in flight is kept.
        std::vector<double> round_cpu;
        double rss_mb = 0.0;
        const Clock::time_point t0 = Clock::now();
        for (std::uint64_t round = 0; round == 0 || secondsSince(t0) < opt.seconds; ++round) {
            Batch b(makeRound(opt, m, round));
            const double c0 = cpuSeconds();
            dep.client->run(b);
            round_cpu.push_back(cpuSeconds() - c0);
            tally.add(b, res);
            if (round + 1 <= kRssRounds) rss_mb = rssPeakMb();
        }
        res.set("rss_peak_mb", rss_mb, "MB");
        cpu_s = median(round_cpu);
        rps = static_cast<double>(tally.ok) / secondsSince(t0);
    }

    // Correctness of what the cache serves: every warm spec and a few cold
    // ones, against a cache-less recompute.
    double coverage = 0;
    checkCachedReports(*dep.server, m.warm_params, res, &coverage);
    const std::size_t n_cold = std::min<std::size_t>(tally.cold_specs.size(), 4);
    checkCachedReports(*dep.server, {tally.cold_specs.begin(), tally.cold_specs.begin() + n_cold},
                       res, nullptr);
    shutDown(dep);

    res.set("cpu_s", cpu_s, "s");
    res.set("result_pct", coverage, "%");
    const std::string samples = std::to_string(tally.all_ms.size()) + " samples";
    res.report("serve_cpu_s", cpu_s, "s",
               "process CPU per round of " + std::to_string(m.roundSize()) + " requests, median");
    res.report("serve_rps", rps, "1/s", "completed-ok requests per second");
    res.report("serve_p50_ms", percentile(tally.all_ms, 0.5), "ms", samples);
    res.report("serve_p99_ms", percentile(tally.all_ms, 0.99), "ms", samples);
    res.notes.push_back("warm-hit share " + std::to_string(tally.warm_hits) + "/" +
                        std::to_string(tally.warm) + ", concurrent duplicates coalesced " +
                        std::to_string(tally.twins_coalesced) + "/" +
                        std::to_string(tally.twins));
    return res;
}

} // namespace perfbench
