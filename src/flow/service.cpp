#include "flow/service.hpp"

#include "flow/cache.hpp"
#include "util/json.hpp"

namespace flh {

namespace {

/// Canonical config serialization — every cache-relevant PaperFlowConfig
/// field, in declaration order.
std::string configKey(const PaperFlowConfig& cfg) {
    return "pairs=" + std::to_string(cfg.random_pairs) +
           ";atpg_seed=" + std::to_string(cfg.atpg_seed) +
           ";power_vectors=" + std::to_string(cfg.power_vectors) +
           ";power_seed=" + std::to_string(cfg.power_seed);
}

} // namespace

FlowService::FlowService(FlowServiceOptions opts) : opts_(std::move(opts)) {
    if (opts_.cache.enabled) cache_ = std::make_shared<FlowCache>(opts_.cache);
}

std::shared_ptr<const FlowGraph> FlowService::graphFor(const PaperFlowConfig& cfg) {
    const std::string key = configKey(cfg);
    std::lock_guard<std::mutex> lock(mu_);
    auto it = graphs_.find(key);
    if (it == graphs_.end())
        it = graphs_.emplace(key, std::make_shared<FlowGraph>(buildPaperFlow(cfg))).first;
    return it->second;
}

DesignInput FlowService::designFor(const std::string& circuit) {
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = designs_.find(circuit);
        if (it != designs_.end()) return it->second;
    }
    // Resolve outside the lock: registry circuits synthesize a netlist and
    // .bench paths hit the disk — neither belongs under a shared mutex.
    // A racing resolver for the same circuit does redundant work once;
    // both arrive at the identical DesignInput (resolution is pure).
    DesignInput d = designInputFor(circuit);
    std::lock_guard<std::mutex> lock(mu_);
    designs_.emplace(circuit, d);
    return d;
}

RunReport FlowService::run(const FlowJobSpec& spec) {
    std::vector<DesignInput> designs;
    designs.reserve(spec.circuits.size());
    for (const std::string& c : spec.circuits) designs.push_back(designFor(c));

    const std::shared_ptr<const FlowGraph> graph = graphFor(spec.cfg);

    FlowOptions fopts;
    fopts.threads = spec.threads;
    fopts.sim_threads = opts_.sim_threads;
    fopts.cache = opts_.cache;
    fopts.cache_handle = cache_; // one warm handle across all cones
    return runFlow(*graph, designs, fopts);
}

std::size_t FlowService::designMemoSize() const {
    std::lock_guard<std::mutex> lock(mu_);
    return designs_.size();
}

std::size_t FlowService::graphMemoSize() const {
    std::lock_guard<std::mutex> lock(mu_);
    return graphs_.size();
}

} // namespace flh
