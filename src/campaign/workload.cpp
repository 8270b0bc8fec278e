#include "campaign/workload.hpp"

#include <stdexcept>

namespace dlb::campaign {

namespace {

/// Per-(seed, round) generator; all workload models draw
/// node-independently, so the node slot is 0.
counter_rng round_rng(std::uint64_t seed, std::int64_t round)
{
    return counter_rng(seed, 0, static_cast<std::uint64_t>(round));
}

class poisson_workload final : public workload_hook {
public:
    poisson_workload(node_id nodes, double rate, std::uint64_t seed)
        : nodes_(nodes), rate_(rate), seed_(seed)
    {
    }

    bool apply(std::int64_t round, std::span<const double>,
               std::span<std::int64_t> delta) override
    {
        counter_rng rng = round_rng(seed_, round);
        const std::int64_t arrivals = poisson_sample(rng, rate_);
        for (std::int64_t i = 0; i < arrivals; ++i)
            ++delta[rng.next_below(static_cast<std::uint64_t>(nodes_))];
        return arrivals > 0;
    }

private:
    node_id nodes_;
    double rate_;
    std::uint64_t seed_;
};

class burst_workload final : public workload_hook {
public:
    burst_workload(node_id nodes, std::int64_t amount, std::int64_t period,
                   std::uint64_t seed)
        : nodes_(nodes), amount_(amount), period_(period), seed_(seed)
    {
    }

    bool apply(std::int64_t round, std::span<const double>,
               std::span<std::int64_t> delta) override
    {
        // Skip round 0 (0 % period == 0 would fire before the scheme has
        // run a single round); the first burst lands at round `period`.
        if (round == 0 || round % period_ != 0) return false;
        counter_rng rng = round_rng(seed_, round);
        delta[rng.next_below(static_cast<std::uint64_t>(nodes_))] += amount_;
        return amount_ != 0;
    }

private:
    node_id nodes_;
    std::int64_t amount_;
    std::int64_t period_;
    std::uint64_t seed_;
};

class drain_workload final : public workload_hook {
public:
    drain_workload(node_id nodes, double rate, std::uint64_t seed)
        : nodes_(nodes), rate_(rate), seed_(seed)
    {
    }

    bool apply(std::int64_t round, std::span<const double> load,
               std::span<std::int64_t> delta) override
    {
        counter_rng rng = round_rng(seed_, round);
        const std::int64_t attempts = poisson_sample(rng, rate_);
        bool any = false;
        for (std::int64_t i = 0; i < attempts; ++i) {
            const auto v = rng.next_below(static_cast<std::uint64_t>(nodes_));
            // Skip empty nodes so draining never creates negative load.
            if (load[v] + static_cast<double>(delta[v]) >= 1.0) {
                --delta[v];
                any = true;
            }
        }
        return any;
    }

private:
    node_id nodes_;
    double rate_;
    std::uint64_t seed_;
};

} // namespace

const std::vector<std::string>& workload_names()
{
    static const std::vector<std::string> names = {"static", "poisson", "burst",
                                                   "drain"};
    return names;
}

std::unique_ptr<workload_hook> make_workload(const workload_spec& spec,
                                             node_id nodes, std::uint64_t seed)
{
    if (nodes <= 0) throw std::invalid_argument("workload: empty graph");
    if (spec.kind == "static") return nullptr;
    if (spec.kind == "poisson") {
        if (spec.rate < 0.0)
            throw std::invalid_argument("workload poisson: negative rate");
        return std::make_unique<poisson_workload>(nodes, spec.rate, seed);
    }
    if (spec.kind == "burst") {
        if (spec.period < 1)
            throw std::invalid_argument("workload burst: period must be >= 1");
        if (spec.amount < 0)
            throw std::invalid_argument("workload burst: negative amount");
        return std::make_unique<burst_workload>(nodes, spec.amount, spec.period,
                                                seed);
    }
    if (spec.kind == "drain") {
        if (spec.rate < 0.0)
            throw std::invalid_argument("workload drain: negative rate");
        return std::make_unique<drain_workload>(nodes, spec.rate, seed);
    }
    throw std::invalid_argument("unknown workload kind '" + spec.kind + "'");
}

} // namespace dlb::campaign
