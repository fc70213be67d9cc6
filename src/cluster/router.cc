#include "cluster/router.hh"

#include <utility>

#include "common/logging.hh"

namespace moentwine {

std::string
routerPolicyName(RouterPolicy policy)
{
    switch (policy) {
    case RouterPolicy::RoundRobin:
        return "round_robin";
    case RouterPolicy::LeastKvPressure:
        return "least_kv";
    case RouterPolicy::LeastQueueDepth:
        return "least_queue";
    case RouterPolicy::PowerOfTwo:
        return "power_of_two";
    case RouterPolicy::ScenarioAffinity:
        return "scenario_affinity";
    }
    panic("unknown router policy");
}

const std::vector<RouterPolicy> &
allRouterPolicies()
{
    static const std::vector<RouterPolicy> policies = {
        RouterPolicy::RoundRobin,
        RouterPolicy::LeastKvPressure,
        RouterPolicy::LeastQueueDepth,
        RouterPolicy::PowerOfTwo,
        RouterPolicy::ScenarioAffinity,
    };
    return policies;
}

namespace {

/** True when @p p may receive @p r at all. */
bool
eligible(const ReplicaPressure &p, const ServeRequest &r)
{
    return p.routable && r.kvTokens() <= p.kvBudgetTokens;
}

/**
 * The less loaded of two candidates: fewer outstanding requests, ties
 * to the lower KV fraction, then to the lower replica id.
 */
const ReplicaPressure &
lessLoaded(const ReplicaPressure &a, const ReplicaPressure &b)
{
    if (a.outstanding() != b.outstanding())
        return a.outstanding() < b.outstanding() ? a : b;
    if (a.kvFraction != b.kvFraction)
        return a.kvFraction < b.kvFraction ? a : b;
    return a.replica <= b.replica ? a : b;
}

/**
 * The eligible replica with the smallest @p key (a lexicographic
 * pair); the first one wins strict ties. -1 when none is eligible.
 */
template <typename Key>
int
leastBy(const ServeRequest &r, const std::vector<ReplicaPressure> &pressures,
        Key key)
{
    const ReplicaPressure *best = nullptr;
    for (const ReplicaPressure &p : pressures) {
        if (eligible(p, r) && (best == nullptr || key(p) < key(*best)))
            best = &p;
    }
    return best == nullptr ? -1 : best->replica;
}

} // namespace

RequestRouter::RequestRouter(RouterPolicy policy, std::uint64_t seed)
    : policy_(policy), rng_(seed)
{
}

int
RequestRouter::route(const ServeRequest &r,
                     const std::vector<ReplicaPressure> &pressures)
{
    const std::size_t n = pressures.size();
    MOE_ASSERT(n > 0, "route() over an empty fleet");

    switch (policy_) {
    case RouterPolicy::RoundRobin: {
        // Cyclic scan from the cursor; the cursor advances past the
        // pick so ineligible replicas are skipped, not starved around.
        for (std::size_t step = 0; step < n; ++step) {
            const std::size_t i = (rrCursor_ + step) % n;
            if (eligible(pressures[i], r)) {
                rrCursor_ = (i + 1) % n;
                return pressures[i].replica;
            }
        }
        return -1;
    }
    case RouterPolicy::LeastKvPressure:
        return leastBy(r, pressures, [](const ReplicaPressure &p) {
            return std::make_pair(p.kvFraction, p.queueDepth);
        });
    case RouterPolicy::LeastQueueDepth:
        return leastBy(r, pressures, [](const ReplicaPressure &p) {
            return std::make_pair(p.queueDepth, p.kvFraction);
        });
    case RouterPolicy::PowerOfTwo: {
        std::vector<const ReplicaPressure *> candidates;
        candidates.reserve(n);
        for (const ReplicaPressure &p : pressures) {
            if (eligible(p, r))
                candidates.push_back(&p);
        }
        if (candidates.empty())
            return -1;
        if (candidates.size() == 1)
            return candidates.front()->replica;
        // Two distinct uniform draws (the second skips the first), then
        // the classic power-of-two-choices pick of the less loaded.
        const std::size_t a = static_cast<std::size_t>(
            rng_.below(candidates.size()));
        std::size_t b = static_cast<std::size_t>(
            rng_.below(candidates.size() - 1));
        if (b >= a)
            ++b;
        return lessLoaded(*candidates[a], *candidates[b]).replica;
    }
    case RouterPolicy::ScenarioAffinity: {
        // The scenario hashes to a home replica; unroutable homes
        // probe linearly upward so a drained home degrades gracefully
        // to its neighbour instead of dropping the scenario.
        const std::size_t home =
            static_cast<std::size_t>(r.scenario) % n;
        for (std::size_t step = 0; step < n; ++step) {
            const std::size_t i = (home + step) % n;
            if (eligible(pressures[i], r))
                return pressures[i].replica;
        }
        return -1;
    }
    }
    panic("unknown router policy");
}

} // namespace moentwine
