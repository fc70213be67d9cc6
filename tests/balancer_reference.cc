#include "balancer_reference.hh"

#include <algorithm>
#include <limits>
#include <set>
#include <utility>

#include "common/logging.hh"
#include "common/rng.hh"

namespace moentwine {
namespace reference {

std::vector<double>
shapedLoads(LoadShape shape, int experts, std::uint64_t seed)
{
    std::vector<double> loads(static_cast<std::size_t>(experts), 0.0);
    Rng rng(seed);
    switch (shape) {
      case LoadShape::Zipf: {
        const auto rank = rng.permutation(loads.size());
        for (std::size_t i = 0; i < loads.size(); ++i)
            loads[rank[i]] = 1000.0 / static_cast<double>(i + 1);
        break;
      }
      case LoadShape::Uniform:
        std::fill(loads.begin(), loads.end(), 10.0);
        break;
      case LoadShape::Zero:
        break;
      case LoadShape::Ties:
        for (double &l : loads)
            l = 100.0 * static_cast<double>(1 + rng.below(3));
        break;
    }
    return loads;
}

namespace {

/** Destination/source policy for the shared replication loop. */
struct ReplicationPolicy
{
    /** Pick the destination among cold candidate devices. */
    DeviceId (*chooseDst)(const Topology *topo,
                          const ExpertPlacement &placement,
                          const std::vector<double> &heats,
                          const std::vector<DeviceId> &candidates,
                          int expert);
    /** Pick the replica the weights are copied from. */
    DeviceId (*chooseSrc)(const Topology *topo,
                          const std::vector<DeviceId> &replicas,
                          DeviceId dst);
};

/**
 * Algorithm 1's core loop: repeatedly replicate the most loaded expert
 * of the hottest device onto a colder device until no improvement is
 * possible. Returns the (expert, dst) additions in order.
 */
std::vector<std::pair<int, DeviceId>>
replicationLoop(const std::vector<double> &loads,
                ExpertPlacement &placement, const Topology *topo,
                const ReplicationPolicy &policy)
{
    std::vector<std::pair<int, DeviceId>> added;
    const int maxAdds = placement.numDevices() * placement.shadowSlots();

    // Heats computed once, then kept current by the same per-addition
    // arithmetic as the production HeatIndex (no trees: every query
    // below is a full scan).
    std::vector<double> heats = deviceHeats(placement, loads);
    for (int round = 0; round < maxAdds; ++round) {
        const auto hottest = static_cast<DeviceId>(
            std::max_element(heats.begin(), heats.end()) - heats.begin());

        // Most loaded per-replica share on the hottest device.
        int srcExpert = -1;
        double share = 0.0;
        for (const int e : placement.expertsOn(hottest)) {
            const double s = loads[static_cast<std::size_t>(e)] /
                placement.numReplicas(e);
            if (s > share) {
                share = s;
                srcExpert = e;
            }
        }
        if (srcExpert < 0 || share <= 0.0)
            break; // nothing worth replicating

        // Cold set (paper line 5): devices whose heat would stay below
        // the current peak after hosting one more replica share, with a
        // free slot and no existing replica.
        const double newShare = loads[static_cast<std::size_t>(
                                    srcExpert)] /
            (placement.numReplicas(srcExpert) + 1);
        std::vector<DeviceId> cold;
        for (DeviceId d = 0; d < placement.numDevices(); ++d) {
            if (d == hottest || placement.freeSlots(d) <= 0 ||
                placement.hosts(d, srcExpert)) {
                continue;
            }
            if (heats[static_cast<std::size_t>(d)] + newShare <
                heats[static_cast<std::size_t>(hottest)]) {
                cold.push_back(d);
            }
        }
        if (cold.empty())
            break; // line 6: no capable destination remains

        const DeviceId dst =
            policy.chooseDst(topo, placement, heats, cold, srcExpert);
        // Existing replicas cool from L/n to L/(n+1); dst gains the
        // new share.
        const double load = loads[static_cast<std::size_t>(srcExpert)];
        const auto n = static_cast<double>(placement.numReplicas(srcExpert));
        for (const DeviceId r : placement.replicasOf(srcExpert))
            heats[static_cast<std::size_t>(r)] -= load / n - newShare;
        heats[static_cast<std::size_t>(dst)] += newShare;
        placement.addReplica(srcExpert, dst);
        added.emplace_back(srcExpert, dst);
    }
    return added;
}

DeviceId
coldestDst(const Topology *, const ExpertPlacement &,
           const std::vector<double> &heats,
           const std::vector<DeviceId> &candidates, int)
{
    DeviceId best = candidates.front();
    for (const DeviceId d : candidates) {
        if (heats[static_cast<std::size_t>(d)] <
            heats[static_cast<std::size_t>(best)]) {
            best = d;
        }
    }
    return best;
}

DeviceId
nearestDst(const Topology *topo, const ExpertPlacement &placement,
           const std::vector<double> &heats,
           const std::vector<DeviceId> &candidates, int expert)
{
    DeviceId best = candidates.front();
    int bestHops = std::numeric_limits<int>::max();
    for (const DeviceId d : candidates) {
        int h = std::numeric_limits<int>::max();
        for (const DeviceId r : placement.replicasOf(expert))
            h = std::min(h, topo->hops(r, d));
        if (h < bestHops ||
            (h == bestHops && heats[static_cast<std::size_t>(d)] <
                                  heats[static_cast<std::size_t>(best)])) {
            bestHops = h;
            best = d;
        }
    }
    return best;
}

DeviceId
firstReplicaSrc(const Topology *, const std::vector<DeviceId> &replicas,
                DeviceId)
{
    return replicas.front();
}

DeviceId
nearestReplicaSrc(const Topology *topo,
                  const std::vector<DeviceId> &replicas, DeviceId dst)
{
    DeviceId best = replicas.front();
    int bestHops = std::numeric_limits<int>::max();
    for (const DeviceId r : replicas) {
        const int h = topo->hops(r, dst);
        if (h < bestHops) {
            bestHops = h;
            best = r;
        }
    }
    return best;
}

/**
 * Shared rebalance driver: rebuild the target from native, run the
 * loop, and diff against the previous replica set to derive the weight
 * copies actually required.
 */
std::vector<MigrationStep>
rebalanceWith(const std::vector<double> &loads, ExpertPlacement &placement,
              const Topology *topo, const ReplicationPolicy &policy)
{
    std::set<std::pair<int, DeviceId>> before;
    for (int e = 0; e < placement.numExperts(); ++e)
        for (const DeviceId d : placement.replicasOf(e))
            before.emplace(e, d);

    placement.resetToNative();
    const auto added = replicationLoop(loads, placement, topo, policy);

    std::vector<MigrationStep> steps;
    for (const auto &[expert, dst] : added) {
        if (before.count({expert, dst}))
            continue;
        std::vector<DeviceId> holders;
        for (const auto &[e, d] : before)
            if (e == expert)
                holders.push_back(d);
        MOE_ASSERT(!holders.empty(), "expert with no prior replica");
        const DeviceId src = policy.chooseSrc(topo, holders, dst);
        steps.push_back(MigrationStep{expert, src, dst});
    }
    return steps;
}

} // namespace

std::vector<MigrationStep>
greedyRebalance(const std::vector<double> &loads,
                ExpertPlacement &placement)
{
    const ReplicationPolicy policy{coldestDst, firstReplicaSrc};
    return rebalanceWith(loads, placement, nullptr, policy);
}

std::vector<MigrationStep>
topologyAwareRebalance(const Topology &topo,
                       const std::vector<double> &loads,
                       ExpertPlacement &placement)
{
    const ReplicationPolicy policy{nearestDst, nearestReplicaSrc};
    return rebalanceWith(loads, placement, &topo, policy);
}

NiBalancer::NiBalancer(const Mapping &mapping, double expertBytes)
    : mapping_(mapping), expertBytes_(expertBytes)
{
}

int
NiBalancer::plan(const std::vector<double> &expertLoads,
                 ExpertPlacement &placement)
{
    ExpertPlacement target = placement;
    const auto steps =
        topologyAwareRebalance(mapping_.topology(), expertLoads, target);

    placement = target;
    int enqueued = 0;
    for (const MigrationStep &step : steps) {
        const bool alreadyPending = std::any_of(
            pending_.begin(), pending_.end(), [&](const Pending &p) {
                return p.step.expert == step.expert &&
                       p.step.dstDevice == step.dstDevice;
            });
        if (alreadyPending) {
            placement.removeReplica(step.expert, step.dstDevice);
            continue;
        }
        placement.removeReplica(step.expert, step.dstDevice);
        Pending p;
        p.step = step;
        p.segments = decompose(step.srcDevice, step.dstDevice);
        MOE_ASSERT(!p.segments.empty(),
                   "migration between co-located replicas");
        p.delivered.assign(p.segments.size(), 0.0);
        pending_.push_back(std::move(p));
        ++enqueued;
    }
    return enqueued;
}

std::vector<NiBalancer::Segment>
NiBalancer::decompose(DeviceId src, DeviceId dst) const
{
    std::vector<Segment> segments;
    const auto &links = mapping_.topology().links();
    const int devices = mapping_.numDevices();
    const bool flowLocal = mapping_.ftdOf(src) == mapping_.ftdOf(dst);
    for (const LinkId l : mapping_.topology().walk(src, dst)) {
        const Link &link = links[static_cast<std::size_t>(l)];
        bool local = flowLocal;
        if (link.src < devices && link.dst < devices)
            local = mapping_.ftdOf(link.src) == mapping_.ftdOf(link.dst);
        if (segments.empty() || segments.back().local != local)
            segments.push_back(Segment{{}, local});
        segments.back().links.push_back(l);
    }
    return segments;
}

int
NiBalancer::advanceAttention(const PhaseTraffic &traffic, double window,
                             ExpertPlacement &placement)
{
    return advance(traffic, window, true, placement);
}

int
NiBalancer::advanceMoe(const PhaseTraffic &traffic, double window,
                       ExpertPlacement &placement)
{
    return advance(traffic, window, false, placement);
}

int
NiBalancer::advance(const PhaseTraffic &traffic, double window, bool local,
                    ExpertPlacement &placement)
{
    if (pending_.empty() || window <= 0.0)
        return 0;

    std::vector<double> budget(mapping_.topology().links().size(), -1.0);
    auto budgetOf = [&](LinkId l) -> double & {
        auto &b = budget[static_cast<std::size_t>(l)];
        if (b < 0.0)
            b = traffic.idleBytes(l, window);
        return b;
    };

    for (Pending &p : pending_) {
        for (std::size_t i = 0; i < p.segments.size(); ++i) {
            const Segment &seg = p.segments[i];
            if (seg.local != local)
                continue;
            const double upstream =
                (i == 0 ? expertBytes_ : p.delivered[i - 1]) -
                p.delivered[i];
            if (upstream <= 0.0)
                continue;
            double capacity = upstream;
            for (const LinkId l : seg.links)
                capacity = std::min(capacity, budgetOf(l));
            if (capacity <= 0.0)
                continue;
            for (const LinkId l : seg.links)
                budgetOf(l) -= capacity;
            p.delivered[i] += capacity;
            hiddenBytes_ += capacity;
        }
    }

    int completed = 0;
    const double done = expertBytes_ * (1.0 - 1e-9);
    for (auto it = pending_.begin(); it != pending_.end();) {
        if (it->delivered.back() >= done) {
            const MigrationStep &s = it->step;
            if (!placement.hosts(s.dstDevice, s.expert) &&
                placement.freeSlots(s.dstDevice) > 0) {
                placement.addReplica(s.expert, s.dstDevice);
            }
            it = pending_.erase(it);
            ++completed;
        } else {
            ++it;
        }
    }
    return completed;
}

} // namespace reference
} // namespace moentwine
