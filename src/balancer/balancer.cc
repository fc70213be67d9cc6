#include "balancer/balancer.hh"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "common/logging.hh"
#include "topology/mesh.hh"

namespace moentwine {

RebalanceTrigger::RebalanceTrigger(double alpha, int beta)
    : alpha_(alpha), beta_(beta), sinceLast_(beta)
{
    MOE_ASSERT(alpha > 0.0, "alpha must be positive");
    MOE_ASSERT(beta >= 0, "beta must be non-negative");
}

bool
RebalanceTrigger::poll(double imbalance)
{
    MOE_ASSERT(imbalance >= 0.0, "imbalance must be non-negative");
    accumulated_ += imbalance;
    if (accumulated_ > alpha_ && sinceLast_ >= beta_) {
        accumulated_ = 0.0;
        sinceLast_ = 0;
        return true;
    }
    ++sinceLast_;
    return false;
}

namespace {

/**
 * Cold test of Algorithm 1 (paper line 5) for @p expert's next replica
 * with per-replica share @p newShare: a free slot, not the hottest
 * device, no existing replica, and heat staying strictly below the
 * peak. Adding the share keeps the global peak strictly decreasing.
 */
struct ColdTest
{
    const ExpertPlacement &placement;
    const std::vector<double> &heats;
    int expert;
    DeviceId hottest;
    double newShare;

    bool operator()(DeviceId d) const
    {
        // The heat test is the cheapest and rejects most devices.
        return heats[static_cast<std::size_t>(d)] + newShare <
                   heats[static_cast<std::size_t>(hottest)] &&
               d != hottest && placement.freeSlots(d) > 0 &&
               !placement.hosts(d, expert);
    }
};

/** True when @p d beats @p best (-1: none yet) on (heat, id). */
bool
colderThan(const std::vector<double> &heats, DeviceId d, DeviceId best)
{
    if (best < 0)
        return true;
    const double hd = heats[static_cast<std::size_t>(d)];
    const double hb = heats[static_cast<std::size_t>(best)];
    return hd < hb || (hd == hb && d < best);
}

/**
 * Nearest cold device on a mesh, by (hops, heat, id): search Manhattan
 * rings of growing radius around the expert's replicas and take the
 * coldest cold device of the first ring that has one. A device reached
 * on ring h of one replica but nearer to another was already tested on
 * an inner ring and failed, so every cold hit of ring h is h hops away.
 * The caller guarantees a cold device exists.
 */
DeviceId
nearestOnMesh(const MeshTopology &mesh, const ColdTest &cold)
{
    const auto &replicas = cold.placement.replicasOf(cold.expert);
    const int maxRadius = mesh.rows() + mesh.cols() - 2;
    for (int h = 1; h <= maxRadius; ++h) {
        DeviceId best = -1;
        for (const DeviceId r : replicas) {
            const Coord c = mesh.coordOf(r);
            for (int dr = -h; dr <= h; ++dr) {
                const int row = c.row + dr;
                if (row < 0 || row >= mesh.rows())
                    continue;
                const int dc = h - std::abs(dr);
                for (const int col : {c.col - dc, c.col + dc}) {
                    if (col >= 0 && col < mesh.cols()) {
                        const DeviceId d = mesh.deviceAt(row, col);
                        if (cold(d) && colderThan(cold.heats, d, best))
                            best = d;
                    }
                    if (dc == 0)
                        break; // the ring's two tips are one device
                }
            }
        }
        if (best >= 0)
            return best;
    }
    panic("nearestOnMesh: no cold device on any ring");
}

/** Nearest cold device by (hops, heat, id), scanning every device. */
DeviceId
nearestByScan(const Topology &topo, const ColdTest &cold)
{
    DeviceId best = -1;
    int bestHops = std::numeric_limits<int>::max();
    for (DeviceId d = 0; d < cold.placement.numDevices(); ++d) {
        if (!cold(d))
            continue;
        int h = std::numeric_limits<int>::max();
        for (const DeviceId r : cold.placement.replicasOf(cold.expert))
            h = std::min(h, topo.hops(r, d));
        if (best < 0 || h < bestHops ||
            (h == bestHops && cold.heats[static_cast<std::size_t>(d)] <
                                  cold.heats[static_cast<std::size_t>(
                                      best)])) {
            bestHops = h;
            best = d;
        }
    }
    return best;
}

/**
 * Algorithm 1's core loop: repeatedly replicate the most loaded expert
 * of the hottest device onto a colder device until no improvement is
 * possible. Appends the (expert, dst) additions to @p added in order.
 * @p topo nullptr picks the coldest destination, otherwise the nearest
 * (@p mesh, when non-null, is @p topo as a mesh).
 */
void
replicationLoop(const std::vector<double> &loads,
                ExpertPlacement &placement, const Topology *topo,
                const MeshTopology *mesh,
                std::vector<std::pair<int, DeviceId>> &added)
{
    const int maxAdds = placement.numDevices() * placement.shadowSlots();

    // Track loads so each round reads the incrementally maintained
    // heats and heat trees, and every addReplica() updates them in
    // O(replicas × log devices).
    placement.setExpertLoads(loads);
    const std::vector<double> &heats = placement.heats();
    for (int round = 0; round < maxAdds; ++round) {
        const DeviceId hottest = placement.hottestDevice();

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

        const double newShare = loads[static_cast<std::size_t>(
                                    srcExpert)] /
            (placement.numReplicas(srcExpert) + 1);
        const ColdTest cold{placement, heats, srcExpert, hottest, newShare};
        // The cold set is empty iff its coldest eligible device fails.
        const DeviceId coldest =
            placement.coldestOpenDevice(srcExpert, hottest);
        if (coldest < 0 || !cold(coldest))
            break; // line 6: no capable destination remains

        const DeviceId dst = !topo ? coldest
            : mesh                 ? nearestOnMesh(*mesh, cold)
                                   : nearestByScan(*topo, cold);
        placement.addReplica(srcExpert, dst);
        added.emplace_back(srcExpert, dst);
    }
    placement.clearExpertLoads();
}

/** Prior holder nearest to @p dst; ties to the lowest id. */
DeviceId
nearestHolder(const Topology &topo, const DeviceId *first,
              const DeviceId *last, DeviceId dst)
{
    DeviceId best = *first;
    int bestHops = std::numeric_limits<int>::max();
    for (const DeviceId *r = first; r != last; ++r) {
        const int h = topo.hops(*r, dst);
        if (h < bestHops) {
            bestHops = h;
            best = *r;
        }
    }
    return best;
}

} // namespace

const std::vector<MigrationStep> &
Balancer::rebalanceWith(const std::vector<double> &loads,
                        ExpertPlacement &placement, const Topology *topo)
{
    // Snapshot the replicas present before re-planning: copies to a
    // device that already held the expert are free, and copy sources
    // must hold the weights *now*. A counting sort by expert over the
    // devices in id order leaves every holder list sorted by id.
    const int experts = placement.numExperts();
    holderStart_.assign(static_cast<std::size_t>(experts) + 1, 0);
    for (int e = 0; e < experts; ++e) {
        holderStart_[static_cast<std::size_t>(e) + 1] =
            holderStart_[static_cast<std::size_t>(e)] +
            placement.numReplicas(e);
    }
    holders_.resize(static_cast<std::size_t>(holderStart_.back()));
    for (DeviceId d = 0; d < placement.numDevices(); ++d)
        for (const int e : placement.expertsOn(d))
            holders_[static_cast<std::size_t>(
                holderStart_[static_cast<std::size_t>(e)]++)] = d;
    // Filling advanced each start to the next one; shift them back.
    for (int e = experts; e > 0; --e)
        holderStart_[static_cast<std::size_t>(e)] =
            holderStart_[static_cast<std::size_t>(e) - 1];
    holderStart_[0] = 0;

    placement.resetToNative();
    added_.clear();
    replicationLoop(loads, placement, topo,
                    dynamic_cast<const MeshTopology *>(topo), added_);

    steps_.clear();
    for (const auto &[expert, dst] : added_) {
        const DeviceId *first =
            holders_.data() + holderStart_[static_cast<std::size_t>(expert)];
        const DeviceId *last = holders_.data() +
            holderStart_[static_cast<std::size_t>(expert) + 1];
        if (std::binary_search(first, last, dst))
            continue;
        MOE_ASSERT(first != last, "expert with no prior replica");
        const DeviceId src =
            topo ? nearestHolder(*topo, first, last, dst) : *first;
        steps_.push_back(MigrationStep{expert, src, dst});
    }
    return steps_;
}

const std::vector<MigrationStep> &
GreedyBalancer::rebalance(const std::vector<double> &expertLoads,
                          ExpertPlacement &placement)
{
    return rebalanceWith(expertLoads, placement, nullptr);
}

TopologyAwareBalancer::TopologyAwareBalancer(const Topology &topo)
    : topo_(topo)
{
}

const std::vector<MigrationStep> &
TopologyAwareBalancer::rebalance(const std::vector<double> &expertLoads,
                                 ExpertPlacement &placement)
{
    return rebalanceWith(expertLoads, placement, &topo_);
}

} // namespace moentwine
