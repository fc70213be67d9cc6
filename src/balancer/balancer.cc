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

double
heatOf(const ExpertPlacement &placement, DeviceId d,
       const std::vector<double> &expertLoads)
{
    double heat = 0.0;
    for (const int e : placement.expertsOn(d)) {
        heat += expertLoads[static_cast<std::size_t>(e)] /
            static_cast<double>(placement.numReplicas(e));
    }
    return heat;
}

std::vector<double>
deviceHeats(const ExpertPlacement &placement,
            const std::vector<double> &expertLoads)
{
    MOE_ASSERT(expertLoads.size() ==
                   static_cast<std::size_t>(placement.numExperts()),
               "expert load vector width mismatch");
    std::vector<double> heats(
        static_cast<std::size_t>(placement.numDevices()), 0.0);
    for (DeviceId d = 0; d < placement.numDevices(); ++d)
        heats[static_cast<std::size_t>(d)] =
            heatOf(placement, d, expertLoads);
    return heats;
}

void
HeatIndex::build(const std::vector<double> &expertLoads,
                 const ExpertPlacement &placement)
{
    MOE_ASSERT(expertLoads.size() ==
                   static_cast<std::size_t>(placement.numExperts()),
               "expert load vector width mismatch");
    const int devices = placement.numDevices();
    heats_.resize(static_cast<std::size_t>(devices));
    for (DeviceId d = 0; d < devices; ++d)
        heats_[static_cast<std::size_t>(d)] =
            heatOf(placement, d, expertLoads);

    treeBase_ = 1;
    while (treeBase_ < devices)
        treeBase_ *= 2;
    const auto leaves = static_cast<std::size_t>(treeBase_);
    maxTree_.assign(2 * leaves, -1);
    freeMinTree_.assign(2 * leaves, -1);
    for (DeviceId d = 0; d < devices; ++d) {
        maxTree_[leaves + static_cast<std::size_t>(d)] = d;
        if (placement.freeSlots(d) > 0)
            freeMinTree_[leaves + static_cast<std::size_t>(d)] = d;
    }
    for (std::size_t i = leaves - 1; i >= 1; --i) {
        maxTree_[i] = hotter(maxTree_[2 * i], maxTree_[2 * i + 1]);
        freeMinTree_[i] = colder(freeMinTree_[2 * i], freeMinTree_[2 * i + 1]);
    }
}

void
HeatIndex::addReplica(ExpertPlacement &placement, int expert, DeviceId d,
                      double load)
{
    // The expert's per-replica share shrinks from L/n to L/(n+1):
    // existing replicas cool by the difference, the new host gains the
    // new share.
    const auto n = static_cast<double>(placement.numReplicas(expert));
    const double newShare = load / (n + 1.0);
    for (const DeviceId r : placement.replicasOf(expert)) {
        heats_[static_cast<std::size_t>(r)] -= load / n - newShare;
        touch(placement, r);
    }
    heats_[static_cast<std::size_t>(d)] += newShare;
    placement.addReplica(expert, d);
    touch(placement, d);
}

DeviceId
HeatIndex::coldestOpen(const ExpertPlacement &placement, int expert,
                       DeviceId skip) const
{
    MOE_ASSERT(!freeMinTree_.empty(), "coldestOpen() before build()");
    return coldestOpenUnder(placement, 1, expert, skip);
}

DeviceId
HeatIndex::coldestOpenUnder(const ExpertPlacement &placement, int node,
                            int expert, DeviceId skip) const
{
    // A winner that qualifies is the subtree's answer; otherwise both
    // children are searched, so only the paths to excluded winners
    // (skip and the expert's holders) are ever expanded.
    const DeviceId w = freeMinTree_[static_cast<std::size_t>(node)];
    if (w < 0 || (w != skip && !placement.hosts(w, expert)))
        return w;
    if (node >= treeBase_)
        return -1;
    return colder(coldestOpenUnder(placement, 2 * node, expert, skip),
                  coldestOpenUnder(placement, 2 * node + 1, expert, skip));
}

DeviceId
HeatIndex::hotter(DeviceId a, DeviceId b) const
{
    if (a < 0 || b < 0)
        return a < 0 ? b : a;
    const double ha = heats_[static_cast<std::size_t>(a)];
    const double hb = heats_[static_cast<std::size_t>(b)];
    return hb > ha || (hb == ha && b < a) ? b : a;
}

DeviceId
HeatIndex::colder(DeviceId a, DeviceId b) const
{
    if (a < 0 || b < 0)
        return a < 0 ? b : a;
    const double ha = heats_[static_cast<std::size_t>(a)];
    const double hb = heats_[static_cast<std::size_t>(b)];
    return hb < ha || (hb == ha && b < a) ? b : a;
}

void
HeatIndex::touch(const ExpertPlacement &placement, DeviceId d)
{
    // Callers touch after every single-device change, so only d's path
    // can be stale. A node whose winners stay the same and are not d
    // feeds its ancestors exactly what it fed them before: stop there.
    auto i = static_cast<std::size_t>(treeBase_ + d);
    maxTree_[i] = d;
    freeMinTree_[i] = placement.freeSlots(d) > 0 ? d : -1;
    for (i /= 2; i >= 1; i /= 2) {
        const DeviceId hot = hotter(maxTree_[2 * i], maxTree_[2 * i + 1]);
        const DeviceId open =
            colder(freeMinTree_[2 * i], freeMinTree_[2 * i + 1]);
        if (hot == maxTree_[i] && open == freeMinTree_[i] && hot != d &&
            open != d) {
            return;
        }
        maxTree_[i] = hot;
        freeMinTree_[i] = open;
    }
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
 * possible. @p index must hold the heats of @p loads on @p placement;
 * every addition goes through it. Appends the (expert, dst) additions
 * to @p added in order. @p topo nullptr picks the coldest destination,
 * otherwise the nearest (@p mesh, when non-null, is @p topo as a mesh).
 */
void
replicationLoop(const std::vector<double> &loads,
                ExpertPlacement &placement, HeatIndex &index,
                const Topology *topo, const MeshTopology *mesh,
                std::vector<std::pair<int, DeviceId>> &added)
{
    const int maxAdds = placement.numDevices() * placement.shadowSlots();
    const std::vector<double> &heats = index.heats();
    for (int round = 0; round < maxAdds; ++round) {
        const DeviceId hottest = index.hottest();

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

        const double load = loads[static_cast<std::size_t>(srcExpert)];
        const double newShare =
            load / (placement.numReplicas(srcExpert) + 1);
        const ColdTest cold{placement, heats, srcExpert, hottest, newShare};
        // The cold set is empty iff its coldest eligible device fails.
        const DeviceId coldest =
            index.coldestOpen(placement, srcExpert, hottest);
        if (coldest < 0 || !cold(coldest))
            break; // line 6: no capable destination remains

        const DeviceId dst = !topo ? coldest
            : mesh                 ? nearestOnMesh(*mesh, cold)
                                   : nearestByScan(*topo, cold);
        index.addReplica(placement, srcExpert, dst, load);
        added.emplace_back(srcExpert, dst);
    }
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
    heatIndex_.build(loads, placement);
    added_.clear();
    replicationLoop(loads, placement, heatIndex_, topo,
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
