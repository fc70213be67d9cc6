#include "mapping/cluster_mapping.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace moentwine {

namespace {

// DeepSpeed-MoE hierarchical all-to-all: a token's k expert copies
// heading to the same remote node cross the inter-node fabric once.
// Expected distinct nodes touched per token is N·(1−(1−1/N)^k); naive
// volume is k copies, so the cross-node volume shrinks by the ratio.
double
crossNodeDedup(int numNodes, int topk)
{
    const double n = numNodes;
    if (n <= 1.0)
        return 1.0;
    const double distinct = n * (1.0 - std::pow(1.0 - 1.0 / n, topk));
    return std::min(1.0, distinct / static_cast<double>(topk));
}

} // namespace

ClusterMapping::ClusterMapping(const SwitchClusterTopology &cluster, int tp)
    : Mapping(cluster), cluster_(cluster)
{
    const int devices = cluster.numDevices();
    if (tp < 1 || devices % tp != 0) {
        fatal("cluster mapping: TP=" + std::to_string(tp) +
              " does not divide " + std::to_string(devices) + " devices");
    }
    if (tp > cluster.spec().devicesPerNode &&
        tp % cluster.spec().devicesPerNode != 0) {
        fatal("cluster mapping: TP=" + std::to_string(tp) +
              " straddles node boundaries unevenly");
    }

    for (int g = 0; g < devices / tp; ++g) {
        std::vector<DeviceId> group;
        group.reserve(static_cast<std::size_t>(tp));
        for (int r = 0; r < tp; ++r)
            group.push_back(g * tp + r);
        tpGroups_.push_back(std::move(group));
    }

    // One cluster-wide FTD: the switched fabric has no locality domains.
    std::vector<DeviceId> all;
    all.reserve(static_cast<std::size_t>(devices));
    for (DeviceId d = 0; d < devices; ++d)
        all.push_back(d);
    ftds_.push_back(std::move(all));

    finalize();

    // The token router asks for the factor once per logical transfer;
    // pay the pow() here instead.
    for (int k = 1; k <= kMaxMemoTopk; ++k)
        crossByTopk_[static_cast<std::size_t>(k)] =
            crossNodeDedup(cluster.spec().numNodes, k);
}

DeviceId
ClusterMapping::sourceWithAllGather(int group, int,
                                    DeviceId expertDevice) const
{
    // Group g is the device block [g · tp, (g + 1) · tp).
    const DeviceId first = group * tp();
    const DeviceId last = first + tp() - 1;
    if (expertDevice >= first && expertDevice <= last)
        return expertDevice;
    const int perNode = cluster_.spec().devicesPerNode;
    const DeviceId nodeFirst = expertDevice / perNode * perNode;
    const DeviceId onNode = std::max(first, nodeFirst);
    return onNode <= std::min(last, nodeFirst + perNode - 1) ? onNode
                                                             : first;
}

double
ClusterMapping::dispatchDedupFactor(DeviceId src, DeviceId dst,
                                    int topk) const
{
    MOE_ASSERT(topk >= 1, "topk must be positive");
    if (cluster_.sameNode(src, dst))
        return 1.0;
    if (topk <= kMaxMemoTopk)
        return crossByTopk_[static_cast<std::size_t>(topk)];
    return crossNodeDedup(cluster_.spec().numNodes, topk);
}

} // namespace moentwine
