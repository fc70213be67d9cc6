#include "topology/topology.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace moentwine {

std::vector<LinkId>
Topology::computeRoute(DeviceId src, DeviceId dst) const
{
    std::vector<LinkId> path;
    for (const LinkId l : walk(src, dst))
        path.push_back(l);
    return path;
}

int
Topology::hops(DeviceId src, DeviceId dst) const
{
    int n = 0;
    for ([[maybe_unused]] const LinkId l : walk(src, dst))
        ++n;
    return n;
}

double
Topology::pathLatency(DeviceId src, DeviceId dst) const
{
    double total = 0.0;
    for (const LinkId l : walk(src, dst))
        total += links_[static_cast<std::size_t>(l)].latency;
    return total;
}

double
Topology::pathBandwidth(DeviceId src, DeviceId dst) const
{
    MOE_ASSERT(src != dst, "pathBandwidth of a zero-hop route");
    double bw = std::numeric_limits<double>::infinity();
    for (const LinkId l : walk(src, dst))
        bw = std::min(bw, links_[static_cast<std::size_t>(l)].bandwidth);
    return bw;
}

double
Topology::pathInvBandwidthSum(DeviceId src, DeviceId dst) const
{
    double total = 0.0;
    for (const LinkId l : walk(src, dst))
        total += 1.0 / links_[static_cast<std::size_t>(l)].bandwidth;
    return total;
}

LinkId
Topology::linkBetween(NodeId src, NodeId dst) const
{
    if (src < 0 || static_cast<std::size_t>(src) >= outIndex_.size())
        return -1;
    const auto &index = outIndex_[static_cast<std::size_t>(src)];
    const auto it = index.find(dst);
    return it == index.end() ? -1 : it->second;
}

LinkId
Topology::addLink(NodeId src, NodeId dst, double bandwidth, double latency)
{
    MOE_ASSERT(src != dst, "self-links are not allowed");
    MOE_ASSERT(bandwidth > 0.0, "link bandwidth must be positive");
    MOE_ASSERT(latency >= 0.0, "link latency must be non-negative");
    const auto id = static_cast<LinkId>(links_.size());
    links_.push_back(Link{src, dst, bandwidth, latency});
    const auto need = static_cast<std::size_t>(src) + 1;
    if (outIndex_.size() < need)
        outIndex_.resize(need);
    const bool inserted =
        outIndex_[static_cast<std::size_t>(src)].emplace(dst, id).second;
    MOE_ASSERT(inserted, "duplicate directed link");
    return id;
}

} // namespace moentwine
