#include "fault/fault_topology.hh"

#include <algorithm>
#include <deque>

#include "common/logging.hh"

namespace moentwine {

FaultTopology::FaultTopology(const Topology &base)
    : base_(&base), devices_(base.numDevices()), nodes_(base.numNodes())
{
    const auto &links = base.links();
    nameplate_.reserve(links.size());
    for (const Link &l : links) {
        addLink(l.src, l.dst, l.bandwidth, l.latency);
        nameplate_.push_back(l.bandwidth);
    }
    degradeFactor_.assign(links.size(), 1.0);
    failed_.assign(links.size(), 0);
}

std::string
FaultTopology::name() const
{
    return base_->name() + "+faults";
}

void
FaultTopology::applyBandwidth(LinkId link)
{
    const auto i = static_cast<std::size_t>(link);
    links_[i].bandwidth = failed_[i]
        ? kFailedLinkBandwidth
        : nameplate_[i] * degradeFactor_[i];
}

void
FaultTopology::degradeLink(LinkId link, double bwFactor)
{
    MOE_ASSERT(bwFactor > 0.0 && bwFactor <= 1.0,
               "degrade factor out of (0, 1]");
    degradeFactor_[static_cast<std::size_t>(link)] = bwFactor;
    applyBandwidth(link);
}

void
FaultTopology::failLink(LinkId link)
{
    const auto i = static_cast<std::size_t>(link);
    if (!failed_[i]) {
        failed_[i] = 1;
        ++failedLinkCount_;
    }
    applyBandwidth(link);
}

void
FaultTopology::restoreLink(LinkId link)
{
    const auto i = static_cast<std::size_t>(link);
    if (failed_[i]) {
        failed_[i] = 0;
        --failedLinkCount_;
    }
    degradeFactor_[i] = 1.0;
    applyBandwidth(link);
}

LinkId
FaultTopology::nextLink(NodeId at, DeviceId dst) const
{
    // Fault-free and degrade-only overlays keep the base paths; only
    // failures force the reroute trees.
    if (failedLinkCount_ == 0)
        return base_->nextLink(at, dst);
    MOE_ASSERT(!towardDst_.empty(), "route query before rebuildAfterFaults");
    const LinkId l = towardDst_[static_cast<std::size_t>(at) *
                                    static_cast<std::size_t>(devices_) +
                                static_cast<std::size_t>(dst)];
    MOE_ASSERT(l >= 0, "route query on an unreachable pair; check "
                       "reachable() first");
    return l;
}

void
FaultTopology::rebuildAfterFaults()
{
    if (failedLinkCount_ == 0) {
        towardDst_.clear();
        isolated_.clear();
        return;
    }
    buildRerouteTrees();
}

bool
FaultTopology::reachable(DeviceId src, DeviceId dst) const
{
    if (failedLinkCount_ == 0 || src == dst)
        return true;
    return towardDst_[static_cast<std::size_t>(src) *
                          static_cast<std::size_t>(devices_) +
                      static_cast<std::size_t>(dst)] >= 0;
}

void
FaultTopology::buildRerouteTrees()
{
    const auto nodes = static_cast<std::size_t>(nodes_);
    const auto devices = static_cast<std::size_t>(devices_);

    // Forward and reverse adjacency over live links. Links are pushed
    // in ascending id order, which is what makes the first matching
    // out-link below the lowest-id (deterministic) tie-break.
    std::vector<std::vector<LinkId>> out(nodes);
    std::vector<std::vector<LinkId>> in(nodes);
    for (std::size_t l = 0; l < links_.size(); ++l) {
        if (failed_[l])
            continue;
        out[static_cast<std::size_t>(links_[l].src)].push_back(
            static_cast<LinkId>(l));
        in[static_cast<std::size_t>(links_[l].dst)].push_back(
            static_cast<LinkId>(l));
    }

    constexpr int kUnreached = -1;
    towardDst_.assign(nodes * devices, -1);
    std::vector<int> dist(nodes);
    std::deque<NodeId> queue;

    for (DeviceId dst = 0; dst < devices_; ++dst) {
        // Reverse BFS from dst: dist[n] = live hops n → dst.
        std::fill(dist.begin(), dist.end(), kUnreached);
        dist[static_cast<std::size_t>(dst)] = 0;
        queue.clear();
        queue.push_back(dst);
        while (!queue.empty()) {
            const NodeId v = queue.front();
            queue.pop_front();
            for (const LinkId l : in[static_cast<std::size_t>(v)]) {
                const NodeId u = links_[static_cast<std::size_t>(l)].src;
                if (dist[static_cast<std::size_t>(u)] == kUnreached) {
                    dist[static_cast<std::size_t>(u)] =
                        dist[static_cast<std::size_t>(v)] + 1;
                    queue.push_back(u);
                }
            }
        }
        for (NodeId n = 0; n < nodes_; ++n) {
            const int d = dist[static_cast<std::size_t>(n)];
            if (d == kUnreached || n == dst)
                continue;
            // Lowest-id live out-link one hop closer to dst.
            for (const LinkId l : out[static_cast<std::size_t>(n)]) {
                const NodeId head =
                    links_[static_cast<std::size_t>(l)].dst;
                if (dist[static_cast<std::size_t>(head)] == d - 1) {
                    towardDst_[static_cast<std::size_t>(n) * devices +
                               static_cast<std::size_t>(dst)] = l;
                    break;
                }
            }
        }
    }

    // Partition devices into mutual-reachability components (the trees
    // above answer reachable()): rep(d) = smallest q mutually reachable
    // with d. Keep the largest component (ties: smallest representative)
    // as the live fleet; everyone else is isolated.
    std::vector<DeviceId> rep(devices);
    std::vector<int> compSize(devices, 0);
    for (DeviceId d = 0; d < devices_; ++d) {
        DeviceId r = d;
        for (DeviceId q = 0; q < d; ++q) {
            if (reachable(d, q) && reachable(q, d)) {
                r = q;
                break;
            }
        }
        rep[static_cast<std::size_t>(d)] = r;
        ++compSize[static_cast<std::size_t>(r)];
    }
    DeviceId liveRep = 0;
    for (DeviceId d = 1; d < devices_; ++d) {
        if (compSize[static_cast<std::size_t>(d)] >
            compSize[static_cast<std::size_t>(liveRep)]) {
            liveRep = d;
        }
    }
    isolated_.clear();
    for (DeviceId d = 0; d < devices_; ++d) {
        if (rep[static_cast<std::size_t>(d)] != liveRep)
            isolated_.push_back(d);
    }
}

} // namespace moentwine
