/**
 * @file
 * Abstract network topology interface shared by the wafer-scale mesh and
 * the GPU-cluster baselines.
 *
 * A topology is a directed graph of unidirectional links between nodes.
 * Nodes [0, numDevices()) are compute devices; a topology may add
 * internal nodes beyond that range (e.g. switches in a DGX cluster).
 *
 * Routing is deterministic and node-local: each topology states its
 * rule once, as nextLink(at, dst) — the link a transfer standing at node
 * `at` takes toward device `dst` (dimension-ordered XY on the mesh,
 * device→switch→spine→switch→device on switch clusters). That is what
 * lets the analytical congestion model accumulate per-link volumes
 * reproducibly. Nothing is stored per device pair, so a topology costs
 * O(links) memory at any size.
 *
 * walk() is an allocation-free cursor over nextLink(). pathLatency(),
 * pathBandwidth() and pathInvBandwidthSum() walk the route and
 * accumulate link by link in path order, so each scalar is a pure
 * function of the link sequence; hops() walks too unless the topology
 * knows its closed form. A constructed topology is immutable behind its
 * const interface and safe to share across threads through const
 * references.
 */

#ifndef MOENTWINE_TOPOLOGY_TOPOLOGY_HH
#define MOENTWINE_TOPOLOGY_TOPOLOGY_HH

#include <cstddef>
#include <string>
#include <vector>

#include "topology/graph.hh"

namespace moentwine {

class Topology;

/**
 * Forward range over one deterministic route: starts at the source and
 * follows Topology::nextLink() until the destination. Construction and
 * iteration never allocate, which is what keeps PhaseTraffic::addFlow()
 * allocation-free. Obtain one from Topology::walk(); it borrows the
 * topology.
 */
class RouteWalk
{
  public:
    /** Sentinel for range-for support. */
    struct End
    {
    };

    /** Single-pass input iterator; one nextLink() call per hop. */
    class Iterator
    {
      public:
        Iterator(const Topology &topo, NodeId at, DeviceId dst)
            : topo_(&topo), at_(at), dst_(dst)
        {
            step();
        }

        LinkId operator*() const { return link_; }

        Iterator &operator++()
        {
            step();
            return *this;
        }

        bool operator!=(End) const { return link_ >= 0; }

      private:
        /** Take the next hop; link_ becomes -1 at the destination. */
        inline void step();

        const Topology *topo_;
        NodeId at_;
        DeviceId dst_;
        LinkId link_ = -1;
    };

    RouteWalk(const Topology &topo, DeviceId src, DeviceId dst)
        : topo_(&topo), src_(src), dst_(dst)
    {
    }

    Iterator begin() const { return Iterator(*topo_, src_, dst_); }
    End end() const { return End{}; }

  private:
    const Topology *topo_;
    DeviceId src_;
    DeviceId dst_;
};

/**
 * Base class for all network topologies.
 */
class Topology
{
  public:
    virtual ~Topology() = default;

    /** Number of compute devices (excludes internal switch nodes). */
    virtual int numDevices() const = 0;

    /** Total number of nodes including internal switches. */
    virtual int numNodes() const { return numDevices(); }

    /** All unidirectional links. */
    const std::vector<Link> &links() const { return links_; }

    /**
     * The routing rule: the link a transfer at node @p at takes toward
     * compute device @p dst (requires at != dst). Pure and thread-safe.
     * Asserts when no route leaves @p at toward @p dst, so an
     * unreachable pair can never be charged as free.
     */
    virtual LinkId nextLink(NodeId at, DeviceId dst) const = 0;

    /** Allocation-free cursor over the route src → dst. */
    RouteWalk walk(DeviceId src, DeviceId dst) const
    {
        return RouteWalk(*this, src, dst);
    }

    /**
     * The route src → dst collected into a vector (allocates; for tests
     * and cold callers — hot paths use walk()).
     * @return Link indices in traversal order; empty when src == dst.
     */
    std::vector<LinkId> computeRoute(DeviceId src, DeviceId dst) const;

    /**
     * Hop count of the deterministic route (0 when src == dst). Walks
     * the route; topologies with a closed-form length override it
     * (balancers and the dispatch table ask for millions of these at
     * kilodevice scale).
     */
    virtual int hops(DeviceId src, DeviceId dst) const;

    /** Sum of per-link latencies along the deterministic route. */
    double pathLatency(DeviceId src, DeviceId dst) const;

    /** Minimum link bandwidth along the deterministic route. */
    double pathBandwidth(DeviceId src, DeviceId dst) const;

    /**
     * Σ 1/bandwidth over the deterministic route's links: the Eq.(1)
     * store-and-forward volume term per byte (0 when src == dst).
     */
    double pathInvBandwidthSum(DeviceId src, DeviceId dst) const;

    /** Human-readable topology name for bench output. */
    virtual std::string name() const = 0;

    /**
     * Index of the directed link src→dst, or -1 when the two nodes are
     * not directly connected. Scans links() (O(links)); for cold
     * callers such as heatmaps and fault-scenario set-up.
     */
    LinkId linkBetween(NodeId src, NodeId dst) const;

  protected:
    Topology() = default;
    // Declared so that moving a topology (out of a by-value factory
    // such as MeshTopology::waferRow) moves its link tables: the
    // virtual destructor alone would turn every move into a copy.
    Topology(const Topology &) = default;
    Topology(Topology &&) = default;
    Topology &operator=(const Topology &) = default;
    Topology &operator=(Topology &&) = default;

    /** Append a link; returns its id. */
    LinkId addLink(NodeId src, NodeId dst, double bandwidth, double latency);

    std::vector<Link> links_;
};

inline void
RouteWalk::Iterator::step()
{
    if (at_ == dst_) {
        link_ = -1;
        return;
    }
    link_ = topo_->nextLink(at_, dst_);
    at_ = topo_->links()[static_cast<std::size_t>(link_)].dst;
}

} // namespace moentwine

#endif // MOENTWINE_TOPOLOGY_TOPOLOGY_HH
