/**
 * @file
 * Analytical traffic accounting for one communication phase.
 *
 * The simulator follows the paper's Eq.(1),
 *     latency = (volume / bandwidth + link_latency) × hops,
 * in two complementary forms:
 *
 *  - flowTime() applies Eq.(1) literally to a single point-to-point
 *    transfer (used for invasive expert-migration costs);
 *  - PhaseTraffic models a *phase* in which many flows run concurrently
 *    (an all-to-all dispatch, one all-reduce step). Each flow deposits
 *    its volume on every link of its deterministic route; the phase time
 *    is the worst per-link serialisation time plus the worst path
 *    latency. Congestion therefore emerges exactly as in the paper: when
 *    FTDs intersect, the shared central mesh links accumulate the volume
 *    of several domains and dominate the maximum.
 *
 * PhaseTraffic also exposes per-link volumes for heatmap rendering and
 * the hot/cold-link classification that NI-Balancer schedules against.
 */

#ifndef MOENTWINE_NETWORK_TRAFFIC_HH
#define MOENTWINE_NETWORK_TRAFFIC_HH

#include <string>
#include <vector>

#include "topology/mesh.hh"
#include "topology/topology.hh"

namespace moentwine {

/** One point-to-point transfer inside a communication phase. */
struct Flow
{
    DeviceId src;
    DeviceId dst;
    /** Payload volume in bytes. */
    double bytes;
};

/**
 * Eq.(1) store-and-forward latency of a single transfer along the
 * topology's deterministic route, from Topology::pathInvBandwidthSum()
 * and Topology::pathLatency().
 */
double flowTime(const Topology &topo, DeviceId src, DeviceId dst,
                double bytes);

/**
 * Per-link volume accumulation for one concurrently-executing phase.
 */
class PhaseTraffic
{
  public:
    /** Construct an empty phase over @p topo (not owned, must outlive). */
    explicit PhaseTraffic(const Topology &topo);

    /**
     * Reset to an empty phase, keeping the volume buffer allocated so
     * the engine can reuse one instance across iterations.
     */
    void clear();

    /**
     * Add a flow along the topology's deterministic route, walked in
     * place (Topology::walk()): allocation-free.
     */
    void addFlow(DeviceId src, DeviceId dst, double bytes);

    /** Add all flows of @p flows. */
    void addFlows(const std::vector<Flow> &flows);

    /**
     * Merge another phase's per-link volumes into this one. Both
     * phases must cover topologies with identical link id sets (same
     * link count); merging across mismatched topologies would corrupt
     * the volume buffer, so it aborts loudly instead (MOE_ASSERT,
     * pinned by a death test).
     */
    void merge(const PhaseTraffic &other);

    /**
     * Worst per-link serialisation time: max over links of accumulated
     * volume divided by link bandwidth. Zero for an empty phase.
     */
    double serializationTime() const;

    /** Worst accumulated path latency over all added flows. */
    double maxPathLatency() const { return maxPathLatency_; }

    /**
     * Phase completion time: serialisation bottleneck plus the worst
     * path latency (the Eq.(1) link-latency term).
     */
    double phaseTime() const
    {
        return serializationTime() + maxPathLatency_;
    }

    /** Accumulated volume on one link. */
    double linkVolume(LinkId l) const;

    /** Largest accumulated per-link volume. */
    double maxLinkVolume() const;

    /** Sum of per-link volumes (byte-hops of the phase). */
    double totalByteHops() const;

    /** Sum of injected flow bytes (volume not multiplied by hops). */
    double totalFlowBytes() const { return totalFlowBytes_; }

    /** Number of links carrying non-zero volume. */
    int busyLinkCount() const;

    /**
     * Hot-link classification: link l is hot when its volume exceeds
     * @p fraction of the maximum per-link volume of the phase. With an
     * all-zero phase every link is cold.
     */
    std::vector<bool> hotLinks(double fraction = 0.5) const;

    /**
     * Remaining byte budget of link @p l inside a window of @p window
     * seconds: bandwidth × window − accumulated volume (floored at 0).
     * This is the capacity NI-Balancer steals for hidden migration.
     */
    double idleBytes(LinkId l, double window) const;

    /**
     * ASCII heatmap of horizontal+vertical link volumes for a mesh,
     * normalised to the phase maximum (0-9 digits per link).
     */
    std::string heatmapAscii(const MeshTopology &mesh) const;

    /** The topology this phase runs on. */
    const Topology &topology() const { return *topo_; }

    /**
     * Re-point the phase at another topology with the SAME link ids
     * (the fault overlay copies the base link set, so the volume
     * buffer stays valid). Clears accumulated state; the engine calls
     * this at a fault boundary before refilling the phase. A target
     * with a different link count cannot share the buffer and aborts
     * loudly (MOE_ASSERT, pinned by a death test).
     */
    void retarget(const Topology &topo);

  private:
    const Topology *topo_;
    std::vector<double> volume_;
    double maxPathLatency_ = 0.0;
    double totalFlowBytes_ = 0.0;
};

} // namespace moentwine

#endif // MOENTWINE_NETWORK_TRAFFIC_HH
