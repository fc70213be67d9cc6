/**
 * @file
 * Collective-communication timing models: ring reduce-scatter /
 * all-gather / all-reduce (including the entwined multi-hop rings of
 * ER-Mapping), hierarchical multi-wafer all-reduce, and the all-to-all
 * phase used for MoE token dispatch and combine.
 *
 * Ring collectives follow the textbook algorithm: a group of p devices
 * arranged in a ring exchanges p-1 chunk rounds per phase (reduce-scatter
 * and all-gather are one phase each; all-reduce is both). Each round a
 * device forwards bytes/p to its ring successor along the topology's
 * deterministic route, so an "entwined" ring whose neighbours sit two
 * mesh hops apart pays exactly the 2× round cost the paper describes.
 *
 * When several rings run concurrently they either
 *  - share no links (baseline mapping: quadrant-local rings), or
 *  - share links but are time-staggered (ER-Mapping: entwined rings send
 *    bi-directionally step by step, so intersecting links serve the two
 *    rings on alternating cycles without conflict — Fig. 8(d)).
 * The `staggered` flag selects the second model; with it disabled,
 * concurrent rounds are charged for link sharing, which is the honest
 * cost of naively interleaving rings without the ER schedule.
 */

#ifndef MOENTWINE_NETWORK_COLLECTIVES_HH
#define MOENTWINE_NETWORK_COLLECTIVES_HH

#include <vector>

#include "network/traffic.hh"
#include "topology/topology.hh"

namespace moentwine {

/** Which ring phase(s) to run. */
enum class RingOp
{
    ReduceScatter, ///< p-1 rounds; each device ends with 1/p of the sum.
    AllGather,     ///< p-1 rounds; each device ends with the full tensor.
    AllReduce,     ///< reduce-scatter followed by all-gather.
};

/** Result of a collective: completion time plus aggregated traffic. */
struct CollectiveTiming
{
    /** Completion time of the collective (seconds). */
    double time;
    /** Per-link volume accumulated over all rounds (for heatmaps). */
    PhaseTraffic traffic;
};

/**
 * Reusable per-caller buffers for the allocation-free collective entry
 * points. One engine owns one scratch per collective call site and
 * reuses it across iterations, so the attention all-reduce performs no
 * steady-state allocation (mirroring the MoE all-to-all's
 * allToAllInto() path). Scratches are caller state,
 * never mapping state: mappings stay immutable and shareable across
 * sweep worker threads.
 */
struct CollectiveScratch
{
    /** @param topo Topology the collectives run on (must outlive). */
    explicit CollectiveScratch(const Topology &topo)
        : traffic(topo), round(topo)
    {
    }

    /** Re-point both buffers at a same-link-set topology (see
     *  PhaseTraffic::retarget); used at fault boundaries. */
    void retarget(const Topology &topo)
    {
        traffic.retarget(topo);
        round.retarget(topo);
    }

    /** Aggregated per-link volume of the last collective run. */
    PhaseTraffic traffic;
    /** Per-round accumulation buffer for the un-staggered path. */
    PhaseTraffic round;
};

/**
 * Ring collective over one or more concurrent rings.
 *
 * @param topo      Network to run on.
 * @param rings     Ordered device lists; every ring must have the same
 *                  size p ≥ 1. Ring i's device j forwards to device
 *                  (j+1) mod p.
 * @param bytes     Full tensor size per device (chunk = bytes / p).
 * @param op        Phase(s) to run.
 * @param staggered True when rounds of different rings sharing a link
 *                  are time-staggered (ER-Mapping's entwined schedule).
 * @return Completion time and aggregated traffic.
 */
CollectiveTiming ringCollective(const Topology &topo,
                                const std::vector<std::vector<DeviceId>>
                                    &rings,
                                double bytes, RingOp op, bool staggered);

/**
 * Allocation-free ringCollective(): clears @p scratch (keeping its
 * volume buffers), accumulates the collective's per-link traffic into
 * scratch.traffic — using scratch.round on the un-staggered path
 * instead of a fresh per-call PhaseTraffic — and returns the
 * completion time. Identical results to ringCollective().
 */
double ringCollectiveInto(const Topology &topo,
                          const std::vector<std::vector<DeviceId>> &rings,
                          double bytes, RingOp op, bool staggered,
                          CollectiveScratch &scratch);

/**
 * Hierarchical all-reduce for multi-wafer systems (Fig. 10(c)): an
 * intra-wafer reduce-scatter over @p intraRings followed by an
 * inter-wafer all-gather over @p interRings. Used by Hierarchical
 * ER-Mapping; both stages use the staggered entwined schedule. Like
 * ringCollectiveInto(), it clears @p scratch (keeping its buffers),
 * leaves both stages' per-link traffic in scratch.traffic and returns
 * the completion time; there is no allocating form.
 */
double hierarchicalAllReduceInto(const Topology &topo,
                                 const std::vector<std::vector<DeviceId>>
                                     &intraRings,
                                 const std::vector<std::vector<DeviceId>>
                                     &interRings,
                                 double bytes, CollectiveScratch &scratch);

/**
 * All-to-all phase (token dispatch or combine) from explicit flows.
 * Completion time is the congestion-aware phase time of the flow set.
 */
CollectiveTiming allToAll(const Topology &topo,
                          const std::vector<Flow> &flows);

/**
 * Allocation-free all-to-all: clears @p traffic (which keeps its
 * volume buffer), accumulates @p flows into it, and returns the phase
 * time. The engine reuses one PhaseTraffic per phase across
 * iterations through this entry point. Asserts byte conservation: the
 * link volumes sum to Σ flow bytes × hops, to a relative 1e-9.
 */
double allToAllInto(const std::vector<Flow> &flows, PhaseTraffic &traffic);

} // namespace moentwine

#endif // MOENTWINE_NETWORK_COLLECTIVES_HH
