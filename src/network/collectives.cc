#include "network/collectives.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace moentwine {

namespace {

/** Number of chunk rounds for a ring phase over p devices. */
int
roundsFor(RingOp op, int p)
{
    const int perPhase = p - 1;
    return op == RingOp::AllReduce ? 2 * perPhase : perPhase;
}

/**
 * Per-round serialisation cost of forwarding one chunk between
 * consecutive ring members: store-and-forward over every link of the
 * deterministic route, volume term only: chunk × the route's
 * Σ 1/bandwidth.
 */
double
edgeVolumeCost(const Topology &topo, DeviceId src, DeviceId dst,
               double chunk)
{
    return chunk * topo.pathInvBandwidthSum(src, dst);
}

/**
 * Core of the ring collective: accumulates traffic into
 * scratch.traffic (already cleared by the caller) and returns the
 * completion time. scratch.round backs the un-staggered path.
 */
double
ringCollectiveAppend(const Topology &topo,
                     const std::vector<std::vector<DeviceId>> &rings,
                     double bytes, RingOp op, bool staggered,
                     CollectiveScratch &scratch)
{
    MOE_ASSERT(!rings.empty(), "ringCollective requires at least one ring");
    const auto p = rings.front().size();
    for (const auto &ring : rings) {
        MOE_ASSERT(ring.size() == p, "all rings must have equal size");
        MOE_ASSERT(!ring.empty(), "empty ring");
    }

    if (p == 1) {
        // Degenerate single-member group: nothing to exchange.
        return 0.0;
    }

    const double chunk = bytes / static_cast<double>(p);
    const int rounds = roundsFor(op, static_cast<int>(p));

    // Aggregate traffic: every round, every device forwards one chunk to
    // its ring successor. Total per edge = rounds × chunk.
    for (const auto &ring : rings) {
        for (std::size_t i = 0; i < p; ++i) {
            const DeviceId src = ring[i];
            const DeviceId dst = ring[(i + 1) % p];
            // addFlow walks the deterministic route in place, so this
            // stays allocation-free (ring neighbours are distinct
            // devices and chunk is positive).
            scratch.traffic.addFlow(src, dst,
                                    chunk * static_cast<double>(rounds));
        }
    }

    // Rings send bi-directionally (Fig. 8(d)): two chunks are in
    // flight across every round boundary, so the per-round link
    // latency is exposed only half the rounds.
    const double latencyRounds = rounds / 2.0;

    double time = 0.0;
    if (staggered) {
        // ER-Mapping schedule: rings sharing links alternate cycles, so
        // each ring completes in rounds × (its slowest edge cost) and
        // the phase finishes with the slowest ring (Fig. 8(d)).
        for (const auto &ring : rings) {
            double edge = 0.0;
            double edgeLat = 0.0;
            for (std::size_t i = 0; i < p; ++i) {
                edge = std::max(edge,
                                edgeVolumeCost(topo, ring[i],
                                               ring[(i + 1) % p],
                                               chunk));
                edgeLat = std::max(edgeLat,
                                   topo.pathLatency(ring[i],
                                                    ring[(i + 1) % p]));
            }
            time = std::max(time, edge * static_cast<double>(rounds) +
                                      edgeLat * latencyRounds);
        }
    } else {
        // Un-staggered: all rings inject each round simultaneously; a
        // round costs the congestion-aware phase time of the combined
        // round traffic.
        scratch.round.clear();
        for (const auto &ring : rings)
            for (std::size_t i = 0; i < p; ++i)
                scratch.round.addFlow(ring[i], ring[(i + 1) % p], chunk);
        time = scratch.round.serializationTime() *
                static_cast<double>(rounds) +
            scratch.round.maxPathLatency() * latencyRounds;
    }
    return time;
}

} // namespace

double
ringCollectiveInto(const Topology &topo,
                   const std::vector<std::vector<DeviceId>> &rings,
                   double bytes, RingOp op, bool staggered,
                   CollectiveScratch &scratch)
{
    scratch.traffic.clear();
    return ringCollectiveAppend(topo, rings, bytes, op, staggered,
                                scratch);
}

CollectiveTiming
ringCollective(const Topology &topo,
               const std::vector<std::vector<DeviceId>> &rings,
               double bytes, RingOp op, bool staggered)
{
    CollectiveScratch scratch(topo);
    const double time =
        ringCollectiveInto(topo, rings, bytes, op, staggered, scratch);
    return CollectiveTiming{time, std::move(scratch.traffic)};
}

double
hierarchicalAllReduceInto(const Topology &topo,
                          const std::vector<std::vector<DeviceId>>
                              &intraRings,
                          const std::vector<std::vector<DeviceId>>
                              &interRings,
                          double bytes, CollectiveScratch &scratch)
{
    scratch.traffic.clear();
    const double intra = ringCollectiveAppend(
        topo, intraRings, bytes, RingOp::ReduceScatter, true, scratch);
    // After the intra-wafer reduce-scatter each device holds 1/p_intra of
    // the tensor; the inter-wafer all-gather moves those shards.
    const double shard =
        bytes / static_cast<double>(intraRings.front().size());
    const double inter = ringCollectiveAppend(
        topo, interRings, shard, RingOp::AllGather, true, scratch);
    return intra + inter;
}

CollectiveTiming
hierarchicalAllReduce(const Topology &topo,
                      const std::vector<std::vector<DeviceId>> &intraRings,
                      const std::vector<std::vector<DeviceId>> &interRings,
                      double bytes)
{
    CollectiveScratch scratch(topo);
    const double time = hierarchicalAllReduceInto(topo, intraRings,
                                                  interRings, bytes,
                                                  scratch);
    return CollectiveTiming{time, std::move(scratch.traffic)};
}

CollectiveTiming
allToAll(const Topology &topo, const std::vector<Flow> &flows)
{
    PhaseTraffic traffic(topo);
    const double time = allToAllInto(flows, traffic);
    return CollectiveTiming{time, std::move(traffic)};
}

double
allToAllInto(const std::vector<Flow> &flows, PhaseTraffic &traffic)
{
    traffic.clear();
    traffic.addFlows(flows);
    const double linkTotal = traffic.totalByteHops();
    MOE_ASSERT(std::abs(linkTotal - traffic.flowByteHops()) <=
                   1e-9 * linkTotal,
               "all-to-all link volumes do not sum to flow bytes x hops");
    return traffic.phaseTime();
}

} // namespace moentwine
