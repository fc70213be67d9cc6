/**
 * @file
 * Basic graph vocabulary shared by the topology headers: node/device/
 * link identifiers and the Link record. Kept apart from topology.hh so
 * headers that only name ids (fault plans, traffic accumulators) do not
 * pull in the routing interface.
 */

#ifndef MOENTWINE_TOPOLOGY_GRAPH_HH
#define MOENTWINE_TOPOLOGY_GRAPH_HH

namespace moentwine {

/** Identifier of a compute device or internal switch node. */
using NodeId = int;
/** Identifier of a compute device (subset of NodeId space). */
using DeviceId = int;
/** Index into Topology::links(). */
using LinkId = int;

/**
 * One unidirectional link. Bandwidth is bytes/second for this direction;
 * latency is the per-traversal link latency of Eq.(1) in the paper.
 */
struct Link
{
    NodeId src;
    NodeId dst;
    double bandwidth;
    double latency;
};

} // namespace moentwine

#endif // MOENTWINE_TOPOLOGY_GRAPH_HH
