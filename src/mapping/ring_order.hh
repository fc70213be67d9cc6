/**
 * @file
 * Hamiltonian ring orderings over small 2-D grids of TP-group members.
 *
 * A TP group's members form an m×n logical grid (contiguous for the
 * baseline mapping, strided for ER-Mapping). Ring all-reduce needs a
 * cyclic order with short consecutive steps:
 *  - when m·n is even a unit-step Hamiltonian cycle exists and is used;
 *  - 1×n lines use the zigzag cycle (0,2,4,…,5,3,1) with step ≤ 2;
 *  - odd×odd grids (no unit cycle exists) fall back to a serpentine
 *    path whose closing edge spans the grid — callers pay that cost
 *    honestly.
 */

#ifndef MOENTWINE_MAPPING_RING_ORDER_HH
#define MOENTWINE_MAPPING_RING_ORDER_HH

#include <utility>
#include <vector>

#include "topology/topology.hh"

namespace moentwine {

/** One (rowStep, colStep) position in a logical member grid. */
using GridPos = std::pair<int, int>;

/**
 * Cyclic visiting order of all cells of an m×n grid minimising the
 * maximum step between consecutive cells (including the closing edge).
 *
 * @param m Grid rows (≥ 1).
 * @param n Grid cols (≥ 1).
 * @return All m·n cells in ring order.
 */
std::vector<GridPos> gridCycle(int m, int n);

/**
 * Largest Chebyshev-free step of a cycle: the maximum Manhattan
 * distance between consecutive cells, including the wrap-around edge.
 */
int maxCycleStep(const std::vector<GridPos> &cycle);

/**
 * Order a device set as a short-step ring. On meshes this is a
 * serpentine sweep (row-major with alternate rows reversed) that keeps
 * consecutive members adjacent; other topologies keep the stored
 * order. evaluateEsp() (engine/comm_eval.hh) orders each FTD with it
 * for the expert all-reduce of Fig. 14(a).
 */
std::vector<DeviceId> serpentineRing(const Topology &topo,
                                     std::vector<DeviceId> devices);

} // namespace moentwine

#endif // MOENTWINE_MAPPING_RING_ORDER_HH
