/**
 * @file
 * Token routing: translates a gating outcome (per-group expert counts)
 * into the dispatch/combine flow sets of the MoE all-to-all, plus the
 * per-device routed-token loads that drive expert computation time.
 *
 * Tokens of a DP group are spread uniformly over the group's TP shard
 * ranks; tokens selecting an expert are split evenly across its
 * replicas (the shadow-expert sharing rule of Fig. 7(a)). Each
 * (group, rank, replica) triple contributes dispatch volume from the
 * mapping's dispatch source to the replica device, and combine volume
 * back. Dispatch carries the FP16 hidden activation of every routed
 * token; combine carries the expert output of the same width.
 *
 * Because the congestion model only depends on per-(src, dst) volumes,
 * the router aggregates the O(dp · experts · replicas · tp) logical
 * transfers into a TrafficAccumulator — a dense devices×devices byte
 * matrix below TrafficAccumulator::kSparseThreshold devices, a
 * radix-sorted append buffer of touched pairs at/above (see
 * network/traffic_accum.hh) — and materialises the non-zero pairs as
 * dispatch flows in cache-blocked tile-major order (combine is the
 * transpose). Both storages yield bitwise identical flow lists. The
 * aggregated path asks the mapping for each (group, rank, device)
 * dispatch source and dedup factor once per call, on the device's
 * first replica in the group, and keeps the answers in a per-device
 * table for the group's other experts. The unaggregated per-triple
 * flow list, which asks the mapping for every triple, is kept behind
 * an `aggregate` toggle as the reference that
 * tests/flow_aggregation_test.cpp checks the aggregated path against.
 */

#ifndef MOENTWINE_ENGINE_TOKEN_ROUTER_HH
#define MOENTWINE_ENGINE_TOKEN_ROUTER_HH

#include <vector>

#include "balancer/placement.hh"
#include "mapping/mapping.hh"
#include "network/traffic.hh"
#include "network/traffic_accum.hh"

namespace moentwine {

/** Flows and device loads produced by routing one layer's tokens. */
struct RoutedTraffic
{
    /** Dispatch flows (token activations toward expert devices). */
    std::vector<Flow> dispatch;
    /** Combine flows (expert outputs back to the token owners). */
    std::vector<Flow> combine;
    /** Routed tokens (with expert multiplicity) per device. */
    std::vector<double> tokensPerDevice;
    /** Hosted experts receiving at least one token, per device. */
    std::vector<int> activeExpertsPerDevice;
    /**
     * Aggregated dispatch bytes per (src, dst) pair (combine is the
     * transpose), dense or sparse by device count unless the caller
     * pinned a storage. Populated only on the aggregated path.
     */
    TrafficAccumulator pairBytes;
    /** Per-expert total token counts summed over DP groups. */
    std::vector<double> expertLoads;

    // Aggregated-path scratch, reused across calls: the dispatch source
    // and dedup factor of each (device, rank) for the group being
    // routed, at device · ranks + rank (ranks is 1 when the sources
    // ignore the rank), and per device the group they hold (-1: none).
    std::vector<int> sourceGroup;
    std::vector<DeviceId> sources;
    std::vector<double> dedupFactors;
};

/**
 * Route one layer's gated tokens into @p out, reusing its buffers
 * (the engine's per-iteration hot path: no allocation once the
 * buffers reached steady-state capacity).
 *
 * @param mapping    Parallelism mapping (dispatch-source rule, TP/DP).
 * @param placement  Current expert placement.
 * @param counts     counts[group][expert] token assignments.
 * @param tokenBytes Bytes of one token's activation (FP16 hidden).
 * @param retainAllGather Whether attention retained the all-gather
 *        (nearest-source dispatch) or not (owner-only dispatch).
 * @param topk       Experts activated per token (hierarchical-A2A
 *        dedup on switch clusters; ignored by mesh mappings).
 * @param out        Result; cleared and refilled.
 * @param aggregate  Collapse flows into the per-(src, dst) matrix
 *        (default). When false, emit one flow per
 *        (group, rank, replica) triple — the pre-aggregation
 *        behaviour, kept as the equivalence tests' reference.
 */
void routeTokens(const Mapping &mapping, const ExpertPlacement &placement,
                 const std::vector<std::vector<int>> &counts,
                 double tokenBytes, bool retainAllGather, int topk,
                 RoutedTraffic &out, bool aggregate = true);

/** Convenience wrapper returning a fresh RoutedTraffic. */
RoutedTraffic routeTokens(const Mapping &mapping,
                          const ExpertPlacement &placement,
                          const std::vector<std::vector<int>> &counts,
                          double tokenBytes, bool retainAllGather,
                          int topk = 1);

} // namespace moentwine

#endif // MOENTWINE_ENGINE_TOKEN_ROUTER_HH
