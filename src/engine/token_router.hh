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
 * transpose). Both storages yield bitwise identical flow lists.
 *
 * The aggregated path fills the accumulator by one of two walks, which
 * give the same bits:
 *  - The device walk, for rows whose slots cover every expert and every
 *    device (prefill-sized batches) on mappings whose (src, dst) pairs
 *    are each fed by one (group, rank)
 *    (Mapping::dispatchPairsSingleSourced). It indexes each device's
 *    hosted experts (ascending id, from the placement's replica lists)
 *    once per call. Per group it sums each device's token load and each
 *    rank's dispatch bytes over its hosted experts in registers, with
 *    no branch on a count (a zero count adds +0.0), asks the mapping
 *    for the rank's source and dedup factor once, and issues one add
 *    per (group, rank, device). With one feeder per pair, that add
 *    equals the per-expert adds bit for bit; dispatch_source_test
 *    checks the claim on every mapping.
 *  - The contribution walk, for sparser rows (decode batches,
 *    wafer-scale systems) and HER-Mapping's mirrored sources: one add
 *    per non-zero (group, expert, replica[, rank]), with each
 *    (group, rank, device) source and dedup factor asked once, on the
 *    device's first replica in the group.
 * The unaggregated per-triple flow list, which asks the mapping for
 * every triple, is kept behind an `aggregate` toggle as the reference
 * that tests/flow_aggregation_test.cpp checks the aggregated path
 * against, alongside a per-expert fold of the pair bytes that both
 * walks must equal exactly.
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

    // Aggregated-path scratch, reused across calls.
    /** Contribution walk: the dispatch source and dedup factor of
     *  each (device, rank) for the group being routed, at
     *  device · ranks + rank (ranks is 1 when the sources ignore the
     *  rank), and per device the group they hold (-1: none). */
    std::vector<int> sourceGroup;
    std::vector<DeviceId> sources;
    std::vector<double> dedupFactors;
    /** Device walk: device d's hosted experts in ascending id at
     *  hostedExperts[hostedStart[d], hostedStart[d + 1]). */
    std::vector<int> hostedStart;
    std::vector<int> hostedExperts;
    /** Device walk, per expert: the reciprocal of its replica count
     *  (0.0 when that is no power of two, for the experts listed in
     *  unevenExperts), and the routed group's tokens per replica and
     *  dispatch bytes per rank. */
    std::vector<double> replicaScale;
    std::vector<int> unevenExperts;
    std::vector<double> perReplica;
    std::vector<double> rankBytes;
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
