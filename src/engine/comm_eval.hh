/**
 * @file
 * One-layer communication evaluation used by the mapping studies
 * (Figs. 6, 13, 14(a), 14(b)). evaluateCommunication() computes the
 * attention all-reduce time and the MoE dispatch/combine all-to-all
 * times under load-balanced gating (every expert equally likely),
 * exactly as Section VI-B isolates mapping effects from load
 * imbalance. evaluateEsp() is Fig. 14(a)'s expert-sharding layer, in
 * which the all-to-all is replaced by an all-reduce of expert partial
 * sums inside each FTD.
 */

#ifndef MOENTWINE_ENGINE_COMM_EVAL_HH
#define MOENTWINE_ENGINE_COMM_EVAL_HH

#include "balancer/placement.hh"
#include "engine/engine.hh"
#include "mapping/mapping.hh"
#include "model/moe_config.hh"
#include "network/traffic.hh"

namespace moentwine {

/** Communication latencies of one sparse layer. */
struct CommEvalResult
{
    /** Attention all-reduce completion time (s). */
    double allReduce;
    /** MoE dispatch all-to-all time (s). */
    double dispatch;
    /** MoE combine all-to-all time (s). */
    double combine;
    /** Aggregated all-reduce traffic (heatmaps, NI budgets). */
    PhaseTraffic arTraffic;
    /** Aggregated dispatch+combine traffic. */
    PhaseTraffic a2aTraffic;

    /** Total MoE all-to-all time. */
    double allToAll() const { return dispatch + combine; }

    /** Total communication time of the layer. */
    double total() const { return allReduce + allToAll(); }
};

/**
 * Evaluate one layer's communication under balanced gating.
 *
 * @param mapping         Parallelism mapping.
 * @param model           MoE model.
 * @param tokensPerGroup  Tokens per TP group.
 * @param retainAllGather Retain the all-gather half of all-reduce.
 * @param placement       Expert placement; round-robin without shadow
 *                        slots when null.
 */
CommEvalResult evaluateCommunication(const Mapping &mapping,
                                     const MoEModelConfig &model,
                                     int tokensPerGroup,
                                     bool retainAllGather,
                                     const ExpertPlacement *placement =
                                         nullptr);

/**
 * Evaluate one ESP (expert-sharding parallelism) layer, Fig. 14(a).
 * Tokens stay in their FTD and every expert is sliced across the FTD's
 * devices, so there is no dispatch or combine; the partial sums are
 * all-reduced inside each FTD instead. Gating does not enter: each
 * device holds an equal slice of every expert its FTD serves.
 *
 * @param mapping        Parallelism mapping.
 * @param model          MoE model.
 * @param tokensPerGroup Tokens per TP group.
 * @return allReduce (attention, all-gather retained), epAllReduce
 *         (ring all-reduce over each FTD's serpentine ring) and the
 *         per-device expert time moeTime / moeComputeOnly /
 *         moeMemoryOnly under the default CostModel. Every other field
 *         is 0, so moePhase() is the ESP MoE phase.
 */
IterationStats evaluateEsp(const Mapping &mapping,
                           const MoEModelConfig &model, int tokensPerGroup);

} // namespace moentwine

#endif // MOENTWINE_ENGINE_COMM_EVAL_HH
