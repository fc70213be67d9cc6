/**
 * @file
 * Stage-by-stage replay of InferenceEngine::step through the library's
 * public layer calls, in the order engine.cc runs them:
 * Mapping::allReduceInto, WorkloadGenerator::sampleCountsInto,
 * routeTokens, allToAllInto (dispatch, combine), CostModel::moeDevice,
 * then the EMA / RebalanceTrigger and the balancer (Balancer::rebalance
 * for the invasive kinds, NiBalancer::plan / advanceAttention /
 * advanceMoe for the non-invasive one).
 *
 * The replay keeps its own copy of every piece of engine state, so it
 * can run beside a real engine in lockstep: each iteration steps the
 * engine (timed whole), then the replay (timed per stage), and every
 * IterationStats field of the replay must equal the engine's bitwise.
 * A mismatch means the replay drifted from engine.cc, and the per-layer
 * numbers it produced no longer describe the engine; it is counted as
 * a failed operation.
 *
 * Only fault-free, non-ESP engines are mirrored; no workload runs the
 * ESP branch, and the faulted engines (inside the fleet) are timed
 * only at the fleet's entry point.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "bench.hh"

namespace perfbench {

/** Per-layer totals accumulated over replayed iterations. */
struct StageTotals
{
    // Host seconds.
    double stepS = 0.0;      ///< real InferenceEngine::step
    double allReduceS = 0.0; ///< Mapping::allReduceInto
    double gatingS = 0.0;    ///< WorkloadGenerator::sampleCountsInto
    double routeS = 0.0;     ///< routeTokens
    double a2aS = 0.0;       ///< allToAllInto dispatch + combine (+ merge)
    double moeS = 0.0;       ///< CostModel::moeDevice loop
    double planS = 0.0;      ///< balancer planning (invasive or NI)
    double niAdvanceS = 0.0; ///< NiBalancer::advanceAttention/advanceMoe
    double replayS = 0.0;    ///< whole replayed iteration

    // Counts.
    std::int64_t iterations = 0;
    std::int64_t mismatches = 0; ///< iterations with a differing field
    std::int64_t gatingSamples = 0;
    std::int64_t flows = 0;
    std::int64_t flowHops = 0;
    std::int64_t busyLinks = 0;
    std::int64_t migrationsPlanned = 0;
    std::int64_t migrationsCompleted = 0;
    double dispatchBytes = 0.0;
    double combineBytes = 0.0;

    /** Sum of the replayed stage times (seconds). */
    double stagesS() const
    {
        return allReduceS + gatingS + routeS + a2aS + moeS + planS +
            niAdvanceS;
    }
};

class LockstepReplay
{
  public:
    /** Mirror of a freshly constructed InferenceEngine(mapping, cfg);
     *  @p cfg must not select ESP, and the engine must run fault-free. */
    LockstepReplay(const moentwine::Mapping &mapping,
                   const moentwine::EngineConfig &cfg, SpanLog &spans);
    ~LockstepReplay();

    /**
     * Step @p engine (which must be in the state this replay mirrors)
     * with @p demand, replay the same iteration, compare, and
     * accumulate into @p totals. Returns the engine's stats.
     */
    moentwine::IterationStats step(moentwine::InferenceEngine &engine,
                                   const moentwine::IterationDemand &demand,
                                   StageTotals &totals);

    /** Mirror of engine.workload().setScenarioMix(). */
    void setScenarioMix(const std::vector<double> &weights);

  private:
    moentwine::IterationStats replay(
        const moentwine::IterationDemand &demand, StageTotals &totals,
        int parent);

    const moentwine::Mapping &mapping_;
    moentwine::EngineConfig cfg_;
    SpanLog &spans_;
    moentwine::CostModel cost_;
    moentwine::WorkloadGenerator workload_;
    moentwine::ExpertPlacement placement_;
    std::vector<double> emaLoads_;
    moentwine::RebalanceTrigger trigger_;
    std::unique_ptr<moentwine::Balancer> invasive_;
    std::unique_ptr<moentwine::NiBalancer> nonInvasive_;
    int iteration_ = 0;

    std::vector<std::vector<int>> counts_;
    moentwine::RoutedTraffic routed_;
    moentwine::PhaseTraffic a2a_;
    moentwine::PhaseTraffic disp_;
    moentwine::PhaseTraffic comb_;
    moentwine::CollectiveScratch ar_;
};

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
