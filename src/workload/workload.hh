/**
 * @file
 * Workload generation: per-iteration expert-selection counts for every
 * DP group, driven by scenario affinities and a slowly evolving
 * scenario mixture (the Azure-trace-style production mix of the paper).
 *
 * The generator produces, per (iteration, layer), a DP×E matrix of
 * token-to-expert assignment counts by multinomial sampling of each
 * group's token·top-k slots over the effective affinity, one alias
 * draw per slot (see AliasTable for the branch-free, packed-slot
 * kernel; any kernel change must keep the same uniforms in the same
 * order, so traces stay bitwise identical). Three regimes
 * are supported:
 *  - Balanced: uniform expert probability — used by the ER-Mapping
 *    communication study to isolate mapping effects (Section VI-B);
 *  - Single scenario: one fixed scenario (e.g. Math-only), whose load
 *    ratios stabilise after warm-up (Fig. 12);
 *  - Mixed: a cyclically drifting convex mixture of all four scenarios,
 *    which keeps load ratios slowly moving and forces continuous
 *    re-balancing (Fig. 15/16).
 */

#ifndef MOENTWINE_WORKLOAD_WORKLOAD_HH
#define MOENTWINE_WORKLOAD_WORKLOAD_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "workload/scenario.hh"

namespace moentwine {

/** Which expert-selection regime drives gating. */
enum class GatingMode
{
    Balanced,       ///< uniform expert probability (communication studies)
    SingleScenario, ///< one fixed scenario
    MixedScenario,  ///< drifting mixture of all scenarios
};

/**
 * Walker/Vose alias table: O(n) build, O(1) exact multinomial draws.
 * The per-iteration gating sampler is the simulator's hottest loop
 * (tokens × top-k draws per DP group), so the draw kernel is tuned:
 *  - each slot packs {prob, alias} so one draw touches one cache line;
 *  - the accept/alias select is branch-free: under a skewed affinity
 *    the accept test is close to a coin flip and would mispredict
 *    about every other draw;
 *  - draws are counted straight into the caller's row. Splitting the
 *    counts over four sub-histograms (against the store-to-load chain
 *    on a hot expert) measured no faster at 1024-32768 draws and up
 *    to 4x slower below 4n draws on a 4-vCPU Xeon VM, where zeroing
 *    and summing the extra 3n counters dominates.
 * Invariant: the kernel consumes the same uniforms in the same order
 * as one-at-a-time draws (one uniform per draw) and returns
 * bitwise-identical counts, so the gating trace is a pure function of
 * the seed, whatever the kernel.
 */
class AliasTable
{
  public:
    /** Build from unnormalised non-negative weights (Σ > 0). */
    void build(const std::vector<double> &weights);

    /**
     * Draw @p draws indices, consuming exactly @p draws uniforms from
     * @p rng, and assign the per-index counts to @p row (resized to
     * size(), storage reused).
     */
    void sampleInto(Rng &rng, int draws, std::vector<int> &row) const;

    /** Number of categories (0 before the first build). */
    std::size_t size() const { return slots_.size(); }

  private:
    /** One column of the table: accept with prob, else take alias. */
    struct Slot
    {
        double prob;
        std::size_t alias;
    };

    std::vector<Slot> slots_;
    // Build worklists, kept to avoid per-build allocation.
    std::vector<std::size_t> small_;
    std::vector<std::size_t> large_;
};

/** Workload generator configuration. */
struct WorkloadConfig
{
    /** Routed experts per MoE layer. */
    int numExperts = 256;
    /** Experts activated per token. */
    int topK = 8;
    /** Selection regime. */
    GatingMode mode = GatingMode::Balanced;
    /** Scenario for SingleScenario mode. */
    ScenarioKind scenario = ScenarioKind::Math;
    /** Zipf exponent of the expert popularity skew. */
    double zipf = 1.0;
    /** Iterations per full mixture rotation (MixedScenario mode). */
    int mixPeriod = 400;
    /**
     * MixedScenario alias-table rebuild cadence: the drifting mixture
     * moves slowly (one rotation per mixPeriod iterations), so the
     * sampler tolerates a slightly stale table instead of paying the
     * O(experts) rebuild every iteration. A rebuild is forced when
     * this many iterations passed since the last one, or earlier when
     * the mixture moved more than aliasDriftTolerance since then.
     * Set to 1 to rebuild every iteration (the pre-cadence behaviour).
     */
    int aliasRebuildPeriod = 16;
    /**
     * L1 distance of the scenario mixture weights (Σ|m_i − m_i'|, in
     * [0, 2]) from the last alias build that forces an early rebuild.
     */
    double aliasDriftTolerance = 0.1;
    /** Base seed; equal configs generate equal traces. */
    uint64_t seed = 42;
};

/**
 * Deterministic expert-selection trace generator.
 */
class WorkloadGenerator
{
  public:
    explicit WorkloadGenerator(const WorkloadConfig &cfg);

    /**
     * Effective per-expert selection probability (normalised) at the
     * given iteration and layer.
     */
    std::vector<double> affinity(int iteration, int layer) const;

    /**
     * Sample the DP×E matrix of token-to-expert assignment counts.
     *
     * @param iteration      Inference iteration index.
     * @param layer          MoE layer index.
     * @param tokensPerGroup Tokens held by each DP group this iteration.
     * @param dpGroups       Number of DP groups.
     * @return counts[group][expert], with each row summing to
     *         tokensPerGroup × topK.
     */
    std::vector<std::vector<int>> sampleCounts(int iteration, int layer,
                                               int tokensPerGroup,
                                               int dpGroups);

    /**
     * In-place variant of sampleCounts() for the engine's per-iteration
     * hot path: @p counts is resized and refilled, reusing row storage
     * across calls. Produces the identical trace for identical calls.
     */
    void sampleCountsInto(int iteration, int layer, int tokensPerGroup,
                          int dpGroups,
                          std::vector<std::vector<int>> &counts);

    /**
     * Drive the scenario mixture from an external source (the serving
     * layer's live mix of admitted requests) instead of the internal
     * cyclic drift. @p weights are unnormalised non-negative weights
     * over allScenarios() (Σ > 0); they stay in effect until the next
     * setScenarioMix() or clearScenarioMix() call. The gating sampler
     * adopts the change on its alias-rebuild cadence: immediately when
     * the mixture moved more than aliasDriftTolerance since the last
     * build, else within aliasRebuildPeriod iterations. Only
     * meaningful for the scenario-driven modes (Balanced gating
     * ignores mixtures).
     */
    void setScenarioMix(const std::vector<double> &weights);

    /** Return to the internally generated scenario mixture. */
    void clearScenarioMix();

    /** Aggregate expert loads (column sums of sampleCounts output). */
    static std::vector<double> expertLoads(
        const std::vector<std::vector<int>> &counts, int numExperts);

    /** In-place variant of expertLoads() (reuses @p loads storage). */
    static void expertLoadsInto(
        const std::vector<std::vector<int>> &counts, int numExperts,
        std::vector<double> &loads);

    /** The configuration in use. */
    const WorkloadConfig &config() const { return cfg_; }

  private:
    /** Mixture weight of each scenario at the given iteration. */
    std::vector<double> mixtureWeights(int iteration) const;

    /** In-place mixtureWeights() (reuses @p mix storage). */
    void mixtureWeightsInto(int iteration,
                            std::vector<double> &mix) const;

    /** Compute affinity() into @p weights, reusing cached scenario
     *  base affinities (they depend only on the layer). */
    void affinityInto(int iteration, int layer,
                      std::vector<double> &weights) const;

    WorkloadConfig cfg_;
    Rng rng_;
    // Externally imposed scenario mixture (normalised); empty when the
    // internal per-iteration drift drives the mix. The dirty flag makes
    // the next sampleCountsInto() drift-check the new mixture even when
    // the iteration index did not advance since the last alias build.
    std::vector<double> externalMix_;
    bool mixDirty_ = false;
    // Per-scenario base affinities for cachedLayer_, built lazily so
    // per-iteration sampling does not recompute the Zipf tables.
    mutable int cachedLayer_ = -1;
    mutable std::vector<std::vector<double>> scenarioBase_;
    // Scratch affinity plus the alias table sampleCountsInto() draws
    // from; the table is rebuilt only when the affinity changes: once
    // per layer in the fixed regimes, and on the coarse
    // aliasRebuildPeriod / aliasDriftTolerance cadence under a
    // drifting MixedScenario mixture.
    std::vector<double> affinityScratch_;
    AliasTable alias_;
    int aliasIteration_ = -1;
    int aliasLayer_ = -1;
    // Mixture weights at the last alias build (drift reference) and
    // the scratch the per-iteration drift check fills.
    std::vector<double> aliasMix_;
    std::vector<double> mixScratch_;
};

} // namespace moentwine

#endif // MOENTWINE_WORKLOAD_WORKLOAD_HH
