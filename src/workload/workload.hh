/**
 * @file
 * Workload generation: per-iteration expert-selection counts for every
 * DP group, driven by scenario affinities and a slowly evolving
 * scenario mixture (the Azure-trace-style production mix of the paper).
 *
 * The generator produces, per (iteration, layer), a DP×E matrix of
 * token-to-expert assignment counts. Each row is one exact multinomial
 * draw of the group's token·top-k slots over the effective affinity
 * (sampling with replacement), made by GatingSampler at a cost that
 * scales with the experts, not the slots. Each group draws from its own
 * Rng keyed on (seed, iteration, layer, group), so a row is a pure
 * function of those and of the sampler's rebuild state: any iteration
 * reproduces alone, and row g does not depend on the group count.
 * Three regimes are supported:
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
#include <utility>
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
 * It is GatingSampler's kernel for small slot counts and for the tail
 * of large ones, so the draw loop is tuned:
 *  - each slot packs {prob, alias} so one draw touches one cache line;
 *  - the accept/alias select is branch-free: under a skewed affinity
 *    the accept test is close to a coin flip and would mispredict
 *    about every other draw;
 *  - draws are counted straight into the caller's row. Splitting the
 *    counts over four sub-histograms (against the store-to-load chain
 *    on a hot expert) measured no faster at 1024-32768 draws and up
 *    to 4x slower below 4n draws on a 4-vCPU Xeon VM, where zeroing
 *    and summing the extra 3n counters dominates.
 * Invariant: each draw consumes exactly one uniform, so @p draws draws
 * advance the stream by @p draws uniforms, and a zero-weight category
 * is never drawn.
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

    /** As sampleInto(), but adds the counts to @p counts[0, size()). */
    void addDraws(Rng &rng, int draws, int *counts) const;

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

/**
 * Binomial(n, p) variate, exact and deterministic (no stdlib
 * distribution; see rng.hh): inversion with a reciprocal table for
 * n·min(p, 1−p) < 10, BTRD rejection (Hörmann 1993) otherwise, and
 * p > ½ by reflection. n = 0, p = 0 and p = 1 consume no uniforms.
 */
int sampleBinomial(Rng &rng, int n, double p);

/** The binomial kernels' parameters for a success probability q ≤ ½
 *  (p reflected to min(p, 1 − p)); GatingSampler precomputes them per
 *  head rank. */
struct BinomialParam
{
    double q;
    double r;      ///< q / (1 − q)
    double log1mq; ///< log1p(−q)
};

/**
 * Exact multinomial sampler of DP groups' expert counts: each row is a
 * draw of `slots` categories with replacement over fixed weights, at a
 * cost that scales with the experts, not the slots.
 *  - The head: experts by descending weight (ties by id), with each
 *    rank's conditional probability p_i / (1 − Σ_{j<i} p_j) and its
 *    binomial parameters precomputed.
 *  - sampleRowsInto() walks the head with sequential conditional
 *    binomials. At every cut rank (a fixed grid over the ranks) a row
 *    switches to one alias draw per remaining slot once the next cut's
 *    binomials would place too few slots each to beat the alias draws.
 *    Conditional on the head counts the tail is multinomial(left, tail
 *    weights), so any switching rule is exact. The cut-0 table is the
 *    plain alias table over every expert, so small slot counts cost
 *    one alias draw per slot.
 *  - The walk is rank-major over the rows: at each head rank it draws
 *    one binomial for every row still in the head, each from that row's
 *    own Rng. A row's binomial depends on its previous one (n is the
 *    leftover), but the rows are independent, so the rows' latency
 *    chains overlap. Each row consumes its stream exactly as a walk of
 *    that row alone would, and switches to its tail at its own cut.
 *  - Each cut's ranks and tail table are prepared on its first use
 *    after a build(), by selecting the heaviest unranked experts, so a
 *    rebuild costs only the cuts that draws reach; one that only small
 *    slot counts follow costs an alias build, as the plain alias
 *    sampler's did.
 * Rows always sum to `slots`, and zero-weight experts are never drawn.
 */
class GatingSampler
{
  public:
    /** Build from unnormalised non-negative weights (Σ > 0). */
    void build(const std::vector<double> &weights);

    /**
     * Assign the counts of @p slots draws to each of the @p groups rows
     * at @p rows (each resized to size(), storage reused); row g draws
     * from @p rngs[g] only.
     */
    void sampleRowsInto(Rng *rngs, std::vector<int> *rows, int groups,
                        int slots);

    /** Number of categories (0 before the first build). */
    std::size_t size() const { return weights_.size(); }

  private:
    /** One head rank: its expert and conditional binomial, reflected
     *  to q = min(p, 1 − p) ≤ ½. */
    struct Rank
    {
        BinomialParam binomial;
        int expert;
        bool flip; ///< p > ½: the count is n − Binomial(n, q)
    };

    /** A row still in the head walk. */
    struct Walker
    {
        Rng *rng;
        int *row;
        int left; ///< slots not yet placed
    };

    /** Rank the experts of cut @p cut (its first use after build()). */
    void prepareCut(int cut);

    /** The tail table of cut @p cut, built on first use. */
    const AliasTable &tail(int cut);

    std::vector<double> weights_; ///< as given to build()
    int cutStride_ = 1;           ///< ranks between cuts
    // Slot counts up to this take cut 0's alias table without ranking
    // any expert: a lower bound on cut 0's switch threshold.
    double aliasBelow_ = 0.0;
    // The head: ranks_[0, preparedCuts_·cutStride_) are ranked, and
    // placed_ marks their experts.
    std::vector<Rank> ranks_;
    std::vector<char> placed_;
    int preparedCuts_ = 0;
    // Per prepared cut: switch to its tail when at most this many slots
    // are left.
    std::vector<double> switchBelow_;
    // Per cut: alias table over the weights with ranks before the cut
    // zeroed.
    std::vector<AliasTable> tails_;
    std::vector<bool> tailBuilt_;
    // Scratch kept to avoid per-build allocation: the next cut's
    // (weight, expert) pairs and the weights a tail table is built on.
    std::vector<std::pair<double, int>> cutTop_;
    std::vector<double> tailWeights_;
    // sampleRowsInto()'s rows, one per group (walk scratch).
    std::vector<Walker> walkers_;
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
    /** Iterations per full mixture rotation (MixedScenario mode). */
    int mixPeriod = 400;
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
     * across calls. Row g draws from an Rng keyed on (seed, iteration,
     * layer, g), so it depends only on the arguments and the sampler's
     * rebuild state, never on earlier calls' draws.
     */
    void sampleCountsInto(int iteration, int layer, int tokensPerGroup,
                          int dpGroups,
                          std::vector<std::vector<int>> &counts);

    /**
     * Drive the scenario mixture from an external source (the serving
     * layer's live mix of admitted requests) instead of the internal
     * cyclic drift. @p weights are unnormalised non-negative weights
     * over allScenarios() (Σ > 0); they stay in effect until the next
     * setScenarioMix() call. The gating sampler
     * adopts the change on its rebuild cadence (workload.cc):
     * immediately when the mixture moved more than kDriftTolerance
     * since the last build, else within kRebuildPeriod iterations. Only
     * meaningful for the scenario-driven modes (Balanced gating
     * ignores mixtures).
     */
    void setScenarioMix(const std::vector<double> &weights);

    /** Aggregate expert loads (column sums of sampleCounts output). */
    static std::vector<double> expertLoads(
        const std::vector<std::vector<int>> &counts, int numExperts);

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
    // Externally imposed scenario mixture (normalised); empty when the
    // internal per-iteration drift drives the mix. The dirty flag makes
    // the next sampleCountsInto() drift-check the new mixture even when
    // the iteration index did not advance since the last sampler build.
    std::vector<double> externalMix_;
    bool mixDirty_ = false;
    // Per-scenario base affinities for cachedLayer_, built lazily so
    // per-iteration sampling does not recompute the Zipf tables.
    mutable int cachedLayer_ = -1;
    mutable std::vector<std::vector<double>> scenarioBase_;
    // Scratch affinity plus the sampler sampleCountsInto() draws from;
    // the sampler is rebuilt only when the affinity changes: once per
    // layer in the fixed regimes, and on the coarse
    // kRebuildPeriod / kDriftTolerance cadence under a drifting
    // MixedScenario mixture.
    std::vector<double> affinityScratch_;
    GatingSampler sampler_;
    // The groups' keyed streams of the current call.
    std::vector<Rng> rngs_;
    int builtIteration_ = -1;
    int builtLayer_ = -1;
    // Mixture weights at the last sampler build (drift reference) and
    // the scratch the per-iteration drift check fills.
    std::vector<double> builtMix_;
    std::vector<double> mixScratch_;
};

} // namespace moentwine

#endif // MOENTWINE_WORKLOAD_WORKLOAD_HH
