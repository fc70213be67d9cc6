/**
 * @file
 * Inference scenarios and their expert-affinity structure.
 *
 * The paper profiles expert-selection traces from four benchmark
 * suites — Chat, Coding, Math, and Privacy-agent — and observes (Fig. 12)
 * that (a) expert popularity is strongly skewed, (b) the skew pattern is
 * scenario-specific and stable within a scenario after a short warm-up,
 * and (c) production mixes drift slowly between scenarios.
 *
 * We reproduce that structure synthetically: each scenario draws a
 * deterministic permutation of the expert set and weights experts by a
 * Zipf law over the permuted rank. Different scenarios therefore favour
 * different (but internally consistent) expert subsets, which is the
 * property the balancing experiments depend on.
 */

#ifndef MOENTWINE_WORKLOAD_SCENARIO_HH
#define MOENTWINE_WORKLOAD_SCENARIO_HH

#include <cstdint>
#include <string>
#include <vector>

namespace moentwine {

/** The four benchmark scenarios of the paper's evaluation. */
enum class ScenarioKind
{
    Chat,
    Coding,
    Math,
    Privacy,
};

/** Human-readable scenario name. */
std::string scenarioName(ScenarioKind kind);

/**
 * All four scenarios in the paper's order. Returns a reference to a
 * function-local constant so per-iteration callers (the MixedScenario
 * drift check) stay allocation-free.
 */
const std::vector<ScenarioKind> &allScenarios();

/**
 * Rotating scenario mixture: raised-cosine weights with one phase
 * offset per scenario, normalised to a convex mixture. The shared
 * drift shape of the workload generator's MixedScenario mode (phase
 * from the iteration index) and the serving layer's arrival mixes
 * (phase from the virtual clock).
 *
 * @param phase Rotation phase in radians (one full rotation per 2π).
 */
std::vector<double> rotatingScenarioMix(double phase);

/**
 * In-place rotatingScenarioMix() for per-iteration callers (the
 * workload generator's drift check): @p mix is assigned, reusing its
 * storage.
 */
void rotatingScenarioMixInto(double phase, std::vector<double> &mix);

/**
 * Per-scenario, per-layer expert affinity: unnormalised selection
 * weights for every expert.
 *
 * @param kind       Scenario.
 * @param layer      MoE layer index (expert specialisation differs by
 *                   layer).
 * @param numExperts Routed experts in the layer.
 * @param zipf       Zipf exponent of the popularity skew (≥ 0; zero
 *                   yields a uniform distribution).
 * @param seed       Base seed; the same (seed, kind, layer) triple
 *                   always produces the same affinity vector.
 */
std::vector<double> scenarioAffinity(ScenarioKind kind, int layer,
                                     int numExperts, double zipf,
                                     uint64_t seed);

} // namespace moentwine

#endif // MOENTWINE_WORKLOAD_SCENARIO_HH
