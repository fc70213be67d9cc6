#include "workload/scenario.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"

namespace moentwine {

std::string
scenarioName(ScenarioKind kind)
{
    switch (kind) {
      case ScenarioKind::Chat:
        return "Chat";
      case ScenarioKind::Coding:
        return "Coding";
      case ScenarioKind::Math:
        return "Math";
      case ScenarioKind::Privacy:
        return "Privacy";
    }
    panic("unknown scenario kind");
}

const std::vector<ScenarioKind> &
allScenarios()
{
    static const std::vector<ScenarioKind> kAll = {
        ScenarioKind::Chat, ScenarioKind::Coding, ScenarioKind::Math,
        ScenarioKind::Privacy};
    return kAll;
}

std::vector<double>
rotatingScenarioMix(double phase)
{
    std::vector<double> mix;
    rotatingScenarioMixInto(phase, mix);
    return mix;
}

void
rotatingScenarioMixInto(double phase, std::vector<double> &mix)
{
    const std::size_t n = allScenarios().size();
    mix.assign(n, 0.0);
    double total = 0.0;
    for (std::size_t s = 0; s < n; ++s) {
        const double offset =
            2.0 * M_PI * static_cast<double>(s) / static_cast<double>(n);
        mix[s] = 1.0 + std::cos(phase - offset);
        total += mix[s];
    }
    MOE_ASSERT(total > 0.0, "degenerate rotating scenario mixture");
    for (double &m : mix)
        m /= total;
}

std::vector<double>
scenarioAffinity(ScenarioKind kind, int layer, int numExperts, double zipf,
                 uint64_t seed)
{
    MOE_ASSERT(numExperts > 0, "affinity needs at least one expert");
    MOE_ASSERT(zipf >= 0.0, "Zipf exponent must be non-negative");

    // Derive a deterministic sub-stream for (scenario, layer).
    const uint64_t mixed = seed ^
        (static_cast<uint64_t>(kind) * 0x9E3779B97F4A7C15ULL) ^
        (static_cast<uint64_t>(layer) * 0xC2B2AE3D27D4EB4FULL);
    Rng rng(mixed);
    const auto perm = rng.permutation(
        static_cast<std::size_t>(numExperts));

    std::vector<double> weights(static_cast<std::size_t>(numExperts));
    for (std::size_t e = 0; e < weights.size(); ++e) {
        const double rank = static_cast<double>(perm[e]) + 1.0;
        weights[e] = 1.0 / std::pow(rank, zipf);
    }
    return weights;
}

} // namespace moentwine
