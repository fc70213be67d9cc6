#include "engine/token_router.hh"

#include "common/logging.hh"

namespace moentwine {

namespace {

/**
 * Emit dispatch/combine flows for one routed token batch. The
 * aggregated path accumulates per-(src, dst) bytes into out.pairBytes;
 * the reference path (the equivalence tests' baseline) appends one
 * flow per (group, rank, replica) triple.
 */
void
accumulateFlows(const Mapping &mapping, const ExpertPlacement &placement,
                const std::vector<std::vector<int>> &counts,
                double tokenBytes, bool retainAllGather, int topk,
                RoutedTraffic &out, bool aggregate)
{
    const int tp = mapping.tp();
    // When the source choice ignores the shard rank, the tp identical
    // per-shard contributions collapse into one per-replica volume.
    const bool collapseRanks = aggregate &&
        mapping.dispatchSourceRankInvariant(retainAllGather);
    for (int g = 0; g < mapping.dp(); ++g) {
        const auto &row = counts[static_cast<std::size_t>(g)];
        MOE_ASSERT(row.size() ==
                       static_cast<std::size_t>(placement.numExperts()),
                   "counts row width must equal expert count");
        for (int e = 0; e < placement.numExperts(); ++e) {
            const int count = row[static_cast<std::size_t>(e)];
            if (count == 0)
                continue;
            const auto &replicas = placement.replicasOf(e);
            const double perReplica =
                static_cast<double>(count) /
                static_cast<double>(replicas.size());
            const double perShard = perReplica / tp;
            for (const DeviceId dev : replicas) {
                out.tokensPerDevice[static_cast<std::size_t>(dev)] +=
                    perReplica;
                const int ranks = collapseRanks ? 1 : tp;
                const double perRank = collapseRanks ? perReplica
                                                    : perShard;
                for (int r = 0; r < ranks; ++r) {
                    const DeviceId src = mapping.dispatchSource(
                        g, r, dev, retainAllGather);
                    const double bytes = perRank * tokenBytes *
                        mapping.dispatchDedupFactor(src, dev, topk);
                    if (src == dev || bytes <= 0.0)
                        continue;
                    if (aggregate) {
                        out.pairBytes.add(src, dev, bytes);
                    } else {
                        out.dispatch.push_back(Flow{src, dev, bytes});
                        out.combine.push_back(Flow{dev, src, bytes});
                    }
                }
            }
        }
    }
}

} // namespace

void
routeTokens(const Mapping &mapping, const ExpertPlacement &placement,
            const std::vector<std::vector<int>> &counts, double tokenBytes,
            bool retainAllGather, int topk, RoutedTraffic &out,
            bool aggregate)
{
    const int devices = mapping.numDevices();
    MOE_ASSERT(counts.size() == static_cast<std::size_t>(mapping.dp()),
               "counts must have one row per DP group");
    MOE_ASSERT(placement.numDevices() == devices,
               "placement/mapping device count mismatch");

    out.dispatch.clear();
    out.combine.clear();
    out.tokensPerDevice.assign(static_cast<std::size_t>(devices), 0.0);
    out.activeExpertsPerDevice.assign(static_cast<std::size_t>(devices),
                                      0);
    out.pairBytes.reset(aggregate ? devices : 0);

    // Per-expert total loads, computed once (the active-expert scan
    // below and the engine's EMA both read them).
    out.expertLoads.assign(
        static_cast<std::size_t>(placement.numExperts()), 0.0);
    for (const auto &row : counts) {
        MOE_ASSERT(row.size() == out.expertLoads.size(),
                   "counts row width must equal expert count");
        for (std::size_t e = 0; e < row.size(); ++e)
            out.expertLoads[e] += row[e];
    }

    accumulateFlows(mapping, placement, counts, tokenBytes,
                    retainAllGather, topk, out, aggregate);

    if (aggregate) {
        // Materialise the non-zero pairs as flows in tile-major order
        // (cache-blocked so the downstream addFlow reduction touches
        // the link-volume buffer with locality); combine mirrors
        // dispatch (same bytes, reversed direction).
        out.pairBytes.forEachTiled(
            [&out](DeviceId s, DeviceId d, double bytes) {
                out.dispatch.push_back(Flow{s, d, bytes});
                out.combine.push_back(Flow{d, s, bytes});
            });
    }

    // Active experts per device (for weight-streaming time), answered
    // from the precomputed per-expert loads instead of rescanning the
    // counts matrix per hosted expert.
    for (DeviceId d = 0; d < devices; ++d) {
        int active = 0;
        for (const int e : placement.expertsOn(d)) {
            if (out.expertLoads[static_cast<std::size_t>(e)] > 0.0)
                ++active;
        }
        out.activeExpertsPerDevice[static_cast<std::size_t>(d)] = active;
    }
}

RoutedTraffic
routeTokens(const Mapping &mapping, const ExpertPlacement &placement,
            const std::vector<std::vector<int>> &counts, double tokenBytes,
            bool retainAllGather, int topk)
{
    RoutedTraffic out;
    routeTokens(mapping, placement, counts, tokenBytes, retainAllGather,
                topk, out);
    return out;
}

} // namespace moentwine
