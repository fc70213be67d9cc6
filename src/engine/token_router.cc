#include "engine/token_router.hh"

#include "common/logging.hh"

namespace moentwine {

namespace {

/**
 * The aggregated path: per-(src, dst) dispatch bytes into
 * out.pairBytes, per-device token loads and per-expert loads, in one
 * pass over the (group, expert, replica[, rank]) contributions. Each
 * (group, rank, device) source and dedup factor comes from the mapping
 * once, on the device's first replica in the group.
 */
void
accumulatePairs(const Mapping &mapping, const ExpertPlacement &placement,
                const std::vector<std::vector<int>> &counts,
                double tokenBytes, bool retainAllGather, int topk,
                RoutedTraffic &out)
{
    const int tp = mapping.tp();
    // When the source choice ignores the shard rank, the tp identical
    // per-shard contributions collapse into one per-replica volume.
    const bool collapseRanks =
        mapping.dispatchSourceRankInvariant(retainAllGather);
    const std::size_t ranks =
        collapseRanks ? 1 : static_cast<std::size_t>(tp);
    const auto devices = static_cast<std::size_t>(mapping.numDevices());
    out.sourceGroup.assign(devices, -1);
    out.sources.resize(devices * ranks);
    out.dedupFactors.resize(devices * ranks);
    for (int g = 0; g < mapping.dp(); ++g) {
        const auto &row = counts[static_cast<std::size_t>(g)];
        MOE_ASSERT(row.size() == out.expertLoads.size(),
                   "counts row width must equal expert count");
        for (int e = 0; e < placement.numExperts(); ++e) {
            const int count = row[static_cast<std::size_t>(e)];
            if (count == 0)
                continue;
            out.expertLoads[static_cast<std::size_t>(e)] += count;
            const auto &replicas = placement.replicasOf(e);
            // One replica takes the whole count: count / 1 is count.
            const double perReplica = replicas.size() == 1
                ? static_cast<double>(count)
                : static_cast<double>(count) /
                    static_cast<double>(replicas.size());
            const double perRank = collapseRanks ? perReplica
                                                 : perReplica / tp;
            const double rankBytes = perRank * tokenBytes;
            for (const DeviceId dev : replicas) {
                const auto d = static_cast<std::size_t>(dev);
                out.tokensPerDevice[d] += perReplica;
                // This device's entries, one per rank.
                const std::size_t first = d * ranks;
                const std::size_t last = first + ranks;
                if (out.sourceGroup[d] != g) {
                    out.sourceGroup[d] = g;
                    for (std::size_t i = first; i < last; ++i) {
                        const DeviceId src = mapping.dispatchSource(
                            g, static_cast<int>(i - first), dev,
                            retainAllGather);
                        out.sources[i] = src;
                        out.dedupFactors[i] =
                            mapping.dispatchDedupFactor(src, dev, topk);
                    }
                }
                for (std::size_t i = first; i < last; ++i) {
                    const DeviceId src = out.sources[i];
                    const double bytes = rankBytes * out.dedupFactors[i];
                    if (src == dev || bytes <= 0.0)
                        continue;
                    out.pairBytes.add(src, dev, bytes);
                }
            }
        }
    }
}

/**
 * The reference path: one dispatch and one combine flow per
 * (group, rank, replica) triple, each asking the mapping for its
 * source and dedup factor, plus the per-device and per-expert loads.
 */
void
emitTripleFlows(const Mapping &mapping, const ExpertPlacement &placement,
                const std::vector<std::vector<int>> &counts,
                double tokenBytes, bool retainAllGather, int topk,
                RoutedTraffic &out)
{
    const int tp = mapping.tp();
    for (int g = 0; g < mapping.dp(); ++g) {
        const auto &row = counts[static_cast<std::size_t>(g)];
        MOE_ASSERT(row.size() == out.expertLoads.size(),
                   "counts row width must equal expert count");
        for (int e = 0; e < placement.numExperts(); ++e) {
            const int count = row[static_cast<std::size_t>(e)];
            if (count == 0)
                continue;
            out.expertLoads[static_cast<std::size_t>(e)] += count;
            const auto &replicas = placement.replicasOf(e);
            const double perReplica =
                static_cast<double>(count) /
                static_cast<double>(replicas.size());
            const double perShard = perReplica / tp;
            for (const DeviceId dev : replicas) {
                out.tokensPerDevice[static_cast<std::size_t>(dev)] +=
                    perReplica;
                for (int r = 0; r < tp; ++r) {
                    const DeviceId src = mapping.dispatchSource(
                        g, r, dev, retainAllGather);
                    const double bytes = perShard * tokenBytes *
                        mapping.dispatchDedupFactor(src, dev, topk);
                    if (src == dev || bytes <= 0.0)
                        continue;
                    out.dispatch.push_back(Flow{src, dev, bytes});
                    out.combine.push_back(Flow{dev, src, bytes});
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

    // Per-expert total loads, summed with the contributions (the
    // active-expert scan below and the engine's EMA both read them).
    out.expertLoads.assign(
        static_cast<std::size_t>(placement.numExperts()), 0.0);

    if (aggregate) {
        accumulatePairs(mapping, placement, counts, tokenBytes,
                        retainAllGather, topk, out);
        // Materialise the non-zero pairs as flows in tile-major order
        // (cache-blocked so the downstream addFlow reduction touches
        // the link-volume buffer with locality); combine mirrors
        // dispatch (same bytes, reversed direction).
        out.pairBytes.forEachTiled(
            [&out](DeviceId s, DeviceId d, double bytes) {
                out.dispatch.push_back(Flow{s, d, bytes});
                out.combine.push_back(Flow{d, s, bytes});
            });
    } else {
        emitTripleFlows(mapping, placement, counts, tokenBytes,
                        retainAllGather, topk, out);
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
