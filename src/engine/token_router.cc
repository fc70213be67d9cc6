#include "engine/token_router.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"

namespace moentwine {

namespace {

/** True when @p n is a power of two (1 included). */
bool
isPowerOfTwo(std::size_t n)
{
    return n != 0 && (n & (n - 1)) == 0;
}

/**
 * The aggregated path for sparse rows: one pass over the
 * (group, expert, replica[, rank]) contributions of the non-zero
 * counts, each added to its pair. Each (group, rank, device) source and
 * dedup factor comes from the mapping once, on the device's first
 * replica in the group.
 */
void
accumulateContributions(const Mapping &mapping,
                        const ExpertPlacement &placement,
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
 * The aggregated path for dense rows on single-sourced mappings: per
 * group, each device's hosted experts in ascending id, its token load
 * and each rank's dispatch bytes summed in registers, and one add per
 * (group, rank, device). A zero count adds +0.0, which leaves the
 * non-negative sums unchanged, so every sum keeps the operands and
 * order of the contribution walk; and as each (src, dst) pair is fed
 * by one (group, rank) only (Mapping::dispatchPairsSingleSourced), the
 * pair's one add of the pre-summed bytes equals that walk's adds bit
 * for bit, in either storage.
 */
void
accumulateDevices(const Mapping &mapping, const ExpertPlacement &placement,
                  const std::vector<std::vector<int>> &counts,
                  double tokenBytes, bool retainAllGather, int topk,
                  RoutedTraffic &out)
{
    const int tp = mapping.tp();
    const bool collapseRanks =
        mapping.dispatchSourceRankInvariant(retainAllGather);
    const int ranks = collapseRanks ? 1 : tp;
    const auto numDevices = static_cast<std::size_t>(mapping.numDevices());
    const int experts = placement.numExperts();
    const auto numExperts = static_cast<std::size_t>(experts);

    // Hosted-expert index: device d's experts, ascending, at
    // hostedExperts[hostedStart[d], hostedStart[d + 1]).
    std::vector<int> &start = out.hostedStart;
    std::vector<int> &hosted = out.hostedExperts;
    start.assign(numDevices + 1, 0);
    out.replicaScale.resize(numExperts);
    out.unevenExperts.clear();
    for (int e = 0; e < experts; ++e) {
        const auto &replicas = placement.replicasOf(e);
        // 0.0 marks a replica count that is no power of two.
        const bool even = isPowerOfTwo(replicas.size());
        out.replicaScale[static_cast<std::size_t>(e)] =
            even ? 1.0 / static_cast<double>(replicas.size()) : 0.0;
        if (!even)
            out.unevenExperts.push_back(e);
        for (const DeviceId dev : replicas)
            ++start[static_cast<std::size_t>(dev) + 1];
    }
    for (std::size_t d = 0; d < numDevices; ++d)
        start[d + 1] += start[d];
    hosted.resize(static_cast<std::size_t>(start[numDevices]));
    for (int e = 0; e < experts; ++e)
        for (const DeviceId dev : placement.replicasOf(e))
            hosted[static_cast<std::size_t>(
                start[static_cast<std::size_t>(dev)]++)] = e;
    // The fill advanced each start to the next device's; shift back.
    for (std::size_t d = numDevices; d > 0; --d)
        start[d] = start[d - 1];
    start[0] = 0;

    // Per expert, the group's tokens per replica and bytes per rank,
    // each the quotient the contribution walk computes: dividing by a
    // power of two is multiplying by its exact reciprocal, so only
    // other divisors divide. Collapsed ranks divide by one.
    out.perReplica.resize(numExperts);
    out.rankBytes.resize(numExperts);
    const std::size_t rankShare =
        collapseRanks ? 1 : static_cast<std::size_t>(tp);
    const bool shareByScale = isPowerOfTwo(rankShare);
    const double shareScale = 1.0 / static_cast<double>(rankShare);
    for (int g = 0; g < mapping.dp(); ++g) {
        const auto &row = counts[static_cast<std::size_t>(g)];
        for (std::size_t e = 0; e < numExperts; ++e) {
            out.expertLoads[e] += row[e];
            out.perReplica[e] =
                static_cast<double>(row[e]) * out.replicaScale[e];
        }
        for (const int e : out.unevenExperts)
            out.perReplica[static_cast<std::size_t>(e)] =
                static_cast<double>(row[static_cast<std::size_t>(e)]) /
                static_cast<double>(placement.numReplicas(e));
        for (std::size_t e = 0; e < numExperts; ++e) {
            const double perRank = shareByScale
                ? out.perReplica[e] * shareScale
                : out.perReplica[e] / static_cast<double>(rankShare);
            out.rankBytes[e] = perRank * tokenBytes;
        }

        for (std::size_t d = 0; d < numDevices; ++d) {
            const int *first = hosted.data() + start[d];
            const int *last = hosted.data() + start[d + 1];
            const auto dev = static_cast<DeviceId>(d);
            // Rank 0's bytes share the token sum's loop.
            DeviceId src =
                mapping.dispatchSource(g, 0, dev, retainAllGather);
            double dedup = mapping.dispatchDedupFactor(src, dev, topk);
            double tokens = out.tokensPerDevice[d];
            double bytes = 0.0;
            int any = 0;
            for (const int *e = first; e != last; ++e) {
                const auto i = static_cast<std::size_t>(*e);
                tokens += out.perReplica[i];
                bytes += out.rankBytes[i] * dedup;
                any |= row[i];
            }
            out.tokensPerDevice[d] = tokens;
            if (any == 0)
                continue;
            for (int r = 0; r < ranks; ++r) {
                if (r > 0) {
                    src = mapping.dispatchSource(g, r, dev,
                                                 retainAllGather);
                    dedup = mapping.dispatchDedupFactor(src, dev, topk);
                    bytes = 0.0;
                    for (const int *e = first; e != last; ++e)
                        bytes +=
                            out.rankBytes[static_cast<std::size_t>(*e)] *
                            dedup;
                }
                if (src != dev && bytes > 0.0)
                    out.pairBytes.add(src, dev, bytes);
            }
        }
    }
}

/**
 * The aggregated path: per-(src, dst) dispatch bytes into
 * out.pairBytes, per-device token loads and per-expert loads. Rows
 * whose slots cover every expert and every device take the device walk
 * where the mapping's pairs are single-sourced: its cost is the hosted
 * experts' count, with no branch on a count. Sparser rows (small decode
 * batches, wafer-scale systems) and HER-Mapping's mirrored sources take
 * the contribution walk, whose cost is the non-zero counts'. Row 0
 * decides for the call, as every caller routes equal groups; the two
 * walks give the same bits, so the choice moves none.
 */
void
accumulatePairs(const Mapping &mapping, const ExpertPlacement &placement,
                const std::vector<std::vector<int>> &counts,
                double tokenBytes, bool retainAllGather, int topk,
                RoutedTraffic &out)
{
    for (const auto &row : counts)
        MOE_ASSERT(row.size() == out.expertLoads.size(),
                   "counts row width must equal expert count");
    const int slots =
        std::reduce(counts.front().begin(), counts.front().end(), 0);
    const bool dense =
        slots >= std::max(placement.numExperts(), mapping.numDevices());
    if (dense && mapping.dispatchPairsSingleSourced(retainAllGather))
        accumulateDevices(mapping, placement, counts, tokenBytes,
                          retainAllGather, topk, out);
    else
        accumulateContributions(mapping, placement, counts, tokenBytes,
                                retainAllGather, topk, out);
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
