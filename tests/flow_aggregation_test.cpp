/**
 * @file
 * Property tests for token-router flow aggregation: collapsing the
 * per-(group, rank, replica) flow list into the per-(src, dst) byte
 * matrix must preserve every quantity the congestion model reads —
 * per-link volumes (totalByteHops, maxLinkVolume), injected bytes,
 * per-device token loads, and per-expert loads. Also checks that a
 * full engine run is invariant under the aggregation toggle, and that
 * the aggregated pair bytes equal a per-expert fold bit for bit.
 */

#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "core/moentwine.hh"

using namespace moentwine;

namespace {

std::vector<std::vector<int>>
skewedCounts(WorkloadGenerator &gen, int groups, int tokens)
{
    return gen.sampleCounts(7, 0, tokens, groups);
}

void
expectAggregationPreservesTraffic(const Mapping &mapping,
                                  const ExpertPlacement &placement,
                                  const std::vector<std::vector<int>>
                                      &counts,
                                  int topk, bool retainAllGather = true)
{
    RoutedTraffic agg;
    routeTokens(mapping, placement, counts, 1024.0, retainAllGather, topk,
                agg, true);
    RoutedTraffic flat;
    routeTokens(mapping, placement, counts, 1024.0, retainAllGather, topk,
                flat, false);

    // Aggregation can only shrink the flow list.
    EXPECT_LE(agg.dispatch.size(), flat.dispatch.size());

    // Per-device token loads and expert loads are identical.
    ASSERT_EQ(agg.tokensPerDevice.size(), flat.tokensPerDevice.size());
    for (std::size_t d = 0; d < agg.tokensPerDevice.size(); ++d)
        EXPECT_NEAR(agg.tokensPerDevice[d], flat.tokensPerDevice[d],
                    1e-9);
    ASSERT_EQ(agg.expertLoads.size(), flat.expertLoads.size());
    for (std::size_t e = 0; e < agg.expertLoads.size(); ++e)
        EXPECT_DOUBLE_EQ(agg.expertLoads[e], flat.expertLoads[e]);
    EXPECT_EQ(agg.activeExpertsPerDevice, flat.activeExpertsPerDevice);

    // The congestion model sees the same per-link volumes.
    PhaseTraffic aggTraffic(mapping.topology());
    aggTraffic.addFlows(agg.dispatch);
    aggTraffic.addFlows(agg.combine);
    PhaseTraffic flatTraffic(mapping.topology());
    flatTraffic.addFlows(flat.dispatch);
    flatTraffic.addFlows(flat.combine);

    const double scale = 1.0 + flatTraffic.totalByteHops();
    EXPECT_NEAR(aggTraffic.totalByteHops(), flatTraffic.totalByteHops(),
                1e-9 * scale);
    EXPECT_NEAR(aggTraffic.maxLinkVolume(), flatTraffic.maxLinkVolume(),
                1e-9 * scale);
    EXPECT_NEAR(aggTraffic.totalFlowBytes(),
                flatTraffic.totalFlowBytes(), 1e-9 * scale);
    EXPECT_NEAR(aggTraffic.maxPathLatency(),
                flatTraffic.maxPathLatency(), 1e-15);
    for (std::size_t l = 0; l < mapping.topology().links().size(); ++l)
        EXPECT_NEAR(aggTraffic.linkVolume(static_cast<LinkId>(l)),
                    flatTraffic.linkVolume(static_cast<LinkId>(l)),
                    1e-9 * scale);
}

/**
 * Dispatch bytes per (src, dst) pair as a per-expert walk folds them:
 * each (group, expert, replica, rank) in that order adds its bytes to
 * the pair, ranks collapsed where the sources ignore them. The
 * aggregated path sums per device and must reproduce every pair's
 * left fold bit for bit.
 */
std::map<std::pair<DeviceId, DeviceId>, double>
perExpertPairBytes(const Mapping &m, const ExpertPlacement &p,
                   const std::vector<std::vector<int>> &counts,
                   double tokenBytes, bool retainAllGather, int topk)
{
    const bool collapse = m.dispatchSourceRankInvariant(retainAllGather);
    const int ranks = collapse ? 1 : m.tp();
    std::map<std::pair<DeviceId, DeviceId>, double> pairs;
    for (int g = 0; g < m.dp(); ++g) {
        for (int e = 0; e < p.numExperts(); ++e) {
            const int count = counts[std::size_t(g)][std::size_t(e)];
            if (count == 0)
                continue;
            const auto &replicas = p.replicasOf(e);
            const double perReplica =
                static_cast<double>(count) / double(replicas.size());
            const double rankBytes =
                (collapse ? perReplica : perReplica / m.tp()) * tokenBytes;
            for (const DeviceId dev : replicas) {
                for (int r = 0; r < ranks; ++r) {
                    const DeviceId src =
                        m.dispatchSource(g, r, dev, retainAllGather);
                    const double bytes =
                        rankBytes * m.dispatchDedupFactor(src, dev, topk);
                    if (src != dev && bytes > 0.0)
                        pairs[{src, dev}] += bytes;
                }
            }
        }
    }
    return pairs;
}

/**
 * Route @p counts both ways and require the aggregated path to equal
 * the per-expert fold (pair bytes) and the per-triple reference
 * (token and expert loads) exactly, on top of the traffic checks.
 */
void
expectExactAggregation(const Mapping &m, const ExpertPlacement &p,
                       const std::vector<std::vector<int>> &counts,
                       int topk, bool retainAllGather)
{
    // Not a power of two times a small integer, so the per-rank shares
    // round and a sum taken in another order shows in the last bits.
    constexpr double kTokenBytes = 7168.3;
    RoutedTraffic agg;
    routeTokens(m, p, counts, kTokenBytes, retainAllGather, topk, agg,
                true);
    RoutedTraffic flat;
    routeTokens(m, p, counts, kTokenBytes, retainAllGather, topk, flat,
                false);
    EXPECT_EQ(agg.tokensPerDevice, flat.tokensPerDevice);
    EXPECT_EQ(agg.expertLoads, flat.expertLoads);
    EXPECT_EQ(agg.activeExpertsPerDevice, flat.activeExpertsPerDevice);

    const auto pairs = perExpertPairBytes(m, p, counts, kTokenBytes,
                                          retainAllGather, topk);
    ASSERT_EQ(agg.dispatch.size(), pairs.size());
    for (const Flow &f : agg.dispatch) {
        const auto at = pairs.find({f.src, f.dst});
        ASSERT_NE(at, pairs.end()) << f.src << "->" << f.dst;
        EXPECT_EQ(f.bytes, at->second) << f.src << "->" << f.dst;
    }
    expectAggregationPreservesTraffic(m, p, counts, topk,
                                      retainAllGather);
}

/**
 * Native experts plus the shadow replicas a balancer might place: one
 * expert on three devices (so its per-replica share is inexact), two
 * on two.
 */
ExpertPlacement
shadowedPlacement(int experts, int devices)
{
    ExpertPlacement p(experts, devices, 2);
    p.addReplica(1, devices - 1);
    p.addReplica(1, devices / 2);
    p.addReplica(2, devices - 2);
    p.addReplica(5, 0);
    EXPECT_EQ(p.numReplicas(1), 3);
    return p;
}

} // namespace

TEST(FlowAggregation, MeshErMappingPreservesTraffic)
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    const ErMapping er(mesh, ParallelismConfig{2, 2});
    ExpertPlacement p(32, 16, 1);
    p.addReplica(0, 5);
    WorkloadConfig wc;
    wc.numExperts = 32;
    wc.topK = 4;
    wc.mode = GatingMode::MixedScenario;
    WorkloadGenerator gen(wc);
    expectAggregationPreservesTraffic(
        er, p, skewedCounts(gen, er.dp(), 64), wc.topK);
}

TEST(FlowAggregation, MultiWaferHerMappingPreservesTraffic)
{
    const MeshTopology mesh = MeshTopology::waferRow(2, 4);
    const HierarchicalErMapping her(mesh, ParallelismConfig{2, 2});
    const ExpertPlacement p(64, 32, 0);
    WorkloadConfig wc;
    wc.numExperts = 64;
    wc.topK = 8;
    wc.mode = GatingMode::SingleScenario;
    WorkloadGenerator gen(wc);
    expectAggregationPreservesTraffic(
        her, p, skewedCounts(gen, her.dp(), 32), wc.topK);
}

TEST(FlowAggregation, SwitchClusterDedupPreservesTraffic)
{
    const SwitchClusterTopology dgx = SwitchClusterTopology::dgx(2);
    const ClusterMapping cm(dgx, 4);
    const ExpertPlacement p(32, 16, 0);
    WorkloadConfig wc;
    wc.numExperts = 32;
    wc.topK = 8;
    wc.mode = GatingMode::MixedScenario;
    WorkloadGenerator gen(wc);
    expectAggregationPreservesTraffic(
        cm, p, skewedCounts(gen, cm.dp(), 48), wc.topK);
}

// Contiguous TP blocks clamp the destination into the group's block,
// and the shadow replicas split their experts' tokens.
TEST(FlowAggregation, MeshBaselineMappingWithShadowsPreservesTraffic)
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    const BaselineMapping base(mesh, ParallelismConfig{2, 2});
    ExpertPlacement p(32, 16, 2);
    p.addReplica(0, 15);
    p.addReplica(0, 6);
    p.addReplica(3, 9);
    WorkloadConfig wc;
    wc.numExperts = 32;
    wc.topK = 4;
    wc.mode = GatingMode::SingleScenario;
    WorkloadGenerator gen(wc);
    for (const bool retainAllGather : {true, false})
        expectAggregationPreservesTraffic(
            base, p, skewedCounts(gen, base.dp(), 64), wc.topK,
            retainAllGather);
}

// Without the all-gather only the rank owner serves, so the source
// depends on the rank and the dedup factor applies to every triple. At
// tp 16 each group spans both nodes, so the factor differs by rank.
TEST(FlowAggregation, SwitchClusterOwnerSourcesPreserveTraffic)
{
    const SwitchClusterTopology dgx = SwitchClusterTopology::dgx(2);
    for (const int tp : {4, 16}) {
        const ClusterMapping cm(dgx, tp);
        ExpertPlacement p(32, 16, 1);
        p.addReplica(5, 12);
        WorkloadConfig wc;
        wc.numExperts = 32;
        wc.topK = 8;
        wc.mode = GatingMode::MixedScenario;
        WorkloadGenerator gen(wc);
        expectAggregationPreservesTraffic(
            cm, p, skewedCounts(gen, cm.dp(), 48), wc.topK, false);
    }
}

TEST(FlowAggregation, PairBytesMatrixMatchesFlowList)
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    const ErMapping er(mesh, ParallelismConfig{2, 2});
    const ExpertPlacement p(16, 16, 0);
    WorkloadConfig wc;
    wc.numExperts = 16;
    wc.topK = 2;
    WorkloadGenerator gen(wc);
    RoutedTraffic agg;
    routeTokens(er, p, skewedCounts(gen, er.dp(), 64), 512.0, true,
                wc.topK, agg, true);

    const int devices = mesh.numDevices();
    ASSERT_EQ(agg.pairBytes.devices(), devices);
    // The accumulator's emitted sequence is the dispatch flow list.
    std::vector<Flow> emitted;
    agg.pairBytes.forEachTiled([&emitted](DeviceId s, DeviceId d, double b) {
        emitted.push_back(Flow{s, d, b});
    });
    ASSERT_EQ(emitted.size(), agg.dispatch.size());
    for (std::size_t i = 0; i < emitted.size(); ++i) {
        EXPECT_EQ(emitted[i].src, agg.dispatch[i].src);
        EXPECT_EQ(emitted[i].dst, agg.dispatch[i].dst);
        EXPECT_EQ(emitted[i].bytes, agg.dispatch[i].bytes);
    }
    EXPECT_EQ(agg.pairBytes.occupancy(), agg.dispatch.size());
}

TEST(FlowAggregation, EngineInvariantUnderPerfToggles)
{
    // One engine on the fast path, one with aggregation off:
    // identical simulated timelines.
    auto makeConfig = [] {
        EngineConfig ec;
        ec.model = qwen3();
        ec.decodeTokensPerGroup = 32;
        ec.workload.mode = GatingMode::MixedScenario;
        ec.workload.mixPeriod = 20;
        ec.balancer = BalancerKind::TopologyAware;
        ec.alpha = 0.5;
        ec.beta = 2;
        return ec;
    };

    const MeshTopology fastMesh = MeshTopology::singleWafer(4);
    const ErMapping fastEr(fastMesh, ParallelismConfig{2, 2});
    InferenceEngine fast(fastEr, makeConfig());

    const MeshTopology slowMesh = MeshTopology::singleWafer(4);
    const ErMapping slowEr(slowMesh, ParallelismConfig{2, 2});
    EngineConfig slowCfg = makeConfig();
    slowCfg.aggregateFlows = false;
    InferenceEngine slow(slowEr, slowCfg);

    for (int i = 0; i < 20; ++i) {
        const IterationStats a = fast.step();
        const IterationStats b = slow.step();
        EXPECT_NEAR(a.layerTime(4), b.layerTime(4),
                    1e-9 * (1.0 + b.layerTime(4)))
            << "iteration " << i;
        EXPECT_NEAR(a.dispatch, b.dispatch, 1e-9 * (1.0 + b.dispatch));
        EXPECT_NEAR(a.combine, b.combine, 1e-9 * (1.0 + b.combine));
        EXPECT_NEAR(a.imbalance, b.imbalance, 1e-9);
        EXPECT_EQ(a.migrationsPlanned, b.migrationsPlanned);
    }
}

// Decode-sized rows (1 and 8 tokens per group over 64 experts) are
// mostly zeros, so most devices take no tokens from a group; 64 tokens
// fill nearly every expert. The router walks sparse rows by their
// contributions and dense ones by device, and both must match the
// per-expert fold bit for bit: on every mapping family, in both
// all-gather modes, and across wafers, where HER-Mapping's mirrors
// feed one pair from several groups.
TEST(FlowAggregation, RowsOfEveryDensityMatchPerExpertFold)
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    const MeshTopology wafers = MeshTopology::waferRow(2, 4);
    const SwitchClusterTopology dgx = SwitchClusterTopology::dgx(2);
    const ErMapping er(mesh, ParallelismConfig{2, 2});
    const BaselineMapping base(mesh, ParallelismConfig{2, 2});
    const HierarchicalErMapping her(wafers, ParallelismConfig{2, 2});
    const ClusterMapping cm(dgx, 4);
    constexpr int kExperts = 64;
    WorkloadConfig wc;
    wc.numExperts = kExperts;
    wc.topK = 8;
    wc.mode = GatingMode::SingleScenario;
    WorkloadGenerator gen(wc);
    for (const Mapping *m : {static_cast<const Mapping *>(&er),
                             static_cast<const Mapping *>(&base),
                             static_cast<const Mapping *>(&her),
                             static_cast<const Mapping *>(&cm)}) {
        const ExpertPlacement p =
            shadowedPlacement(kExperts, m->numDevices());
        for (const int tokens : {1, 8, 64}) {
            const auto counts = gen.sampleCounts(3, 0, tokens, m->dp());
            for (const bool ag : {true, false}) {
                SCOPED_TRACE(m->name() + " tokens " +
                             std::to_string(tokens) +
                             (ag ? " all-gather" : " owner-only"));
                expectExactAggregation(*m, p, counts, wc.topK, ag);
            }
        }
    }
}
