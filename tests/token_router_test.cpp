/**
 * @file
 * Tests for token routing: flow construction, conservation, and the
 * dispatch-source / dedup rules.
 */

#include <gtest/gtest.h>

#include "balancer/placement.hh"
#include "engine/token_router.hh"
#include "mapping/cluster_mapping.hh"
#include "mapping/er_mapping.hh"
#include "topology/mesh.hh"
#include <algorithm>
#include <cmath>

#include "topology/switch_cluster.hh"

using namespace moentwine;

namespace {

std::vector<std::vector<int>>
uniformCounts(int groups, int experts, int perExpert)
{
    return std::vector<std::vector<int>>(
        std::size_t(groups),
        std::vector<int>(std::size_t(experts), perExpert));
}

} // namespace

TEST(TokenRouter, TokensPerDeviceConserved)
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    const ErMapping er(mesh, ParallelismConfig{2, 2});
    const ExpertPlacement p(16, 16, 0);
    const auto counts = uniformCounts(er.dp(), 16, 8);
    const auto routed = routeTokens(er, p, counts, 1024.0, true);

    double total = 0.0;
    for (const double t : routed.tokensPerDevice)
        total += t;
    // 4 groups × 16 experts × 8 tokens each.
    EXPECT_NEAR(total, 4.0 * 16.0 * 8.0, 1e-9);
}

TEST(TokenRouter, ActiveExpertsCounted)
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    const ErMapping er(mesh, ParallelismConfig{2, 2});
    const ExpertPlacement p(16, 16, 0);
    auto counts = uniformCounts(er.dp(), 16, 0);
    counts[0][3] = 5; // only expert 3 active
    const auto routed = routeTokens(er, p, counts, 1024.0, true);
    for (DeviceId d = 0; d < 16; ++d) {
        const bool hostsActive = p.hosts(d, 3);
        EXPECT_EQ(routed.activeExpertsPerDevice[std::size_t(d)],
                  hostsActive ? 1 : 0);
    }
}

TEST(TokenRouter, CombineMirrorsDispatch)
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    const ErMapping er(mesh, ParallelismConfig{2, 2});
    const ExpertPlacement p(16, 16, 0);
    const auto routed =
        routeTokens(er, p, uniformCounts(er.dp(), 16, 4), 512.0, true);
    ASSERT_EQ(routed.dispatch.size(), routed.combine.size());
    for (std::size_t i = 0; i < routed.dispatch.size(); ++i) {
        EXPECT_EQ(routed.dispatch[i].src, routed.combine[i].dst);
        EXPECT_EQ(routed.dispatch[i].dst, routed.combine[i].src);
        EXPECT_DOUBLE_EQ(routed.dispatch[i].bytes,
                         routed.combine[i].bytes);
    }
}

TEST(TokenRouter, EmptyCountsProduceNoFlows)
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    const ErMapping er(mesh, ParallelismConfig{2, 2});
    const ExpertPlacement p(16, 16, 0);
    const auto routed =
        routeTokens(er, p, uniformCounts(er.dp(), 16, 0), 512.0, true);
    EXPECT_TRUE(routed.dispatch.empty());
    EXPECT_TRUE(routed.combine.empty());
}

TEST(TokenRouter, ReplicasSplitLoad)
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    const ErMapping er(mesh, ParallelismConfig{2, 2});
    ExpertPlacement p(16, 16, 1);
    auto counts = uniformCounts(er.dp(), 16, 0);
    counts[0][0] = 8;
    const auto before = routeTokens(er, p, counts, 512.0, true);
    EXPECT_NEAR(before.tokensPerDevice[0], 8.0, 1e-9);
    p.addReplica(0, 15);
    const auto after = routeTokens(er, p, counts, 512.0, true);
    EXPECT_NEAR(after.tokensPerDevice[0], 4.0, 1e-9);
    EXPECT_NEAR(after.tokensPerDevice[15], 4.0, 1e-9);
}

TEST(TokenRouter, RetainAgShortensFlows)
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    const ErMapping er(mesh, ParallelismConfig{2, 2});
    const ExpertPlacement p(16, 16, 0);
    const auto counts = uniformCounts(er.dp(), 16, 8);
    const auto withAg = routeTokens(er, p, counts, 1024.0, true);
    const auto withoutAg = routeTokens(er, p, counts, 1024.0, false);

    auto byteHops = [&](const std::vector<Flow> &flows) {
        double total = 0.0;
        for (const Flow &f : flows)
            total += f.bytes * mesh.hops(f.src, f.dst);
        return total;
    };
    // Fig. 9: the all-gather provides nearer sources.
    EXPECT_LT(byteHops(withAg.dispatch), byteHops(withoutAg.dispatch));
}

TEST(TokenRouter, ClusterDedupShrinksCrossNodeBytes)
{
    const auto dgx = SwitchClusterTopology::dgx(2);
    const ClusterMapping cm(dgx, 4);
    const ExpertPlacement p(16, 16, 0);
    const auto counts = uniformCounts(cm.dp(), 16, 8);
    const auto k1 = routeTokens(cm, p, counts, 1024.0, true, 1);
    const auto k8 = routeTokens(cm, p, counts, 1024.0, true, 8);

    auto totalBytes = [](const std::vector<Flow> &flows) {
        double total = 0.0;
        for (const Flow &f : flows)
            total += f.bytes;
        return total;
    };
    EXPECT_LT(totalBytes(k8.dispatch), totalBytes(k1.dispatch));
}

TEST(TokenRouter, ClusterDedupFactorFormula)
{
    const auto dgx = SwitchClusterTopology::dgx(4);
    const ClusterMapping cm(dgx, 4);
    // Same node: no dedup.
    EXPECT_DOUBLE_EQ(cm.dispatchDedupFactor(0, 1, 8), 1.0);
    // Cross node: N(1-(1-1/N)^k)/k with N=4, k=8.
    const double expect =
        4.0 * (1.0 - std::pow(0.75, 8)) / 8.0;
    EXPECT_NEAR(cm.dispatchDedupFactor(0, 8, 8), expect, 1e-12);
    // k=1 degenerates to 1.
    EXPECT_DOUBLE_EQ(cm.dispatchDedupFactor(0, 8, 1), 1.0);
}

TEST(TokenRouter, ClusterDedupTableIsTheFormulaBitwise)
{
    // The constructor tabulates small topk; larger topk compute on the
    // fly. Both must equal the formula to the last bit.
    const auto dgx = SwitchClusterTopology::dgx(4);
    const ClusterMapping cm(dgx, 4);
    const double n = 4.0;
    for (int k = 1; k <= 80; ++k) {
        const double distinct = n * (1.0 - std::pow(1.0 - 1.0 / n, k));
        EXPECT_EQ(cm.dispatchDedupFactor(0, 8, k),
                  std::min(1.0, distinct / static_cast<double>(k)))
            << "topk " << k;
    }
}

TEST(TokenRouter, NoSelfFlows)
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    const ErMapping er(mesh, ParallelismConfig{2, 2});
    const ExpertPlacement p(16, 16, 0);
    const auto routed =
        routeTokens(er, p, uniformCounts(er.dp(), 16, 8), 512.0, true);
    for (const Flow &f : routed.dispatch)
        EXPECT_NE(f.src, f.dst);
}
