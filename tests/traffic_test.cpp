/**
 * @file
 * Unit tests for the Eq.(1) flow-time model and the PhaseTraffic
 * congestion accounting.
 */

#include <gtest/gtest.h>

#include "network/traffic.hh"
#include "topology/mesh.hh"
#include "topology/switch_cluster.hh"

using namespace moentwine;

namespace {

MeshSpec
unitSpec(int n)
{
    MeshSpec spec;
    spec.meshRows = n;
    spec.meshCols = n;
    spec.linkBandwidth = 1e9; // 1 GB/s for easy hand numbers
    spec.linkLatency = 1e-6;  // 1 us per hop
    return spec;
}

} // namespace

TEST(FlowTime, SingleHopMatchesEq1)
{
    const MeshTopology mesh(unitSpec(2));
    // 1 MB over 1 GB/s + 1 us latency = 1 ms + 1 us.
    EXPECT_NEAR(flowTime(mesh, 0, 1, 1e6), 1e-3 + 1e-6, 1e-12);
}

TEST(FlowTime, MultiHopScalesWithHops)
{
    const MeshTopology mesh(unitSpec(4));
    const double oneHop = flowTime(mesh, 0, 1, 1e6);
    const double threeHops = flowTime(mesh, 0, 3, 1e6);
    EXPECT_NEAR(threeHops, 3.0 * oneHop, 1e-12);
}

TEST(FlowTime, ZeroForSelf)
{
    const MeshTopology mesh(unitSpec(3));
    EXPECT_DOUBLE_EQ(flowTime(mesh, 4, 4, 1e9), 0.0);
}

TEST(PhaseTraffic, EmptyPhaseIsFree)
{
    const MeshTopology mesh(unitSpec(3));
    const PhaseTraffic phase(mesh);
    EXPECT_DOUBLE_EQ(phase.phaseTime(), 0.0);
    EXPECT_DOUBLE_EQ(phase.maxLinkVolume(), 0.0);
    EXPECT_EQ(phase.busyLinkCount(), 0);
}

TEST(PhaseTraffic, SingleFlowVolumeOnEveryRouteLink)
{
    const MeshTopology mesh(unitSpec(4));
    PhaseTraffic phase(mesh);
    phase.addFlow(0, 3, 5e5);
    EXPECT_EQ(phase.busyLinkCount(), 3);
    EXPECT_DOUBLE_EQ(phase.maxLinkVolume(), 5e5);
    EXPECT_DOUBLE_EQ(phase.totalByteHops(), 1.5e6);
    EXPECT_DOUBLE_EQ(phase.flowByteHops(), 1.5e6);
    EXPECT_DOUBLE_EQ(phase.totalFlowBytes(), 5e5);
}

TEST(PhaseTraffic, CongestionAccumulatesOnSharedLinks)
{
    const MeshTopology mesh(unitSpec(4));
    PhaseTraffic phase(mesh);
    // Both flows traverse link (0,2)→(0,3) with XY routing.
    phase.addFlow(mesh.deviceAt(0, 0), mesh.deviceAt(0, 3), 1e6);
    phase.addFlow(mesh.deviceAt(0, 2), mesh.deviceAt(0, 3), 1e6);
    const LinkId shared =
        mesh.linkBetween(mesh.deviceAt(0, 2), mesh.deviceAt(0, 3));
    EXPECT_DOUBLE_EQ(phase.linkVolume(shared), 2e6);
    // Serialisation time is set by the shared link: 2 MB / 1 GB/s.
    EXPECT_NEAR(phase.serializationTime(), 2e-3, 1e-12);
}

TEST(PhaseTraffic, PhaseTimeAddsWorstPathLatency)
{
    const MeshTopology mesh(unitSpec(4));
    PhaseTraffic phase(mesh);
    phase.addFlow(mesh.deviceAt(0, 0), mesh.deviceAt(3, 3), 1e6);
    // 6 hops × 1 us latency on top of serialisation.
    EXPECT_NEAR(phase.maxPathLatency(), 6e-6, 1e-12);
    EXPECT_NEAR(phase.phaseTime(), 1e-3 + 6e-6, 1e-12);
}

TEST(PhaseTraffic, ZeroByteFlowIgnored)
{
    const MeshTopology mesh(unitSpec(3));
    PhaseTraffic phase(mesh);
    phase.addFlow(0, 1, 0.0);
    EXPECT_EQ(phase.busyLinkCount(), 0);
}

TEST(PhaseTraffic, SelfFlowIgnored)
{
    const MeshTopology mesh(unitSpec(3));
    PhaseTraffic phase(mesh);
    phase.addFlow(4, 4, 1e6);
    EXPECT_EQ(phase.busyLinkCount(), 0);
}

TEST(PhaseTraffic, AddFlowsBatch)
{
    const MeshTopology mesh(unitSpec(3));
    PhaseTraffic phase(mesh);
    phase.addFlows({{0, 1, 1e3}, {1, 2, 2e3}});
    EXPECT_DOUBLE_EQ(phase.totalFlowBytes(), 3e3);
}

TEST(PhaseTraffic, MergeAddsVolumes)
{
    const MeshTopology mesh(unitSpec(3));
    PhaseTraffic a(mesh);
    PhaseTraffic b(mesh);
    a.addFlow(0, 1, 1e6);
    b.addFlow(0, 2, 2e6);
    a.merge(b);
    const LinkId l = mesh.linkBetween(0, 1);
    EXPECT_DOUBLE_EQ(a.linkVolume(l), 3e6);
    EXPECT_DOUBLE_EQ(a.totalFlowBytes(), 3e6);
    EXPECT_DOUBLE_EQ(a.flowByteHops(), 5e6); // 1e6 × 1 + 2e6 × 2
}

TEST(PhaseTraffic, HotLinksThreshold)
{
    const MeshTopology mesh(unitSpec(4));
    PhaseTraffic phase(mesh);
    phase.addFlow(mesh.deviceAt(0, 0), mesh.deviceAt(0, 1), 10e6);
    phase.addFlow(mesh.deviceAt(1, 0), mesh.deviceAt(1, 1), 1e6);
    const auto hot = phase.hotLinks(0.5);
    EXPECT_TRUE(hot[std::size_t(
        mesh.linkBetween(mesh.deviceAt(0, 0), mesh.deviceAt(0, 1)))]);
    EXPECT_FALSE(hot[std::size_t(
        mesh.linkBetween(mesh.deviceAt(1, 0), mesh.deviceAt(1, 1)))]);
}

TEST(PhaseTraffic, HotLinksAllColdWhenEmpty)
{
    const MeshTopology mesh(unitSpec(3));
    const PhaseTraffic phase(mesh);
    for (const bool h : phase.hotLinks())
        EXPECT_FALSE(h);
}

TEST(PhaseTraffic, IdleBytesBudget)
{
    const MeshTopology mesh(unitSpec(3));
    PhaseTraffic phase(mesh);
    const LinkId l = mesh.linkBetween(0, 1);
    phase.addFlow(0, 1, 4e5);
    // Window 1 ms at 1 GB/s = 1e6 bytes capacity, 4e5 used → 6e5 idle.
    EXPECT_NEAR(phase.idleBytes(l, 1e-3), 6e5, 1.0);
}

TEST(PhaseTraffic, IdleBytesFloorsAtZero)
{
    const MeshTopology mesh(unitSpec(3));
    PhaseTraffic phase(mesh);
    const LinkId l = mesh.linkBetween(0, 1);
    phase.addFlow(0, 1, 5e6);
    EXPECT_DOUBLE_EQ(phase.idleBytes(l, 1e-3), 0.0);
}

TEST(PhaseTraffic, HeatmapAsciiShape)
{
    const MeshTopology mesh(unitSpec(3));
    PhaseTraffic phase(mesh);
    phase.addFlow(0, 1, 1e6);
    const std::string map = phase.heatmapAscii(mesh);
    // 3 device rows + 2 vertical-link rows.
    int lines = 0;
    for (const char c : map)
        lines += c == '\n';
    EXPECT_EQ(lines, 5);
    EXPECT_NE(map.find('o'), std::string::npos);
}

TEST(PhaseTraffic, WorksOnSwitchTopologies)
{
    const auto dgx = SwitchClusterTopology::dgx(2);
    PhaseTraffic phase(dgx);
    phase.addFlow(0, 8, 1e6);
    EXPECT_EQ(phase.busyLinkCount(), 4);
    EXPECT_GT(phase.phaseTime(), 0.0);
}
