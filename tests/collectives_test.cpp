/**
 * @file
 * Unit tests for the collective-communication timing models.
 */

#include <gtest/gtest.h>

#include "network/collectives.hh"
#include "topology/mesh.hh"

using namespace moentwine;

namespace {

MeshSpec
unitSpec(int n)
{
    MeshSpec spec;
    spec.meshRows = n;
    spec.meshCols = n;
    spec.linkBandwidth = 1e9;
    spec.linkLatency = 1e-6;
    return spec;
}

} // namespace

TEST(RingCollective, SingleMemberIsFree)
{
    const MeshTopology mesh(unitSpec(2));
    const auto result =
        ringCollective(mesh, {{0}}, 1e6, RingOp::AllReduce, false);
    EXPECT_DOUBLE_EQ(result.time, 0.0);
    EXPECT_EQ(result.traffic.busyLinkCount(), 0);
}

TEST(RingCollective, NeighbourRingMatchesFormula)
{
    const MeshTopology mesh(unitSpec(2));
    // Ring over all 4 devices of a 2×2 mesh in cycle order, unit hops.
    const std::vector<DeviceId> ring{
        mesh.deviceAt(0, 0), mesh.deviceAt(0, 1), mesh.deviceAt(1, 1),
        mesh.deviceAt(1, 0)};
    const double bytes = 4e6;
    const auto ar =
        ringCollective(mesh, {ring}, bytes, RingOp::AllReduce, false);
    // chunk = 1e6 over 1 GB/s = 1 ms per round, 2·(4-1) = 6 rounds;
    // bidirectional sends expose the 1 us hop latency only 3 times.
    EXPECT_NEAR(ar.time, 6.0 * 1e-3 + 3.0 * 1e-6, 1e-9);
}

TEST(RingCollective, ReduceScatterIsHalfOfAllReduce)
{
    const MeshTopology mesh(unitSpec(2));
    const std::vector<DeviceId> ring{0, 1, 3, 2};
    const auto rs =
        ringCollective(mesh, {ring}, 4e6, RingOp::ReduceScatter, false);
    const auto ag =
        ringCollective(mesh, {ring}, 4e6, RingOp::AllGather, false);
    const auto ar =
        ringCollective(mesh, {ring}, 4e6, RingOp::AllReduce, false);
    EXPECT_NEAR(rs.time + ag.time, ar.time, 1e-12);
    EXPECT_NEAR(rs.time, ag.time, 1e-12);
}

TEST(RingCollective, TwoHopRingDoublesTime)
{
    const MeshTopology mesh(unitSpec(4));
    // Unit-hop ring in a corner vs an entwined ring with stride 2.
    const std::vector<DeviceId> unit{
        mesh.deviceAt(0, 0), mesh.deviceAt(0, 1), mesh.deviceAt(1, 1),
        mesh.deviceAt(1, 0)};
    const std::vector<DeviceId> entwined{
        mesh.deviceAt(0, 0), mesh.deviceAt(0, 2), mesh.deviceAt(2, 2),
        mesh.deviceAt(2, 0)};
    const auto a =
        ringCollective(mesh, {unit}, 4e6, RingOp::AllReduce, true);
    const auto b =
        ringCollective(mesh, {entwined}, 4e6, RingOp::AllReduce, true);
    EXPECT_NEAR(b.time, 2.0 * a.time, 1e-9);
}

TEST(RingCollective, StaggeredIgnoresRingIntersections)
{
    const MeshTopology mesh(unitSpec(4));
    // Two entwined rings sharing central links (ER-style).
    const std::vector<DeviceId> r1{
        mesh.deviceAt(0, 0), mesh.deviceAt(0, 2), mesh.deviceAt(2, 2),
        mesh.deviceAt(2, 0)};
    const std::vector<DeviceId> r2{
        mesh.deviceAt(0, 1), mesh.deviceAt(0, 3), mesh.deviceAt(2, 3),
        mesh.deviceAt(2, 1)};
    const auto solo =
        ringCollective(mesh, {r1}, 4e6, RingOp::AllReduce, true);
    const auto both =
        ringCollective(mesh, {r1, r2}, 4e6, RingOp::AllReduce, true);
    EXPECT_NEAR(both.time, solo.time, 1e-12);
}

TEST(RingCollective, UnstaggeredPaysForSharing)
{
    const MeshTopology mesh(unitSpec(4));
    // Two rings with identical edges: a non-staggered schedule must
    // serialise the doubled per-round volume on every shared link,
    // while the staggered schedule alternates rounds for free.
    const std::vector<DeviceId> ring{
        mesh.deviceAt(1, 0), mesh.deviceAt(1, 2), mesh.deviceAt(1, 3),
        mesh.deviceAt(1, 1)};
    const auto staggered = ringCollective(
        mesh, {ring, ring, ring}, 4e6, RingOp::AllReduce, true);
    const auto shared = ringCollective(
        mesh, {ring, ring, ring}, 4e6, RingOp::AllReduce, false);
    EXPECT_GT(shared.time, staggered.time);
}

TEST(RingCollective, TrafficVolumeMatchesRounds)
{
    const MeshTopology mesh(unitSpec(2));
    const std::vector<DeviceId> ring{0, 1, 3, 2};
    const double bytes = 4e6;
    const auto ar =
        ringCollective(mesh, {ring}, bytes, RingOp::AllReduce, false);
    // Each of 4 edges carries 6 rounds × 1 MB chunks.
    EXPECT_NEAR(ar.traffic.totalByteHops(), 4.0 * 6.0 * 1e6, 1.0);
}

TEST(AllToAll, EmptyFlowsAreFree)
{
    const MeshTopology mesh(unitSpec(3));
    const auto r = allToAll(mesh, {});
    EXPECT_DOUBLE_EQ(r.time, 0.0);
}

TEST(AllToAll, TimeIsPhaseTimeOfFlows)
{
    const MeshTopology mesh(unitSpec(3));
    const std::vector<Flow> flows{{0, 2, 2e6}};
    const auto r = allToAll(mesh, flows);
    // 2 hops; serialisation on one link: 2e6/1e9 = 2 ms + 2 us latency.
    EXPECT_NEAR(r.time, 2e-3 + 2e-6, 1e-9);
}

TEST(HierarchicalAllReduce, CheaperThanFlatOnMultiWafer)
{
    MeshSpec spec;
    spec.meshRows = 4;
    spec.meshCols = 4;
    spec.waferGridCols = 2;
    const MeshTopology mesh(spec);

    // Flat entwined ring spanning both wafers (8 members, TP=8 style).
    std::vector<DeviceId> flat;
    for (int c = 0; c < 8; ++c)
        flat.push_back(mesh.deviceAt(0, c));
    const auto flatAr =
        ringCollective(mesh, {flat}, 8e6, RingOp::AllReduce, true);

    // Hierarchical: intra-wafer rings + inter-wafer all-gather.
    std::vector<DeviceId> intra1;
    std::vector<DeviceId> intra2;
    std::vector<std::vector<DeviceId>> inter;
    for (int c = 0; c < 4; ++c) {
        intra1.push_back(mesh.deviceAt(0, c));
        intra2.push_back(mesh.deviceAt(0, c + 4));
        inter.push_back(
            {mesh.deviceAt(0, c), mesh.deviceAt(0, c + 4)});
    }
    CollectiveScratch scratch(mesh);
    const double hier = hierarchicalAllReduceInto(
        mesh, {intra1, intra2}, inter, 8e6, scratch);
    EXPECT_LT(hier, flatAr.time);
}

TEST(HierarchicalAllReduce, TrafficCoversBothStages)
{
    MeshSpec spec;
    spec.meshRows = 2;
    spec.meshCols = 2;
    spec.waferGridCols = 2;
    const MeshTopology mesh(spec);
    const std::vector<std::vector<DeviceId>> intra{
        {mesh.deviceAt(0, 0), mesh.deviceAt(0, 1)},
        {mesh.deviceAt(0, 2), mesh.deviceAt(0, 3)}};
    const std::vector<std::vector<DeviceId>> inter{
        {mesh.deviceAt(0, 0), mesh.deviceAt(0, 2)},
        {mesh.deviceAt(0, 1), mesh.deviceAt(0, 3)}};
    CollectiveScratch scratch(mesh);
    EXPECT_GT(hierarchicalAllReduceInto(mesh, intra, inter, 2e6, scratch),
              0.0);
    EXPECT_GT(scratch.traffic.busyLinkCount(), 2);
}
