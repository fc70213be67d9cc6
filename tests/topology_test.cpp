/**
 * @file
 * Unit and property tests for the mesh topology: construction, XY
 * routing, wafer tiling, and link metadata; plus the link-table
 * contract every topology keeps (one directed link per node pair,
 * linkBetween() finds it, a FaultTopology keeps its base's ids).
 */

#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <utility>

#include "fault/fault_topology.hh"
#include "topology/mesh.hh"
#include "topology/switch_cluster.hh"

using namespace moentwine;

TEST(Mesh, SingleWaferDimensions)
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    EXPECT_EQ(mesh.numDevices(), 16);
    EXPECT_EQ(mesh.rows(), 4);
    EXPECT_EQ(mesh.cols(), 4);
    EXPECT_EQ(mesh.numWafers(), 1);
    EXPECT_EQ(mesh.devicesPerWafer(), 16);
}

TEST(Mesh, LinkCountMatchesGridFormula)
{
    // Directed links: 2 * (rows*(cols-1) + cols*(rows-1)).
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    EXPECT_EQ(mesh.links().size(), std::size_t(2 * (4 * 3 + 4 * 3)));
}

TEST(Mesh, CoordRoundTrip)
{
    const MeshTopology mesh = MeshTopology::singleWafer(6);
    for (DeviceId d = 0; d < mesh.numDevices(); ++d) {
        const Coord c = mesh.coordOf(d);
        EXPECT_EQ(mesh.deviceAt(c), d);
    }
}

TEST(Mesh, ManhattanMatchesCoordinates)
{
    const MeshTopology mesh = MeshTopology::singleWafer(5);
    EXPECT_EQ(mesh.manhattan(mesh.deviceAt(0, 0), mesh.deviceAt(4, 4)), 8);
    EXPECT_EQ(mesh.manhattan(mesh.deviceAt(2, 3), mesh.deviceAt(2, 3)), 0);
    EXPECT_EQ(mesh.manhattan(mesh.deviceAt(1, 0), mesh.deviceAt(0, 1)), 2);
}

TEST(Mesh, RouteIsEmptyForSelf)
{
    const MeshTopology mesh = MeshTopology::singleWafer(3);
    EXPECT_TRUE(mesh.computeRoute(4, 4).empty());
    EXPECT_EQ(mesh.hops(4, 4), 0);
}

TEST(Mesh, XyRoutingGoesColumnFirst)
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    const auto path =
        mesh.computeRoute(mesh.deviceAt(0, 0), mesh.deviceAt(2, 2));
    ASSERT_EQ(path.size(), 4u);
    // First two hops move along the row (column changes).
    const Link &first = mesh.links()[std::size_t(path[0])];
    EXPECT_EQ(mesh.coordOf(first.dst).row, 0);
    EXPECT_EQ(mesh.coordOf(first.dst).col, 1);
}

TEST(Mesh, LinkBetweenAdjacency)
{
    const MeshTopology mesh = MeshTopology::singleWafer(3);
    EXPECT_GE(mesh.linkBetween(mesh.deviceAt(0, 0), mesh.deviceAt(0, 1)),
              0);
    EXPECT_GE(mesh.linkBetween(mesh.deviceAt(0, 1), mesh.deviceAt(0, 0)),
              0);
    EXPECT_EQ(mesh.linkBetween(mesh.deviceAt(0, 0), mesh.deviceAt(1, 1)),
              -1);
    EXPECT_EQ(mesh.linkBetween(mesh.deviceAt(0, 0), mesh.deviceAt(2, 2)),
              -1);
    // Self, negative and out-of-range nodes have no link either.
    const NodeId n = mesh.numNodes();
    EXPECT_EQ(mesh.linkBetween(0, 0), -1);
    EXPECT_EQ(mesh.linkBetween(-1, 0), -1);
    EXPECT_EQ(mesh.linkBetween(0, -1), -1);
    EXPECT_EQ(mesh.linkBetween(n, 0), -1);
    EXPECT_EQ(mesh.linkBetween(0, n), -1);
}

// ------------------------------------------------------ link tables --

namespace {

/** Each (src, dst) pair appears once, and linkBetween() finds it. */
void
expectUniqueLinksFoundByLinkBetween(const Topology &topo)
{
    std::set<std::pair<NodeId, NodeId>> seen;
    const auto &links = topo.links();
    for (std::size_t l = 0; l < links.size(); ++l) {
        const Link &link = links[l];
        EXPECT_TRUE(seen.emplace(link.src, link.dst).second)
            << topo.name() << ": duplicate directed link " << link.src
            << "->" << link.dst;
        EXPECT_EQ(topo.linkBetween(link.src, link.dst),
                  static_cast<LinkId>(l))
            << topo.name() << ": link " << l;
    }
}

} // namespace

TEST(LinkTable, EveryTopologyHasOneLinkPerDirectedPair)
{
    expectUniqueLinksFoundByLinkBetween(MeshTopology::singleWafer(4));
    expectUniqueLinksFoundByLinkBetween(MeshTopology::waferRow(2, 8));
    expectUniqueLinksFoundByLinkBetween(SwitchClusterTopology::dgx(2));
    expectUniqueLinksFoundByLinkBetween(SwitchClusterTopology::nvl72());
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    expectUniqueLinksFoundByLinkBetween(FaultTopology(mesh));
}

TEST(LinkTable, FaultTopologyKeepsBaseLinkIds)
{
    const MeshTopology mesh = MeshTopology::waferRow(2, 4);
    FaultTopology ft(mesh);
    ft.failLink(mesh.linkBetween(1, 2));
    ASSERT_EQ(ft.links().size(), mesh.links().size());
    for (std::size_t l = 0; l < mesh.links().size(); ++l) {
        const Link &link = mesh.links()[l];
        EXPECT_EQ(ft.links()[l].src, link.src);
        EXPECT_EQ(ft.links()[l].dst, link.dst);
        EXPECT_EQ(ft.linkBetween(link.src, link.dst),
                  mesh.linkBetween(link.src, link.dst));
    }
}

TEST(Mesh, MoveKeepsLinkTables)
{
    // System::make moves the mesh out of its by-value factory: the
    // move must hand over the link tables, not copy them.
    MeshTopology from = MeshTopology::waferRow(2, 4);
    const Link *links = from.links().data();
    const MeshTopology to(std::move(from));
    EXPECT_EQ(to.links().data(), links);
    EXPECT_EQ(to.links().size(), std::size_t(2 * (8 * 3 + 4 * 7)));
    EXPECT_EQ(to.linkBetween(to.deviceAt(0, 3), to.deviceAt(0, 4)),
              to.nextLink(to.deviceAt(0, 3), to.deviceAt(0, 4)));
}

TEST(Mesh, PathLatencyAccumulates)
{
    MeshSpec spec;
    spec.meshRows = 4;
    spec.meshCols = 4;
    spec.linkLatency = 100e-9;
    const MeshTopology mesh(spec);
    EXPECT_DOUBLE_EQ(mesh.pathLatency(mesh.deviceAt(0, 0),
                                      mesh.deviceAt(0, 3)),
                     300e-9);
}

TEST(Mesh, PathBandwidthIsMinAlongRoute)
{
    const MeshTopology mesh = MeshTopology::waferRow(2, 4);
    // Crossing the wafer border passes a narrower link.
    const double bw = mesh.pathBandwidth(mesh.deviceAt(0, 0),
                                         mesh.deviceAt(0, 7));
    EXPECT_DOUBLE_EQ(bw, mesh.spec().crossBandwidth);
}

TEST(Mesh, MultiWaferStructure)
{
    const MeshTopology mesh = MeshTopology::waferRow(4, 4);
    EXPECT_EQ(mesh.numWafers(), 4);
    EXPECT_EQ(mesh.numDevices(), 64);
    EXPECT_EQ(mesh.rows(), 4);
    EXPECT_EQ(mesh.cols(), 16);
    EXPECT_EQ(mesh.devicesPerWafer(), 16);
}

TEST(Mesh, WaferOfAssignsTiles)
{
    const MeshTopology mesh = MeshTopology::waferRow(2, 4);
    EXPECT_EQ(mesh.waferOf(mesh.deviceAt(0, 0)), 0);
    EXPECT_EQ(mesh.waferOf(mesh.deviceAt(0, 3)), 0);
    EXPECT_EQ(mesh.waferOf(mesh.deviceAt(0, 4)), 1);
    EXPECT_EQ(mesh.waferOf(mesh.deviceAt(3, 7)), 1);
}

TEST(Mesh, WaferDevicesPartition)
{
    const MeshTopology mesh = MeshTopology::waferRow(3, 4);
    std::vector<int> seen(std::size_t(mesh.numDevices()), 0);
    for (int w = 0; w < mesh.numWafers(); ++w) {
        const auto devs = mesh.waferDevices(w);
        EXPECT_EQ(devs.size(), std::size_t(mesh.devicesPerWafer()));
        for (const DeviceId d : devs) {
            EXPECT_EQ(mesh.waferOf(d), w);
            ++seen[std::size_t(d)];
        }
    }
    for (const int count : seen)
        EXPECT_EQ(count, 1);
}

TEST(Mesh, CrossWaferLinksClassified)
{
    const MeshTopology mesh = MeshTopology::waferRow(2, 4);
    int cross = 0;
    for (std::size_t l = 0; l < mesh.links().size(); ++l)
        cross += mesh.isCrossWafer(static_cast<LinkId>(l));
    // 4 facing pairs on the border, 2 directions each.
    EXPECT_EQ(cross, 8);
}

TEST(Mesh, CrossWaferLinksUseCrossParameters)
{
    const MeshTopology mesh = MeshTopology::waferRow(2, 4);
    for (std::size_t l = 0; l < mesh.links().size(); ++l) {
        const Link &link = mesh.links()[l];
        if (mesh.isCrossWafer(static_cast<LinkId>(l))) {
            EXPECT_DOUBLE_EQ(link.bandwidth, mesh.spec().crossBandwidth);
            EXPECT_DOUBLE_EQ(link.latency, mesh.spec().crossLatency);
        } else {
            EXPECT_DOUBLE_EQ(link.bandwidth, mesh.spec().linkBandwidth);
            EXPECT_DOUBLE_EQ(link.latency, mesh.spec().linkLatency);
        }
    }
}

TEST(Mesh, NameFormats)
{
    EXPECT_EQ(MeshTopology::singleWafer(6).name(), "6x6 WSC");
    EXPECT_EQ(MeshTopology::waferRow(4, 8).name(), "4x(8x8) WSC");
}

// ------------------------------------------------- routing properties --

/** Property sweep over mesh shapes. */
class MeshRoutingProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>>
{
  protected:
    MeshTopology
    makeMesh() const
    {
        const auto [rows, cols, wgr, wgc] = GetParam();
        MeshSpec spec;
        spec.meshRows = rows;
        spec.meshCols = cols;
        spec.waferGridRows = wgr;
        spec.waferGridCols = wgc;
        return MeshTopology(spec);
    }
};

TEST_P(MeshRoutingProperty, RouteLengthEqualsManhattan)
{
    const MeshTopology mesh = makeMesh();
    for (DeviceId a = 0; a < mesh.numDevices(); ++a)
        for (DeviceId b = 0; b < mesh.numDevices(); ++b)
            EXPECT_EQ(mesh.hops(a, b), mesh.manhattan(a, b));
}

TEST_P(MeshRoutingProperty, RouteIsConnected)
{
    const MeshTopology mesh = makeMesh();
    for (DeviceId a = 0; a < mesh.numDevices(); ++a) {
        for (DeviceId b = 0; b < mesh.numDevices(); ++b) {
            NodeId cur = a;
            for (const LinkId l : mesh.walk(a, b)) {
                const Link &link = mesh.links()[std::size_t(l)];
                EXPECT_EQ(link.src, cur);
                cur = link.dst;
            }
            EXPECT_EQ(cur, b);
        }
    }
}

TEST_P(MeshRoutingProperty, HopsAreSymmetric)
{
    const MeshTopology mesh = makeMesh();
    for (DeviceId a = 0; a < mesh.numDevices(); ++a)
        for (DeviceId b = 0; b < mesh.numDevices(); ++b)
            EXPECT_EQ(mesh.hops(a, b), mesh.hops(b, a));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MeshRoutingProperty,
    ::testing::Values(std::make_tuple(2, 2, 1, 1),
                      std::make_tuple(3, 3, 1, 1),
                      std::make_tuple(4, 4, 1, 1),
                      std::make_tuple(4, 6, 1, 1),
                      std::make_tuple(6, 6, 1, 1),
                      std::make_tuple(4, 4, 1, 2),
                      std::make_tuple(4, 4, 2, 2),
                      std::make_tuple(3, 3, 1, 3)));
