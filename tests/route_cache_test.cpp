/**
 * @file
 * Route queries answered without any per-pair route cache:
 *  - the addFlow hot path is allocation-free on a mesh and a switch
 *    cluster, from the very first flow;
 *  - linkBetween() and flowTime() agree with first-principles scans.
 */

#include <gtest/gtest.h>

#include "core/moentwine.hh"
#include "counting_alloc.hh"

using namespace moentwine;

// ------------------------------------------------------ hot path ----

TEST(Routing, AddFlowIsAllocationFree)
{
    const MeshTopology mesh = MeshTopology::waferRow(2, 4);
    const SwitchClusterTopology dgx = SwitchClusterTopology::dgx(2);
    for (const Topology *topo : {static_cast<const Topology *>(&mesh),
                                 static_cast<const Topology *>(&dgx)}) {
        PhaseTraffic traffic(*topo);
        const std::size_t before = g_allocCount.load();
        for (DeviceId s = 0; s < topo->numDevices(); ++s)
            for (DeviceId d = 0; d < topo->numDevices(); ++d)
                traffic.addFlow(s, d, 128.0);
        EXPECT_EQ(g_allocCount.load(), before)
            << topo->name() << ": addFlow must not allocate";
    }
}

// --------------------------------------------- first principles ----

TEST(Routing, LinkBetweenMatchesLinearScan)
{
    const SwitchClusterTopology dgx = SwitchClusterTopology::dgx(2);
    const auto &links = dgx.links();
    for (NodeId a = 0; a < dgx.numNodes(); ++a) {
        for (NodeId b = 0; b < dgx.numNodes(); ++b) {
            LinkId expect = -1;
            for (std::size_t l = 0; l < links.size(); ++l) {
                if (links[l].src == a && links[l].dst == b) {
                    expect = static_cast<LinkId>(l);
                    break;
                }
            }
            EXPECT_EQ(dgx.linkBetween(a, b), expect)
                << "pair " << a << "->" << b;
        }
    }
}

TEST(Routing, FlowTimeMatchesManualEquationOne)
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    const double bytes = 3e6;
    for (DeviceId s = 0; s < mesh.numDevices(); ++s) {
        for (DeviceId d = 0; d < mesh.numDevices(); ++d) {
            double manual = 0.0;
            for (const LinkId l : mesh.walk(s, d)) {
                const Link &link = mesh.links()[std::size_t(l)];
                manual += bytes / link.bandwidth + link.latency;
            }
            EXPECT_NEAR(flowTime(mesh, s, d, bytes), manual,
                        1e-12 + 1e-9 * manual);
        }
    }
}
