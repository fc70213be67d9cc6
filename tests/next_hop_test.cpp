/**
 * @file
 * Next-hop walk anchors and properties. Every route is walked one
 * Topology::nextLink() at a time; these tests pin what the walk yields:
 *  - pinned FNV-1a digests over every ordered device pair of six
 *    topologies (4×4, 1×(8×8), 4×(8×8), 4-node DGX, NVL72, a faulted
 *    4×4 overlay): the walked link sequence, hops(), and the bit
 *    patterns of pathLatency(), pathInvBandwidthSum() and (for routed
 *    pairs) pathBandwidth();
 *  - a pinned digest over 20 IterationStats of ER, HER and DGX engine
 *    runs, so any routing change that moves a simulated number fails;
 *  - route shape: mesh walks go column first and have Manhattan
 *    length, and every hops() (closed form or walked) equals the
 *    walked route's length;
 *  - concurrent walks on one shared topology agree with the serial
 *    ones (TSan target).
 *
 * The pinned constants were derived from the all-pairs route storages
 * the closed-form walk replaced; they must never be regenerated to
 * make a routing change pass.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "core/moentwine.hh"
#include "fault/fault.hh"
#include "digest.hh"
#include "watchdog.hh"

using namespace moentwine;

namespace {

using digest::mixDouble;
using digest::mixInt;

/**
 * Digest of every ordered device pair: walked links, hop count, and the
 * bit patterns of the Eq.(1) path scalars.
 */
std::uint64_t
routingDigest(const Topology &topo)
{
    std::uint64_t h = digest::kOffset;
    for (DeviceId s = 0; s < topo.numDevices(); ++s) {
        for (DeviceId d = 0; d < topo.numDevices(); ++d) {
            for (const LinkId l : topo.walk(s, d))
                mixInt(h, l);
            const int hops = topo.hops(s, d);
            mixInt(h, hops);
            mixDouble(h, topo.pathLatency(s, d));
            mixDouble(h, topo.pathInvBandwidthSum(s, d));
            if (hops > 0)
                mixDouble(h, topo.pathBandwidth(s, d));
        }
    }
    return h;
}

/** 4×4 overlay: one degraded and two failed links, still connected. */
std::uint64_t
faultedDigest()
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    FaultTopology ft(mesh);
    ft.degradeLink(mesh.linkBetween(1, 2), 0.25);
    ft.failLink(mesh.linkBetween(5, 6));
    ft.failLink(mesh.linkBetween(10, 9));
    ft.rebuildAfterFaults();
    EXPECT_TRUE(ft.isolatedDevices().empty());
    return routingDigest(ft);
}

/** Digest of 20 engine iterations on @p sc under @p balancer. */
std::uint64_t
engineDigest(const SystemConfig &sc, BalancerKind balancer)
{
    EngineConfig ec;
    ec.model = qwen3();
    ec.schedule = SchedulingMode::DecodeOnly;
    ec.decodeTokensPerGroup = 64;
    ec.workload.mode = GatingMode::MixedScenario;
    ec.workload.seed = 7;
    ec.balancer = balancer;
    ec.beta = 3;
    const System sys = System::make(sc);
    InferenceEngine engine(sys.mapping(), ec);
    std::uint64_t h = digest::kOffset;
    for (const IterationStats &s : engine.run(20)) {
        for (const double v :
             {s.attnCompute, s.allReduce, s.dispatch, s.combine, s.moeTime,
              s.moeComputeOnly, s.moeMemoryOnly, s.epAllReduce,
              s.migrationOverhead, s.loadMax, s.loadAvg, s.imbalance,
              s.faultRecoveryTime})
            mixDouble(h, v);
        for (const int v : {s.migrationsPlanned, s.migrationsCompleted,
                            s.migrationsPending, s.faultEventsApplied})
            mixInt(h, v);
    }
    return h;
}

} // namespace

// ------------------------------------------------- pinned digests ----

TEST(RoutingDigest, SingleWafer4x4)
{
    EXPECT_EQ(routingDigest(MeshTopology::singleWafer(4)),
              0x454dc38a0329f995ULL);
}

TEST(RoutingDigest, SingleWafer8x8)
{
    EXPECT_EQ(routingDigest(MeshTopology::singleWafer(8)),
              0x18030a4e0b51440dULL);
}

TEST(RoutingDigest, FourWafer8x8)
{
    EXPECT_EQ(routingDigest(MeshTopology::waferRow(4, 8)),
              0x005ad728eb321cfdULL);
}

TEST(RoutingDigest, FourNodeDgx)
{
    EXPECT_EQ(routingDigest(SwitchClusterTopology::dgx(4)),
              0x80b4565e06209765ULL);
}

TEST(RoutingDigest, Nvl72)
{
    EXPECT_EQ(routingDigest(SwitchClusterTopology::nvl72()),
              0x38e7152d01d6cec5ULL);
}

TEST(RoutingDigest, FaultedMesh4x4)
{
    EXPECT_EQ(faultedDigest(), 0xa99526db53284cfcULL);
}

TEST(RoutingDigest, EngineRuns)
{
    SystemConfig er;
    er.platform = PlatformKind::WscEr;
    er.meshN = 4;
    er.tp = 4;
    EXPECT_EQ(engineDigest(er, BalancerKind::NonInvasive),
              0xc77515c827962748ULL);

    SystemConfig her;
    her.platform = PlatformKind::WscHer;
    her.meshN = 4;
    her.wafers = 2;
    her.tp = 4;
    EXPECT_EQ(engineDigest(her, BalancerKind::TopologyAware),
              0xa9104f34def889ceULL);

    SystemConfig dgx;
    dgx.platform = PlatformKind::DgxCluster;
    dgx.dgxNodes = 4;
    dgx.tp = 4;
    EXPECT_EQ(engineDigest(dgx, BalancerKind::Greedy), 0x4062ca000d57d569ULL);
}

// ---------------------------------------------------- route shape ----

TEST(RoutingShape, MeshWalksAreColumnFirstManhattan)
{
    const MeshTopology mesh = MeshTopology::waferRow(2, 4);
    const auto &links = mesh.links();
    for (DeviceId s = 0; s < mesh.numDevices(); ++s) {
        for (DeviceId d = 0; d < mesh.numDevices(); ++d) {
            NodeId at = s;
            int hops = 0;
            bool rowPhase = false;
            for (const LinkId l : mesh.walk(s, d)) {
                const Link &link = links[static_cast<std::size_t>(l)];
                ASSERT_EQ(link.src, at) << s << "->" << d;
                const Coord a = mesh.coordOf(link.src);
                const Coord b = mesh.coordOf(link.dst);
                const bool alongRow = a.row == b.row;
                // Once the walk turns onto the column it never goes
                // back to moving along the row.
                EXPECT_FALSE(rowPhase && alongRow) << s << "->" << d;
                rowPhase = rowPhase || !alongRow;
                at = link.dst;
                ++hops;
            }
            EXPECT_EQ(at, d);
            EXPECT_EQ(hops, mesh.manhattan(s, d));
            EXPECT_EQ(mesh.hops(s, d), hops);
        }
    }
}

TEST(RoutingShape, HopsEqualWalkLength)
{
    // Mesh and switch clusters answer hops() in closed form; it must
    // agree with the walked route everywhere, faulted overlays included.
    const MeshTopology mesh = MeshTopology::waferRow(2, 4);
    const SwitchClusterTopology dgx = SwitchClusterTopology::dgx(3);
    const SwitchClusterTopology nvl = SwitchClusterTopology::nvl72();
    FaultTopology ft(mesh);
    ft.failLink(mesh.linkBetween(5, 6));
    ft.rebuildAfterFaults();
    for (const Topology *topo :
         {static_cast<const Topology *>(&mesh),
          static_cast<const Topology *>(&dgx),
          static_cast<const Topology *>(&nvl),
          static_cast<const Topology *>(&ft)}) {
        for (DeviceId s = 0; s < topo->numDevices(); ++s) {
            for (DeviceId d = 0; d < topo->numDevices(); ++d) {
                EXPECT_EQ(topo->hops(s, d),
                          static_cast<int>(topo->computeRoute(s, d).size()))
                    << topo->name() << " " << s << "->" << d;
            }
        }
    }
}

// ------------------------------------------------------- threads ----

TEST(Routing, ConcurrentWalksOnSharedTopologyAgree)
{
    // Worker threads share one topology (the sweep contract); every
    // thread's all-pairs digest must equal the single-threaded one.
    const MeshTopology mesh = MeshTopology::waferRow(2, 4);
    const Topology &shared = mesh;
    const std::uint64_t expect = routingDigest(shared);

    std::vector<std::thread> workers;
    std::vector<std::uint64_t> seen(4, 0);
    for (int w = 0; w < 4; ++w) {
        workers.emplace_back([&shared, &seen, w]() {
            seen[static_cast<std::size_t>(w)] = routingDigest(shared);
        });
    }
    for (auto &t : workers)
        t.join();
    for (const std::uint64_t h : seen)
        EXPECT_EQ(h, expect);
}
