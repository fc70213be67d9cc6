/**
 * @file
 * Tests for the rebalance trigger (Eq. 2), Algorithm 1's heat index,
 * and the greedy / topology-aware balancers (Algorithm 1), plus pinned
 * digests of the planners' step lists (BalancerDigest.*).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>

#include "balancer/balancer.hh"
#include "balancer/ni_balancer.hh"
#include "balancer_reference.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "digest.hh"
#include "mapping/er_mapping.hh"
#include "topology/mesh.hh"
#include "topology/switch_cluster.hh"

using namespace moentwine;

// ------------------------------------------------------- trigger ----

TEST(Trigger, FiresWhenThresholdExceeded)
{
    RebalanceTrigger t(1.0, 0);
    EXPECT_FALSE(t.poll(0.5));
    EXPECT_TRUE(t.poll(0.6)); // cumulative 1.1 > 1.0
}

TEST(Trigger, ResetsAfterFiring)
{
    RebalanceTrigger t(1.0, 0);
    t.poll(0.8);
    EXPECT_TRUE(t.poll(0.5));
    EXPECT_DOUBLE_EQ(t.accumulated(), 0.0);
    EXPECT_FALSE(t.poll(0.5));
}

TEST(Trigger, BetaEnforcesCooldown)
{
    RebalanceTrigger t(0.1, 5);
    EXPECT_TRUE(t.poll(1.0)); // first firing allowed immediately
    // Large imbalance, but within beta iterations — suppressed.
    for (int i = 0; i < 5; ++i)
        EXPECT_FALSE(t.poll(1.0)) << "iteration " << i;
    EXPECT_TRUE(t.poll(1.0));
}

TEST(Trigger, BetaZeroAllowsBackToBack)
{
    RebalanceTrigger t(0.1, 0);
    EXPECT_TRUE(t.poll(1.0));
    EXPECT_TRUE(t.poll(1.0));
}

TEST(Trigger, ZeroImbalanceNeverFires)
{
    RebalanceTrigger t(0.5, 0);
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(t.poll(0.0));
}

// ------------------------------------------------------- helpers ----

namespace {

/** Skewed loads: expert e gets weight 1/(e+1). */
std::vector<double>
skewedLoads(int experts, double scale = 1000.0)
{
    std::vector<double> loads(static_cast<std::size_t>(experts));
    for (int e = 0; e < experts; ++e)
        loads[std::size_t(e)] = scale / (e + 1);
    return loads;
}

double
peakHeat(const ExpertPlacement &p, const std::vector<double> &loads)
{
    return maxOf(deviceHeats(p, loads));
}

} // namespace

// -------------------------------------------------------- greedy ----

TEST(GreedyBalancer, ReducesPeakHeat)
{
    ExpertPlacement p(16, 16, 1);
    const auto loads = skewedLoads(16);
    const double before = peakHeat(p, loads);
    GreedyBalancer gb;
    gb.rebalance(loads, p);
    EXPECT_LT(peakHeat(p, loads), before);
}

TEST(GreedyBalancer, ReturnsMigrationSteps)
{
    ExpertPlacement p(16, 16, 1);
    GreedyBalancer gb;
    const auto steps = gb.rebalance(skewedLoads(16), p);
    EXPECT_FALSE(steps.empty());
    for (const auto &s : steps) {
        EXPECT_NE(s.srcDevice, s.dstDevice);
        EXPECT_TRUE(p.hosts(s.dstDevice, s.expert));
    }
}

TEST(GreedyBalancer, IdempotentOnSameLoads)
{
    ExpertPlacement p(16, 16, 1);
    const auto loads = skewedLoads(16);
    GreedyBalancer gb;
    gb.rebalance(loads, p);
    // Re-planning with identical loads keeps the same target: no new
    // weight copies needed.
    const auto steps = gb.rebalance(loads, p);
    EXPECT_TRUE(steps.empty());
}

TEST(GreedyBalancer, UniformLoadsNeedNoSteps)
{
    ExpertPlacement p(16, 16, 1);
    const std::vector<double> loads(16, 10.0);
    GreedyBalancer gb;
    EXPECT_TRUE(gb.rebalance(loads, p).empty());
}

TEST(GreedyBalancer, RespectsSlotCapacity)
{
    ExpertPlacement p(16, 16, 1);
    GreedyBalancer gb;
    gb.rebalance(skewedLoads(16), p);
    for (DeviceId d = 0; d < 16; ++d)
        EXPECT_GE(p.freeSlots(d), 0);
}

TEST(GreedyBalancer, ZeroShadowSlotsNoSteps)
{
    ExpertPlacement p(16, 16, 0);
    GreedyBalancer gb;
    EXPECT_TRUE(gb.rebalance(skewedLoads(16), p).empty());
}

// ------------------------------------------------ topology-aware ----

TEST(TopoBalancer, ReducesPeakHeat)
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    ExpertPlacement p(16, 16, 1);
    const auto loads = skewedLoads(16);
    const double before = peakHeat(p, loads);
    TopologyAwareBalancer tb(mesh);
    tb.rebalance(loads, p);
    EXPECT_LT(peakHeat(p, loads), before);
}

TEST(TopoBalancer, BalanceQualityMatchesGreedy)
{
    // Algorithm 1 claims equal balance at lower migration cost; allow
    // a small tolerance on the peak heat.
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    const auto loads = skewedLoads(16);
    ExpertPlacement pg(16, 16, 1);
    ExpertPlacement pt(16, 16, 1);
    GreedyBalancer gb;
    TopologyAwareBalancer tb(mesh);
    gb.rebalance(loads, pg);
    tb.rebalance(loads, pt);
    EXPECT_LE(peakHeat(pt, loads), peakHeat(pg, loads) * 1.10);
}

TEST(TopoBalancer, ShorterMigrationsThanGreedy)
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    const auto loads = skewedLoads(16);
    ExpertPlacement pg(16, 16, 1);
    ExpertPlacement pt(16, 16, 1);
    GreedyBalancer gb;
    TopologyAwareBalancer tb(mesh);
    const auto gs = gb.rebalance(loads, pg);
    const auto ts = tb.rebalance(loads, pt);
    ASSERT_FALSE(gs.empty());
    ASSERT_FALSE(ts.empty());
    auto avgHops = [&](const std::vector<MigrationStep> &steps) {
        double total = 0.0;
        for (const auto &s : steps)
            total += mesh.hops(s.srcDevice, s.dstDevice);
        return total / steps.size();
    };
    EXPECT_LE(avgHops(ts), avgHops(gs));
}

TEST(TopoBalancer, SourceIsAnExistingReplica)
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    ExpertPlacement p(16, 16, 1);
    TopologyAwareBalancer tb(mesh);
    const auto steps = tb.rebalance(skewedLoads(16), p);
    for (const auto &s : steps) {
        // Source must be the expert's native device here (only replica
        // before the re-plan).
        EXPECT_EQ(s.srcDevice, s.expert % 16);
    }
}

TEST(TopoBalancer, PeakNeverIncreases)
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    TopologyAwareBalancer tb(mesh);
    // Sweep several load shapes; Algorithm 1 must never worsen peak.
    for (const double zipfScale : {10.0, 100.0, 5000.0}) {
        ExpertPlacement p(16, 16, 2);
        const auto loads = skewedLoads(16, zipfScale);
        const double before = peakHeat(p, loads);
        tb.rebalance(loads, p);
        EXPECT_LE(peakHeat(p, loads), before + 1e-9);
    }
}

TEST(TopoBalancer, WorksWithFewExpertsManyDevices)
{
    // Mixtral-style E/D < 1 regime.
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    ExpertPlacement p(8, 16, 1);
    TopologyAwareBalancer tb(mesh);
    const auto loads = skewedLoads(8);
    const double before = peakHeat(p, loads);
    tb.rebalance(loads, p);
    EXPECT_LE(peakHeat(p, loads), before + 1e-9);
}

TEST(TopoBalancer, Names)
{
    const MeshTopology mesh = MeshTopology::singleWafer(2);
    EXPECT_EQ(GreedyBalancer{}.name(), "Greedy");
    EXPECT_EQ(TopologyAwareBalancer{mesh}.name(), "Topology-aware");
}

// ---------------------------------------------------- heat index ----

namespace {

/**
 * The heat trees must answer exactly what scans of heats() do: the
 * std::max_element device, and the coldest device with a free slot
 * that is not @p skip and does not host the expert (ties: lowest id).
 */
void
expectTreesMatchScan(const HeatIndex &index, const ExpertPlacement &p)
{
    const auto &heats = index.heats();
    EXPECT_EQ(index.hottest(),
              std::max_element(heats.begin(), heats.end()) - heats.begin());
    for (int e = 0; e < p.numExperts(); ++e) {
        for (DeviceId skip = -1; skip < p.numDevices(); ++skip) {
            DeviceId want = -1;
            for (DeviceId d = 0; d < p.numDevices(); ++d) {
                if (d != skip && p.freeSlots(d) > 0 && !p.hosts(d, e) &&
                    (want < 0 || heats[std::size_t(d)] <
                                     heats[std::size_t(want)])) {
                    want = d;
                }
            }
            EXPECT_EQ(index.coldestOpen(p, e, skip), want)
                << "expert " << e << " skip " << skip;
        }
    }
}

/** Indexed heats must match a from-scratch recompute (FP tolerance). */
void
expectHeatsMatchRecompute(const HeatIndex &index, const ExpertPlacement &p,
                          const std::vector<double> &loads)
{
    const auto fresh = deviceHeats(p, loads);
    const auto &indexed = index.heats();
    ASSERT_EQ(fresh.size(), indexed.size());
    for (std::size_t d = 0; d < fresh.size(); ++d)
        EXPECT_NEAR(indexed[d], fresh[d], 1e-9) << "device " << d;
    expectTreesMatchScan(index, p);
}

} // namespace

TEST(HeatIndex, AddsMaintainHeatsIncrementally)
{
    ExpertPlacement p(8, 4, 2);
    const std::vector<double> loads{5, 1, 2, 8, 3, 1, 4, 6};
    HeatIndex index;
    index.build(loads, p);
    expectHeatsMatchRecompute(index, p, loads);

    for (const auto &[e, d] :
         std::vector<std::pair<int, DeviceId>>{{3, 0}, {3, 2}, {7, 1}}) {
        index.addReplica(p, e, d, loads[std::size_t(e)]);
        EXPECT_TRUE(p.hosts(d, e));
        expectHeatsMatchRecompute(index, p, loads);
    }
}

TEST(HeatIndex, TreesFollowSeededAddsAndRebuilds)
{
    // Small integer loads make exact heat ties common. Additions go
    // through the index; every other change (a removal, a load change,
    // a reset to native, one device loss) is followed by a rebuild.
    for (const auto &[experts, devices] :
         std::vector<std::pair<int, int>>{{10, 7}, {5, 12}, {16, 16}}) {
        ExpertPlacement p(experts, devices, 2);
        Rng rng(static_cast<std::uint64_t>(experts * 100 + devices));
        std::vector<double> loads(static_cast<std::size_t>(experts));
        for (double &l : loads)
            l = static_cast<double>(rng.below(4));
        HeatIndex index;
        index.build(loads, p);
        expectHeatsMatchRecompute(index, p, loads);
        for (int op = 0; op < 200; ++op) {
            const int e = static_cast<int>(
                rng.below(static_cast<std::uint64_t>(experts)));
            const auto d = static_cast<DeviceId>(
                rng.below(static_cast<std::uint64_t>(devices)));
            if (op == 100) {
                p.markDeviceLost(d);
                index.build(loads, p);
            } else if (op % 50 == 49) {
                p.resetToNative();
                index.build(loads, p);
            } else {
                switch (rng.below(4)) {
                  case 0:
                  case 1:
                    if (p.freeSlots(d) > 0 && !p.hosts(d, e))
                        index.addReplica(p, e, d, loads[std::size_t(e)]);
                    break;
                  case 2:
                    if (p.hosts(d, e) && !p.isNative(d, e)) {
                        p.removeReplica(e, d);
                        index.build(loads, p);
                    }
                    break;
                  default:
                    loads[std::size_t(e)] =
                        static_cast<double>(rng.below(4));
                    index.build(loads, p);
                    break;
                }
            }
            expectHeatsMatchRecompute(index, p, loads);
            if (HasFailure())
                return;
        }
    }
}

// ------------------------------------------------- pinned digests ----
//
// FNV-1a digests of the (expert, src, dst) step lists and the resulting
// expertsOn() lists over a fixed seed set, in next_hop_test's
// RoutingDigest pattern. balancer_reference_test holds the production
// planner to the test-only reference; these constants catch the two
// drifting together. They were derived from the planner that scanned
// every device per round, before the heat tournament tree, and must
// never be regenerated to make a planner change pass.

namespace {

using reference::LoadShape;
using reference::shapedLoads;

using digest::mixDouble;
using digest::mixInt;

void
mixSteps(std::uint64_t &h, const std::vector<MigrationStep> &steps)
{
    mixInt(h, static_cast<std::int64_t>(steps.size()));
    for (const MigrationStep &s : steps) {
        mixInt(h, s.expert);
        mixInt(h, s.srcDevice);
        mixInt(h, s.dstDevice);
    }
}

/** Every device's expertsOn() list, in order, with a separator. */
void
mixPlacement(std::uint64_t &h, const ExpertPlacement &p)
{
    for (DeviceId d = 0; d < p.numDevices(); ++d) {
        for (const int e : p.expertsOn(d))
            mixInt(h, e);
        mixInt(h, -1);
    }
}

/** Load sequence each seed re-plans through, on one placement. */
constexpr LoadShape kShapes[] = {LoadShape::Zipf,  LoadShape::Ties,
                                 LoadShape::Zipf,  LoadShape::Uniform,
                                 LoadShape::Zipf,  LoadShape::Zero,
                                 LoadShape::Ties};

/** (experts, shadow slots) pairs: E ≥ D and E < D, slots 0–3. */
using Configs = std::vector<std::pair<int, int>>;

/**
 * Digest of @p plan over every config and seed 1..@p seeds. Each seed
 * re-plans through kShapes on one placement, so prior shadow replicas
 * feed every snapshot; the devices in @p lost are retired after the
 * first plan.
 */
template <typename Plan>
std::uint64_t
planDigest(int devices, const Configs &configs, int seeds,
           const std::vector<DeviceId> &lost, Plan plan)
{
    std::uint64_t h = digest::kOffset;
    for (const auto &[experts, slots] : configs) {
        for (int seed = 1; seed <= seeds; ++seed) {
            ExpertPlacement p(experts, devices, slots);
            int i = 0;
            for (const LoadShape shape : kShapes) {
                if (i == 1)
                    for (const DeviceId d : lost)
                        p.markDeviceLost(d);
                const auto loads = shapedLoads(
                    shape, experts,
                    static_cast<std::uint64_t>(seed * 1000 + i++));
                mixSteps(h, plan(loads, p));
                mixPlacement(h, p);
            }
        }
    }
    return h;
}

const Configs k16 = {{16, 1}, {35, 2}, {8, 3}, {128, 1}, {16, 0}};

std::uint64_t
greedyDigest(int devices, const Configs &configs, int seeds,
             const std::vector<DeviceId> &lost = {})
{
    GreedyBalancer gb;
    return planDigest(devices, configs, seeds, lost,
                      [&](const std::vector<double> &loads,
                          ExpertPlacement &p) {
                          return gb.rebalance(loads, p);
                      });
}

std::uint64_t
topoDigest(const Topology &topo, const Configs &configs, int seeds,
           const std::vector<DeviceId> &lost = {})
{
    TopologyAwareBalancer tb(topo);
    return planDigest(topo.numDevices(), configs, seeds, lost,
                      [&](const std::vector<double> &loads,
                          ExpertPlacement &p) {
                          return tb.rebalance(loads, p);
                      });
}

/**
 * NI re-plans on a 4×4 ER wafer: each plan is followed by one
 * attention and one MoE window over @p traffic, so some migrations
 * land between plans and others are still pending at the next one.
 */
std::uint64_t
niDigest(const Configs &configs, int seeds)
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    const ErMapping er(mesh, ParallelismConfig{2, 2});
    PhaseTraffic traffic(mesh);
    for (DeviceId a = 0; a < mesh.numDevices(); ++a)
        traffic.addFlow(a, (a * 5 + 3) % mesh.numDevices(), 1.5e7);
    std::uint64_t h = digest::kOffset;
    for (const auto &[experts, slots] : configs) {
        for (int seed = 1; seed <= seeds; ++seed) {
            NiBalancer ni(er, 42e6);
            ExpertPlacement p(experts, mesh.numDevices(), slots);
            int i = 0;
            for (const LoadShape shape : kShapes) {
                const auto loads = shapedLoads(
                    shape, experts,
                    static_cast<std::uint64_t>(seed * 1000 + i++));
                mixInt(h, ni.plan(loads, p));
                mixPlacement(h, p);
                mixInt(h, ni.advanceAttention(traffic, 2e-5, p));
                mixInt(h, ni.advanceMoe(traffic, 3e-5, p));
                mixInt(h, static_cast<std::int64_t>(ni.pendingCount()));
                mixDouble(h, ni.hiddenBytesMoved());
                mixPlacement(h, p);
            }
        }
    }
    return h;
}

} // namespace

TEST(BalancerDigest, Greedy)
{
    EXPECT_EQ(greedyDigest(16, k16, 3), 0xb1bcaf4075a50aa2ULL);
    EXPECT_EQ(greedyDigest(16, k16, 2, {5, 10, 0}),
              0x1893731c1143260aULL);
}

TEST(BalancerDigest, TopologyAwareMesh)
{
    EXPECT_EQ(topoDigest(MeshTopology::singleWafer(4), k16, 3),
              0x6f79b0361b647970ULL);
    EXPECT_EQ(topoDigest(MeshTopology::singleWafer(4), k16, 2, {5, 10, 0}),
              0xb2221fe586bd735bULL);
    EXPECT_EQ(topoDigest(MeshTopology::singleWafer(8),
                         {{64, 1}, {150, 2}, {32, 3}}, 2),
              0xdf183e52df0a555bULL);
    EXPECT_EQ(topoDigest(MeshTopology::waferRow(2, 8), {{128, 1}, {40, 2}},
                         2),
              0x7451a876484d852bULL);
}

TEST(BalancerDigest, TopologyAwareMesh1024)
{
    EXPECT_EQ(topoDigest(MeshTopology::waferRow(4, 16),
                         {{128, 1}, {1500, 2}}, 1),
              0x21cc18f62777db1eULL);
}

TEST(BalancerDigest, TopologyAwareSwitchCluster)
{
    EXPECT_EQ(topoDigest(SwitchClusterTopology::dgx(2), k16, 3),
              0x3e372fba71034563ULL);
}

TEST(BalancerDigest, NonInvasiveReplans)
{
    EXPECT_EQ(niDigest({{16, 1}, {35, 2}, {8, 3}}, 3),
              0x2759d334409cfb4bULL);
}
