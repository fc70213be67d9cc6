/**
 * @file
 * Differential tests: the production balancers against the test-only
 * reference (balancer_reference.hh) on identical inputs. Every plan must
 * return the same (expert, src, dst) step list and leave every device's
 * expertsOn() list identical, in order, for:
 *  - Greedy and Topology-aware, on 4×4 and 8×8 meshes, waferRow(2, 8),
 *    one waferRow(4, 16) case, and SwitchClusterTopology::dgx(2);
 *  - E ≥ D and E < D, shadowSlots 0–3;
 *  - seeded Zipf, uniform, all-zero and exact-tie loads;
 *  - fresh placements, placements perturbed between plans, and
 *    placements with devices retired by markDeviceLost();
 *  - repeated NiBalancer re-plans with draining in between, where the
 *    pending counts, completions and hidden bytes must match bitwise.
 * The planners reuse one instance across all cases, so stale scratch
 * state would surface as a mismatch. A counting allocator also checks
 * that steady-state planning and draining allocate nothing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>

#include "balancer/ni_balancer.hh"
#include "balancer_reference.hh"
#include "common/rng.hh"
#include "counting_alloc.hh"
#include "mapping/er_mapping.hh"
#include "mapping/her_mapping.hh"
#include "topology/mesh.hh"
#include "topology/switch_cluster.hh"

using namespace moentwine;
using reference::LoadShape;
using reference::shapedLoads;

namespace {

constexpr LoadShape kShapes[] = {LoadShape::Zipf,  LoadShape::Ties,
                                 LoadShape::Zipf,  LoadShape::Uniform,
                                 LoadShape::Zipf,  LoadShape::Zero,
                                 LoadShape::Ties,  LoadShape::Zipf};

void
expectSameSteps(const std::vector<MigrationStep> &got,
                const std::vector<MigrationStep> &want,
                const std::string &where)
{
    ASSERT_EQ(got.size(), want.size()) << where;
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].expert, want[i].expert) << where << " step " << i;
        EXPECT_EQ(got[i].srcDevice, want[i].srcDevice)
            << where << " step " << i;
        EXPECT_EQ(got[i].dstDevice, want[i].dstDevice)
            << where << " step " << i;
    }
}

void
expectSamePlacement(const ExpertPlacement &got, const ExpertPlacement &want,
                    const std::string &where)
{
    for (DeviceId d = 0; d < got.numDevices(); ++d)
        ASSERT_EQ(got.expertsOn(d), want.expertsOn(d))
            << where << " device " << d;
}

/**
 * Drop a seeded subset of shadow replicas and add a few seeded ones,
 * the same way on both placements, so the next plan starts from prior
 * holders no plan would produce (like NI's retracted replicas).
 */
void
perturb(ExpertPlacement &a, ExpertPlacement &b, Rng &rng)
{
    for (DeviceId d = 0; d < a.numDevices(); ++d) {
        const std::vector<int> hosted = a.expertsOn(d);
        for (const int e : hosted) {
            if (!a.isNative(d, e) && rng.below(3) == 0) {
                a.removeReplica(e, d);
                b.removeReplica(e, d);
            }
        }
    }
    for (int tries = 0; tries < a.numDevices(); ++tries) {
        const auto d = static_cast<DeviceId>(
            rng.below(static_cast<std::uint64_t>(a.numDevices())));
        const int e = static_cast<int>(
            rng.below(static_cast<std::uint64_t>(a.numExperts())));
        if (a.freeSlots(d) > 0 && !a.hosts(d, e)) {
            a.addReplica(e, d);
            b.addReplica(e, d);
        }
    }
}

/** Devices retired mid-sequence: a seeded few, never all. */
std::vector<DeviceId>
lostDevices(int devices, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<DeviceId> lost;
    for (int i = 0; i < std::max(1, devices / 8); ++i)
        lost.push_back(static_cast<DeviceId>(
            rng.below(static_cast<std::uint64_t>(devices))));
    return lost;
}

/** The reference plan matching a production balancer's policy. */
std::vector<MigrationStep>
referencePlan(const Topology *topo, const std::vector<double> &loads,
              ExpertPlacement &placement)
{
    return topo ? reference::topologyAwareRebalance(*topo, loads, placement)
                : reference::greedyRebalance(loads, placement);
}

/**
 * Run @p planner and its reference side by side over the re-plan
 * sequence of every (experts, slots, seed) case on @p devices devices,
 * with and without perturbation and device loss. @p topo is the
 * planner's topology, nullptr for Greedy.
 */
void
differential(Balancer &planner, const Topology *topo, int devices,
             const std::vector<std::pair<int, int>> &configs, int seeds,
             std::size_t shapes = std::size(kShapes))
{
    for (const auto &[experts, slots] : configs) {
        for (int seed = 1; seed <= seeds; ++seed) {
            for (const bool faults : {false, true}) {
                ExpertPlacement prod(experts, devices, slots);
                ExpertPlacement ref(experts, devices, slots);
                Rng rng(static_cast<std::uint64_t>(seed) * 7919u);
                const auto lost = lostDevices(
                    devices, static_cast<std::uint64_t>(seed));
                for (std::size_t i = 0; i < shapes; ++i) {
                    const std::string where = planner.name() +
                        " D=" + std::to_string(devices) +
                        " E=" + std::to_string(experts) +
                        " slots=" + std::to_string(slots) +
                        " seed=" + std::to_string(seed) +
                        (faults ? " faults" : "") + " plan " +
                        std::to_string(i);
                    if (faults && (i == 1 || i == 4)) {
                        const DeviceId d = lost[i == 1 ? 0 : lost.size() - 1];
                        prod.markDeviceLost(d);
                        ref.markDeviceLost(d);
                    }
                    if (faults && i % 2 == 1)
                        perturb(prod, ref, rng);
                    const auto loads = shapedLoads(
                        kShapes[i], experts,
                        static_cast<std::uint64_t>(seed * 100) + i);
                    const auto want = referencePlan(topo, loads, ref);
                    const auto &got = planner.rebalance(loads, prod);
                    expectSameSteps(got, want, where);
                    expectSamePlacement(prod, ref, where);
                    if (::testing::Test::HasFatalFailure())
                        return;
                }
            }
        }
    }
}

/** Configs for @p d devices: E ≥ D and E < D across slots 0–3. */
std::vector<std::pair<int, int>>
configsFor(int d)
{
    return {{d, 1}, {2 * d + 3, 2}, {d / 2, 3}, {3, 2}, {d, 0}, {d + 5, 3}};
}

void
differentialBoth(const Topology &topo, int seeds)
{
    const auto configs = configsFor(topo.numDevices());
    GreedyBalancer greedy;
    TopologyAwareBalancer aware(topo);
    differential(greedy, nullptr, topo.numDevices(), configs, seeds);
    differential(aware, &topo, topo.numDevices(), configs, seeds);
}

} // namespace

TEST(BalancerDifferential, Mesh4x4)
{
    differentialBoth(MeshTopology::singleWafer(4), 6);
}

TEST(BalancerDifferential, Mesh8x8)
{
    differentialBoth(MeshTopology::singleWafer(8), 3);
}

TEST(BalancerDifferential, WaferRow2x8)
{
    differentialBoth(MeshTopology::waferRow(2, 8), 2);
}

TEST(BalancerDifferential, Dgx2)
{
    differentialBoth(SwitchClusterTopology::dgx(2), 6);
}

TEST(BalancerDifferential, WaferRow4x16)
{
    const MeshTopology mesh = MeshTopology::waferRow(4, 16);
    GreedyBalancer greedy;
    TopologyAwareBalancer aware(mesh);
    differential(greedy, nullptr, mesh.numDevices(), {{1500, 2}}, 1, 3);
    differential(aware, &mesh, mesh.numDevices(), {{128, 1}, {1500, 2}}, 1,
                 3);
}

namespace {

/** Traffic that leaves some links partly busy and others idle. */
PhaseTraffic
mixedTraffic(const MeshTopology &mesh, std::uint64_t seed)
{
    PhaseTraffic t(mesh);
    Rng rng(seed);
    for (int i = 0; i < mesh.numDevices(); ++i) {
        const auto a = static_cast<DeviceId>(
            rng.below(static_cast<std::uint64_t>(mesh.numDevices())));
        const auto b = static_cast<DeviceId>(
            rng.below(static_cast<std::uint64_t>(mesh.numDevices())));
        t.addFlow(a, b, 1e6 * static_cast<double>(1 + rng.below(20)));
    }
    return t;
}

void
niDifferential(const Mapping &mapping, const MeshTopology &mesh,
               int experts, int slots, std::uint64_t seed)
{
    const double expertBytes = 42e6;
    NiBalancer prod(mapping, expertBytes);
    reference::NiBalancer ref(mapping, expertBytes);
    ExpertPlacement pp(experts, mesh.numDevices(), slots);
    ExpertPlacement rp(experts, mesh.numDevices(), slots);
    const PhaseTraffic idle(mesh);
    const PhaseTraffic busy = mixedTraffic(mesh, seed);
    const auto lost = lostDevices(mesh.numDevices(), seed);
    for (int round = 0; round < 24; ++round) {
        const std::string where = "NI D=" +
            std::to_string(mesh.numDevices()) + " E=" +
            std::to_string(experts) + " slots=" + std::to_string(slots) +
            " seed=" + std::to_string(seed) + " round " +
            std::to_string(round);
        if (round == 9) {
            pp.markDeviceLost(lost[0]);
            rp.markDeviceLost(lost[0]);
        }
        const LoadShape shape =
            kShapes[static_cast<std::size_t>(round) % std::size(kShapes)];
        const auto loads = shapedLoads(
            shape, experts, seed * 31 + static_cast<std::uint64_t>(round));
        if (round % 3 != 2) {
            ASSERT_EQ(prod.plan(loads, pp), ref.plan(loads, rp)) << where;
            expectSamePlacement(pp, rp, where);
        }
        const PhaseTraffic &t = round % 2 ? busy : idle;
        const double window = 4e-6 * (1 + round % 4);
        ASSERT_EQ(prod.advanceAttention(t, window, pp),
                  ref.advanceAttention(t, window, rp))
            << where;
        ASSERT_EQ(prod.advanceMoe(t, 1.5 * window, pp),
                  ref.advanceMoe(t, 1.5 * window, rp))
            << where;
        ASSERT_EQ(prod.pendingCount(), ref.pendingCount()) << where;
        ASSERT_EQ(prod.hiddenBytesMoved(), ref.hiddenBytesMoved()) << where;
        expectSamePlacement(pp, rp, where);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

} // namespace

TEST(BalancerDifferential, NonInvasiveReplans)
{
    const MeshTopology mesh4 = MeshTopology::singleWafer(4);
    const ErMapping er4(mesh4, ParallelismConfig{2, 2});
    const MeshTopology row = MeshTopology::waferRow(2, 8);
    const HierarchicalErMapping her(
        row, decomposeTp(4, row.waferRows(), row.waferCols()));
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        for (const auto &[experts, slots] :
             std::vector<std::pair<int, int>>{{16, 1}, {35, 2}, {8, 3}}) {
            niDifferential(er4, mesh4, experts, slots, seed);
        }
        niDifferential(her, row, 256, 2, seed);
        niDifferential(her, row, 40, 1, seed);
    }
}

// ------------------------------------------------ allocation-free ----

TEST(BalancerAllocations, SteadyStateRebalanceAllocatesNothing)
{
    const MeshTopology mesh = MeshTopology::singleWafer(8);
    const auto a = shapedLoads(LoadShape::Zipf, 150, 1);
    const auto b = shapedLoads(LoadShape::Zipf, 150, 2);
    GreedyBalancer greedy;
    TopologyAwareBalancer aware(mesh);
    for (Balancer *planner : {static_cast<Balancer *>(&greedy),
                              static_cast<Balancer *>(&aware)}) {
        ExpertPlacement p(150, mesh.numDevices(), 2);
        // Warm: both targets reached once, so every buffer has grown.
        for (int i = 0; i < 3; ++i) {
            planner->rebalance(a, p);
            planner->rebalance(b, p);
        }
        const std::size_t before = g_allocCount.load();
        std::size_t steps = 0;
        for (int i = 0; i < 4; ++i) {
            steps += planner->rebalance(a, p).size();
            steps += planner->rebalance(b, p).size();
        }
        EXPECT_EQ(g_allocCount.load(), before) << planner->name();
        EXPECT_GT(steps, 0u) << planner->name();
    }
}

TEST(BalancerAllocations, SteadyStateNiPlanAndDrainAllocateNothing)
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    const ErMapping er(mesh, ParallelismConfig{2, 2});
    // A 1 GB expert keeps every migration pending, so the re-plans
    // below enqueue nothing new.
    NiBalancer ni(er, 1e9);
    ExpertPlacement p(35, mesh.numDevices(), 2);
    const auto loads = shapedLoads(LoadShape::Zipf, 35, 3);
    const PhaseTraffic busy = mixedTraffic(mesh, 5);
    ASSERT_GT(ni.plan(loads, p), 0);
    for (int i = 0; i < 3; ++i) {
        ni.plan(loads, p);
        ni.advanceAttention(busy, 1e-6, p);
        ni.advanceMoe(busy, 1e-6, p);
    }
    const std::size_t pending = ni.pendingCount();
    const std::size_t before = g_allocCount.load();
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(ni.plan(loads, p), 0);
        ni.advanceAttention(busy, 1e-6, p);
        ni.advanceMoe(busy, 1e-6, p);
    }
    EXPECT_EQ(g_allocCount.load(), before);
    EXPECT_EQ(ni.pendingCount(), pending);
}

TEST(BalancerAllocations, NiEnqueueAndCompleteAllocateNothing)
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    const ErMapping er(mesh, ParallelismConfig{2, 2});
    // A 1 kB expert drains within one attention and one MoE window, so
    // every migration completes, and alternating loads make every plan
    // enqueue new ones into the buffers of completed ones.
    NiBalancer ni(er, 1e3);
    ExpertPlacement p(35, mesh.numDevices(), 2);
    const std::vector<double> loads[] = {
        shapedLoads(LoadShape::Zipf, 35, 3),
        shapedLoads(LoadShape::Zipf, 35, 4)};
    const PhaseTraffic busy = mixedTraffic(mesh, 5);
    int enqueued = 0;
    int completed = 0;
    auto round = [&](int i) {
        const int planned = ni.plan(loads[i % 2], p);
        enqueued += planned;
        completed += ni.advanceAttention(busy, 1e-6, p);
        completed += ni.advanceMoe(busy, 1e-6, p);
        return planned;
    };
    for (int i = 0; i < 8; ++i)
        round(i);
    const int pending = static_cast<int>(ni.pendingCount());
    const std::size_t before = g_allocCount.load();
    enqueued = 0;
    completed = 0;
    for (int i = 0; i < 16; ++i)
        EXPECT_GT(round(i), 0) << "round " << i;
    EXPECT_EQ(g_allocCount.load(), before);
    EXPECT_GT(completed, 0);
    EXPECT_EQ(static_cast<int>(ni.pendingCount()),
              pending + enqueued - completed);
}
