/**
 * @file
 * Tests for the expert placement (native + shadow replica) structure.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "balancer/placement.hh"
#include "common/rng.hh"

using namespace moentwine;

TEST(Placement, RoundRobinManyExpertsPerDevice)
{
    // 8 experts on 4 devices: two natives each (E/D = 2).
    const ExpertPlacement p(8, 4, 1);
    for (DeviceId d = 0; d < 4; ++d) {
        EXPECT_EQ(p.expertsOn(d).size(), 2u);
        EXPECT_EQ(p.freeSlots(d), 1);
    }
    EXPECT_TRUE(p.hosts(0, 0));
    EXPECT_TRUE(p.hosts(0, 4));
    EXPECT_TRUE(p.hosts(3, 7));
}

TEST(Placement, RoundRobinMoreDevicesThanExperts)
{
    // E/D < 1: 4 experts on 8 devices → every expert has 2 replicas.
    const ExpertPlacement p(4, 8, 0);
    for (int e = 0; e < 4; ++e)
        EXPECT_EQ(p.numReplicas(e), 2);
    for (DeviceId d = 0; d < 8; ++d)
        EXPECT_EQ(p.expertsOn(d).size(), 1u);
}

TEST(Placement, EveryExpertHasAReplica)
{
    const ExpertPlacement p(256, 300, 1);
    for (int e = 0; e < 256; ++e)
        EXPECT_GE(p.numReplicas(e), 1);
}

TEST(Placement, AddReplicaUpdatesBothIndices)
{
    ExpertPlacement p(8, 4, 1);
    p.addReplica(0, 1);
    EXPECT_TRUE(p.hosts(1, 0));
    EXPECT_EQ(p.numReplicas(0), 2);
    EXPECT_EQ(p.freeSlots(1), 0);
}

TEST(Placement, RemoveReplicaRestoresSlot)
{
    ExpertPlacement p(8, 4, 1);
    p.addReplica(0, 1);
    p.removeReplica(0, 1);
    EXPECT_FALSE(p.hosts(1, 0));
    EXPECT_EQ(p.numReplicas(0), 1);
    EXPECT_EQ(p.freeSlots(1), 1);
}

TEST(Placement, ResetToNativeDropsShadows)
{
    ExpertPlacement p(8, 4, 2);
    p.addReplica(0, 1);
    p.addReplica(1, 2);
    p.resetToNative();
    EXPECT_FALSE(p.hosts(1, 0));
    EXPECT_FALSE(p.hosts(2, 1));
    for (int e = 0; e < 8; ++e)
        EXPECT_EQ(p.numReplicas(e), 1);
}

TEST(Placement, IsNativeDistinguishesShadow)
{
    ExpertPlacement p(8, 4, 1);
    EXPECT_TRUE(p.isNative(0, 0));
    p.addReplica(0, 1);
    EXPECT_FALSE(p.isNative(1, 0));
}

TEST(Placement, DeviceHeatsSplitAcrossReplicas)
{
    // 4 experts, 4 devices, loads {8, 0, 0, 0}. Replicating expert 0
    // onto device 1 halves device 0's heat.
    ExpertPlacement p(4, 4, 1);
    const std::vector<double> loads{8.0, 0.0, 0.0, 0.0};
    auto heats = p.deviceHeats(loads);
    EXPECT_DOUBLE_EQ(heats[0], 8.0);
    p.addReplica(0, 1);
    heats = p.deviceHeats(loads);
    EXPECT_DOUBLE_EQ(heats[0], 4.0);
    EXPECT_DOUBLE_EQ(heats[1], 4.0);
}

TEST(Placement, HeatsSumPreserved)
{
    // Replication never changes total load, only its spread.
    ExpertPlacement p(8, 4, 2);
    const std::vector<double> loads{5, 1, 2, 8, 3, 1, 4, 6};
    auto total = [&] {
        double s = 0.0;
        for (const double h : p.deviceHeats(loads))
            s += h;
        return s;
    };
    const double before = total();
    p.addReplica(3, 0);
    p.addReplica(3, 2);
    EXPECT_NEAR(total(), before, 1e-9);
}

TEST(Placement, ShadowSlotCapacity)
{
    ExpertPlacement p(4, 4, 2);
    p.addReplica(1, 0);
    p.addReplica(2, 0);
    EXPECT_EQ(p.freeSlots(0), 0);
}

TEST(Placement, ZeroShadowSlots)
{
    const ExpertPlacement p(4, 4, 0);
    for (DeviceId d = 0; d < 4; ++d)
        EXPECT_EQ(p.freeSlots(d), 0);
}

TEST(Placement, CopySemanticsIndependent)
{
    ExpertPlacement a(8, 4, 1);
    ExpertPlacement b = a;
    b.addReplica(0, 1);
    EXPECT_TRUE(b.hosts(1, 0));
    EXPECT_FALSE(a.hosts(1, 0));
}

// ------------------------------------- incremental heat tracking ----

namespace {

/**
 * The heat trees must answer exactly what scans of heats() do: the
 * std::max_element device, and the coldest device with a free slot
 * that is not @p skip and does not host the expert (ties: lowest id).
 */
void
expectTreesMatchScan(const ExpertPlacement &p)
{
    const auto &heats = p.heats();
    EXPECT_EQ(p.hottestDevice(),
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
            EXPECT_EQ(p.coldestOpenDevice(e, skip), want)
                << "expert " << e << " skip " << skip;
        }
    }
}

/** Tracked heats must match a from-scratch recompute (FP tolerance). */
void
expectHeatsMatchRecompute(const ExpertPlacement &p,
                          const std::vector<double> &loads)
{
    const auto fresh = p.deviceHeats(loads);
    const auto &tracked = p.heats();
    ASSERT_EQ(fresh.size(), tracked.size());
    for (std::size_t d = 0; d < fresh.size(); ++d)
        EXPECT_NEAR(tracked[d], fresh[d], 1e-9) << "device " << d;
    expectTreesMatchScan(p);
}

} // namespace

TEST(PlacementHeatTracking, AddRemoveMaintainHeatsIncrementally)
{
    ExpertPlacement p(8, 4, 2);
    std::vector<double> loads{5, 1, 2, 8, 3, 1, 4, 6};
    p.setExpertLoads(loads);
    ASSERT_TRUE(p.tracksLoads());
    expectHeatsMatchRecompute(p, loads);

    p.addReplica(3, 0);
    expectHeatsMatchRecompute(p, loads);
    p.addReplica(3, 2);
    expectHeatsMatchRecompute(p, loads);
    p.addReplica(7, 1);
    expectHeatsMatchRecompute(p, loads);
    p.removeReplica(3, 0);
    expectHeatsMatchRecompute(p, loads);
    p.removeReplica(7, 1);
    expectHeatsMatchRecompute(p, loads);
}

TEST(PlacementHeatTracking, UpdateExpertLoadIsIncremental)
{
    ExpertPlacement p(8, 4, 2);
    std::vector<double> loads{5, 1, 2, 8, 3, 1, 4, 6};
    p.setExpertLoads(loads);
    p.addReplica(3, 0); // replicated expert: delta splits across hosts

    loads[3] = 2.0;
    p.updateExpertLoad(3, 2.0);
    expectHeatsMatchRecompute(p, loads);
    loads[0] = 11.5;
    p.updateExpertLoad(0, 11.5);
    expectHeatsMatchRecompute(p, loads);
}

TEST(PlacementHeatTracking, ResetToNativeRebuildsTrackedHeats)
{
    ExpertPlacement p(8, 4, 2);
    const std::vector<double> loads{5, 1, 2, 8, 3, 1, 4, 6};
    p.setExpertLoads(loads);
    p.addReplica(3, 0);
    p.addReplica(6, 1);
    p.resetToNative();
    expectHeatsMatchRecompute(p, loads);
}

TEST(PlacementHeatTracking, ClearStopsTracking)
{
    ExpertPlacement p(8, 4, 1);
    p.setExpertLoads({1, 2, 3, 4, 5, 6, 7, 8});
    p.clearExpertLoads();
    EXPECT_FALSE(p.tracksLoads());
    // Untracked mutations must not touch (absent) heat state.
    p.addReplica(0, 1);
    p.removeReplica(0, 1);
}

TEST(PlacementHeatTracking, TreesFollowSeededMutations)
{
    // Small integer loads make exact heat ties common; every mutation
    // kind runs while loads are attached, one device loss included.
    for (const auto &[experts, devices] :
         std::vector<std::pair<int, int>>{{10, 7}, {5, 12}, {16, 16}}) {
        ExpertPlacement p(experts, devices, 2);
        Rng rng(static_cast<std::uint64_t>(experts * 100 + devices));
        std::vector<double> loads(static_cast<std::size_t>(experts));
        for (double &l : loads)
            l = static_cast<double>(rng.below(4));
        p.setExpertLoads(loads);
        expectHeatsMatchRecompute(p, loads);
        for (int op = 0; op < 200; ++op) {
            const int e = static_cast<int>(
                rng.below(static_cast<std::uint64_t>(experts)));
            const auto d = static_cast<DeviceId>(
                rng.below(static_cast<std::uint64_t>(devices)));
            if (op == 100) {
                p.markDeviceLost(d);
            } else if (op % 50 == 49) {
                p.resetToNative();
            } else {
                switch (rng.below(4)) {
                  case 0:
                  case 1:
                    if (p.freeSlots(d) > 0 && !p.hosts(d, e))
                        p.addReplica(e, d);
                    break;
                  case 2:
                    if (p.hosts(d, e) && !p.isNative(d, e))
                        p.removeReplica(e, d);
                    break;
                  default:
                    loads[std::size_t(e)] =
                        static_cast<double>(rng.below(4));
                    p.updateExpertLoad(e, loads[std::size_t(e)]);
                    break;
                }
            }
            expectHeatsMatchRecompute(p, loads);
            if (HasFailure())
                return;
        }
    }
}
