/**
 * @file
 * Tests for the expert placement (native + shadow replica) structure.
 */

#include <gtest/gtest.h>

#include <vector>

#include "balancer/balancer.hh"
#include "balancer/placement.hh"

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
    auto heats = deviceHeats(p, loads);
    EXPECT_DOUBLE_EQ(heats[0], 8.0);
    p.addReplica(0, 1);
    heats = deviceHeats(p, loads);
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
        for (const double h : deviceHeats(p, loads))
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
