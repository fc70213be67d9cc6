/**
 * @file
 * Tests for the System factory and the communication-only evaluator.
 */

#include <gtest/gtest.h>

#include "core/moentwine.hh"

using namespace moentwine;

// ------------------------------------------------------ System ----

TEST(System, WscErConstruction)
{
    SystemConfig sc;
    sc.platform = PlatformKind::WscEr;
    sc.meshN = 4;
    sc.tp = 4;
    const System sys = System::make(sc);
    EXPECT_EQ(sys.mapping().numDevices(), 16);
    EXPECT_EQ(sys.mapping().tp(), 4);
    EXPECT_NE(sys.mesh(), nullptr);
    EXPECT_EQ(sys.name(), "4x4 WSC / ER-Mapping");
}

TEST(System, WscBaselineConstruction)
{
    SystemConfig sc;
    sc.platform = PlatformKind::WscBaseline;
    sc.meshN = 6;
    sc.tp = 6;
    const System sys = System::make(sc);
    EXPECT_EQ(sys.mapping().numDevices(), 36);
    EXPECT_FALSE(sys.mapping().staggeredRings());
}

TEST(System, WscHerMultiWafer)
{
    SystemConfig sc;
    sc.platform = PlatformKind::WscHer;
    sc.meshN = 4;
    sc.wafers = 4;
    sc.tp = 4;
    const System sys = System::make(sc);
    EXPECT_EQ(sys.mapping().numDevices(), 64);
    EXPECT_EQ(sys.mesh()->numWafers(), 4);
    EXPECT_EQ(sys.mapping().name(), "HER-Mapping");
}

TEST(System, DgxConstruction)
{
    SystemConfig sc;
    sc.platform = PlatformKind::DgxCluster;
    sc.dgxNodes = 4;
    sc.tp = 8;
    const System sys = System::make(sc);
    EXPECT_EQ(sys.mapping().numDevices(), 32);
    EXPECT_EQ(sys.mesh(), nullptr);
}

TEST(System, Nvl72Construction)
{
    SystemConfig sc;
    sc.platform = PlatformKind::Nvl72;
    sc.tp = 4;
    const System sys = System::make(sc);
    EXPECT_EQ(sys.mapping().numDevices(), 72);
    EXPECT_EQ(sys.mapping().dp(), 18);
}

TEST(System, MappingOutlivesFactoryScope)
{
    // The System owns both topology and mapping; using the mapping
    // after make() returns must be safe.
    SystemConfig sc;
    sc.platform = PlatformKind::WscEr;
    sc.meshN = 4;
    sc.tp = 4;
    const System sys = System::make(sc);
    EXPECT_GT(sys.mapping().allReduce(1e6, true).time, 0.0);
}

// ---------------------------------------------------- comm eval ----

TEST(CommEval, AllComponentsPositive)
{
    SystemConfig sc;
    sc.platform = PlatformKind::WscEr;
    sc.meshN = 4;
    sc.tp = 4;
    const System sys = System::make(sc);
    const auto r =
        evaluateCommunication(sys.mapping(), qwen3(), 256, true);
    EXPECT_GT(r.allReduce, 0.0);
    EXPECT_GT(r.dispatch, 0.0);
    EXPECT_GT(r.combine, 0.0);
    EXPECT_NEAR(r.total(), r.allReduce + r.dispatch + r.combine, 1e-15);
}

TEST(CommEval, EspSkipsAllToAll)
{
    SystemConfig sc;
    sc.platform = PlatformKind::WscEr;
    sc.meshN = 4;
    sc.tp = 4;
    const System sys = System::make(sc);
    const IterationStats s = evaluateEsp(sys.mapping(), mixtral8x22b(), 128);
    EXPECT_DOUBLE_EQ(s.dispatch, 0.0);
    EXPECT_DOUBLE_EQ(s.combine, 0.0);
    EXPECT_GT(s.allReduce, 0.0);
    EXPECT_GT(s.epAllReduce, 0.0);
    EXPECT_GT(s.moeTime, 0.0);
}

TEST(CommEval, DispatchAndCombineSymmetric)
{
    SystemConfig sc;
    sc.platform = PlatformKind::WscEr;
    sc.meshN = 4;
    sc.tp = 4;
    const System sys = System::make(sc);
    const auto r =
        evaluateCommunication(sys.mapping(), qwen3(), 256, true);
    // Balanced gating and reversed flows: equal phase times.
    EXPECT_NEAR(r.dispatch, r.combine, r.dispatch * 1e-9);
}

TEST(CommEval, VolumeScalesWithTokens)
{
    SystemConfig sc;
    sc.platform = PlatformKind::WscBaseline;
    sc.meshN = 4;
    sc.tp = 4;
    const System sys = System::make(sc);
    const auto small =
        evaluateCommunication(sys.mapping(), qwen3(), 256, true);
    const auto large =
        evaluateCommunication(sys.mapping(), qwen3(), 1024, true);
    EXPECT_GT(large.allToAll(), 3.0 * small.allToAll());
    EXPECT_LT(large.allToAll(), 5.0 * small.allToAll());
}

TEST(CommEval, FractionalPerExpertCountsPreserveVolume)
{
    // Tiny token counts produce per-(group, expert) expectations < 1;
    // the evaluator must still charge the right total volume.
    SystemConfig sc;
    sc.platform = PlatformKind::WscBaseline;
    sc.meshN = 4;
    sc.tp = 4;
    const System sys = System::make(sc);
    const auto tiny =
        evaluateCommunication(sys.mapping(), deepseekV3(), 16, true);
    const auto big =
        evaluateCommunication(sys.mapping(), deepseekV3(), 1600, true);
    EXPECT_NEAR(big.a2aTraffic.totalFlowBytes() /
                    tiny.a2aTraffic.totalFlowBytes(),
                100.0, 1.0);
}

TEST(CommEval, TrafficCoversMeshLinks)
{
    SystemConfig sc;
    sc.platform = PlatformKind::WscEr;
    sc.meshN = 4;
    sc.tp = 4;
    const System sys = System::make(sc);
    const auto r =
        evaluateCommunication(sys.mapping(), deepseekV3(), 256, true);
    EXPECT_GT(r.arTraffic.busyLinkCount(), 8);
    EXPECT_GT(r.a2aTraffic.busyLinkCount(), 8);
}

TEST(CommEval, ErConfinesTrafficToFtds)
{
    // Under ER-Mapping all dispatch traffic stays inside FTD blocks:
    // links connecting different FTDs stay cold during all-to-all.
    SystemConfig sc;
    sc.platform = PlatformKind::WscEr;
    sc.meshN = 4;
    sc.tp = 4;
    const System sys = System::make(sc);
    const auto *mesh = sys.mesh();
    const auto r =
        evaluateCommunication(sys.mapping(), deepseekV3(), 256, true);
    for (std::size_t l = 0; l < mesh->links().size(); ++l) {
        const Link &link = mesh->links()[l];
        if (sys.mapping().ftdOf(link.src) !=
            sys.mapping().ftdOf(link.dst)) {
            EXPECT_DOUBLE_EQ(
                r.a2aTraffic.linkVolume(static_cast<LinkId>(l)), 0.0);
        }
    }
}

TEST(CommEval, BaselineLeaksTrafficAcrossFtds)
{
    // The baseline mapping's overlapping FTDs push all-to-all traffic
    // across FTD boundaries — the congestion ER-Mapping eliminates.
    SystemConfig sc;
    sc.platform = PlatformKind::WscBaseline;
    sc.meshN = 4;
    sc.tp = 4;
    const System sys = System::make(sc);
    const auto *mesh = sys.mesh();
    const auto r =
        evaluateCommunication(sys.mapping(), deepseekV3(), 256, true);
    double crossFtd = 0.0;
    for (std::size_t l = 0; l < mesh->links().size(); ++l) {
        const Link &link = mesh->links()[l];
        if (sys.mapping().ftdOf(link.src) !=
            sys.mapping().ftdOf(link.dst)) {
            crossFtd +=
                r.a2aTraffic.linkVolume(static_cast<LinkId>(l));
        }
    }
    EXPECT_GT(crossFtd, 0.0);
}
