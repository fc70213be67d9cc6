/**
 * @file
 * Cross-cutting property sweeps: invariants that must hold for every
 * (platform, model, mapping) combination rather than for one worked
 * example. These catch regressions that config-specific unit tests
 * miss.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/moentwine.hh"

using namespace moentwine;

namespace {

/** Platform sweep: (kind, meshN, wafers, tp, dgxNodes). */
using PlatformParam = std::tuple<PlatformKind, int, int, int, int>;

System
makeSystem(const PlatformParam &p)
{
    SystemConfig sc;
    sc.platform = std::get<0>(p);
    sc.meshN = std::get<1>(p);
    sc.wafers = std::get<2>(p);
    sc.tp = std::get<3>(p);
    sc.dgxNodes = std::get<4>(p);
    return System::make(sc);
}

} // namespace

class PlatformProperty : public ::testing::TestWithParam<PlatformParam>
{
};

TEST_P(PlatformProperty, CommTimesFiniteAndPositive)
{
    const System sys = makeSystem(GetParam());
    for (const auto &model : allModels()) {
        const auto r =
            evaluateCommunication(sys.mapping(), model, 256, true);
        EXPECT_TRUE(std::isfinite(r.allReduce));
        EXPECT_TRUE(std::isfinite(r.allToAll()));
        EXPECT_GT(r.allReduce, 0.0) << model.name;
        EXPECT_GE(r.allToAll(), 0.0) << model.name;
    }
}

TEST_P(PlatformProperty, DispatchCombineNearSymmetry)
{
    // Combine is the exact reverse of dispatch (same volumes), but XY
    // routing is direction-dependent: reversed flows may congest
    // different links. The two phase times must stay close, not equal.
    const System sys = makeSystem(GetParam());
    const auto r =
        evaluateCommunication(sys.mapping(), deepseekV3(), 256, true);
    EXPECT_NEAR(r.dispatch, r.combine, 0.15 * r.dispatch);
}

TEST_P(PlatformProperty, MappingPartitionInvariants)
{
    const System sys = makeSystem(GetParam());
    const Mapping &m = sys.mapping();
    EXPECT_EQ(m.dp() * m.tp(), m.numDevices());
    for (DeviceId d = 0; d < m.numDevices(); ++d) {
        EXPECT_GE(m.tpGroupOf(d), 0);
        EXPECT_LT(m.tpGroupOf(d), m.dp());
        EXPECT_GE(m.ftdOf(d), 0);
    }
}

TEST_P(PlatformProperty, AllReduceMonotoneInVolume)
{
    const System sys = makeSystem(GetParam());
    const double small = sys.mapping().allReduce(1e5, true).time;
    const double large = sys.mapping().allReduce(1e7, true).time;
    EXPECT_GT(large, small);
}

TEST_P(PlatformProperty, EngineStepsAreFiniteAndConsistent)
{
    const System sys = makeSystem(GetParam());
    EngineConfig ec;
    ec.model = qwen3();
    ec.decodeTokensPerGroup = 64;
    ec.balancer = BalancerKind::NonInvasive;
    ec.alpha = 0.5;
    InferenceEngine engine(sys.mapping(), ec);
    for (const auto &s : engine.run(5)) {
        EXPECT_TRUE(std::isfinite(s.layerTime(4)));
        EXPECT_GE(s.loadMax, s.loadAvg);
        EXPECT_GE(s.moeTime, s.moeComputeOnly);
        EXPECT_GE(s.moeTime, s.moeMemoryOnly);
        EXPECT_DOUBLE_EQ(s.migrationOverhead, 0.0); // NI never exposes
    }
}

INSTANTIATE_TEST_SUITE_P(
    Platforms, PlatformProperty,
    ::testing::Values(
        PlatformParam{PlatformKind::WscBaseline, 4, 1, 4, 0},
        PlatformParam{PlatformKind::WscBaseline, 6, 1, 6, 0},
        PlatformParam{PlatformKind::WscEr, 4, 1, 4, 0},
        PlatformParam{PlatformKind::WscEr, 6, 1, 4, 0},
        PlatformParam{PlatformKind::WscEr, 8, 1, 16, 0},
        PlatformParam{PlatformKind::WscEr, 4, 4, 8, 0},
        PlatformParam{PlatformKind::WscHer, 4, 4, 4, 0},
        PlatformParam{PlatformKind::WscHer, 6, 2, 6, 0},
        PlatformParam{PlatformKind::DgxCluster, 0, 1, 4, 2},
        PlatformParam{PlatformKind::DgxCluster, 0, 1, 8, 4},
        PlatformParam{PlatformKind::Nvl72, 0, 1, 4, 0}));

// ------------------------------------------------ ER dominance ----

class ErDominance
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(ErDominance, ErNeverWorseOnAllToAll)
{
    // ER-Mapping's defining guarantee: compact disjoint FTDs never
    // increase all-to-all cost relative to the baseline mapping.
    const auto [meshN, tp] = GetParam();
    SystemConfig sc;
    sc.meshN = meshN;
    sc.tp = tp;
    sc.platform = PlatformKind::WscBaseline;
    const System base = System::make(sc);
    sc.platform = PlatformKind::WscEr;
    const System er = System::make(sc);
    for (const auto &model : {deepseekV3(), qwen3()}) {
        const auto rb =
            evaluateCommunication(base.mapping(), model, 256, true);
        const auto re =
            evaluateCommunication(er.mapping(), model, 256, true);
        EXPECT_LE(re.allToAll(), rb.allToAll() * 1.001)
            << model.name << " " << meshN << "x" << meshN << " TP" << tp;
    }
}

TEST_P(ErDominance, ErAllReduceWithinStrideFactor)
{
    // The entwined-ring penalty is bounded by the larger stride.
    const auto [meshN, tp] = GetParam();
    const MeshTopology mesh = MeshTopology::singleWafer(meshN);
    const auto par = decomposeTp(tp, meshN, meshN);
    const BaselineMapping base(mesh, par);
    const ErMapping er(mesh, par);
    const double tb = base.allReduce(1e6, true).time;
    const double te = er.allReduce(1e6, true).time;
    const int stride = std::max(er.strideRows(), er.strideCols());
    EXPECT_LE(te, tb * stride * 1.5);
    EXPECT_GE(te, tb);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ErDominance,
    ::testing::Values(std::make_tuple(4, 2), std::make_tuple(4, 4),
                      std::make_tuple(4, 8), std::make_tuple(6, 4),
                      std::make_tuple(6, 6), std::make_tuple(8, 4),
                      std::make_tuple(8, 16)));

// --------------------------------------------- balancer fuzzing ----

class BalancerFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(BalancerFuzz, PeakHeatNeverIncreasesOnRandomLoads)
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    TopologyAwareBalancer tb(mesh);
    GreedyBalancer gb;
    Rng rng(GetParam());
    for (int round = 0; round < 20; ++round) {
        std::vector<double> loads(32);
        for (double &l : loads)
            l = rng.uniform(0.0, 100.0);
        for (Balancer *b : {static_cast<Balancer *>(&tb),
                            static_cast<Balancer *>(&gb)}) {
            ExpertPlacement p(32, 16, 2);
            const double before = maxOf(deviceHeats(p, loads));
            b->rebalance(loads, p);
            EXPECT_LE(maxOf(deviceHeats(p, loads)), before + 1e-9)
                << b->name() << " seed " << GetParam() << " round "
                << round;
        }
    }
}

TEST_P(BalancerFuzz, NiMigrationsAlwaysDrainOnIdleNetwork)
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    const ErMapping er(mesh, ParallelismConfig{2, 2});
    Rng rng(GetParam());
    std::vector<double> loads(32);
    for (double &l : loads)
        l = rng.uniform(0.0, 100.0);
    NiBalancer ni(er, 20e6);
    ExpertPlacement p(32, 16, 1);
    ni.plan(loads, p);
    const PhaseTraffic idle(mesh);
    for (int phase = 0; phase < 100 && ni.pendingCount() > 0; ++phase) {
        ni.advanceAttention(idle, 1e-3, p);
        ni.advanceMoe(idle, 1e-3, p);
    }
    EXPECT_EQ(ni.pendingCount(), 0u) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, BalancerFuzz,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

// ------------------------------------------ workload stability ----

class WorkloadSeeds : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(WorkloadSeeds, CountsConserveTokensAcrossModes)
{
    for (const GatingMode mode :
         {GatingMode::Balanced, GatingMode::SingleScenario,
          GatingMode::MixedScenario}) {
        WorkloadConfig wc;
        wc.numExperts = 64;
        wc.topK = 4;
        wc.mode = mode;
        wc.seed = GetParam();
        WorkloadGenerator gen(wc);
        const auto counts = gen.sampleCounts(3, 0, 128, 4);
        for (const auto &row : counts) {
            int sum = 0;
            for (const int c : row)
                sum += c;
            EXPECT_EQ(sum, 128 * 4);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkloadSeeds,
                         ::testing::Values(1u, 17u, 2026u));
