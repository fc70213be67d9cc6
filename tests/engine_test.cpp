/**
 * @file
 * Tests for the inference engine: timeline composition, balancer
 * integration, and the scheduling modes.
 */

#include <gtest/gtest.h>

#include "core/moentwine.hh"

using namespace moentwine;

namespace {

System
smallWsc()
{
    SystemConfig sc;
    sc.platform = PlatformKind::WscEr;
    sc.meshN = 4;
    sc.tp = 4;
    return System::make(sc);
}

EngineConfig
baseConfig()
{
    EngineConfig ec;
    ec.model = qwen3();
    ec.decodeTokensPerGroup = 128;
    ec.workload.mode = GatingMode::SingleScenario;
    ec.workload.scenario = ScenarioKind::Math;
    return ec;
}

} // namespace

TEST(Engine, DeterministicAcrossRuns)
{
    const System sys = smallWsc();
    InferenceEngine a(sys.mapping(), baseConfig());
    InferenceEngine b(sys.mapping(), baseConfig());
    const auto ra = a.run(5);
    const auto rb = b.run(5);
    for (std::size_t i = 0; i < ra.size(); ++i) {
        EXPECT_DOUBLE_EQ(ra[i].moeTime, rb[i].moeTime);
        EXPECT_DOUBLE_EQ(ra[i].dispatch, rb[i].dispatch);
    }
}

TEST(Engine, AllComponentsPositiveInDecode)
{
    const System sys = smallWsc();
    InferenceEngine engine(sys.mapping(), baseConfig());
    const auto s = engine.step();
    EXPECT_GT(s.attnCompute, 0.0);
    EXPECT_GT(s.allReduce, 0.0);
    EXPECT_GT(s.dispatch, 0.0);
    EXPECT_GT(s.combine, 0.0);
    EXPECT_GT(s.moeTime, 0.0);
    EXPECT_GT(s.moeMemoryOnly, 0.0); // decode streams expert weights
    EXPECT_DOUBLE_EQ(s.migrationOverhead, 0.0);
}

TEST(Engine, LayerTimeComposition)
{
    const System sys = smallWsc();
    const EngineConfig ec = baseConfig();
    InferenceEngine engine(sys.mapping(), ec);
    const auto s = engine.step();
    EXPECT_NEAR(s.layerTime(ec.pipelineStages),
                s.attnPhase(ec.pipelineStages) +
                    s.moePhase(ec.pipelineStages) + s.migrationOverhead,
                1e-15);
    // Overlap bounds: phase at least the max component, at most sum.
    EXPECT_GE(s.moePhase(ec.pipelineStages),
              std::max(s.moeTime, s.allToAll()));
    EXPECT_LE(s.moePhase(ec.pipelineStages),
              s.moeTime + s.allToAll() + 1e-15);
}

TEST(Engine, MorePipelineStagesTightenOverlap)
{
    const System sys = smallWsc();
    InferenceEngine engine(sys.mapping(), baseConfig());
    const auto s = engine.step();
    EXPECT_LE(s.moePhase(8), s.moePhase(2));
}

TEST(Engine, SkewedWorkloadIsImbalanced)
{
    const System sys = smallWsc();
    InferenceEngine engine(sys.mapping(), baseConfig());
    const auto s = engine.step();
    EXPECT_GT(s.imbalance, 0.3);
    EXPECT_GT(s.loadMax, s.loadAvg);
}

TEST(Engine, BalancedGatingIsFlat)
{
    const System sys = smallWsc();
    EngineConfig ec = baseConfig();
    ec.workload.mode = GatingMode::Balanced;
    ec.decodeTokensPerGroup = 1024;
    InferenceEngine engine(sys.mapping(), ec);
    const auto s = engine.step();
    EXPECT_LT(s.imbalance, 0.3);
}

TEST(Engine, PrefillHasMoreTokens)
{
    const System sys = smallWsc();
    EngineConfig ec = baseConfig();
    ec.schedule = SchedulingMode::PrefillOnly;
    InferenceEngine prefill(sys.mapping(), ec);
    ec.schedule = SchedulingMode::DecodeOnly;
    InferenceEngine decode(sys.mapping(), ec);
    EXPECT_GT(prefill.tokensPerGroup(), decode.tokensPerGroup());
}

TEST(Engine, HybridBetweenPrefillAndDecode)
{
    const System sys = smallWsc();
    EngineConfig ec = baseConfig();
    ec.schedule = SchedulingMode::Hybrid;
    InferenceEngine hybrid(sys.mapping(), ec);
    ec.schedule = SchedulingMode::PrefillOnly;
    InferenceEngine prefill(sys.mapping(), ec);
    ec.schedule = SchedulingMode::DecodeOnly;
    InferenceEngine decode(sys.mapping(), ec);
    EXPECT_GT(hybrid.tokensPerGroup(), decode.tokensPerGroup());
    EXPECT_LT(hybrid.tokensPerGroup(), prefill.tokensPerGroup());
}

TEST(Engine, InvasiveBalancerExposesMigrationOverhead)
{
    const System sys = smallWsc();
    EngineConfig ec = baseConfig();
    ec.balancer = BalancerKind::Greedy;
    ec.alpha = 0.5;
    ec.beta = 2;
    InferenceEngine engine(sys.mapping(), ec);
    double totalOverhead = 0.0;
    for (const auto &s : engine.run(30))
        totalOverhead += s.migrationOverhead;
    EXPECT_GT(totalOverhead, 0.0);
}

TEST(Engine, NonInvasiveNeverExposesOverhead)
{
    const System sys = smallWsc();
    EngineConfig ec = baseConfig();
    ec.balancer = BalancerKind::NonInvasive;
    ec.alpha = 0.5;
    InferenceEngine engine(sys.mapping(), ec);
    int planned = 0;
    for (const auto &s : engine.run(30)) {
        EXPECT_DOUBLE_EQ(s.migrationOverhead, 0.0);
        planned += s.migrationsPlanned;
    }
    EXPECT_GT(planned, 0);
}

TEST(Engine, NonInvasiveMigrationsEventuallyComplete)
{
    const System sys = smallWsc();
    EngineConfig ec = baseConfig();
    ec.balancer = BalancerKind::NonInvasive;
    ec.alpha = 0.5;
    InferenceEngine engine(sys.mapping(), ec);
    const auto trace = engine.run(50);
    int completed = 0;
    for (const auto &s : trace)
        completed += s.migrationsCompleted;
    EXPECT_GT(completed, 0);
    EXPECT_EQ(trace.back().migrationsPending, 0);
}

TEST(Engine, BalancingReducesLoadRatio)
{
    const System sys = smallWsc();
    EngineConfig ec = baseConfig();
    InferenceEngine none(sys.mapping(), ec);
    ec.balancer = BalancerKind::NonInvasive;
    ec.alpha = 0.5;
    InferenceEngine balanced(sys.mapping(), ec);

    auto tailRatio = [](const std::vector<IterationStats> &trace) {
        double ratio = 0.0;
        int n = 0;
        for (std::size_t i = trace.size() / 2; i < trace.size(); ++i) {
            ratio += trace[i].loadMax / trace[i].loadAvg;
            ++n;
        }
        return ratio / n;
    };
    const double noneRatio = tailRatio(none.run(40));
    const double balRatio = tailRatio(balanced.run(40));
    EXPECT_LT(balRatio, noneRatio);
}

TEST(Engine, WorksOnClusterPlatforms)
{
    SystemConfig sc;
    sc.platform = PlatformKind::DgxCluster;
    sc.dgxNodes = 2;
    sc.tp = 4;
    const System sys = System::make(sc);
    InferenceEngine engine(sys.mapping(), baseConfig());
    const auto s = engine.step();
    EXPECT_GT(s.allToAll(), 0.0);
    EXPECT_GT(s.moeTime, 0.0);
}

TEST(Engine, RetainAgTogglesDispatchCost)
{
    const System sys = smallWsc();
    EngineConfig ec = baseConfig();
    ec.workload.mode = GatingMode::Balanced;
    ec.retainAllGather = true;
    InferenceEngine withAg(sys.mapping(), ec);
    ec.retainAllGather = false;
    InferenceEngine withoutAg(sys.mapping(), ec);
    const auto a = withAg.step();
    const auto b = withoutAg.step();
    // Fig. 14(b): retaining AG doubles all-reduce but cuts all-to-all.
    EXPECT_GT(a.allReduce, b.allReduce);
    EXPECT_LT(a.allToAll(), b.allToAll());
}

TEST(Engine, ResetIsBitwiseIdenticalToFreshConstruction)
{
    // The contract the sweep runner's per-worker engine reuse stands
    // on: after reset(cfg), a used engine's timeline is bitwise equal
    // to a newly constructed engine's — across config changes
    // (balancer, workload mode, seed) and including the migration and
    // load-ratio paths that carry cross-iteration state.
    const System sys = smallWsc();

    EngineConfig first = baseConfig();
    first.balancer = BalancerKind::TopologyAware;
    first.workload.mode = GatingMode::MixedScenario;
    first.workload.seed = 7;
    first.alpha = 0.5;
    first.beta = 5;

    EngineConfig second = baseConfig();
    second.balancer = BalancerKind::NonInvasive;
    second.workload.mode = GatingMode::MixedScenario;
    second.workload.seed = 1234;
    second.alpha = 0.5;
    second.beta = 5;

    // Dirty an engine with a full run of the first config...
    InferenceEngine reused(sys.mapping(), first);
    reused.run(15);
    // ...then reset it to the second and compare against fresh.
    reused.reset(second);
    InferenceEngine fresh(sys.mapping(), second);
    const auto a = reused.run(15);
    const auto b = fresh.run(15);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].attnCompute, b[i].attnCompute) << "iter " << i;
        EXPECT_EQ(a[i].allReduce, b[i].allReduce) << "iter " << i;
        EXPECT_EQ(a[i].dispatch, b[i].dispatch) << "iter " << i;
        EXPECT_EQ(a[i].combine, b[i].combine) << "iter " << i;
        EXPECT_EQ(a[i].moeTime, b[i].moeTime) << "iter " << i;
        EXPECT_EQ(a[i].migrationOverhead, b[i].migrationOverhead)
            << "iter " << i;
        EXPECT_EQ(a[i].migrationsCompleted, b[i].migrationsCompleted)
            << "iter " << i;
        EXPECT_EQ(a[i].loadMax, b[i].loadMax) << "iter " << i;
        EXPECT_EQ(a[i].loadAvg, b[i].loadAvg) << "iter " << i;
    }

    // Resetting back to the first config also matches a fresh engine:
    // no residue survives two generations of reuse.
    reused.reset(first);
    InferenceEngine freshFirst(sys.mapping(), first);
    const auto c = reused.run(10);
    const auto d = freshFirst.run(10);
    for (std::size_t i = 0; i < c.size(); ++i) {
        EXPECT_EQ(c[i].moeTime, d[i].moeTime) << "iter " << i;
        EXPECT_EQ(c[i].migrationOverhead, d[i].migrationOverhead)
            << "iter " << i;
    }
}
