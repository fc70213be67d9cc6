/**
 * @file
 * Integration tests asserting the paper's headline result *shapes*:
 * who wins, in which direction, and (loosely) by how much. These are
 * the claims each figure of the evaluation section rests on.
 */

#include <gtest/gtest.h>

#include "core/moentwine.hh"

using namespace moentwine;

namespace {

CommEvalResult
commFor(PlatformKind platform, int meshN, int wafers, int tp,
        const MoEModelConfig &model, int tokens, int dgxNodes = 4)
{
    SystemConfig sc;
    sc.platform = platform;
    sc.meshN = meshN;
    sc.wafers = wafers;
    sc.tp = tp;
    sc.dgxNodes = dgxNodes;
    const System sys = System::make(sc);
    return evaluateCommunication(sys.mapping(), model, tokens, true);
}

/** Attention all-reduce plus ESP expert all-reduce of one layer. */
double
espCommFor(PlatformKind platform, int meshN, const MoEModelConfig &model)
{
    SystemConfig sc;
    sc.platform = platform;
    sc.meshN = meshN;
    sc.tp = 4;
    sc.dgxNodes = 4;
    const System sys = System::make(sc);
    const IterationStats s = evaluateEsp(sys.mapping(), model, 256);
    return s.allReduce + s.epAllReduce;
}

} // namespace

// Fig. 13(b): unified WSC network beats DGX on total communication.
TEST(PaperShape, WscBeatsDgxOnCommunication)
{
    for (const auto &model : allModels()) {
        const auto dgx = commFor(PlatformKind::DgxCluster, 0, 1, 4,
                                 model, 256);
        const auto wsc = commFor(PlatformKind::WscBaseline, 6, 1, 4,
                                 model, 256);
        EXPECT_LT(wsc.total(), dgx.total()) << model.name;
    }
}

// Fig. 14(a): under ESP both 6x6 WSC mappings beat the 4-node DGX on
// attention all-reduce plus EP all-reduce (the rows read 50.0 and
// 76.8 us against 225.3 us).
TEST(PaperShape, EspWscBeatsDgx)
{
    for (const auto &model : {dbrx(), mixtral8x22b()}) {
        const double dgx = espCommFor(PlatformKind::DgxCluster, 0, model);
        EXPECT_LT(espCommFor(PlatformKind::WscBaseline, 6, model), dgx)
            << model.name;
        EXPECT_LT(espCommFor(PlatformKind::WscEr, 6, model), dgx)
            << model.name;
    }
}

// Fig. 13(b): ER-Mapping cuts all-to-all latency on every model.
TEST(PaperShape, ErMappingCutsAllToAll)
{
    for (const auto &model : allModels()) {
        const auto base = commFor(PlatformKind::WscBaseline, 6, 1, 4,
                                  model, 256);
        const auto er =
            commFor(PlatformKind::WscEr, 6, 1, 4, model, 256);
        EXPECT_LT(er.allToAll(), base.allToAll()) << model.name;
    }
}

// Section IV-B: the all-to-all win outweighs the all-reduce penalty
// for many-expert models (DeepSeek-V3, Qwen3, DeepSeek-V2).
TEST(PaperShape, ErMappingNetWinOnManyExpertModels)
{
    for (const auto &model : {deepseekV3(), qwen3(), deepseekV2()}) {
        const auto base = commFor(PlatformKind::WscBaseline, 6, 1, 4,
                                  model, 256);
        const auto er =
            commFor(PlatformKind::WscEr, 6, 1, 4, model, 256);
        EXPECT_LT(er.total(), base.total()) << model.name;
        EXPECT_GT(er.allReduce, base.allReduce) << model.name;
    }
}

// Fig. 13(a): the WSC advantage grows with the token count.
TEST(PaperShape, WscAdvantageGrowsWithTokens)
{
    const auto model = qwen3();
    auto advantage = [&](int tokens) {
        const auto dgx = commFor(PlatformKind::DgxCluster, 0, 1, 4,
                                 model, tokens);
        const auto wsc = commFor(PlatformKind::WscBaseline, 6, 1, 4,
                                 model, tokens);
        return dgx.total() / wsc.total();
    };
    EXPECT_GT(advantage(4096), advantage(16));
}

// Fig. 13(d): HER-Mapping beats flat ER on multi-wafer systems.
TEST(PaperShape, HerBeatsErOnMultiWafer)
{
    const auto model = qwen3();
    const auto er = commFor(PlatformKind::WscEr, 4, 4, 4, model, 256);
    const auto her = commFor(PlatformKind::WscHer, 4, 4, 4, model, 256);
    EXPECT_LT(her.allReduce, er.allReduce);
    EXPECT_LT(her.total(), er.total());
}

// Fig. 14(b): retaining the all-gather costs ~2× all-reduce but pays
// for itself in all-to-all reduction.
TEST(PaperShape, RetainingAllGatherIsNetWin)
{
    SystemConfig sc;
    sc.platform = PlatformKind::WscEr;
    sc.meshN = 6;
    sc.tp = 4;
    const System sys = System::make(sc);
    const auto model = deepseekV3();
    const auto with =
        evaluateCommunication(sys.mapping(), model, 256, true);
    const auto without =
        evaluateCommunication(sys.mapping(), model, 256, false);
    EXPECT_GT(with.allReduce, without.allReduce);
    EXPECT_LT(with.allToAll(), without.allToAll());
    EXPECT_LT(with.total(), without.total());
}

// Fig. 6: all-to-all dwarfs all-reduce on WSCs, and the gap widens
// with scale.
TEST(PaperShape, AllToAllDominatesAndScales)
{
    const auto model = deepseekV3();
    const auto small = commFor(PlatformKind::WscBaseline, 4, 1, 4,
                               model, 256);
    const auto large = commFor(PlatformKind::WscBaseline, 8, 1, 4,
                               model, 256);
    EXPECT_GT(small.allToAll(), small.allReduce);
    EXPECT_GT(large.allToAll(), large.allReduce);
    EXPECT_GT(large.allToAll() / large.allReduce,
              small.allToAll() / small.allReduce);
}

// Fig. 4: larger EP cuts the per-device weight-streaming share. Each
// device serves its own decode batch, so per-device routed tokens stay
// constant while resident experts shrink as E/D falls.
TEST(PaperShape, LargerEpReducesMemoryShare)
{
    const CostModel cost;
    const auto model = deepseekV3();
    const double tokensPerDevice = 256.0 * model.expertsActivated;
    auto memoryShare = [&](int ep) {
        const double expertsPerDevice =
            double(model.expertsTotal) / ep;
        const auto c =
            cost.moeDevice(model, tokensPerDevice, expertsPerDevice);
        return c.memoryTime / c.total();
    };
    EXPECT_GT(memoryShare(8), memoryShare(72));
    EXPECT_GT(memoryShare(72), memoryShare(256));
}

// Fig. 4: per-device MoE throughput improves monotonically with EP.
TEST(PaperShape, PerDevicePerformanceImprovesWithEp)
{
    const CostModel cost;
    const auto model = deepseekV3();
    const double tokensPerDevice = 256.0 * model.expertsActivated;
    auto perDeviceTime = [&](int ep) {
        const auto c = cost.moeDevice(
            model, tokensPerDevice, double(model.expertsTotal) / ep);
        return c.total(); // same token work per device in all configs
    };
    EXPECT_GT(perDeviceTime(8), perDeviceTime(32));
    EXPECT_GT(perDeviceTime(32), perDeviceTime(72));
    EXPECT_GT(perDeviceTime(72), perDeviceTime(256));
}

// Fig. 15/16: against the same workload, the NI-Balancer achieves the
// topology-aware balance without any exposed migration time, while the
// greedy balancer pays for interruptions.
TEST(PaperShape, NiBalancerWinsOverGreedy)
{
    SystemConfig sc;
    sc.platform = PlatformKind::WscEr;
    sc.meshN = 4;
    sc.tp = 4;
    const System sys = System::make(sc);

    EngineConfig ec;
    ec.model = qwen3();
    ec.schedule = SchedulingMode::PrefillOnly;
    ec.workload.mode = GatingMode::MixedScenario;
    ec.alpha = 0.5;
    ec.beta = 5;

    // Compare the MoE-side latency (expert execution overlapped with
    // all-to-all, plus any exposed migration) — the components Fig. 16
    // reports.
    auto meanMoeTime = [&](BalancerKind kind) {
        EngineConfig cfg = ec;
        cfg.balancer = kind;
        InferenceEngine engine(sys.mapping(), cfg);
        const auto trace = engine.run(60);
        double total = 0.0;
        for (std::size_t i = trace.size() / 2; i < trace.size(); ++i)
            total += trace[i].moePhase(cfg.pipelineStages) +
                trace[i].migrationOverhead;
        return total / (trace.size() - trace.size() / 2);
    };

    const double greedy = meanMoeTime(BalancerKind::Greedy);
    const double ni = meanMoeTime(BalancerKind::NonInvasive);
    const double none = meanMoeTime(BalancerKind::None);
    EXPECT_LT(ni, greedy);
    EXPECT_LT(ni, none);
}

// Fig. 17: a multi-wafer WSC with full MoEntwine beats NVL72 on
// per-device MoE time thanks to EP=256 vs EP=72.
TEST(PaperShape, MoEntwineWscBeatsNvl72)
{
    EngineConfig ec;
    ec.model = deepseekV3();
    ec.decodeTokensPerGroup = 64;
    ec.workload.mode = GatingMode::SingleScenario;
    ec.workload.scenario = ScenarioKind::Math;
    ec.balancer = BalancerKind::NonInvasive;
    ec.alpha = 0.5;

    SystemConfig nvlCfg;
    nvlCfg.platform = PlatformKind::Nvl72;
    nvlCfg.tp = 4;
    const System nvl = System::make(nvlCfg);
    InferenceEngine nvlEngine(nvl.mapping(), ec);

    SystemConfig wscCfg;
    wscCfg.platform = PlatformKind::WscHer;
    wscCfg.meshN = 8;
    wscCfg.wafers = 4;
    wscCfg.tp = 16;
    const System wsc = System::make(wscCfg);
    InferenceEngine wscEngine(wsc.mapping(), ec);

    auto tailMoe = [&](InferenceEngine &e) {
        const auto trace = e.run(30);
        double total = 0.0;
        for (std::size_t i = 15; i < trace.size(); ++i)
            total += trace[i].moeTime + trace[i].allToAll();
        return total / 15.0;
    };
    // Same total batch work; the WSC spreads it over 256 devices with
    // E/D = 1 while NVL72 is stuck at E/D ≈ 3.6.
    EXPECT_LT(tailMoe(wscEngine), tailMoe(nvlEngine));
}
