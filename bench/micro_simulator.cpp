/**
 * @file
 * google-benchmark microbenchmarks of the simulator itself: mesh
 * routing, collective timing, gating, token routing, and full engine
 * steps.
 * These guard the simulator's own performance (wall-clock, not
 * simulated time).
 */

#include <benchmark/benchmark.h>

#include "core/moentwine.hh"

using namespace moentwine;

namespace {

void
BM_MeshRouting(benchmark::State &state)
{
    const MeshTopology mesh =
        MeshTopology::singleWafer(static_cast<int>(state.range(0)));
    DeviceId a = 0;
    for (auto _ : state) {
        const DeviceId b =
            (a * 31 + 17) % mesh.numDevices();
        LinkId last = -1;
        for (const LinkId l : mesh.walk(a, b))
            last = l;
        benchmark::DoNotOptimize(last);
        a = (a + 1) % mesh.numDevices();
    }
}
BENCHMARK(BM_MeshRouting)->Arg(4)->Arg(8)->Arg(16);

void
BM_RingAllReduce(benchmark::State &state)
{
    const MeshTopology mesh =
        MeshTopology::singleWafer(static_cast<int>(state.range(0)));
    const auto par = decomposeTp(4, mesh.rows(), mesh.cols());
    const ErMapping er(mesh, par);
    for (auto _ : state)
        benchmark::DoNotOptimize(er.allReduce(1e6, true));
}
BENCHMARK(BM_RingAllReduce)->Arg(4)->Arg(8);

/**
 * Gating: one sampleCountsInto() per iteration over 4 DP groups.
 * Args: gating mode (0 Balanced, 1 SingleScenario, 2 MixedScenario),
 * experts, tokens per group. Items are alias draws (tokens × top-k ×
 * groups), so items/s is draws per second. Tokens 1-16 are small
 * decode batches with fewer draws per group than experts.
 */
void
BM_Gating(benchmark::State &state)
{
    constexpr int kGroups = 4;
    const GatingMode modes[] = {GatingMode::Balanced,
                                GatingMode::SingleScenario,
                                GatingMode::MixedScenario};
    WorkloadConfig cfg;
    cfg.mode = modes[state.range(0)];
    cfg.numExperts = static_cast<int>(state.range(1));
    cfg.topK = 8;
    const int tokens = static_cast<int>(state.range(2));
    WorkloadGenerator gen(cfg);
    std::vector<std::vector<int>> counts;
    int iteration = 0;
    for (auto _ : state) {
        gen.sampleCountsInto(iteration++, 0, tokens, kGroups, counts);
        benchmark::DoNotOptimize(counts.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * kGroups * tokens *
                            cfg.topK);
}
BENCHMARK(BM_Gating)
    ->ArgNames({"mode", "experts", "tokens"})
    ->ArgsProduct({{0, 1, 2}, {128, 256}, {1, 4, 16, 128, 1024}});

void
BM_TokenRouting(benchmark::State &state)
{
    const MeshTopology mesh =
        MeshTopology::singleWafer(static_cast<int>(state.range(0)));
    const auto par = decomposeTp(4, mesh.rows(), mesh.cols());
    const ErMapping er(mesh, par);
    const MoEModelConfig model = qwen3();
    const ExpertPlacement p(model.expertsTotal, mesh.numDevices(), 0);
    const std::vector<std::vector<int>> counts(
        std::size_t(er.dp()),
        std::vector<int>(std::size_t(model.expertsTotal), 4));
    for (auto _ : state) {
        benchmark::DoNotOptimize(routeTokens(
            er, p, counts, model.tokenBytes(), true,
            model.expertsActivated));
    }
}
BENCHMARK(BM_TokenRouting)->Arg(4)->Arg(8);

void
BM_EngineStepWsc(benchmark::State &state)
{
    SystemConfig sc;
    sc.platform = PlatformKind::WscEr;
    sc.meshN = static_cast<int>(state.range(0));
    sc.tp = 4;
    const System sys = System::make(sc);
    EngineConfig ec;
    ec.model = qwen3();
    ec.decodeTokensPerGroup = 128;
    ec.balancer = BalancerKind::NonInvasive;
    ec.alpha = 0.5;
    InferenceEngine engine(sys.mapping(), ec);
    for (auto _ : state)
        benchmark::DoNotOptimize(engine.step());
}
BENCHMARK(BM_EngineStepWsc)->Arg(4)->Arg(8);

void
BM_EngineStepNvl72(benchmark::State &state)
{
    SystemConfig sc;
    sc.platform = PlatformKind::Nvl72;
    sc.tp = 4;
    const System sys = System::make(sc);
    EngineConfig ec;
    ec.model = deepseekV3();
    ec.decodeTokensPerGroup = 64;
    InferenceEngine engine(sys.mapping(), ec);
    for (auto _ : state)
        benchmark::DoNotOptimize(engine.step());
}
BENCHMARK(BM_EngineStepNvl72);

} // namespace
