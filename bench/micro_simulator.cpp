/**
 * @file
 * google-benchmark microbenchmarks of the simulator itself: mesh
 * routing, collective timing, gating, token routing, dense-vs-sparse
 * traffic reduction, balancer planning, and full engine steps.
 * These guard the simulator's own performance (wall-clock, not
 * simulated time).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <string>

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
 * Gating: one sampleCountsInto() per iteration. Args: gating mode (0
 * Balanced, 1 SingleScenario, 2 MixedScenario), experts, tokens per
 * group, DP groups. Items are token·top-k slots (tokens × top-k ×
 * groups), so items/s is slots placed per second, whatever mix of
 * binomials and alias draws placed them. Tokens 1-16 are small decode
 * batches with fewer slots per group than experts; 384 is paper_grid's
 * Hybrid schedule (3072 slots per group). The groups axis is the
 * sampler's rank-major walk width: at 1 group it interleaves nothing;
 * 4 is paper_grid's dp.
 */
void
BM_Gating(benchmark::State &state)
{
    const GatingMode modes[] = {GatingMode::Balanced,
                                GatingMode::SingleScenario,
                                GatingMode::MixedScenario};
    WorkloadConfig cfg;
    cfg.mode = modes[state.range(0)];
    cfg.numExperts = static_cast<int>(state.range(1));
    cfg.topK = 8;
    const int tokens = static_cast<int>(state.range(2));
    const int groups = static_cast<int>(state.range(3));
    WorkloadGenerator gen(cfg);
    std::vector<std::vector<int>> counts;
    int iteration = 0;
    for (auto _ : state) {
        gen.sampleCountsInto(iteration++, 0, tokens, groups, counts);
        benchmark::DoNotOptimize(counts.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * groups * tokens *
                            cfg.topK);
}
BENCHMARK(BM_Gating)
    ->ArgNames({"mode", "experts", "tokens", "groups"})
    ->ArgsProduct({{0, 1, 2},
                   {128, 256},
                   {1, 4, 16, 128, 384, 1024},
                   {1, 4, 16}});

/**
 * Token routing in the engine's shapes: one aggregated routeTokens()
 * per iteration into one reused RoutedTraffic, with the all-gather
 * retained. The rows are SingleScenario gating of paper_grid's decode
 * batch (128 tokens per DP group) over kRoutedIterations iterations,
 * cycled, so rows are skewed and may hold zero counts. The placement
 * carries the shadow replicas (two slots per device) that a
 * Topology-aware plan gives those rows' total loads, so hot experts
 * split their tokens over several replicas. Args: 0 ER 4×4, 1 ER 8×8,
 * 2 Baseline 8×8, 3 HER 2×(8×8), 4 NVL72 (cluster), all Qwen3 (128
 * experts); 5 ER 4×4 with DeepSeek-V3 (256 experts), paper_grid's
 * heavier model; 6 ER 4×4 with Qwen3 at 8 tokens per group, the
 * serving shape (serve_bursty's decode batches), where most of a
 * group's counts are zero. All at tp 4.
 */
void
BM_TokenRouting(benchmark::State &state)
{
    constexpr int kRoutedIterations = 8;
    const int tokensPerGroup = state.range(0) == 6 ? 8 : 128;
    SystemConfig sc;
    sc.tp = 4;
    MoEModelConfig model = qwen3();
    switch (state.range(0)) {
      case 0:
        sc.platform = PlatformKind::WscEr;
        break;
      case 1:
        sc.platform = PlatformKind::WscEr;
        sc.meshN = 8;
        break;
      case 2:
        sc.platform = PlatformKind::WscBaseline;
        sc.meshN = 8;
        break;
      case 3:
        sc.platform = PlatformKind::WscHer;
        sc.meshN = 8;
        sc.wafers = 2;
        break;
      case 4:
        sc.platform = PlatformKind::Nvl72;
        break;
      case 5:
        sc.platform = PlatformKind::WscEr;
        model = deepseekV3();
        break;
      default:
        sc.platform = PlatformKind::WscEr;
        break;
    }
    const System sys = System::make(sc);
    const Mapping &m = sys.mapping();

    WorkloadConfig wc;
    wc.numExperts = model.expertsTotal;
    wc.topK = model.expertsActivated;
    wc.mode = GatingMode::SingleScenario;
    WorkloadGenerator gen(wc);
    std::vector<std::vector<std::vector<int>>> rows(kRoutedIterations);
    std::vector<double> loads(std::size_t(model.expertsTotal), 0.0);
    for (int i = 0; i < kRoutedIterations; ++i) {
        auto &counts = rows[std::size_t(i)];
        gen.sampleCountsInto(i, 0, tokensPerGroup, m.dp(), counts);
        const auto column = WorkloadGenerator::expertLoads(
            counts, model.expertsTotal);
        for (std::size_t e = 0; e < loads.size(); ++e)
            loads[e] += column[e];
    }
    ExpertPlacement p(model.expertsTotal, m.numDevices(), 2);
    TopologyAwareBalancer(m.topology()).rebalance(loads, p);

    RoutedTraffic routed;
    // Warm pass: reach steady-state buffer capacity untimed.
    for (const auto &counts : rows)
        routeTokens(m, p, counts, model.tokenBytes(), true,
                    model.expertsActivated, routed);
    std::size_t next = 0;
    for (auto _ : state) {
        routeTokens(m, p, rows[next], model.tokenBytes(), true,
                    model.expertsActivated, routed);
        next = (next + 1) % rows.size();
        benchmark::DoNotOptimize(routed.dispatch.data());
        benchmark::ClobberMemory();
    }
    state.SetLabel(sys.name() + " " + model.name + " " +
                   std::to_string(tokensPerGroup) + " tok/group");
}
BENCHMARK(BM_TokenRouting)
    ->ArgName("system")
    ->DenseRange(0, 6)
    ->Unit(benchmark::kMicrosecond);

/**
 * Traffic reduction at 1024 devices: one aggregated routeTokens plus
 * the dispatch and combine allToAllInto per iteration, on a 4×(16×16)
 * HER mesh with fine-grained experts (one per device, decode-sized
 * groups, no balancer) — the regime the sparse accumulator exists for.
 * Arg 0 pins the dense matrix, 1 the sparse radix-sorted append
 * buffer; the two are bitwise equivalent (tests/traffic_accum_test.cpp),
 * so the gap is pure overhead. This is the evidence behind
 * TrafficAccumulator::kSparseThreshold.
 */
void
BM_TrafficReduce(benchmark::State &state)
{
    const bool sparse = state.range(0) != 0;
    const MeshTopology mesh = MeshTopology::waferRow(4, 16);
    const HierarchicalErMapping her(
        mesh, decomposeTp(4, mesh.waferRows(), mesh.waferCols()));
    const int devices = mesh.numDevices();

    MoEModelConfig model = qwen3();
    model.expertsTotal = devices;
    WorkloadConfig wc;
    wc.mode = GatingMode::MixedScenario;
    wc.mixPeriod = 60;
    wc.numExperts = model.expertsTotal;
    wc.topK = model.expertsActivated;
    WorkloadGenerator gen(wc);
    const EngineConfig defaults{};
    const ExpertPlacement placement(model.expertsTotal, devices,
                                    defaults.shadowSlots);
    const auto counts = gen.sampleCounts(0, 0, 16, her.dp());

    RoutedTraffic routed;
    routed.pairBytes = TrafficAccumulator(
        sparse ? TrafficStorageKind::Sparse : TrafficStorageKind::Dense);
    PhaseTraffic disp(mesh);
    PhaseTraffic comb(mesh);
    // Warm pass: reach steady-state scratch capacity untimed, so even
    // a one-iteration smoke run times the reduction, not allocation.
    routeTokens(her, placement, counts, model.tokenBytes(),
                defaults.retainAllGather, model.expertsActivated, routed);
    for (auto _ : state) {
        routeTokens(her, placement, counts, model.tokenBytes(),
                    defaults.retainAllGather, model.expertsActivated,
                    routed);
        benchmark::DoNotOptimize(allToAllInto(routed.dispatch, disp));
        benchmark::DoNotOptimize(allToAllInto(routed.combine, comb));
        benchmark::ClobberMemory();
    }
    state.SetLabel(sparse ? "sparse" : "dense");
    state.counters["devices"] = devices;
    state.counters["accum_bytes"] =
        static_cast<double>(routed.pairBytes.storageBytes());
}
BENCHMARK(BM_TrafficReduce)
    ->ArgName("sparse")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/**
 * Algorithm 1 planning: one TopologyAwareBalancer::rebalance() per
 * iteration of Qwen3's 128 experts with the engine's default shadow
 * slots, re-planning from the previous target as the engine does.
 * Loads are skewed and seeded: SingleScenario gating counts over 4 DP
 * groups, alternating with the same loads shifted by one expert. The
 * shift moves every hot expert to another native device, so every plan
 * adds replicas the previous target did not hold (steps_per_plan > 0
 * at both sizes). Arg 0 is a 4×4 ER wafer (16 devices), 1 the
 * 4×(16×16) mesh of scale_1024 (1024 devices).
 */
void
BM_BalancerPlan(benchmark::State &state)
{
    const MeshTopology mesh = state.range(0) != 0
        ? MeshTopology::waferRow(4, 16)
        : MeshTopology::singleWafer(4);
    const MoEModelConfig model = qwen3();
    WorkloadConfig wc;
    wc.mode = GatingMode::SingleScenario;
    wc.numExperts = model.expertsTotal;
    wc.topK = model.expertsActivated;
    wc.seed = 7;
    WorkloadGenerator gen(wc);
    std::vector<double> loads[2];
    loads[0] = WorkloadGenerator::expertLoads(gen.sampleCounts(0, 0, 256, 4),
                                              model.expertsTotal);
    loads[1] = loads[0];
    std::rotate(loads[1].begin(), loads[1].begin() + 1, loads[1].end());
    const EngineConfig defaults{};
    ExpertPlacement placement(model.expertsTotal, mesh.numDevices(),
                              defaults.shadowSlots);
    TopologyAwareBalancer planner(mesh);
    // Warm pass: reach steady-state scratch capacity untimed.
    planner.rebalance(loads[0], placement);
    planner.rebalance(loads[1], placement);
    std::size_t steps = 0;
    int i = 0;
    for (auto _ : state) {
        const auto &planned = planner.rebalance(loads[i], placement);
        benchmark::DoNotOptimize(planned.data());
        benchmark::ClobberMemory();
        steps += planned.size();
        i ^= 1;
    }
    state.counters["devices"] = mesh.numDevices();
    state.counters["steps_per_plan"] = static_cast<double>(steps) /
        static_cast<double>(std::max<std::int64_t>(state.iterations(), 1));
}
BENCHMARK(BM_BalancerPlan)
    ->ArgName("mesh1024")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

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
