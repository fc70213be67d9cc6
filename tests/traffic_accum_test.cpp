/**
 * @file
 * Equivalence and policy tests for the dense/sparse traffic
 * accumulator behind the token router:
 *  - policy: Auto selects the dense matrix below the device threshold
 *    and the sparse hash at or above it, through the accumulator, the
 *    mapping plumbing, and SystemConfig;
 *  - determinism: forEachTiled() emits in row-major order for systems
 *    within one tile (the historical dense scan) and in identical
 *    tile-major order under both storages beyond it;
 *  - regression: routed flow lists, a fig-style comm-eval cell, an
 *    engine run, and a faulted engine run are bitwise identical under
 *    forced Dense and forced Sparse storage;
 *  - footprint: the sparse per-iteration path (reset/add/forEachTiled)
 *    is allocation-free in steady state;
 *  - concurrency: sweep workers sharing one const sparse-storage
 *    System produce rows byte-identical to a serial pass (the TSan
 *    target).
 *  - loud failure: PhaseTraffic::merge()/retarget() across mismatched
 *    link sets die with a diagnostic instead of corrupting buffers.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/moentwine.hh"
#include "fault/fault.hh"
#include "sweep/sweep.hh"
#include "watchdog.hh"

// Counting global allocator: lets the steady-state test assert the
// sparse accumulation path performs zero heap allocation. Atomic to
// stay safe if a test spawns threads.
namespace {
std::atomic<std::size_t> g_allocCount{0};
} // namespace

void *
operator new(std::size_t size)
{
    ++g_allocCount;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace moentwine;

namespace {

struct Emitted
{
    DeviceId src;
    DeviceId dst;
    double bytes;

    bool operator==(const Emitted &o) const
    {
        return src == o.src && dst == o.dst && bytes == o.bytes;
    }
};

std::vector<Emitted>
collect(TrafficAccumulator &acc)
{
    std::vector<Emitted> out;
    acc.forEachTiled([&out](DeviceId s, DeviceId d, double b) {
        out.push_back(Emitted{s, d, b});
    });
    return out;
}

/** Deterministic scattered fill, identical for both accumulators. */
void
fillPattern(TrafficAccumulator &acc, int devices)
{
    for (int i = 0; i < devices * 7; ++i) {
        const DeviceId s = static_cast<DeviceId>((i * 131 + 7) % devices);
        const DeviceId d = static_cast<DeviceId>((i * 37 + 3) % devices);
        if (s == d)
            continue;
        acc.add(s, d, 64.0 + static_cast<double>(i % 13));
    }
}

} // namespace

TEST(TrafficAccum, AutoPolicySelectsByDeviceCount)
{
    const int T = TrafficAccumulator::kSparseAutoThreshold;
    EXPECT_EQ(TrafficAccumulator::resolve(TrafficStorageKind::Auto, T - 1),
              TrafficStorageKind::Dense);
    EXPECT_EQ(TrafficAccumulator::resolve(TrafficStorageKind::Auto, T),
              TrafficStorageKind::Sparse);
    EXPECT_EQ(TrafficAccumulator::resolve(TrafficStorageKind::Dense, T),
              TrafficStorageKind::Dense);
    EXPECT_EQ(
        TrafficAccumulator::resolve(TrafficStorageKind::Sparse, T - 1),
        TrafficStorageKind::Sparse);

    // Through the mapping plumbing: small systems resolve Auto to the
    // dense matrix, and a forced policy sticks.
    SystemConfig sc;
    sc.platform = PlatformKind::WscEr;
    sc.meshN = 4;
    sc.tp = 4;
    const System autoSys = System::make(sc);
    EXPECT_EQ(autoSys.mapping().trafficStorage(),
              TrafficStorageKind::Auto);
    EXPECT_EQ(autoSys.mapping().activeTrafficStorage(),
              TrafficStorageKind::Dense);

    sc.trafficStorage = TrafficStorageKind::Sparse;
    const System sparseSys = System::make(sc);
    EXPECT_EQ(sparseSys.mapping().activeTrafficStorage(),
              TrafficStorageKind::Sparse);

    // The router honours the policy: an aggregated routing pass on the
    // sparse-forced system leaves a sparse-active accumulator.
    const ExpertPlacement p(qwen3().expertsTotal,
                            sparseSys.mapping().numDevices(), 1);
    WorkloadConfig wc;
    wc.numExperts = qwen3().expertsTotal;
    wc.topK = qwen3().expertsActivated;
    WorkloadGenerator gen(wc);
    RoutedTraffic routed;
    routeTokens(sparseSys.mapping(), p,
                gen.sampleCounts(0, 0, 32, sparseSys.mapping().dp()),
                512.0, true, wc.topK, routed, true);
    EXPECT_EQ(routed.pairBytes.activeKind(), TrafficStorageKind::Sparse);
    EXPECT_GT(routed.pairBytes.occupancy(), 0u);
}

TEST(TrafficAccum, SingleTileEmissionIsRowMajor)
{
    // Systems within one 64-device tile must emit in plain row-major
    // order — the historical dense-scan order every ≤64-device figure
    // driver was pinned against.
    const int devices = 48;
    TrafficAccumulator dense;
    dense.reset(devices, TrafficStorageKind::Dense);
    TrafficAccumulator sparse;
    sparse.reset(devices, TrafficStorageKind::Sparse);
    fillPattern(dense, devices);
    fillPattern(sparse, devices);

    const auto emitted = collect(dense);
    ASSERT_FALSE(emitted.empty());
    for (std::size_t i = 1; i < emitted.size(); ++i) {
        const long prev = static_cast<long>(emitted[i - 1].src) * devices +
            emitted[i - 1].dst;
        const long cur = static_cast<long>(emitted[i].src) * devices +
            emitted[i].dst;
        EXPECT_LT(prev, cur) << "emission not row-major at " << i;
    }
    EXPECT_EQ(collect(sparse), emitted);
}

TEST(TrafficAccum, MultiTileEmissionIdenticalAcrossStorages)
{
    // Past one tile both storages must produce the same tile-major
    // sequence: (src/64, dst/64, src, dst) lexicographic.
    const int devices = 150;
    TrafficAccumulator dense;
    dense.reset(devices, TrafficStorageKind::Dense);
    TrafficAccumulator sparse;
    sparse.reset(devices, TrafficStorageKind::Sparse);
    fillPattern(dense, devices);
    fillPattern(sparse, devices);

    const auto a = collect(dense);
    const auto b = collect(sparse);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);

    const int T = TrafficAccumulator::kTileDevices;
    for (std::size_t i = 1; i < a.size(); ++i) {
        const auto key = [&](const Emitted &e) {
            return ((static_cast<long>(e.src) / T) << 48) |
                ((static_cast<long>(e.dst) / T) << 32) |
                (static_cast<long>(e.src) << 16) |
                static_cast<long>(e.dst);
        };
        EXPECT_LT(key(a[i - 1]), key(a[i]))
            << "emission not tile-major at " << i;
    }

    // Point queries agree with the emitted values under both storages.
    for (const Emitted &e : a) {
        EXPECT_EQ(dense.at(e.src, e.dst), e.bytes);
        EXPECT_EQ(sparse.at(e.src, e.dst), e.bytes);
    }
    EXPECT_EQ(dense.occupancy(), sparse.occupancy());
}

TEST(TrafficAccum, RoutedFlowsBitwiseIdenticalAcrossStorages)
{
    // A multi-tile routed batch: identical flow lists (order, values)
    // under forced Dense and forced Sparse accumulation.
    MeshTopology mesh = MeshTopology::waferRow(2, 8);
    HierarchicalErMapping her(
        mesh, decomposeTp(4, mesh.waferRows(), mesh.waferCols()));
    const ExpertPlacement p(128, her.numDevices(), 1);
    WorkloadConfig wc;
    wc.numExperts = 128;
    wc.topK = 8;
    wc.mode = GatingMode::MixedScenario;
    WorkloadGenerator gen(wc);
    const auto counts = gen.sampleCounts(0, 0, 48, her.dp());

    her.setTrafficStorage(TrafficStorageKind::Dense);
    RoutedTraffic dense;
    routeTokens(her, p, counts, 1024.0, true, wc.topK, dense, true);
    ASSERT_EQ(dense.pairBytes.activeKind(), TrafficStorageKind::Dense);

    her.setTrafficStorage(TrafficStorageKind::Sparse);
    RoutedTraffic sparse;
    routeTokens(her, p, counts, 1024.0, true, wc.topK, sparse, true);
    ASSERT_EQ(sparse.pairBytes.activeKind(), TrafficStorageKind::Sparse);

    ASSERT_EQ(dense.dispatch.size(), sparse.dispatch.size());
    ASSERT_GT(dense.dispatch.size(), 0u);
    for (std::size_t i = 0; i < dense.dispatch.size(); ++i) {
        EXPECT_EQ(dense.dispatch[i].src, sparse.dispatch[i].src);
        EXPECT_EQ(dense.dispatch[i].dst, sparse.dispatch[i].dst);
        EXPECT_EQ(dense.dispatch[i].bytes, sparse.dispatch[i].bytes);
        EXPECT_EQ(dense.combine[i].src, sparse.combine[i].src);
        EXPECT_EQ(dense.combine[i].dst, sparse.combine[i].dst);
        EXPECT_EQ(dense.combine[i].bytes, sparse.combine[i].bytes);
    }
    EXPECT_EQ(dense.pairBytes.occupancy(), sparse.pairBytes.occupancy());
}

TEST(TrafficAccum, FigCellBitwiseEquivalentAcrossStorages)
{
    SystemConfig sc;
    sc.platform = PlatformKind::WscHer;
    sc.meshN = 4;
    sc.wafers = 2;
    sc.tp = 4;

    sc.trafficStorage = TrafficStorageKind::Dense;
    const System denseSys = System::make(sc);
    sc.trafficStorage = TrafficStorageKind::Sparse;
    const System sparseSys = System::make(sc);

    const auto a = evaluateCommunication(denseSys.mapping(), qwen3(), 256,
                                         true);
    const auto b = evaluateCommunication(sparseSys.mapping(), qwen3(),
                                         256, true);
    EXPECT_EQ(a.allReduce, b.allReduce);
    EXPECT_EQ(a.dispatch, b.dispatch);
    EXPECT_EQ(a.combine, b.combine);
}

TEST(TrafficAccum, EngineRunBitwiseEquivalentAcrossStorages)
{
    // 100 devices: multi-tile emission on the engine's hot path.
    SystemConfig sc;
    sc.platform = PlatformKind::WscEr;
    sc.meshN = 10;
    sc.tp = 4;

    EngineConfig ec;
    ec.model = qwen3();
    ec.schedule = SchedulingMode::DecodeOnly;
    ec.decodeTokensPerGroup = 64;
    ec.workload.mode = GatingMode::MixedScenario;
    ec.balancer = BalancerKind::TopologyAware;
    ec.beta = 3;

    sc.trafficStorage = TrafficStorageKind::Dense;
    const System denseSys = System::make(sc);
    sc.trafficStorage = TrafficStorageKind::Sparse;
    const System sparseSys = System::make(sc);

    InferenceEngine denseEngine(denseSys.mapping(), ec);
    InferenceEngine sparseEngine(sparseSys.mapping(), ec);
    const auto denseStats = denseEngine.run(12);
    const auto sparseStats = sparseEngine.run(12);
    ASSERT_EQ(denseStats.size(), sparseStats.size());
    for (std::size_t i = 0; i < denseStats.size(); ++i) {
        EXPECT_EQ(denseStats[i].layerTime(ec.pipelineStages),
                  sparseStats[i].layerTime(ec.pipelineStages))
            << "iteration " << i;
        EXPECT_EQ(denseStats[i].allReduce, sparseStats[i].allReduce);
        EXPECT_EQ(denseStats[i].dispatch, sparseStats[i].dispatch);
        EXPECT_EQ(denseStats[i].combine, sparseStats[i].combine);
    }
}

TEST(TrafficAccum, FaultedEngineRunBitwiseEquivalentAcrossStorages)
{
    // The fault-overlay path (retargeted PhaseTraffic, lost devices,
    // straggler scaling) must stay bitwise identical across storages.
    SystemConfig sc;
    sc.platform = PlatformKind::WscEr;
    sc.meshN = 4;
    sc.tp = 4;

    EngineConfig ec;
    ec.model = qwen3();
    ec.schedule = SchedulingMode::DecodeOnly;
    ec.decodeTokensPerGroup = 32;
    ec.workload.mode = GatingMode::MixedScenario;
    ec.balancer = BalancerKind::None;

    FaultPlan plan;
    plan.events.push_back(FaultEvent::slowNode(2, 3, 2.0));
    plan.events.push_back(FaultEvent::nodeFail(5, 7));

    sc.trafficStorage = TrafficStorageKind::Dense;
    const System denseSys = System::make(sc);
    sc.trafficStorage = TrafficStorageKind::Sparse;
    const System sparseSys = System::make(sc);

    FaultInjector denseInj(denseSys.mapping().topology(), plan);
    FaultInjector sparseInj(sparseSys.mapping().topology(), plan);
    InferenceEngine denseEngine(denseSys.mapping(), ec);
    InferenceEngine sparseEngine(sparseSys.mapping(), ec);
    denseEngine.attachFaults(&denseInj);
    sparseEngine.attachFaults(&sparseInj);

    const auto denseStats = denseEngine.run(10);
    const auto sparseStats = sparseEngine.run(10);
    ASSERT_EQ(denseStats.size(), sparseStats.size());
    for (std::size_t i = 0; i < denseStats.size(); ++i) {
        EXPECT_EQ(denseStats[i].layerTime(ec.pipelineStages),
                  sparseStats[i].layerTime(ec.pipelineStages))
            << "iteration " << i;
        EXPECT_EQ(denseStats[i].dispatch, sparseStats[i].dispatch);
        EXPECT_EQ(denseStats[i].combine, sparseStats[i].combine);
    }
}

TEST(TrafficAccum, SparsePathIsAllocationFreeInSteadyState)
{
    const int devices = 150;
    TrafficAccumulator acc;
    // Warm-up: grows the hash and the emission scratch to the
    // workload's high-water occupancy.
    acc.reset(devices, TrafficStorageKind::Sparse);
    fillPattern(acc, devices);
    double sink = 0.0;
    acc.forEachTiled(
        [&sink](DeviceId, DeviceId, double b) { sink += b; });

    // Steady state: a full reset/add/emit cycle at the same occupancy
    // must not touch the heap.
    const std::size_t before = g_allocCount.load();
    acc.reset(devices, TrafficStorageKind::Sparse);
    fillPattern(acc, devices);
    acc.forEachTiled(
        [&sink](DeviceId, DeviceId, double b) { sink += b; });
    EXPECT_EQ(g_allocCount.load(), before)
        << "sparse accumulation must not allocate in steady state";
    EXPECT_GT(sink, 0.0);
}

TEST(TrafficAccum, ConcurrentSweepWorkersShareConstSparseSystem)
{
    // Sweep workers share one const System with the sparse policy; the
    // pool rows must be byte-identical to a serial pass (and TSan must
    // see no races — this test runs in the TSan job).
    SystemConfig sc;
    sc.platform = PlatformKind::WscEr;
    sc.meshN = 10;
    sc.tp = 4;
    sc.trafficStorage = TrafficStorageKind::Sparse;
    const auto sys = std::make_shared<const System>(System::make(sc));

    SweepGrid grid;
    grid.balancers = {BalancerKind::None, BalancerKind::TopologyAware};
    const SweepRunner::CellFn cell = [&sys](const SweepCell &c) {
        EngineConfig ec;
        ec.model = qwen3();
        ec.schedule = SchedulingMode::DecodeOnly;
        ec.decodeTokensPerGroup = 32;
        ec.workload.mode = GatingMode::MixedScenario;
        ec.balancer = c.point.balancerKind();
        ec.beta = 2;
        InferenceEngine engine(sys->mapping(), ec);
        double layerSum = 0.0;
        for (const auto &s : engine.run(4))
            layerSum += s.layerTime(ec.pipelineStages);
        SweepResult row;
        row.label = "cell" + std::to_string(c.point.index);
        row.add("layer_sum_s", layerSum);
        return row;
    };

    const SweepRunner serial(1);
    const auto serialRows = serial.run(grid, cell);
    const SweepRunner pool(4);
    const auto poolRows = pool.run(grid, cell);
    ASSERT_EQ(serialRows.size(), poolRows.size());
    for (std::size_t i = 0; i < serialRows.size(); ++i) {
        EXPECT_EQ(serialRows[i].label, poolRows[i].label);
        EXPECT_EQ(serialRows[i].metric("layer_sum_s"),
                  poolRows[i].metric("layer_sum_s"));
    }
}

TEST(TrafficAccumDeathTest, MergeAcrossTopologiesDiesLoudly)
{
    const MeshTopology small = MeshTopology::singleWafer(3);
    const MeshTopology big = MeshTopology::singleWafer(4);
    PhaseTraffic a(small);
    PhaseTraffic b(big);
    a.addFlow(0, 1, 64.0);
    b.addFlow(0, 1, 64.0);
    EXPECT_DEATH(a.merge(b), "merging phases over different topologies");
}

TEST(TrafficAccumDeathTest, RetargetAcrossTopologiesDiesLoudly)
{
    const MeshTopology small = MeshTopology::singleWafer(3);
    const MeshTopology big = MeshTopology::singleWafer(4);
    PhaseTraffic a(small);
    EXPECT_DEATH(a.retarget(big),
                 "retarget across topologies with different link sets");
}
