/**
 * @file
 * Equivalence and policy tests for the dense/sparse traffic
 * accumulator behind the token router:
 *  - policy: an accumulator selects the dense matrix below the device
 *    threshold and the sparse buffer at or above it, unless it was
 *    pinned to a storage, and the router keeps the caller's pin;
 *  - determinism: forEachTiled() emits in row-major order for systems
 *    within one tile (the historical dense scan) and in identical
 *    tile-major order under both storages beyond it;
 *  - regression: routeTokens() yields bitwise identical flow lists and
 *    device loads under pinned Dense and pinned Sparse storage — on a
 *    multi-wafer batch, a fig-style comm-eval cell, and every placement
 *    a balanced and a faulted engine run visit. The engine reaches the
 *    storage only through these flow lists;
 *  - pin: a digest of one decode batch routed by device count on the
 *    smallest system that selects the sparse storage (4,096 devices);
 *  - footprint: the sparse per-iteration path (reset/add/forEachTiled)
 *    is allocation-free in steady state;
 *  - concurrency: sweep workers routing through pinned sparse
 *    accumulators over one shared const System produce rows
 *    byte-identical to a serial pass (the TSan target).
 *  - loud failure: PhaseTraffic::merge()/retarget() across mismatched
 *    link sets die with a diagnostic instead of corrupting buffers.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/moentwine.hh"
#include "counting_alloc.hh"
#include "digest.hh"
#include "fault/fault.hh"
#include "sweep/sweep.hh"
#include "watchdog.hh"

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

std::vector<Emitted>
emitted(const std::vector<Flow> &flows)
{
    std::vector<Emitted> out;
    out.reserve(flows.size());
    for (const Flow &f : flows)
        out.push_back(Emitted{f.src, f.dst, f.bytes});
    return out;
}

/** A RoutedTraffic whose accumulator is pinned to @p kind. */
RoutedTraffic
pinnedRouted(TrafficStorageKind kind)
{
    RoutedTraffic routed;
    routed.pairBytes = TrafficAccumulator(kind);
    return routed;
}

/**
 * Route @p counts once under each pinned storage and expect bitwise
 * identical flow lists and device loads.
 */
void
expectRoutesMatchAcrossStorages(const Mapping &mapping,
                                const ExpertPlacement &placement,
                                const std::vector<std::vector<int>> &counts,
                                double tokenBytes, bool retainAllGather,
                                int topk)
{
    RoutedTraffic dense = pinnedRouted(TrafficStorageKind::Dense);
    RoutedTraffic sparse = pinnedRouted(TrafficStorageKind::Sparse);
    routeTokens(mapping, placement, counts, tokenBytes, retainAllGather,
                topk, dense);
    routeTokens(mapping, placement, counts, tokenBytes, retainAllGather,
                topk, sparse);
    ASSERT_EQ(dense.pairBytes.activeKind(), TrafficStorageKind::Dense);
    ASSERT_EQ(sparse.pairBytes.activeKind(), TrafficStorageKind::Sparse);

    ASSERT_GT(dense.dispatch.size(), 0u);
    EXPECT_EQ(emitted(dense.dispatch), emitted(sparse.dispatch));
    EXPECT_EQ(emitted(dense.combine), emitted(sparse.combine));
    EXPECT_EQ(dense.tokensPerDevice, sparse.tokensPerDevice);
    EXPECT_EQ(dense.activeExpertsPerDevice, sparse.activeExpertsPerDevice);
    EXPECT_EQ(dense.pairBytes.occupancy(), sparse.pairBytes.occupancy());
}

} // namespace

TEST(TrafficAccum, StorageSelectedByDeviceCountUnlessPinned)
{
    // Below the threshold the dense matrix, at it the sparse buffer.
    // (A dense reset just under the threshold would allocate 134 MB,
    // so the small side is checked on a 48-device accumulator.)
    const int T = TrafficAccumulator::kSparseThreshold;
    TrafficAccumulator acc;
    acc.reset(48);
    EXPECT_EQ(acc.activeKind(), TrafficStorageKind::Dense);
    acc.reset(T);
    EXPECT_EQ(acc.activeKind(), TrafficStorageKind::Sparse);
    TrafficAccumulator pinned(TrafficStorageKind::Sparse);
    pinned.reset(48);
    EXPECT_EQ(pinned.activeKind(), TrafficStorageKind::Sparse);

    // The router chooses by device count on a 16-device system, and
    // keeps a caller's pin.
    SystemConfig sc;
    sc.platform = PlatformKind::WscEr;
    sc.meshN = 4;
    sc.tp = 4;
    const System sys = System::make(sc);
    const ExpertPlacement p(qwen3().expertsTotal,
                            sys.mapping().numDevices(), 1);
    WorkloadConfig wc;
    wc.numExperts = qwen3().expertsTotal;
    wc.topK = qwen3().expertsActivated;
    WorkloadGenerator gen(wc);
    const auto counts = gen.sampleCounts(0, 0, 32, sys.mapping().dp());
    RoutedTraffic routed;
    routeTokens(sys.mapping(), p, counts, 512.0, true, wc.topK, routed,
                true);
    EXPECT_EQ(routed.pairBytes.activeKind(), TrafficStorageKind::Dense);

    RoutedTraffic sparse = pinnedRouted(TrafficStorageKind::Sparse);
    routeTokens(sys.mapping(), p, counts, 512.0, true, wc.topK, sparse,
                true);
    EXPECT_EQ(sparse.pairBytes.activeKind(), TrafficStorageKind::Sparse);
    EXPECT_GT(sparse.pairBytes.occupancy(), 0u);
}

TEST(TrafficAccum, SingleTileEmissionIsRowMajor)
{
    // Systems within one 64-device tile must emit in plain row-major
    // order — the historical dense-scan order every ≤64-device figure
    // driver was pinned against.
    const int devices = 48;
    TrafficAccumulator dense(TrafficStorageKind::Dense);
    dense.reset(devices);
    TrafficAccumulator sparse(TrafficStorageKind::Sparse);
    sparse.reset(devices);
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
    TrafficAccumulator dense(TrafficStorageKind::Dense);
    dense.reset(devices);
    TrafficAccumulator sparse(TrafficStorageKind::Sparse);
    sparse.reset(devices);
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
    EXPECT_EQ(dense.occupancy(), sparse.occupancy());
}

TEST(TrafficAccum, RoutedFlowsBitwiseIdenticalAcrossStorages)
{
    // A multi-tile routed batch: identical flow lists (order, values)
    // under pinned Dense and pinned Sparse accumulation.
    const MeshTopology mesh = MeshTopology::waferRow(2, 8);
    const HierarchicalErMapping her(
        mesh, decomposeTp(4, mesh.waferRows(), mesh.waferCols()));
    const ExpertPlacement p(128, her.numDevices(), 1);
    WorkloadConfig wc;
    wc.numExperts = 128;
    wc.topK = 8;
    wc.mode = GatingMode::MixedScenario;
    WorkloadGenerator gen(wc);
    expectRoutesMatchAcrossStorages(her, p,
                                    gen.sampleCounts(0, 0, 48, her.dp()),
                                    1024.0, true, wc.topK);
}

TEST(TrafficAccum, FigCellRoutesIdenticallyAcrossStorages)
{
    // The 2×(4×4) HER cell of the comm-eval figures, on
    // evaluateCommunication()'s placement and balanced gating: 256
    // tokens per group at top-8 over 128 experts is 16 per expert.
    SystemConfig sc;
    sc.platform = PlatformKind::WscHer;
    sc.meshN = 4;
    sc.wafers = 2;
    sc.tp = 4;
    const System sys = System::make(sc);
    const MoEModelConfig model = qwen3();
    const ExpertPlacement p(model.expertsTotal, sys.mapping().numDevices(),
                            0);
    const std::vector<std::vector<int>> counts(
        static_cast<std::size_t>(sys.mapping().dp()),
        std::vector<int>(static_cast<std::size_t>(model.expertsTotal),
                         256 * model.expertsActivated /
                             model.expertsTotal));
    expectRoutesMatchAcrossStorages(sys.mapping(), p, counts,
                                    model.tokenBytes(), true,
                                    model.expertsActivated);
}

TEST(TrafficAccum, SparseRouteDigestAt4096Devices)
{
    // 4×(32×32) HER, tp 4, one routed expert per device: the smallest
    // system that selects the sparse storage by device count. Pins the
    // emitted (src, dst, bytes) sequence, the device loads and the
    // occupancy of one decode batch.
    SystemConfig sc;
    sc.platform = PlatformKind::WscHer;
    sc.meshN = 32;
    sc.wafers = 4;
    sc.tp = 4;
    const System sys = System::make(sc);
    const Mapping &mapping = sys.mapping();
    const int devices = mapping.numDevices();
    ASSERT_EQ(devices, TrafficAccumulator::kSparseThreshold);

    MoEModelConfig model = qwen3();
    model.expertsTotal = devices;
    const ExpertPlacement p(model.expertsTotal, devices, 1);
    WorkloadConfig wc;
    wc.numExperts = model.expertsTotal;
    wc.topK = model.expertsActivated;
    wc.mode = GatingMode::MixedScenario;
    WorkloadGenerator gen(wc);
    RoutedTraffic routed;
    routeTokens(mapping, p, gen.sampleCounts(0, 0, 16, mapping.dp()),
                model.tokenBytes(), true, wc.topK, routed, true);
    ASSERT_EQ(routed.pairBytes.activeKind(), TrafficStorageKind::Sparse);

    std::uint64_t h = digest::kOffset;
    digest::mixInt(h, static_cast<std::int64_t>(routed.dispatch.size()));
    for (const Flow &f : routed.dispatch) {
        digest::mixInt(h, f.src);
        digest::mixInt(h, f.dst);
        digest::mixDouble(h, f.bytes);
    }
    for (const double t : routed.tokensPerDevice)
        digest::mixDouble(h, t);
    digest::mixInt(h, static_cast<std::int64_t>(
                          routed.pairBytes.occupancy()));
    EXPECT_EQ(h, 0x024b99f0c7ee7f30ULL);
}

namespace {

/**
 * Step @p engine @p iterations times and, before each step, route a
 * decode batch on the engine's current placement under both storages.
 * @p onPlacement sees every placement routed. A non-null @p faults is
 * the engine's injector, advanced to each iteration before its step.
 */
template <typename OnPlacement>
void
expectEnginePlacementsRouteIdentically(InferenceEngine &engine,
                                       const Mapping &mapping,
                                       int iterations,
                                       OnPlacement &&onPlacement,
                                       FaultInjector *faults = nullptr)
{
    const EngineConfig &ec = engine.config();
    WorkloadConfig wc = ec.workload;
    wc.numExperts = ec.model.expertsTotal;
    wc.topK = ec.model.expertsActivated;
    WorkloadGenerator gen(wc);
    for (int i = 0; i < iterations; ++i) {
        SCOPED_TRACE("iteration " + std::to_string(i));
        onPlacement(engine.placement());
        expectRoutesMatchAcrossStorages(
            mapping, engine.placement(),
            gen.sampleCounts(i, 0, ec.decodeTokensPerGroup, mapping.dp()),
            ec.model.tokenBytes(), ec.retainAllGather, wc.topK);
        if (faults != nullptr)
            faults->advanceTo(i);
        engine.step();
    }
}

} // namespace

TEST(TrafficAccum, EngineRunPlacementsRouteIdenticallyAcrossStorages)
{
    // 100 devices: multi-tile emission, on the placements a balanced
    // engine run moves through.
    SystemConfig sc;
    sc.platform = PlatformKind::WscEr;
    sc.meshN = 10;
    sc.tp = 4;
    const System sys = System::make(sc);

    EngineConfig ec;
    ec.model = qwen3();
    ec.schedule = SchedulingMode::DecodeOnly;
    ec.decodeTokensPerGroup = 64;
    ec.workload.mode = GatingMode::MixedScenario;
    ec.balancer = BalancerKind::TopologyAware;
    ec.beta = 3;

    InferenceEngine engine(sys.mapping(), ec);
    bool replicated = false;
    expectEnginePlacementsRouteIdentically(
        engine, sys.mapping(), 12, [&](const ExpertPlacement &p) {
            for (int e = 0; e < p.numExperts(); ++e)
                replicated |= p.numReplicas(e) > 1;
        });
    EXPECT_TRUE(replicated) << "the balancer never added a replica";
}

TEST(TrafficAccum, FaultedEngineRunPlacementsRouteIdenticallyAcrossStorages)
{
    // The placements of a faulted run: a straggler, then a lost device
    // whose experts were re-homed.
    SystemConfig sc;
    sc.platform = PlatformKind::WscEr;
    sc.meshN = 4;
    sc.tp = 4;
    const System sys = System::make(sc);

    EngineConfig ec;
    ec.model = qwen3();
    ec.schedule = SchedulingMode::DecodeOnly;
    ec.decodeTokensPerGroup = 32;
    ec.workload.mode = GatingMode::MixedScenario;
    ec.balancer = BalancerKind::None;

    FaultPlan plan;
    plan.events.push_back(FaultEvent::slowNode(2, 3, 2.0));
    plan.events.push_back(FaultEvent::nodeFail(5, 7));
    FaultInjector inj(sys.mapping().topology(), plan);
    InferenceEngine engine(sys.mapping(), ec);
    engine.attachFaults(&inj);

    bool sawLoss = false;
    expectEnginePlacementsRouteIdentically(
        engine, sys.mapping(), 10,
        [&](const ExpertPlacement &p) { sawLoss |= p.deviceLost(7); },
        &inj);
    EXPECT_TRUE(sawLoss) << "no routed placement had device 7 lost";
}

TEST(TrafficAccum, SparsePathIsAllocationFreeInSteadyState)
{
    const int devices = 150;
    TrafficAccumulator acc(TrafficStorageKind::Sparse);
    // Warm-up: grows the append buffer and the radix scratch to the
    // workload's high-water occupancy.
    acc.reset(devices);
    fillPattern(acc, devices);
    double sink = 0.0;
    acc.forEachTiled(
        [&sink](DeviceId, DeviceId, double b) { sink += b; });

    // Steady state: a full reset/add/emit cycle at the same occupancy
    // must not touch the heap.
    const std::size_t before = g_allocCount.load();
    acc.reset(devices);
    fillPattern(acc, devices);
    acc.forEachTiled(
        [&sink](DeviceId, DeviceId, double b) { sink += b; });
    EXPECT_EQ(g_allocCount.load(), before)
        << "sparse accumulation must not allocate in steady state";
    EXPECT_GT(sink, 0.0);
}

TEST(TrafficAccum, ConcurrentSweepWorkersRouteSparseOverSharedSystem)
{
    // Sweep workers share one const System and route through their own
    // pinned sparse accumulators; the pool rows must be byte-identical
    // to a serial pass (and TSan must see no races — this test runs in
    // the TSan job).
    SystemConfig sc;
    sc.platform = PlatformKind::WscEr;
    sc.meshN = 10;
    sc.tp = 4;
    const auto sys = std::make_shared<const System>(System::make(sc));

    SweepGrid grid;
    grid.gatings = {GatingMode::Balanced, GatingMode::SingleScenario,
                    GatingMode::MixedScenario};
    grid.params = {1.0, 2.0};
    const SweepRunner::CellFn cell = [&sys](const SweepCell &c) {
        const Mapping &mapping = sys->mapping();
        const MoEModelConfig model = qwen3();
        WorkloadConfig wc;
        wc.numExperts = model.expertsTotal;
        wc.topK = model.expertsActivated;
        wc.mode = c.point.gatingMode();
        wc.seed = c.point.seed();
        WorkloadGenerator gen(wc);
        const ExpertPlacement p(model.expertsTotal, mapping.numDevices(),
                                1);
        RoutedTraffic routed = pinnedRouted(TrafficStorageKind::Sparse);
        double bytes = 0.0;
        for (int i = 0; i < 4; ++i) {
            routeTokens(mapping, p,
                        gen.sampleCounts(i, 0, 32, mapping.dp()),
                        model.tokenBytes(), true, wc.topK, routed);
            for (const Flow &f : routed.dispatch)
                bytes += f.bytes;
        }
        SweepResult row;
        row.label = "cell" + std::to_string(c.point.index);
        row.add("dispatch_bytes", bytes);
        row.add("pairs",
                static_cast<double>(routed.pairBytes.occupancy()));
        return row;
    };

    const SweepRunner serial(1);
    const auto serialRows = serial.run(grid, cell);
    const SweepRunner pool(4);
    const auto poolRows = pool.run(grid, cell);
    ASSERT_EQ(serialRows.size(), poolRows.size());
    for (std::size_t i = 0; i < serialRows.size(); ++i) {
        EXPECT_EQ(serialRows[i].label, poolRows[i].label);
        EXPECT_EQ(serialRows[i].metric("dispatch_bytes"),
                  poolRows[i].metric("dispatch_bytes"));
        EXPECT_EQ(serialRows[i].metric("pairs"),
                  poolRows[i].metric("pairs"));
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
