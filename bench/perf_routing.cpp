/**
 * @file
 * Simulator-performance benchmark of the route/traffic hot path: times
 * full engine iterations on a multi-wafer mesh and on a switch cluster,
 * with flow aggregation enabled (the production configuration) and
 * disabled (the per-triple flow-list baseline, kept behind
 * EngineConfig::aggregateFlows), plus the cost of one route walk.
 *
 * Emits a stable JSON trajectory to stdout and to BENCH_routing.json so
 * future changes have a perf baseline to beat:
 *   {"bench": ..., "iters_per_sec": ..., "ns_per_walk": ...,
 *    "baseline_iters_per_sec": ..., "speedup": ...}
 * plus a serial-vs-parallel wall clock of a fig16-style grid on the
 * SweepRunner thread pool:
 *   "sweep": {"cells": ..., "jobs": ..., "speedup": ...}
 * and the per-walk cost at 1024 devices, where routes are longest:
 *   "scale": {"devices": 1024, "ns_per_walk": ...}
 * and, since the sparse traffic accumulator landed (schema v4), a
 * 1024-device dense-vs-sparse engine/reduction comparison plus a
 * 16384-device fine-grained-expert point where only the sparse
 * accumulator is feasible:
 *   "traffic": {"dense_iters_per_sec": ..., "sparse_iters_per_sec":
 *    ..., "dense_reduction_s": ..., "sparse_reduction_s": ...,
 *    "sparse_accum_bytes": ...}
 *   "traffic_scale": {"devices": 16384, "occupied_pairs": ...,
 *    "bytes_ratio": ..., ...}
 *
 * Since the observability layer (schema v5), each timed engine section
 * also reports hardware counters (cycles, instructions, IPC, cache and
 * dTLB misses) from perf_event_open — zeros with "available": false
 * where the PMU is unreachable (containers, locked-down CI) — and the
 * driver accepts:
 *   --trace <path>  sim-time trace of a short observed engine run
 *   --stats <path>  StatRegistry JSON of the same run
 *
 * The "sweep" section carries the scheduler counters (steals, engine
 * builds and reuses), and a "sweep_exec" section measures per-worker
 * engine reuse on a 1024-device fine-grained-experts grid: the same
 * grid run serially (row reference), in parallel with a fresh engine
 * constructed in every cell ("rebuild"), and in parallel through the
 * worker's engine pool ("reuse"), each with per-run hw{} counters and
 * per-cell construction cost — the "construction_saving_per_cell_ms"
 * the worker-state reuse buys. Rows are bitwise-compared across all
 * three runs.
 *
 * Schema v7 drops the route-storage sections: routing is a closed-form
 * walk with no per-pair storage to measure or compare. Schema v8 drops
 * the pinned sweep_exec run and the NUMA, pinning and prebuild keys:
 * the sweep has one scheduler and no placement knobs.
 *
 * Usage: perf_routing [iterations] [--jobs N] [--trace P] [--stats P]
 *        (default 300 aggregated / 60 baseline; jobs default to
 *        MOENTWINE_JOBS, then the CPUs the process may run on)
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/moentwine.hh"
#include "obs/obs.hh"
#include "fig16_grid.hh"
#include "flags.hh"
#include "jobs.hh"
#include "sweep/sweep.hh"

using namespace moentwine;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Iterations/second of a fresh engine on the given platform. When
 * @p hw is non-null the timed region also runs under the hardware
 * counter group (zeros when the PMU is unavailable).
 */
double
engineThroughput(const Mapping &mapping, const EngineConfig &cfg,
                 int iterations, HwCounterValues *hw = nullptr)
{
    InferenceEngine engine(mapping, cfg);
    // Warm up: builds the dispatch-source memo and steady-state
    // scratch capacities outside the timed region.
    engine.step();
    engine.step();
    HwCounters counters;
    if (hw != nullptr)
        counters.start();
    const auto start = Clock::now();
    double checksum = 0.0;
    for (int i = 0; i < iterations; ++i)
        checksum += engine.step().layerTime(cfg.pipelineStages);
    const double elapsed = secondsSince(start);
    if (hw != nullptr)
        *hw = counters.stop();
    if (checksum < 0.0)
        std::printf("impossible\n"); // keep the loop observable
    return static_cast<double>(iterations) / elapsed;
}

/** Average wall-clock nanoseconds of one full walk() link iteration. */
double
nsPerWalk(const Topology &topo, int samples)
{
    const int devices = topo.numDevices();
    long hopsSum = 0;
    DeviceId a = 0;
    const auto start = Clock::now();
    for (int i = 0; i < samples; ++i) {
        const DeviceId b = (a * 31 + 17) % devices;
        for (const LinkId l : topo.walk(a, b))
            hopsSum += l >= 0 ? 1 : 0;
        a = (a + 1) % devices;
    }
    const double elapsed = secondsSince(start);
    if (hopsSum < 0)
        std::printf("impossible\n");
    return elapsed * 1e9 / static_cast<double>(samples);
}

struct BenchResult
{
    std::string bench;
    double itersPerSec = 0.0;
    double nsPerWalk = 0.0;
    double baselineItersPerSec = 0.0;
    /** Hardware counters of the aggregated (production) timed region. */
    HwCounterValues hw{};

    double speedup() const
    {
        return baselineItersPerSec > 0.0
            ? itersPerSec / baselineItersPerSec
            : 0.0;
    }
};

/** Run one platform with flow aggregation on and off. */
BenchResult
runPlatform(const std::string &label, const Topology &topo,
            const Mapping &mapping, EngineConfig cfg, int iters)
{
    BenchResult r;
    r.bench = label;

    // Aggregated (production) configuration, with the hardware-counter
    // group around the timed region.
    cfg.aggregateFlows = true;
    r.itersPerSec = engineThroughput(mapping, cfg, iters, &r.hw);
    r.nsPerWalk = nsPerWalk(topo, 200000);

    // Baseline: per-triple flow lists.
    cfg.aggregateFlows = false;
    const int baseIters = std::max(10, iters / 5);
    r.baselineItersPerSec = engineThroughput(mapping, cfg, baseIters);

    std::printf("%-24s aggregated %8.1f it/s | baseline %8.1f it/s | "
                "speedup %5.2fx | walk %6.1f ns\n",
                r.bench.c_str(), r.itersPerSec, r.baselineItersPerSec,
                r.speedup(), r.nsPerWalk);
    return r;
}

/**
 * Per-walk cost on a 4x(16x16) multi-wafer mesh (1024 devices), where
 * routes are longest.
 */
struct ScaleResult
{
    std::string bench;
    int devices = 0;
    double nsPerWalk = 0.0;
};

ScaleResult
runScaleBench()
{
    ScaleResult r;
    r.bench = "wsc_4x(16x16)_1024dev";
    const MeshTopology mesh = MeshTopology::waferRow(4, 16);
    r.devices = mesh.numDevices();
    r.nsPerWalk = nsPerWalk(mesh, 200000);
    std::printf("%-24s %d devices | walk %5.1f ns\n", r.bench.c_str(),
                r.devices, r.nsPerWalk);
    return r;
}

/** Wall-clock of one SweepRunner pass over a fig16-style grid. */
struct SweepBenchResult
{
    std::string bench;
    std::size_t cells = 0;
    int jobs = 1;
    double serialSeconds = 0.0;
    double parallelSeconds = 0.0;
    bool rowsIdentical = false;
    /** Scheduler counters of the parallel run. */
    SweepRunStats stats;

    double speedup() const
    {
        return parallelSeconds > 0.0 ? serialSeconds / parallelSeconds
                                     : 0.0;
    }
};

/** Exact row equality (labels, keys, bitwise metric values). */
bool
rowsEqual(const std::vector<SweepResult> &a,
          const std::vector<SweepResult> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].index != b[i].index || a[i].label != b[i].label ||
            a[i].metrics != b[i].metrics)
            return false;
    }
    return true;
}

/**
 * Time the fig16-style balancing grid serially and on the thread
 * pool. The grid is embarrassingly parallel (one engine per cell), so
 * on a multi-core runner the pool's wall-clock approaches
 * serial/jobs; rows must come back byte-identical either way.
 */
SweepBenchResult
runSweepBench(int jobs)
{
    // Time exactly the grid fig16_balancing runs (bench/fig16_grid.cc
    // is shared with the driver, so this trajectory cannot drift from
    // the figure it claims to measure).
    const SweepGrid grid = benchgrid::fig16BalancingGrid();

    const SweepRunner::CellFn cell = [](const SweepCell &c) {
        const EngineConfig ec = benchgrid::fig16EngineConfig(c.point);
        InferenceEngine &engine =
            c.worker->engine(c.system->mapping(), ec);
        double layer = 0.0;
        for (const auto &s : engine.run(benchgrid::kFig16Iterations))
            layer += s.layerTime(ec.pipelineStages);
        SweepResult row;
        row.label = "cell" + std::to_string(c.point.index);
        row.add("layer_sum_s", layer);
        return row;
    };

    SweepBenchResult r;
    r.bench = "sweep_fig16_wsc_er_16dev";
    r.cells = grid.cells();
    r.jobs = jobs;

    const SweepRunner serial(1);
    auto start = Clock::now();
    const auto serialRows = serial.run(grid, cell);
    r.serialSeconds = secondsSince(start);

    SweepOptions popts;
    popts.jobs = jobs;
    const SweepRunner parallel(popts);
    start = Clock::now();
    const auto parallelRows = parallel.run(grid, cell, &r.stats);
    r.parallelSeconds = secondsSince(start);

    r.rowsIdentical = rowsEqual(serialRows, parallelRows);

    std::printf("%-24s serial %6.2f s | parallel(%d) %6.2f s | "
                "speedup %5.2fx | steals %lld | reuses %lld | rows %s\n",
                r.bench.c_str(), r.serialSeconds, r.jobs,
                r.parallelSeconds, r.speedup(),
                static_cast<long long>(r.stats.steals),
                static_cast<long long>(r.stats.engineReuses),
                r.rowsIdentical ? "identical" : "DIVERGED");
    return r;
}

/**
 * The worker-state-reuse trajectory: a 1024-device fine-grained-
 * experts grid where each cell's engine owns tens of MB of traffic
 * scratch, so per-cell construction is a real fraction of cell time.
 * One grid, three passes — serial reference, per-cell rebuild,
 * per-worker reuse — rows bitwise-compared across all of them,
 * per-cell construction cost measured inside the cell function, hw
 * counters around each parallel drain.
 */
constexpr int kExecIterations = 2;

SweepGrid
execGrid()
{
    SweepGrid grid;
    SystemConfig sc;
    sc.platform = PlatformKind::WscHer;
    sc.meshN = 16;
    sc.wafers = 4;
    sc.tp = 4;
    grid.systems = {sc};
    // Free axis: decode token-group size. 16 cells is enough for
    // every worker to see many same-platform cells in its block —
    // the reuse regime — while keeping the whole section in seconds.
    for (int g = 1; g <= 16; ++g)
        grid.params.push_back(static_cast<double>(8 * g));
    return grid;
}

EngineConfig
execEngineConfig(const SweepPoint &point, int devices)
{
    EngineConfig ec;
    ec.model = qwen3();
    // Fine-grained expert regime (one expert per device): the regime
    // where engine state (placements, EMA loads, traffic scratch)
    // scales with the device count and construction is expensive.
    ec.model.expertsTotal = devices;
    ec.balancer = BalancerKind::None;
    ec.schedule = SchedulingMode::DecodeOnly;
    ec.decodeTokensPerGroup = static_cast<int>(point.parameter());
    ec.workload.mode = GatingMode::MixedScenario;
    ec.workload.mixPeriod = 60;
    ec.workload.seed = point.seed();
    return ec;
}

/** One scheduled pass over the exec grid. */
struct ExecRun
{
    std::string name;
    double seconds = 0.0;
    /** Mean seconds of engine acquisition (construction or reset)
     *  plus the first iteration — where a fresh engine pays its lazy
     *  scratch allocations — measured inside the cell function. */
    double warmSecondsPerCell = 0.0;
    SweepRunStats stats;
    std::vector<SweepResult> rows;
};

/**
 * One pass over the exec grid. With @p fresh set, every cell
 * constructs its own engine (the rebuild baseline); otherwise cells
 * take the worker's pooled engine.
 */
ExecRun
runExecOnce(const std::string &name, const SweepGrid &grid,
            const SweepOptions &opts, bool fresh)
{
    const int devices = grid.systems[0].meshN * grid.systems[0].meshN *
        grid.systems[0].wafers;
    std::atomic<long long> warmNs{0};
    const SweepRunner::CellFn cell = [&warmNs, devices,
                                      fresh](const SweepCell &c) {
        const EngineConfig ec = execEngineConfig(c.point, devices);
        // Warm cost = engine acquisition plus the first iteration:
        // the engine allocates its traffic/routing scratch lazily on
        // first use, so a fresh engine pays its multi-MB allocations
        // (and their page faults) inside step 0 — exactly the cost a
        // reused engine's retained capacity avoids.
        const auto t0 = Clock::now();
        std::unique_ptr<InferenceEngine> own;
        if (fresh)
            own = std::make_unique<InferenceEngine>(c.system->mapping(),
                                                    ec);
        InferenceEngine &engine =
            fresh ? *own : c.worker->engine(c.system->mapping(), ec);
        double layer =
            engine.step().layerTime(ec.pipelineStages);
        warmNs.fetch_add(
            static_cast<long long>(secondsSince(t0) * 1e9),
            std::memory_order_relaxed);
        for (int i = 1; i < kExecIterations; ++i)
            layer += engine.step().layerTime(ec.pipelineStages);
        SweepResult row;
        row.label = "cell" + std::to_string(c.point.index);
        row.add("layer_sum_s", layer);
        return row;
    };

    ExecRun r;
    r.name = name;
    const SweepRunner runner(opts);
    const auto start = Clock::now();
    r.rows = runner.run(grid, cell, &r.stats);
    r.seconds = secondsSince(start);
    if (fresh) // the cells bypassed the pool: one build per cell
        r.stats.engineBuilds = static_cast<std::int64_t>(grid.cells());
    r.warmSecondsPerCell = static_cast<double>(warmNs.load()) * 1e-9 /
        static_cast<double>(grid.cells());
    return r;
}

struct ExecBenchResult
{
    std::string bench;
    int devices = 0;
    std::size_t cells = 0;
    int jobs = 1;
    double serialSeconds = 0.0;
    std::vector<ExecRun> runs; ///< rebuild, reuse
    bool rowsIdentical = false;

    /** What per-worker reuse saves per cell vs rebuilding. */
    double constructionSavingPerCellMs = 0.0;
};

ExecBenchResult
runExecBench(int jobs)
{
    const SweepGrid grid = execGrid();

    ExecBenchResult r;
    r.bench = "sweep_exec_wsc_4x(16x16)_her_1024dev";
    r.devices = 1024;
    r.cells = grid.cells();
    r.jobs = jobs;

    SweepOptions serial;
    serial.jobs = 1;
    // Serial reference also reuses: reuse may never change a row, so
    // the reference must not special-case it away.
    const ExecRun ref = runExecOnce("serial", grid, serial, false);
    r.serialSeconds = ref.seconds;

    SweepOptions parallel;
    parallel.jobs = jobs;
    parallel.collectHw = true;
    r.runs.push_back(runExecOnce("rebuild", grid, parallel, true));
    r.runs.push_back(runExecOnce("reuse", grid, parallel, false));

    r.rowsIdentical = true;
    for (const ExecRun &run : r.runs)
        r.rowsIdentical = r.rowsIdentical && rowsEqual(ref.rows, run.rows);
    r.constructionSavingPerCellMs =
        (r.runs[0].warmSecondsPerCell - r.runs[1].warmSecondsPerCell) *
        1e3;

    for (const ExecRun &run : r.runs) {
        std::printf("%-24s %-8s %6.2f s | warm %6.2f ms/cell | "
                    "steals %lld | builds %lld | reuses %lld | "
                    "workers %d\n",
                    r.bench.c_str(), run.name.c_str(), run.seconds,
                    run.warmSecondsPerCell * 1e3,
                    static_cast<long long>(run.stats.steals),
                    static_cast<long long>(run.stats.engineBuilds),
                    static_cast<long long>(run.stats.engineReuses),
                    run.stats.workers);
    }
    std::printf("%-24s reuse saves %.2f ms/cell | rows %s\n",
                r.bench.c_str(), r.constructionSavingPerCellMs,
                r.rowsIdentical ? "identical" : "DIVERGED");
    return r;
}

/**
 * Dense-vs-sparse traffic accumulation at 1024 devices: full engine
 * throughput and the isolated routeTokens→allToAll reduction under
 * each forced storage, plus the accumulator footprints. The two
 * storages are bitwise equivalent (pinned by
 * tests/traffic_accum_test.cpp), so any gap here is pure overhead.
 */
struct TrafficResult
{
    std::string bench;
    int devices = 0;
    double denseItersPerSec = 0.0;
    double sparseItersPerSec = 0.0;
    double denseReductionSeconds = 0.0;
    double sparseReductionSeconds = 0.0;
    std::size_t denseBytes = 0;
    std::size_t sparseBytes = 0;

    double sparseVsDense() const
    {
        return denseItersPerSec > 0.0
            ? sparseItersPerSec / denseItersPerSec
            : 0.0;
    }
};

/**
 * Average seconds of one aggregated routeTokens + dispatch/combine
 * link-load reduction pass (the tiled matrix→addFlow path this PR
 * blocks for cache locality).
 */
double
reductionSeconds(const Mapping &mapping, const ExpertPlacement &placement,
                 const std::vector<std::vector<int>> &counts,
                 const EngineConfig &cfg, int passes)
{
    RoutedTraffic routed;
    PhaseTraffic disp(mapping.topology());
    PhaseTraffic comb(mapping.topology());
    // Warm pass: reaches steady-state scratch capacity.
    routeTokens(mapping, placement, counts, cfg.model.tokenBytes(),
                cfg.retainAllGather, cfg.model.expertsActivated, routed,
                true);
    double checksum = 0.0;
    const auto start = Clock::now();
    for (int i = 0; i < passes; ++i) {
        routeTokens(mapping, placement, counts, cfg.model.tokenBytes(),
                    cfg.retainAllGather, cfg.model.expertsActivated,
                    routed, true);
        checksum += allToAllInto(routed.dispatch, disp);
        checksum += allToAllInto(routed.combine, comb);
    }
    const double elapsed = secondsSince(start);
    if (checksum < 0.0)
        std::printf("impossible\n");
    return elapsed / static_cast<double>(passes);
}

TrafficResult
runTrafficBench(const EngineConfig &baseCfg, int iters)
{
    TrafficResult r;
    r.bench = "wsc_4x(16x16)_her_1024dev";

    MeshTopology mesh = MeshTopology::waferRow(4, 16);
    HierarchicalErMapping her(
        mesh, decomposeTp(4, mesh.waferRows(), mesh.waferCols()));
    r.devices = mesh.numDevices();

    EngineConfig cfg = baseCfg;
    // Fine-grained expert regime (one expert per device, single
    // replica, decode-sized token groups, no balancer fan-out) — the
    // regime the sparse storage exists for, and the same one the
    // 16384-device section measures, so the two traffic sections
    // compare like with like across scale. Balancer interaction is
    // pinned separately by the bitwise engine-equivalence tests.
    cfg.balancer = BalancerKind::None;
    cfg.model.expertsTotal = r.devices;
    cfg.decodeTokensPerGroup = 16;

    WorkloadConfig wc = cfg.workload;
    wc.numExperts = cfg.model.expertsTotal;
    wc.topK = cfg.model.expertsActivated;
    WorkloadGenerator gen(wc);
    const ExpertPlacement placement(cfg.model.expertsTotal, r.devices,
                                    cfg.shadowSlots);
    const auto counts =
        gen.sampleCounts(0, 0, cfg.decodeTokensPerGroup, her.dp());

    const int engineIters = std::max(10, iters / 5);
    const int passes = std::max(5, iters / 10);

    her.setTrafficStorage(TrafficStorageKind::Dense);
    r.denseItersPerSec = engineThroughput(her, cfg, engineIters);
    r.denseReductionSeconds =
        reductionSeconds(her, placement, counts, cfg, passes);
    {
        RoutedTraffic routed;
        routeTokens(her, placement, counts, cfg.model.tokenBytes(),
                    cfg.retainAllGather, cfg.model.expertsActivated,
                    routed, true);
        r.denseBytes = routed.pairBytes.storageBytes();
    }

    her.setTrafficStorage(TrafficStorageKind::Sparse);
    r.sparseItersPerSec = engineThroughput(her, cfg, engineIters);
    r.sparseReductionSeconds =
        reductionSeconds(her, placement, counts, cfg, passes);
    {
        RoutedTraffic routed;
        routeTokens(her, placement, counts, cfg.model.tokenBytes(),
                    cfg.retainAllGather, cfg.model.expertsActivated,
                    routed, true);
        r.sparseBytes = routed.pairBytes.storageBytes();
    }

    std::printf("%-24s dense %8.1f it/s vs sparse %8.1f it/s "
                "(%.3fx) | reduction %.3f ms vs %.3f ms | accum "
                "%.1f MB vs %.1f MB\n",
                r.bench.c_str(), r.denseItersPerSec, r.sparseItersPerSec,
                r.sparseVsDense(), r.denseReductionSeconds * 1e3,
                r.sparseReductionSeconds * 1e3, r.denseBytes / 1e6,
                r.sparseBytes / 1e6);
    return r;
}

/**
 * The 16384-device point only the sparse accumulator makes feasible:
 * fine-grained experts (one per device) on a 4×(64×64) mesh. The dense
 * matrix is analytic — allocating 2.1 GB
 * is what the sparse path exists to avoid.
 */
struct TrafficScaleResult
{
    std::string bench;
    int devices = 0;
    std::size_t occupiedPairs = 0;
    std::size_t sparseBytes = 0;
    std::size_t denseBytes = 0;
    double sparseReductionSeconds = 0.0;

    double bytesRatio() const
    {
        return sparseBytes > 0
            ? static_cast<double>(denseBytes) /
                static_cast<double>(sparseBytes)
            : 0.0;
    }
};

TrafficScaleResult
runTrafficScaleBench()
{
    TrafficScaleResult r;
    r.bench = "wsc_4x(64x64)_her_16384dev";

    const MeshTopology mesh = MeshTopology::waferRow(4, 64);
    const HierarchicalErMapping her(
        mesh, decomposeTp(4, mesh.waferRows(), mesh.waferCols()));
    r.devices = mesh.numDevices();
    r.denseBytes = TrafficAccumulator::denseBytes(r.devices);

    EngineConfig cfg;
    cfg.model = qwen3();
    cfg.model.expertsTotal = r.devices;
    cfg.decodeTokensPerGroup = 16;
    cfg.workload.mode = GatingMode::MixedScenario;

    WorkloadConfig wc = cfg.workload;
    wc.numExperts = cfg.model.expertsTotal;
    wc.topK = cfg.model.expertsActivated;
    WorkloadGenerator gen(wc);
    const ExpertPlacement placement(cfg.model.expertsTotal, r.devices,
                                    cfg.shadowSlots);
    const auto counts =
        gen.sampleCounts(0, 0, cfg.decodeTokensPerGroup, her.dp());

    r.sparseReductionSeconds =
        reductionSeconds(her, placement, counts, cfg, 2);
    RoutedTraffic routed;
    routeTokens(her, placement, counts, cfg.model.tokenBytes(),
                cfg.retainAllGather, cfg.model.expertsActivated, routed,
                true);
    r.occupiedPairs = routed.pairBytes.occupancy();
    r.sparseBytes = routed.pairBytes.storageBytes();

    std::printf("%-24s %d devices | %zu pairs | sparse %.1f MB vs "
                "dense %.1f MB (%.1fx) | reduction %.3f s\n",
                r.bench.c_str(), r.devices, r.occupiedPairs,
                r.sparseBytes / 1e6, r.denseBytes / 1e6, r.bytesRatio(),
                r.sparseReductionSeconds);
    return r;
}

/** Inline JSON object of one hw counter set. */
std::string
hwJson(const HwCounterValues &hw)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"available\": %s, \"cycles\": %llu, "
                  "\"instructions\": %llu, \"ipc\": %.2f, "
                  "\"cache_misses\": %llu, \"dtlb_misses\": %llu}",
                  hw.available ? "true" : "false",
                  static_cast<unsigned long long>(hw.cycles),
                  static_cast<unsigned long long>(hw.instructions),
                  hw.ipc(),
                  static_cast<unsigned long long>(hw.cacheMisses),
                  static_cast<unsigned long long>(hw.dtlbMisses));
    return buf;
}

std::string
toJson(const std::vector<BenchResult> &results, const ScaleResult &scale,
       const SweepBenchResult &sweep, const ExecBenchResult &exec,
       const TrafficResult &traffic,
       const TrafficScaleResult &trafficScale)
{
    std::string out = "{\n  \"schema\": \"moentwine.bench.routing.v8\",\n"
                      "  \"results\": [\n";
    char buf[1024];
    for (std::size_t i = 0; i < results.size(); ++i) {
        const BenchResult &r = results[i];
        std::snprintf(
            buf, sizeof(buf),
            "    {\"bench\": \"%s\", \"iters_per_sec\": %.1f, "
            "\"ns_per_walk\": %.1f, \"baseline_iters_per_sec\": %.1f, "
            "\"speedup\": %.2f, \"hw\": %s}%s\n",
            r.bench.c_str(), r.itersPerSec, r.nsPerWalk,
            r.baselineItersPerSec, r.speedup(), hwJson(r.hw).c_str(),
            i + 1 < results.size() ? "," : "");
        out += buf;
    }
    out += "  ],\n";
    std::snprintf(
        buf, sizeof(buf),
        "  \"scale\": {\"bench\": \"%s\", \"devices\": %d, "
        "\"ns_per_walk\": %.1f},\n",
        scale.bench.c_str(), scale.devices, scale.nsPerWalk);
    out += buf;
    std::snprintf(
        buf, sizeof(buf),
        "  \"traffic\": {\"bench\": \"%s\", \"devices\": %d, "
        "\"dense_iters_per_sec\": %.1f, \"sparse_iters_per_sec\": %.1f, "
        "\"sparse_vs_dense\": %.3f, \"dense_reduction_s\": %.6f, "
        "\"sparse_reduction_s\": %.6f, \"dense_accum_bytes\": %zu, "
        "\"sparse_accum_bytes\": %zu},\n",
        traffic.bench.c_str(), traffic.devices, traffic.denseItersPerSec,
        traffic.sparseItersPerSec, traffic.sparseVsDense(),
        traffic.denseReductionSeconds, traffic.sparseReductionSeconds,
        traffic.denseBytes, traffic.sparseBytes);
    out += buf;
    std::snprintf(
        buf, sizeof(buf),
        "  \"traffic_scale\": {\"bench\": \"%s\", \"devices\": %d, "
        "\"occupied_pairs\": %zu, \"sparse_accum_bytes\": %zu, "
        "\"dense_accum_bytes\": %zu, \"bytes_ratio\": %.2f, "
        "\"sparse_reduction_s\": %.3f},\n",
        trafficScale.bench.c_str(), trafficScale.devices,
        trafficScale.occupiedPairs, trafficScale.sparseBytes,
        trafficScale.denseBytes, trafficScale.bytesRatio(),
        trafficScale.sparseReductionSeconds);
    out += buf;
    std::snprintf(
        buf, sizeof(buf),
        "  \"sweep\": {\"bench\": \"%s\", \"cells\": %zu, "
        "\"jobs\": %d, \"serial_seconds\": %.3f, "
        "\"parallel_seconds\": %.3f, \"speedup\": %.2f, "
        "\"steals\": %lld, "
        "\"engine_builds\": %lld, \"engine_reuses\": %lld, "
        "\"rows_identical\": %s},\n",
        sweep.bench.c_str(), sweep.cells, sweep.jobs,
        sweep.serialSeconds, sweep.parallelSeconds, sweep.speedup(),
        static_cast<long long>(sweep.stats.steals),
        static_cast<long long>(sweep.stats.engineBuilds),
        static_cast<long long>(sweep.stats.engineReuses),
        sweep.rowsIdentical ? "true" : "false");
    out += buf;
    std::snprintf(
        buf, sizeof(buf),
        "  \"sweep_exec\": {\"bench\": \"%s\", \"devices\": %d, "
        "\"cells\": %zu, \"jobs\": %d, "
        "\"serial_seconds\": %.3f, "
        "\"construction_saving_per_cell_ms\": %.3f, "
        "\"rows_identical\": %s,\n    \"runs\": [\n",
        exec.bench.c_str(), exec.devices, exec.cells, exec.jobs,
        exec.serialSeconds, exec.constructionSavingPerCellMs,
        exec.rowsIdentical ? "true" : "false");
    out += buf;
    for (std::size_t i = 0; i < exec.runs.size(); ++i) {
        const ExecRun &run = exec.runs[i];
        std::string busy = "[";
        for (std::size_t w = 0; w < run.stats.workerBusySeconds.size();
             ++w) {
            std::snprintf(buf, sizeof(buf), "%s%.3f", w > 0 ? ", " : "",
                          run.stats.workerBusySeconds[w]);
            busy += buf;
        }
        busy += "]";
        std::snprintf(
            buf, sizeof(buf),
            "      {\"name\": \"%s\", \"seconds\": %.3f, "
            "\"warm_ms_per_cell\": %.3f, \"workers\": %d, "
            "\"steals\": %lld, "
            "\"engine_builds\": %lld, \"engine_reuses\": %lld, "
            "\"worker_busy_s\": %s, \"hw\": %s}%s\n",
            run.name.c_str(), run.seconds,
            run.warmSecondsPerCell * 1e3, run.stats.workers,
            static_cast<long long>(run.stats.steals),
            static_cast<long long>(run.stats.engineBuilds),
            static_cast<long long>(run.stats.engineReuses),
            busy.c_str(), hwJson(run.stats.hw).c_str(),
            i + 1 < exec.runs.size() ? "," : "");
        out += buf;
    }
    out += "    ]}\n";
    out += "}\n";
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    int iters = 300;
    const auto positionals = benchflags::positionals(argc, argv);
    if (positionals.size() > 1)
        fatal("perf_routing takes at most one positional (iterations)");
    if (!positionals.empty()) {
        iters = benchflags::positiveInt(positionals.front(),
                                        "perf_routing iteration count");
    }
    const std::string tracePath =
        benchflags::stringFlag(argc, argv, "--trace");
    const std::string statsPath =
        benchflags::stringFlag(argc, argv, "--stats");
    const int jobs = benchjobs::resolve(argc, argv);

    // Fig. 16-style serving workload: decode iterations over a drifting
    // scenario mixture, which keeps gating (and therefore the flow set)
    // changing every iteration.
    EngineConfig cfg;
    cfg.model = qwen3();
    cfg.schedule = SchedulingMode::DecodeOnly;
    cfg.decodeTokensPerGroup = 128;
    cfg.workload.mode = GatingMode::MixedScenario;
    cfg.workload.mixPeriod = 60;
    cfg.balancer = BalancerKind::TopologyAware;
    cfg.alpha = 0.5;
    cfg.beta = 5;

    std::vector<BenchResult> results;

    {
        // Multi-wafer mesh (fig13d-style): two 8x8 wafers, HER-Mapping.
        const MeshTopology mesh = MeshTopology::waferRow(2, 8);
        const HierarchicalErMapping her(mesh, ParallelismConfig{2, 4});
        results.push_back(
            runPlatform("wsc_2x(8x8)_her", mesh, her, cfg, iters));
    }
    {
        // Switch cluster (fig16 GPU baseline): 4-node DGX, TP=4.
        const SwitchClusterTopology dgx = SwitchClusterTopology::dgx(4);
        const ClusterMapping cm(dgx, 4);
        results.push_back(
            runPlatform("dgx_4node_tp4", dgx, cm, cfg, iters));
    }

    // Kilodevice scale point: per-walk cost on a 1024-device
    // multi-wafer mesh.
    const ScaleResult scale = runScaleBench();

    // Traffic-accumulator trajectory: dense vs sparse at 1024 devices
    // (throughput parity) and the sparse-only 16384-device point
    // (memory win).
    const TrafficResult traffic = runTrafficBench(cfg, iters);
    const TrafficScaleResult trafficScale = runTrafficScaleBench();

    // Parallel-sweep trajectory: serial vs thread-pooled wall-clock of
    // a fig16-style grid (the workload every converted fig driver now
    // runs through SweepRunner), plus the worker-state-reuse section
    // on the 1024-device grid.
    const SweepBenchResult sweep = runSweepBench(jobs);
    const ExecBenchResult exec = runExecBench(jobs);

    if (!tracePath.empty() || !statsPath.empty()) {
        // Short observed engine run on the multi-wafer mesh, outside
        // every timed region so observation cost never lands in the
        // reported numbers.
        MeshTopology mesh = MeshTopology::waferRow(2, 8);
        const HierarchicalErMapping her(mesh, ParallelismConfig{2, 4});
        InferenceEngine engine(her, cfg);
        StatRegistry stats;
        TraceSink trace;
        ObsHooks hooks;
        hooks.stats = &stats;
        if (!tracePath.empty())
            hooks.trace = &trace;
        engine.attachObs(hooks);
        engine.run(50);
        if (!tracePath.empty() && trace.writeFile(tracePath))
            std::printf("wrote %s\n", tracePath.c_str());
        if (!statsPath.empty()) {
            if (std::FILE *f = std::fopen(statsPath.c_str(), "w")) {
                const std::string statsJson = stats.toJson();
                std::fwrite(statsJson.data(), 1, statsJson.size(), f);
                std::fclose(f);
                std::printf("wrote %s\n", statsPath.c_str());
            } else {
                warn("could not write " + statsPath);
            }
        }
    }

    const std::string json =
        toJson(results, scale, sweep, exec, traffic, trafficScale);
    std::printf("\n%s", json.c_str());

    if (std::FILE *f = std::fopen("BENCH_routing.json", "w")) {
        std::fputs(json.c_str(), f);
        std::fclose(f);
        std::printf("wrote BENCH_routing.json\n");
    } else {
        std::fprintf(stderr, "could not write BENCH_routing.json\n");
        return 1;
    }
    return 0;
}
