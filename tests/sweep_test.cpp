/**
 * @file
 * Tests for the parallel sweep subsystem:
 *  - grid indexing: linear↔axis round trips, wildcard axes, cell
 *    counts, and the stability of per-cell seeds;
 *  - determinism: a real engine grid run with 4 workers produces rows
 *    bitwise-identical (labels and metric doubles) to a serial run, in
 *    identical order — with per-worker engine reuse and with more
 *    workers than CPUs alike;
 *  - the block-cursor scheduler: every cell runs exactly once under
 *    heavy contention, and a deliberately skewed grid (one slow cell)
 *    keeps every worker busy and records steals, without perturbing a
 *    single row;
 *  - the default job count follows the thread's CPU mask;
 *  - shared-system thread safety: engines sharing one
 *    shared_ptr<const System> (and, separately, one raw
 *    topology+mapping built outside System::make) across threads
 *    produce the same timelines as engines with private copies; under
 *    TSan this guards against lazy state returning to either.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "core/moentwine.hh"
#include "digest.hh"
#include "sweep/sweep.hh"
#include "watchdog.hh"

using namespace moentwine;

namespace {

/** Engine config of one grid cell (the fig16-style serving setup). */
EngineConfig
cellEngineConfig(const SweepPoint &p)
{
    EngineConfig ec;
    ec.model = p.modelConfig();
    ec.schedule = SchedulingMode::DecodeOnly;
    ec.decodeTokensPerGroup = 64;
    ec.workload.mode = GatingMode::MixedScenario;
    ec.workload.mixPeriod = 30;
    ec.workload.seed = p.seed();
    ec.balancer = p.balancerKind();
    ec.alpha = 0.5;
    ec.beta = 5;
    return ec;
}

/** Run a cell's engine and fold the full timeline into metrics. */
SweepResult
runCell(const SweepCell &cell)
{
    const EngineConfig ec = cellEngineConfig(cell.point);
    InferenceEngine engine(cell.system->mapping(), ec);
    double layer = 0.0;
    double a2a = 0.0;
    double migration = 0.0;
    for (const auto &s : engine.run(12)) {
        layer += s.layerTime(ec.pipelineStages);
        a2a += s.allToAll();
        migration += s.migrationOverhead;
    }
    SweepResult row;
    row.label = cell.system->name() + " #" +
        std::to_string(cell.point.index);
    row.add("layer_s", layer);
    row.add("a2a_s", a2a);
    row.add("migration_s", migration);
    return row;
}

/** As runCell, but through the worker's persistent engine pool. */
SweepResult
runCellReused(const SweepCell &cell)
{
    const EngineConfig ec = cellEngineConfig(cell.point);
    InferenceEngine &engine =
        cell.worker->engine(cell.system->mapping(), ec);
    double layer = 0.0;
    double a2a = 0.0;
    double migration = 0.0;
    for (const auto &s : engine.run(12)) {
        layer += s.layerTime(ec.pipelineStages);
        a2a += s.allToAll();
        migration += s.migrationOverhead;
    }
    SweepResult row;
    row.label = cell.system->name() + " #" +
        std::to_string(cell.point.index);
    row.add("layer_s", layer);
    row.add("a2a_s", a2a);
    row.add("migration_s", migration);
    return row;
}

/** The engine grid the determinism tests run. */
SweepGrid
engineGrid()
{
    SweepGrid grid;
    grid.models = {qwen3(), deepseekV3()};
    SystemConfig wsc;
    wsc.platform = PlatformKind::WscEr;
    wsc.meshN = 4;
    wsc.tp = 4;
    SystemConfig dgx;
    dgx.platform = PlatformKind::DgxCluster;
    dgx.dgxNodes = 2;
    dgx.tp = 4;
    grid.systems = {wsc, dgx};
    grid.balancers = {BalancerKind::None, BalancerKind::NonInvasive,
                      BalancerKind::TopologyAware};
    return grid;
}

/** Bitwise row equality: labels, metric keys, and metric doubles. */
void
expectRowsIdentical(const std::vector<SweepResult> &a,
                    const std::vector<SweepResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].index, b[i].index);
        EXPECT_EQ(a[i].label, b[i].label) << "row " << i;
        ASSERT_EQ(a[i].metrics.size(), b[i].metrics.size());
        for (std::size_t m = 0; m < a[i].metrics.size(); ++m) {
            EXPECT_EQ(a[i].metrics[m].first, b[i].metrics[m].first);
            // Bitwise, not approximate: parallel execution must not
            // perturb a single ULP of any cell's arithmetic.
            EXPECT_EQ(a[i].metrics[m].second, b[i].metrics[m].second)
                << "row " << i << " metric "
                << a[i].metrics[m].first;
        }
    }
}

} // namespace

// ------------------------------------------------------------- grid ----

TEST(SweepGridTest, CellCountIsAxisProductWithWildcards)
{
    SweepGrid grid;
    EXPECT_EQ(grid.cells(), 1u); // all axes wildcard
    grid.models = {qwen3(), deepseekV3()};
    grid.params = {1, 2, 3};
    EXPECT_EQ(grid.cells(), 6u);
    grid.balancers = {BalancerKind::None, BalancerKind::Greedy};
    EXPECT_EQ(grid.cells(), 12u);
}

TEST(SweepGridTest, PointAtInvertsAt)
{
    const SweepGrid grid = engineGrid();
    for (std::size_t i = 0; i < grid.cells(); ++i) {
        const SweepPoint p = grid.pointAt(i);
        EXPECT_EQ(p.index, i);
        EXPECT_EQ(grid.at(p.model, p.system, p.tp, p.balancer,
                          p.schedule, p.gating, p.param),
                  i);
        EXPECT_EQ(p.tp, -1);    // unswept axes report -1
        EXPECT_EQ(p.param, -1);
    }
}

TEST(SweepGridTest, RowMajorOrderParamsInnermost)
{
    SweepGrid grid;
    grid.models = {qwen3(), deepseekV3()};
    grid.params = {10, 20};
    const SweepPoint p0 = grid.pointAt(0);
    const SweepPoint p1 = grid.pointAt(1);
    const SweepPoint p2 = grid.pointAt(2);
    EXPECT_EQ(p0.model, 0);
    EXPECT_EQ(p0.param, 0);
    EXPECT_EQ(p1.model, 0);
    EXPECT_EQ(p1.param, 1); // params advance first
    EXPECT_EQ(p2.model, 1);
    EXPECT_EQ(p2.param, 0);
}

TEST(SweepGridTest, SeedsAreStableAndDistinct)
{
    const SweepGrid grid = engineGrid();
    std::set<uint64_t> seeds;
    for (std::size_t i = 0; i < grid.cells(); ++i) {
        const uint64_t s = grid.pointAt(i).seed();
        EXPECT_EQ(s, grid.pointAt(i).seed()) << "seed not stable";
        seeds.insert(s);
    }
    // FNV-1a over distinct coordinates: no collisions on a small grid.
    EXPECT_EQ(seeds.size(), grid.cells());
    // A different base seed shifts every cell's stream.
    EXPECT_NE(grid.pointAt(0).seed(1), grid.pointAt(0).seed(2));
}

TEST(SweepGridTest, TpAxisOverridesSystemConfig)
{
    SweepGrid grid;
    SystemConfig sc;
    sc.platform = PlatformKind::WscEr;
    sc.meshN = 4;
    sc.tp = 4;
    grid.systems = {sc};
    grid.tpDegrees = {2, 8};
    EXPECT_EQ(grid.pointAt(0).systemConfig().tp, 2);
    EXPECT_EQ(grid.pointAt(1).systemConfig().tp, 8);
    EXPECT_EQ(grid.pointAt(1).tpDegree(), 8);
}

// ----------------------------------------------------------- runner ----

TEST(SweepRunnerTest, ResolvePositiveRequestWins)
{
    EXPECT_EQ(SweepRunner::resolveJobs(5), 5);
    EXPECT_GE(SweepRunner::resolveJobs(0), 1);
}

#if defined(__linux__)
TEST(SweepRunnerTest, ResolveJobsHonoursCpuMask)
{
    // The default pool size is the CPUs this thread may run on, not
    // the box's: under `taskset -c 0` every driver must run one worker.
    const char *env = std::getenv("MOENTWINE_JOBS");
    const bool hadEnv = env != nullptr;
    const std::string savedEnv = hadEnv ? env : "";
    ASSERT_EQ(unsetenv("MOENTWINE_JOBS"), 0);
    cpu_set_t saved;
    CPU_ZERO(&saved);
    ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
    int first = 0;
    while (!CPU_ISSET(first, &saved))
        ++first;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    const int narrowed = SweepRunner::resolveJobs(0);
    ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
    const int restored = SweepRunner::resolveJobs(0);
    if (hadEnv) {
        ASSERT_EQ(setenv("MOENTWINE_JOBS", savedEnv.c_str(), 1), 0);
    }

    EXPECT_EQ(narrowed, 1);
    EXPECT_EQ(restored, CPU_COUNT(&saved));
}
#endif

TEST(SweepRunnerTest, EveryCellRunsExactlyOnce)
{
    // Identical rows cannot catch a cell that runs twice; a per-cell
    // counter can. 16 workers over ~1000 trivial cells keep the block
    // cursors contended, so most workers drain foreign blocks.
    SweepGrid grid;
    grid.params.resize(1009);
    for (std::size_t i = 0; i < grid.params.size(); ++i)
        grid.params[i] = static_cast<double>(i);
    const std::size_t cells = grid.cells();
    std::vector<std::atomic<int>> runs(cells);

    SweepRunStats stats;
    const auto rows = SweepRunner(16).run(
        grid,
        [&](const SweepCell &c) {
            runs[c.point.index].fetch_add(1, std::memory_order_relaxed);
            SweepResult row;
            row.add("p", c.point.parameter());
            return row;
        },
        &stats);

    ASSERT_EQ(rows.size(), cells);
    for (std::size_t i = 0; i < cells; ++i) {
        EXPECT_EQ(runs[i].load(), 1) << "cell " << i;
        EXPECT_EQ(rows[i].index, i);
        EXPECT_EQ(rows[i].metric("p"), static_cast<double>(i));
    }
    EXPECT_EQ(stats.workers, 16);
    EXPECT_EQ(stats.cells, static_cast<std::int64_t>(cells));
    std::int64_t items = 0;
    for (const std::int64_t n : stats.workerItems)
        items += n;
    EXPECT_EQ(items, static_cast<std::int64_t>(cells));
    EXPECT_LE(stats.steals, static_cast<std::int64_t>(cells));
}

TEST(SweepRunnerTest, ParallelRowsIdenticalToSerial)
{
    const SweepGrid grid = engineGrid();
    const SweepRunner serial(1);
    const SweepRunner parallel(4);
    const auto serialRows = serial.run(grid, runCell);
    const auto parallelRows = parallel.run(grid, runCell);
    ASSERT_EQ(serialRows.size(), grid.cells());
    expectRowsIdentical(serialRows, parallelRows);
    // Rows arrive in grid order regardless of completion order.
    for (std::size_t i = 0; i < serialRows.size(); ++i)
        EXPECT_EQ(parallelRows[i].index, i);
}

TEST(SweepRunnerTest, StealingUnderSkewKeepsAllWorkersBusy)
{
    // One cell takes ~250 ms while the other 31 take ~1 ms: the slow
    // cell's owner parks on it, and the stealing workers must drain
    // the rest of its block. Rows stay bitwise-identical to serial —
    // scheduling freedom never reaches the output.
    SweepGrid grid;
    grid.params.resize(32);
    for (std::size_t i = 0; i < grid.params.size(); ++i)
        grid.params[i] = static_cast<double>(i);

    const auto cell = [](const SweepCell &c) {
        std::this_thread::sleep_for(std::chrono::milliseconds(
            c.point.parameter() == 0.0 ? 250 : 1));
        SweepResult row;
        row.label = "p" + std::to_string(c.point.param);
        row.add("twice", c.point.parameter() * 2.0);
        return row;
    };

    const SweepRunner serial(1);
    const auto serialRows = serial.run(grid, cell);

    SweepOptions opts;
    opts.jobs = 4;
    SweepRunStats stats;
    const auto rows = SweepRunner(opts).run(grid, cell, &stats);

    expectRowsIdentical(serialRows, rows);
    EXPECT_EQ(stats.workers, 4);
    EXPECT_EQ(stats.cells, 32);
    // The slow cell holds worker 0 for ~250 ms while the other 7
    // cells of its block wait behind its cursor; the other workers
    // finish their ~8 ms blocks and must steal them.
    EXPECT_GE(stats.steals, 1);
    ASSERT_EQ(stats.workerItems.size(), 4u);
    for (int w = 0; w < 4; ++w)
        EXPECT_GE(stats.workerItems[static_cast<std::size_t>(w)], 1)
            << "worker " << w << " executed nothing";
}

TEST(SweepRunnerTest, EngineReuseBitwiseAgainstRebuild)
{
    // The determinism lynchpin of per-worker engine reuse: the same
    // grid through the worker's engine pool (reset-and-reuse), in
    // parallel and serially, must produce rows bitwise-identical to
    // the fresh-engine-per-cell reference — a reset engine is
    // indistinguishable from a fresh one.
    const SweepGrid grid = engineGrid();

    const SweepRunner serial(1);
    const auto serialRows = serial.run(grid, runCellReused);

    SweepRunStats reuseStats;
    const auto reusedRows =
        SweepRunner(4).run(grid, runCellReused, &reuseStats);

    expectRowsIdentical(serialRows, reusedRows);
    expectRowsIdentical(serialRows, serial.run(grid, runCell));

    // The reuse run actually reused: every cell beyond each worker's
    // first sighting of a platform resets instead of constructing.
    EXPECT_GT(reuseStats.engineReuses, 0);
    EXPECT_EQ(reuseStats.engineReuses + reuseStats.engineBuilds,
              static_cast<std::int64_t>(grid.cells()));
}

TEST(SweepRunnerTest, OversubscribedPoolMatchesSerial)
{
    // More workers than allowed CPUs: the sweep still completes with
    // rows bitwise-identical to serial.
    const SweepGrid grid = engineGrid();
    const SweepRunner serial(1);
    const auto serialRows = serial.run(grid, runCellReused);

    SweepRunStats stats;
    const auto rows =
        SweepRunner(2 * SweepRunner::resolveJobs(0))
            .run(grid, runCellReused, &stats);

    expectRowsIdentical(serialRows, rows);
    EXPECT_EQ(stats.cells, static_cast<std::int64_t>(grid.cells()));
}

TEST(SweepRunnerTest, RepeatedParallelRunsAreIdentical)
{
    const SweepGrid grid = engineGrid();
    const SweepRunner parallel(3);
    const auto first = parallel.run(grid, runCell);
    const auto second = parallel.run(grid, runCell);
    expectRowsIdentical(first, second);
}

TEST(SweepRunnerTest, CellExceptionPropagates)
{
    SweepGrid grid;
    grid.params = {0, 1, 2, 3};
    const SweepRunner runner(2);
    EXPECT_THROW(runner.run(grid,
                            [](const SweepCell &cell) -> SweepResult {
                                if (cell.point.parameter() >= 2)
                                    throw std::runtime_error("boom");
                                return SweepResult{};
                            }),
                 std::runtime_error);
}

TEST(SweepRunnerTest, FailureStopsClaimingAndRethrowsAfterJoin)
{
    // A large grid whose very first cell throws instantly while every
    // other cell sleeps: once the failure flag is up, workers must
    // stop claiming new cells, so only a handful of the 256 cells can
    // ever start. The first exception (in completion order) is
    // rethrown on the caller after the pool joins.
    SweepGrid grid;
    grid.params.resize(256);
    for (std::size_t i = 0; i < grid.params.size(); ++i)
        grid.params[i] = static_cast<double>(i);

    std::atomic<int> started{0};
    const SweepRunner runner(4);
    try {
        runner.run(grid, [&](const SweepCell &cell) -> SweepResult {
            started.fetch_add(1);
            if (cell.point.parameter() == 0.0)
                throw std::runtime_error("first cell exploded");
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            SweepResult row;
            row.label = "ok";
            return row;
        });
        FAIL() << "sweep with a throwing cell must rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "first cell exploded");
    }
    // 4 workers, failure on the first claimed cell: in-flight cells
    // finish but nothing new starts. Far below the 256-cell grid.
    EXPECT_LT(started.load(), 64);
}

TEST(SweepRunnerTest, ThrowingCellLeavesNoPartialRow)
{
    // A cell that adds metrics and then throws: its row must not leak
    // into any observable output — run() rethrows instead of
    // returning, and a later identical run with the failure patched
    // produces complete rows in every slot.
    SweepGrid grid;
    grid.params = {0, 1, 2};
    const SweepRunner runner(2);
    EXPECT_THROW(
        runner.run(grid,
                   [](const SweepCell &cell) -> SweepResult {
                       SweepResult row;
                       row.label = "half-written";
                       row.add("metric", 1.0);
                       if (cell.point.parameter() == 1.0)
                           throw std::runtime_error("mid-cell");
                       return row;
                   }),
        std::runtime_error);

    const auto rows =
        runner.run(grid, [](const SweepCell &cell) -> SweepResult {
            SweepResult row;
            row.label = "whole";
            row.add("metric", cell.point.parameter());
            return row;
        });
    ASSERT_EQ(rows.size(), 3u);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].label, "whole");
        EXPECT_EQ(rows[i].index, i);
        EXPECT_EQ(rows[i].metric("metric"), static_cast<double>(i));
    }
}

TEST(SweepRunnerJobsDeathTest, HalfParsedJobsEnvIsFatal)
{
    // The death-test child inherits the env var set here; resolve must
    // reject a half-parsable value loudly instead of atoi-truncating
    // it to 4 workers.
    ASSERT_EQ(setenv("MOENTWINE_JOBS", "4abc", 1), 0);
    EXPECT_EXIT(SweepRunner::resolveJobs(0),
                ::testing::ExitedWithCode(1), "positive integer");
    ASSERT_EQ(setenv("MOENTWINE_JOBS", "6", 1), 0);
    EXPECT_EQ(SweepRunner::resolveJobs(0), 6);
    // An explicit positive request bypasses the env entirely.
    ASSERT_EQ(setenv("MOENTWINE_JOBS", "garbage", 1), 0);
    EXPECT_EQ(SweepRunner::resolveJobs(3), 3);
    ASSERT_EQ(unsetenv("MOENTWINE_JOBS"), 0);
}

TEST(SweepGridTest, FaultAxisIsInnermostAndPreservesSeeds)
{
    SweepGrid grid;
    grid.models = {qwen3()};
    grid.arrivals = {ArrivalKind::Poisson, ArrivalKind::Bursty};

    // Seeds of the fault-free grid, before the axis exists.
    const uint64_t seed0 = grid.pointAt(0).seed();
    const uint64_t seed1 = grid.pointAt(1).seed();

    grid.faultScenarios = {FaultScenarioKind::None,
                           FaultScenarioKind::LinkCut,
                           FaultScenarioKind::Cascade};
    EXPECT_EQ(grid.cells(), 6u);

    const SweepPoint p0 = grid.pointAt(0);
    const SweepPoint p1 = grid.pointAt(1);
    const SweepPoint p3 = grid.pointAt(3);
    EXPECT_EQ(p0.fault, 0);
    EXPECT_EQ(p1.fault, 1); // fault advances first (innermost)
    EXPECT_EQ(p0.arrival, 0);
    EXPECT_EQ(p3.arrival, 1);
    EXPECT_EQ(p0.faultScenario(), FaultScenarioKind::None);
    EXPECT_EQ(p1.faultScenario(), FaultScenarioKind::LinkCut);
    EXPECT_EQ(grid.at(0, -1, -1, -1, -1, -1, -1, 1, 2), 5u);

    // Retro-compat: the fault axis only joins the seed hash when the
    // cell actually sweeps it, so pre-fault grids keep their streams.
    SweepGrid faultFree;
    faultFree.models = {qwen3()};
    faultFree.arrivals = {ArrivalKind::Poisson, ArrivalKind::Bursty};
    EXPECT_EQ(faultFree.pointAt(0).seed(), seed0);
    EXPECT_EQ(faultFree.pointAt(1).seed(), seed1);
    // And swept fault cells get distinct streams per scenario.
    EXPECT_NE(grid.pointAt(0).seed(), grid.pointAt(1).seed());
}

// ------------------------------------------------ pinned digests ----

namespace {

/**
 * Digest of every cell of @p grid: each pointAt(i)'s linear index and
 * 11 axis coordinates, then seed(42) and seed(0xF1EE7). Also checks
 * that at() maps every point's coordinates back to its index.
 */
std::uint64_t
gridDigest(const SweepGrid &grid)
{
    std::uint64_t h = digest::kOffset;
    for (std::size_t i = 0; i < grid.cells(); ++i) {
        const SweepPoint p = grid.pointAt(i);
        EXPECT_EQ(grid.at(p.model, p.system, p.tp, p.balancer, p.schedule,
                          p.gating, p.param, p.arrival, p.fault,
                          p.replicas, p.router),
                  i);
        digest::mix(h, p.index);
        for (const int c : {p.model, p.system, p.tp, p.balancer,
                            p.schedule, p.gating, p.param, p.arrival,
                            p.fault, p.replicas, p.router})
            digest::mixInt(h, c);
        digest::mix(h, p.seed(42));
        digest::mix(h, p.seed(0xF1EE7));
    }
    return h;
}

/** A grid sweeping the first eight axes, each of length 2 or 3. */
SweepGrid
eightAxisGrid()
{
    SweepGrid grid;
    grid.models = {qwen3(), deepseekV3(), qwen3()};
    grid.systems = {SystemConfig{}, SystemConfig{}};
    grid.tpDegrees = {1, 4};
    grid.balancers = {BalancerKind::None, BalancerKind::Greedy,
                      BalancerKind::NonInvasive};
    grid.schedules = {SchedulingMode::DecodeOnly, SchedulingMode::Hybrid};
    grid.gatings = {GatingMode::Balanced, GatingMode::MixedScenario};
    grid.params = {0.5, 1.0, 2.0};
    grid.arrivals = {ArrivalKind::Poisson, ArrivalKind::Bursty};
    return grid;
}

} // namespace

TEST(SweepDigest, AllElevenAxes)
{
    SweepGrid grid = eightAxisGrid();
    grid.faultScenarios = {FaultScenarioKind::None,
                           FaultScenarioKind::Cascade};
    grid.replicaCounts = {1, 2, 4};
    grid.routers = {RouterPolicy::RoundRobin, RouterPolicy::PowerOfTwo};
    ASSERT_EQ(grid.cells(), 10368u);
    EXPECT_EQ(gridDigest(grid), 0x563a2b230a780646ULL);
}

TEST(SweepDigest, FirstEightAxes)
{
    const SweepGrid grid = eightAxisGrid();
    ASSERT_EQ(grid.cells(), 864u);
    EXPECT_EQ(gridDigest(grid), 0x9864a70003462fc3ULL);
}

// ------------------------------------------- shared-system safety ----

TEST(SweepSharedSystemTest, SharedSystemMatchesPrivateCopies)
{
    SystemConfig sc;
    sc.platform = PlatformKind::WscHer;
    sc.meshN = 4;
    sc.wafers = 2;
    sc.tp = 4;
    const auto shared =
        std::make_shared<const System>(System::make(sc));

    EngineConfig ec;
    ec.model = qwen3();
    ec.decodeTokensPerGroup = 64;
    ec.workload.mode = GatingMode::MixedScenario;
    ec.workload.mixPeriod = 30;
    ec.balancer = BalancerKind::NonInvasive;
    ec.alpha = 0.5;
    ec.beta = 5;

    // Reference timelines from engines on private System copies.
    constexpr int kThreads = 4;
    constexpr int kIters = 10;
    std::vector<std::vector<IterationStats>> expected(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        EngineConfig mine = ec;
        mine.workload.seed = 1000 + static_cast<uint64_t>(t);
        const System priv = System::make(sc);
        expected[static_cast<std::size_t>(t)] =
            InferenceEngine(priv.mapping(), mine).run(kIters);
    }

    // Same engines, all sharing one const System across threads.
    std::vector<std::vector<IterationStats>> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            EngineConfig mine = ec;
            mine.workload.seed = 1000 + static_cast<uint64_t>(t);
            got[static_cast<std::size_t>(t)] =
                InferenceEngine(shared->mapping(), mine).run(kIters);
        });
    }
    for (auto &thread : threads)
        thread.join();

    for (int t = 0; t < kThreads; ++t) {
        const auto &e = expected[static_cast<std::size_t>(t)];
        const auto &g = got[static_cast<std::size_t>(t)];
        ASSERT_EQ(e.size(), g.size());
        for (std::size_t i = 0; i < e.size(); ++i) {
            EXPECT_EQ(e[i].allReduce, g[i].allReduce);
            EXPECT_EQ(e[i].dispatch, g[i].dispatch);
            EXPECT_EQ(e[i].combine, g[i].combine);
            EXPECT_EQ(e[i].moeTime, g[i].moeTime);
            EXPECT_EQ(e[i].migrationOverhead, g[i].migrationOverhead);
            EXPECT_EQ(e[i].loadMax, g[i].loadMax);
            EXPECT_EQ(e[i].migrationsCompleted,
                      g[i].migrationsCompleted);
        }
    }
}

TEST(SweepSharedSystemTest, ConcurrentFirstUseOfLazyCachesIsSafe)
{
    // Raw topology + mapping, not built through System::make: engines
    // on several threads share one const mapping and walk its routes
    // and dispatch rules concurrently. Neither holds lazy state, so
    // under TSan this guards against any coming back.
    const MeshTopology mesh = MeshTopology::waferRow(2, 4);
    const ErMapping er(mesh, ParallelismConfig{2, 2});

    EngineConfig ec;
    ec.model = qwen3();
    ec.decodeTokensPerGroup = 32;
    ec.workload.mode = GatingMode::MixedScenario;

    constexpr int kThreads = 4;
    std::vector<std::vector<IterationStats>> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            got[static_cast<std::size_t>(t)] =
                InferenceEngine(er, ec).run(6);
        });
    }
    for (auto &thread : threads)
        thread.join();

    // Identical configs on identical mappings: every thread must see
    // the exact same timeline.
    for (int t = 1; t < kThreads; ++t) {
        const auto &a = got[0];
        const auto &b = got[static_cast<std::size_t>(t)];
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].allReduce, b[i].allReduce);
            EXPECT_EQ(a[i].dispatch, b[i].dispatch);
            EXPECT_EQ(a[i].combine, b[i].combine);
            EXPECT_EQ(a[i].moeTime, b[i].moeTime);
        }
    }
}
