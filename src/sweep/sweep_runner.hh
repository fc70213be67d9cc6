/**
 * @file
 * Parallel grid execution for the figure sweeps.
 *
 * SweepRunner executes every cell of a SweepGrid on a pool of
 * workers, each draining a per-worker work-stealing deque
 * (work_deque.hh): a worker owns a contiguous block of the grid and
 * pops it LIFO; a worker that runs dry steals FIFO from its victims
 * in the deterministic order (w+1, w+2, ...) mod workers. Because the
 * system axis is outer in the grid's row-major order, contiguous
 * blocks keep same-platform cells on one worker — which is what makes
 * the per-worker engine reuse (worker_context.hh) hit.
 *
 * Determinism contract (unchanged since PR 2, re-pinned by
 * tests/sweep_test.cpp and the CI byte-compares, now with stealing,
 * reuse, and affinity in play):
 *  - the result vector is indexed by grid order, so rows come back in
 *    the same order regardless of which worker finished first or who
 *    stole what;
 *  - each cell derives all randomness from SweepPoint::seed() and the
 *    worker context hands out engines bitwise identical to freshly
 *    constructed ones, so a cell's row is a pure function of its
 *    coordinates and `--jobs N` output is byte-identical to
 *    `--jobs 1` under every scheduling/affinity/reuse setting.
 *
 * Systems (topology + mapping) are built once per (system, TP) axis
 * pair and NUMA node — eagerly via stealable prebuild items seeded
 * across the deques (so a grid whose first cells share one platform
 * does not serialize its warm-up), with a per-slot once-guard
 * backstop for cells that outrun their prebuild — finalized (no lazy
 * caches), and handed to cells as shared_ptr<const System>. With
 * affinity enabled on a multi-socket box (or with
 * SweepOptions::numaNodesOverride forcing replication), each NUMA
 * node gets its own System replica, built by a thread pinned to that
 * node so first-touch places the hot read-only tables (topology links,
 * dispatch memos, expert placements) node-locally. The
 * replica build is deterministic, so rows never depend on it.
 *
 * Job-count convention, used by every converted bench driver:
 *   --jobs N argument (last occurrence wins) > MOENTWINE_JOBS env >
 *   hardware_concurrency().
 * Affinity convention: --affinity flag > MOENTWINE_AFFINITY env
 * ("1"/"0") > off. Drivers apply both through bench/jobs.hh
 * (benchjobs::makeRunner) rather than spelling the chains themselves.
 */

#ifndef MOENTWINE_SWEEP_SWEEP_RUNNER_HH
#define MOENTWINE_SWEEP_SWEEP_RUNNER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "obs/hw_counters.hh"
#include "sweep/sweep_grid.hh"
#include "sweep/worker_context.hh"

namespace moentwine {

class StatRegistry;

/** One unit of work handed to a sweep cell function. */
struct SweepCell
{
    /** Grid coordinates and axis values of this cell. */
    SweepPoint point;
    /**
     * Prebuilt system for the cell's (system, TP) coordinates — the
     * executing worker's NUMA-node replica when replication is
     * active, the single shared instance otherwise; null when the
     * grid does not sweep systems (cells that need no platform, or
     * drivers managing their own shared systems).
     */
    std::shared_ptr<const System> system;
    /**
     * The executing worker's persistent context (never null): engine
     * pool for same-platform reuse, worker id, placement info. Cells
     * that build their own state may ignore it.
     */
    WorkerContext *worker = nullptr;
};

/** Execution knobs of a sweep run (scheduling/placement only — none
 *  of these may change a row; see the determinism contract above). */
struct SweepOptions
{
    /** Worker count; 0 resolves MOENTWINE_JOBS then hardware. */
    int jobs = 0;
    /** Work-stealing deques (false: the PR 2 atomic-cursor drain). */
    bool stealing = true;
    /** Per-worker engine reuse across same-platform cells (false:
     *  WorkerContext::engine rebuilds per cell — the baseline the
     *  perf trajectory compares against). */
    bool reuseWorkerState = true;
    /** Pin worker w to allowed CPU w mod |allowed| (graceful no-op
     *  where pinning is refused). */
    bool affinity = false;
    /**
     * Force the NUMA replication degree: 0 detects (replicating only
     * when affinity is on and the box has > 1 node; workers then map
     * to the node of their pinned CPU). A positive value forces that
     * many replicas with workers assigned round-robin — the
     * single-socket test/bench hook for the replication path.
     */
    int numaNodesOverride = 0;
    /** Sum per-worker hardware counters (obs/hw_counters.hh) over
     *  the drain loops into SweepRunStats::hw. */
    bool collectHw = false;
};

/**
 * What a sweep run did, scheduler-side: steal/reuse/prebuild counters
 * and per-worker busy time. Wall-clock and scheduling dependent —
 * report it in BENCH trajectories and diagnostics, never in golden
 * row outputs (steal counts legitimately differ run to run; rows may
 * not).
 */
struct SweepRunStats
{
    /** Workers the run actually used (min(jobs, cells)). */
    int workers = 0;
    /** NUMA replication degree in effect (1 = single copy). */
    int numaNodes = 1;
    /** Options echo: how the run was scheduled. */
    bool stealing = false;
    bool affinity = false;
    bool reuse = false;
    /** Cell items executed (== grid cells on success). */
    std::int64_t cells = 0;
    /** Prebuild items executed. */
    std::int64_t prebuilds = 0;
    /** Items executed by a worker that stole them. */
    std::int64_t steals = 0;
    /** The subset of steals that were prebuild items. */
    std::int64_t prebuildSteals = 0;
    /** Workers whose pin request was honoured. */
    int pinned = 0;
    /** Engine pool misses (constructions) across workers. */
    std::int64_t engineBuilds = 0;
    /** Engine pool hits (reset-and-reuse) across workers. */
    std::int64_t engineReuses = 0;
    /** Per-worker executed item counts (indexed by worker id). */
    std::vector<std::int64_t> workerItems;
    /** Per-worker stolen-item counts. */
    std::vector<std::int64_t> workerSteals;
    /** Per-worker busy seconds (sum of item execution times). */
    std::vector<double> workerBusySeconds;
    /** Summed per-worker hardware counters (collectHw runs only;
     *  available is false when any PMU group failed to open). */
    HwCounterValues hw{};

    /** Mean of workerBusySeconds (0 when empty). */
    double busyMeanSeconds() const;

    /**
     * Publish the counters under "sweep." into @p registry
     * (sweep.cells, sweep.steals, sweep.prebuilds,
     * sweep.prebuild_steals, sweep.engine.builds,
     * sweep.engine.reuses, sweep.workers / sweep.numa_nodes gauges,
     * sweep.worker.busy_s / sweep.worker.items distributions).
     */
    void publishTo(StatRegistry &registry) const;
};

/**
 * Work-stealing worker pool over sweep grids.
 */
class SweepRunner
{
  public:
    /** Computes one result row from one cell; must be thread-safe. */
    using CellFn = std::function<SweepResult(const SweepCell &)>;

    /**
     * @param jobs Worker count; 0 resolves MOENTWINE_JOBS, then
     *             hardware_concurrency() (see resolveJobs()).
     */
    explicit SweepRunner(int jobs = 0);

    /** Full-options constructor (opts.jobs resolved as above). */
    explicit SweepRunner(const SweepOptions &opts);

    /** The resolved worker count. */
    int jobs() const { return jobs_; }

    /** The options this runner executes with (jobs resolved). */
    const SweepOptions &options() const { return opts_; }

    /**
     * Execute every cell of @p grid through @p fn and return the rows
     * in grid order. With jobs() == 1 the cells run inline on the
     * calling thread in grid order — the serial reference the
     * parallel output is byte-identical to (the calling thread is
     * never pinned; affinity applies to pool workers only). A cell
     * that throws aborts the sweep: workers stop claiming items and
     * the first exception (in completion order) is rethrown on the
     * caller after the pool drains. When @p stats is non-null it is
     * overwritten with the run's scheduler counters.
     */
    std::vector<SweepResult> run(const SweepGrid &grid, const CellFn &fn,
                                 SweepRunStats *stats = nullptr) const;

    /**
     * Resolve a requested job count: @p requested when positive, else
     * the MOENTWINE_JOBS environment variable when set (anything but a
     * strict positive integer is fatal() — a half-parsed "4abc" must
     * not silently size the pool), else
     * std::thread::hardware_concurrency() (min 1).
     */
    static int resolveJobs(int requested);

    /**
     * Parse `--jobs N` / `--jobs=N` out of argv. Every occurrence is
     * validated (a malformed value is fatal() wherever it appears);
     * the LAST occurrence wins, the normal CLI override convention —
     * `bench --jobs 8 --jobs 1` runs serial. Returns 0 when absent,
     * so the result feeds straight into the constructor.
     */
    static int jobsFromArgs(int argc, char **argv);

    /**
     * Resolve the affinity knob: true when `--affinity` appears in
     * argv, else the MOENTWINE_AFFINITY environment variable ("1" on,
     * "0" off, anything else fatal()), else false.
     */
    static bool affinityFromArgs(int argc, char **argv);

  private:
    SweepOptions opts_;
    int jobs_;
};

} // namespace moentwine

#endif // MOENTWINE_SWEEP_SWEEP_RUNNER_HH
