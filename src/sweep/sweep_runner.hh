/**
 * @file
 * Parallel grid execution for the figure sweeps.
 *
 * SweepRunner executes every cell of a SweepGrid on a pool of W
 * workers with one claim primitive, a per-worker block cursor: worker
 * w owns the contiguous grid block [w*cells/W, (w+1)*cells/W) and
 * claims its cells with a relaxed fetch_add on the block's cursor.
 * When its own block runs dry it drains blocks w+1, w+2, ... (mod W)
 * the same way; a claim from another worker's block counts as a
 * steal. Blocks only shrink, so one pass over all of them ends a
 * worker. `--jobs 1` runs the same loop inline on the calling thread.
 * Because the system axis sits outside every axis but the model in
 * the grid's row-major order, contiguous blocks keep same-platform
 * cells on one worker, which is what makes the per-worker engine
 * reuse (worker_context.hh) hit.
 *
 * Determinism contract (pinned by tests/sweep_test.cpp and the CI
 * byte-compares):
 *  - the result vector is indexed by grid order, so rows come back in
 *    the same order regardless of which worker finished first or who
 *    stole what;
 *  - each cell derives all randomness from SweepPoint::seed() and the
 *    worker context hands out engines bitwise identical to freshly
 *    constructed ones, so a cell's row is a pure function of its
 *    coordinates and `--jobs N` output is byte-identical to
 *    `--jobs 1`.
 *
 * Systems (topology + mapping) are built once per (system, TP) axis
 * pair, under a call_once by the first cell that needs them, and
 * handed to cells as shared_ptr<const System>.
 *
 * Job-count convention, used by every bench driver through
 * bench/jobs.hh:
 *   --jobs N argument (last occurrence wins) > MOENTWINE_JOBS env >
 *   the CPUs this thread may run on.
 */

#ifndef MOENTWINE_SWEEP_SWEEP_RUNNER_HH
#define MOENTWINE_SWEEP_SWEEP_RUNNER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

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
     * The shared system for the cell's (system, TP) coordinates; null
     * when the grid does not sweep systems (cells that need no
     * platform, or drivers managing their own shared systems).
     */
    std::shared_ptr<const System> system;
    /**
     * The executing worker's persistent context (never null): the
     * engine pool for same-platform reuse. Cells that build their own
     * state may ignore it.
     */
    WorkerContext *worker = nullptr;
};

/** Execution knobs of a sweep run; none may change a row (see the
 *  determinism contract above). */
struct SweepOptions
{
    /** Worker count; 0 resolves as resolveJobs() says. */
    int jobs = 0;
};

/**
 * What a sweep run did, scheduler-side: steal/reuse counters and
 * per-worker busy time. Wall-clock and scheduling dependent — report
 * it in BENCH trajectories and diagnostics, never in golden row
 * outputs (steal counts legitimately differ run to run; rows may
 * not).
 */
struct SweepRunStats
{
    /** Workers the run actually used (min(jobs, cells)). */
    int workers = 0;
    /** Cells executed (== grid cells on success). */
    std::int64_t cells = 0;
    /** Cells claimed from another worker's block. */
    std::int64_t steals = 0;
    /** Engine pool misses (constructions) across workers. */
    std::int64_t engineBuilds = 0;
    /** Engine pool hits (reset-and-reuse) across workers. */
    std::int64_t engineReuses = 0;
    /** Per-worker executed cell counts (indexed by worker id). */
    std::vector<std::int64_t> workerItems;
    /** Per-worker busy seconds (sum of cell execution times). */
    std::vector<double> workerBusySeconds;

    /**
     * Publish the counters under "sweep." into @p registry
     * (sweep.cells, sweep.steals, sweep.engine.builds,
     * sweep.engine.reuses, the sweep.workers gauge, and the
     * sweep.worker.busy_s / sweep.worker.items distributions).
     */
    void publishTo(StatRegistry &registry) const;
};

/**
 * Worker pool over sweep grids.
 */
class SweepRunner
{
  public:
    /** Computes one result row from one cell; must be thread-safe. */
    using CellFn = std::function<SweepResult(const SweepCell &)>;

    /** @param jobs Worker count; 0 resolves as resolveJobs() says. */
    explicit SweepRunner(int jobs = 0);

    /** Full-options constructor (opts.jobs resolved as above). */
    explicit SweepRunner(const SweepOptions &opts);

    /** The resolved worker count. */
    int jobs() const { return opts_.jobs; }

    /** The options this runner executes with (jobs resolved). */
    const SweepOptions &options() const { return opts_; }

    /**
     * Execute every cell of @p grid through @p fn and return the rows
     * in grid order. With jobs() == 1 the claim loop runs inline on
     * the calling thread and visits the cells in grid order — the
     * serial reference the parallel output is byte-identical to. A
     * cell that throws aborts the sweep: workers stop claiming cells
     * and the first exception (in completion order) is rethrown on
     * the caller after the pool drains. When @p stats is non-null it
     * is overwritten with the run's scheduler counters.
     */
    std::vector<SweepResult> run(const SweepGrid &grid, const CellFn &fn,
                                 SweepRunStats *stats = nullptr) const;

    /**
     * Resolve a requested job count: @p requested when positive, else
     * the MOENTWINE_JOBS environment variable when set (anything but a
     * strict positive integer is fatal() — a half-parsed "4abc" must
     * not silently size the pool), else the number of CPUs the
     * calling thread may run on (its sched_getaffinity mask on Linux,
     * so `taskset -c 0` gives 1; hardware_concurrency() elsewhere;
     * min 1).
     */
    static int resolveJobs(int requested);

  private:
    SweepOptions opts_;
};

} // namespace moentwine

#endif // MOENTWINE_SWEEP_SWEEP_RUNNER_HH
