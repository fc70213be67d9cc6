#include "sweep/sweep_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

#include "common/logging.hh"
#include "common/parse.hh"

namespace moentwine {

namespace {

double
secondsSince(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

SweepRunner::SweepRunner(int jobs)
{
    opts_.jobs = resolveJobs(jobs);
}

SweepRunner::SweepRunner(const SweepOptions &opts) : opts_(opts)
{
    opts_.jobs = resolveJobs(opts.jobs);
}

int
SweepRunner::resolveJobs(int requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("MOENTWINE_JOBS")) {
        const int fromEnv = parsePositiveInt(env);
        if (fromEnv <= 0)
            fatal("MOENTWINE_JOBS expects a positive integer (got '" +
                  std::string(env) + "')");
        return fromEnv;
    }
#if defined(__linux__)
    // hardware_concurrency() counts every CPU of the box; under
    // `taskset` or a container cpuset that oversubscribes the pool.
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0)
        return CPU_COUNT(&set);
#endif
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

std::vector<SweepResult>
SweepRunner::run(const SweepGrid &grid, const CellFn &fn,
                 SweepRunStats *stats) const
{
    const std::size_t cells = grid.cells();
    std::vector<SweepResult> rows(cells);
    if (stats)
        *stats = SweepRunStats{};
    if (cells == 0)
        return rows;

    const std::size_t workers =
        std::min(static_cast<std::size_t>(opts_.jobs), cells);

    // One System per (system, TP) axis pair, shared by every cell with
    // those coordinates and built by the first cell that needs it. The
    // config always comes from SweepPoint::systemConfig(), the single
    // source of truth for the TP-override rule.
    struct SystemSlot
    {
        std::once_flag once;
        std::shared_ptr<const System> system;
    };
    const std::size_t nTp =
        grid.tpDegrees.empty() ? 1 : grid.tpDegrees.size();
    std::vector<SystemSlot> slots(grid.systems.size() * nTp);
    const auto systemFor =
        [&](const SweepPoint &p) -> std::shared_ptr<const System> {
        if (p.system < 0)
            return nullptr;
        const std::size_t t =
            p.tp < 0 ? 0 : static_cast<std::size_t>(p.tp);
        SystemSlot &slot =
            slots[static_cast<std::size_t>(p.system) * nTp + t];
        std::call_once(slot.once, [&] {
            slot.system =
                std::make_shared<System>(System::make(p.systemConfig()));
        });
        return slot.system;
    };

    // Worker w's block of the grid, [w*cells/W, (w+1)*cells/W). Any
    // worker may claim from any block; the cursor only ever grows, so
    // each index below `end` is handed out exactly once and a block
    // found empty stays empty.
    struct Block
    {
        std::atomic<std::size_t> next{0};
        std::size_t end = 0;
    };
    std::vector<Block> blocks(workers);
    for (std::size_t w = 0; w < workers; ++w) {
        blocks[w].next.store(w * cells / workers,
                             std::memory_order_relaxed);
        blocks[w].end = (w + 1) * cells / workers;
    }

    std::atomic<bool> failed{false};
    std::exception_ptr firstError;
    std::mutex errorMutex;

    // Per-worker state and tallies; each worker touches only its own
    // entry, and the caller reads them after the join.
    struct Worker
    {
        WorkerContext ctx;
        std::int64_t cells = 0;
        std::int64_t steals = 0;
        double busySeconds = 0.0;
    };
    std::vector<Worker> pool(workers);

    // Worker w drains its own block, then the others in the order
    // w+1, w+2, ... (mod W). Rows are written at their grid index, so
    // the output order is independent of who ran what.
    const auto drain = [&](std::size_t w) {
        Worker &me = pool[w];
        for (std::size_t b = 0;
             b < workers && !failed.load(std::memory_order_relaxed); ++b) {
            Block &block = blocks[(w + b) % workers];
            while (!failed.load(std::memory_order_relaxed)) {
                const std::size_t i =
                    block.next.fetch_add(1, std::memory_order_relaxed);
                if (i >= block.end)
                    break;
                const auto t0 = std::chrono::steady_clock::now();
                try {
                    const SweepPoint point = grid.pointAt(i);
                    rows[i] = fn(SweepCell{point, systemFor(point),
                                           &me.ctx});
                    rows[i].index = i;
                } catch (...) {
                    std::lock_guard<std::mutex> lock(errorMutex);
                    if (!firstError)
                        firstError = std::current_exception();
                    failed.store(true, std::memory_order_relaxed);
                    break;
                }
                me.busySeconds += secondsSince(t0);
                ++me.cells;
                if (b > 0)
                    ++me.steals;
            }
        }
    };

    if (workers == 1) {
        drain(0);
    } else {
        std::vector<std::thread> threads;
        threads.reserve(workers);
        for (std::size_t w = 0; w < workers; ++w)
            threads.emplace_back(drain, w);
        for (std::thread &t : threads)
            t.join();
    }

    if (stats) {
        stats->workers = static_cast<int>(workers);
        for (const Worker &w : pool) {
            stats->cells += w.cells;
            stats->steals += w.steals;
            stats->engineBuilds += w.ctx.engineBuilds();
            stats->engineReuses += w.ctx.engineReuses();
            stats->workerItems.push_back(w.cells);
            stats->workerBusySeconds.push_back(w.busySeconds);
        }
    }
    if (firstError)
        std::rethrow_exception(firstError);
    return rows;
}

} // namespace moentwine
