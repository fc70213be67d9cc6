/**
 * @file
 * Shared worker-count resolution for the bench drivers.
 *
 * Every driver honours the same convention:
 *   `--jobs N` argument (last occurrence wins) > `MOENTWINE_JOBS` env
 *   > the CPUs the process may run on
 * These helpers are the one place that convention is spelled, so a
 * driver's main() reduces to `benchjobs::makeRunner(argc, argv)` (or
 * `benchjobs::resolve(argc, argv)` when it needs the bare count).
 */

#ifndef MOENTWINE_BENCH_JOBS_HH
#define MOENTWINE_BENCH_JOBS_HH

#include "sweep/sweep_runner.hh"

namespace moentwine {
namespace benchjobs {

/** Resolved worker count for a driver's command line. */
inline int
resolve(int argc, char **argv)
{
    return SweepRunner::resolveJobs(
        SweepRunner::jobsFromArgs(argc, argv));
}

/** A SweepRunner sized by a driver's command line. */
inline SweepRunner
makeRunner(int argc, char **argv)
{
    return SweepRunner(SweepRunner::jobsFromArgs(argc, argv));
}

} // namespace benchjobs
} // namespace moentwine

#endif // MOENTWINE_BENCH_JOBS_HH
