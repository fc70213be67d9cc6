/**
 * @file
 * Shared worker-count parsing for the bench drivers.
 *
 * Every driver honours the same convention:
 *   `--jobs N` / `--jobs=N` argument (every occurrence validated, the
 *   last one wins) > `MOENTWINE_JOBS` env > the CPUs the process may
 *   run on
 * The argument is parsed here; SweepRunner::resolveJobs() applies the
 * rest. A driver's main() reduces to `benchjobs::makeRunner(argc,
 * argv)`.
 */

#ifndef MOENTWINE_BENCH_JOBS_HH
#define MOENTWINE_BENCH_JOBS_HH

#include "flags.hh"
#include "sweep/sweep_runner.hh"

namespace moentwine {
namespace benchjobs {

/**
 * The `--jobs` worker count of a command line; 0 when absent, so the
 * result feeds straight into the SweepRunner constructor. `bench
 * --jobs 8 --jobs 1` runs serial, while `bench --jobs 8 --jobs bogus`
 * still dies loudly.
 */
inline int
jobsFromArgs(int argc, char **argv)
{
    return benchflags::intFlag(argc, argv, "--jobs");
}

/** A SweepRunner sized by a driver's command line. */
inline SweepRunner
makeRunner(int argc, char **argv)
{
    return SweepRunner(jobsFromArgs(argc, argv));
}

} // namespace benchjobs
} // namespace moentwine

#endif // MOENTWINE_BENCH_JOBS_HH
