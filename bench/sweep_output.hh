/**
 * @file
 * Shared machine-readable row emitter for the sweep-based fig drivers.
 *
 * Every converted driver renders its human tables to stdout and then
 * writes the underlying SweepResult rows as
 *   SWEEP_<bench>.json  — {"schema", "bench", "rows": [...]}
 *   SWEEP_<bench>.csv   — index,label,<metric keys...>
 * next to the binary. The emitted bytes are a pure function of the
 * rows (no job count, no wall-clock), so files from a parallel run are
 * byte-identical to a `--jobs 1` run — the property the sweep tests
 * and CI smoke pin down.
 */

#ifndef MOENTWINE_BENCH_SWEEP_OUTPUT_HH
#define MOENTWINE_BENCH_SWEEP_OUTPUT_HH

#include <string>
#include <vector>

#include "obs/obs.hh"
#include "sweep/sweep.hh"

namespace moentwine {
namespace benchout {

/** JSON document for one sweep's rows (deterministic bytes). */
std::string sweepJson(const std::string &bench,
                      const std::vector<SweepResult> &rows);

/**
 * CSV for one sweep's rows: header from the first row's metric keys;
 * every row must carry the same keys in the same order.
 */
std::string sweepCsv(const std::vector<SweepResult> &rows);

/**
 * Write SWEEP_<bench>.json and SWEEP_<bench>.csv into the working
 * directory and report the paths on stdout. Returns false (after a
 * warning) when a file cannot be written.
 */
bool writeSweepFiles(const std::string &bench,
                     const std::vector<SweepResult> &rows);

/**
 * Write a driver's `--trace` / `--stats` outputs: @p trace to
 * @p tracePath, and @p cellStats merged in grid order to
 * @p statsPath. An empty path skips its file. Each written path is
 * reported on stdout; a file that cannot be written only warns.
 */
void writeObsFiles(const std::string &tracePath, const TraceSink &trace,
                   const std::string &statsPath,
                   const std::vector<StatRegistry> &cellStats);

} // namespace benchout
} // namespace moentwine

#endif // MOENTWINE_BENCH_SWEEP_OUTPUT_HH
