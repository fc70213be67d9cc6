/**
 * @file
 * The Fig. 16 balancing grid (model × strategy × schedule × workload
 * on a 4×4 WSC under ER-Mapping) that the fig16_balancing driver runs.
 * perfbench's paper_grid workload keeps its own copy of this grid
 * (perfbench/workloads.cc), so the benchmark stays fixed when the
 * figure changes.
 */

#ifndef MOENTWINE_BENCH_FIG16_GRID_HH
#define MOENTWINE_BENCH_FIG16_GRID_HH

#include "sweep/sweep.hh"

namespace moentwine {
namespace benchgrid {

/** The Fig. 16 sweep grid (48 cells). */
SweepGrid fig16BalancingGrid();

/**
 * Engine configuration of one Fig. 16 cell, including the per-cell
 * workload seed derived from the cell's grid coordinates (the
 * parallel-determinism convention).
 */
EngineConfig fig16EngineConfig(const SweepPoint &point);

/** Iterations each Fig. 16 cell simulates (warm-up included). */
constexpr int kFig16Iterations = 80;

/** Leading iterations excluded from the figure's statistics. */
constexpr int kFig16Warmup = 20;

/** Iterations contributing to the figure's statistics. */
constexpr int kFig16Measured = kFig16Iterations - kFig16Warmup;

} // namespace benchgrid
} // namespace moentwine

#endif // MOENTWINE_BENCH_FIG16_GRID_HH
