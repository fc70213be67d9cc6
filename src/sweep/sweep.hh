/**
 * @file
 * Umbrella header of the parallel sweep subsystem: grid declaration
 * (sweep_grid.hh) and block-cursor parallel execution with per-worker
 * engine reuse (sweep_runner.hh, worker_context.hh). Bench drivers
 * include this and write:
 *
 * @code
 *   SweepGrid grid;
 *   grid.models = {qwen3(), deepseekV3()};
 *   grid.systems = {wscErCfg};
 *   grid.balancers = {BalancerKind::None, BalancerKind::NonInvasive};
 *
 *   const SweepRunner runner = benchjobs::makeRunner(argc, argv);
 *   const auto rows = runner.run(grid, [](const SweepCell &cell) {
 *       EngineConfig ec;
 *       ec.model = cell.point.modelConfig();
 *       ec.balancer = cell.point.balancerKind();
 *       InferenceEngine &engine =
 *           cell.worker->engine(cell.system->mapping(), ec);
 *       ...
 *       SweepResult row;
 *       row.label = cell.system->name();
 *       row.add("layer_us", layer.mean() * 1e6);
 *       return row;
 *   });
 * @endcode
 */

#ifndef MOENTWINE_SWEEP_SWEEP_HH
#define MOENTWINE_SWEEP_SWEEP_HH

#include "sweep/sweep_grid.hh"
#include "sweep/sweep_runner.hh"
#include "sweep/worker_context.hh"

#endif // MOENTWINE_SWEEP_SWEEP_HH
