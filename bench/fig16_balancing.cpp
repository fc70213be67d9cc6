/**
 * @file
 * Fig. 16: impact of the balancing strategies across scheduling modes
 * (Prefill-only, Decode-only, Hybrid) and workloads (Math-only vs
 * Mixed) for Qwen3 and DeepSeek-V3.
 *
 * Expected shape: fixed scenarios stabilise quickly and need few
 * migrations; mixed scenarios migrate continuously. Invasive
 * migration overhead is far costlier for short decode iterations.
 * Topology-aware balancing shrinks the overhead; NI removes it and
 * achieves the best MoE computation and all-to-all latency.
 *
 * The full model × schedule × workload × strategy product runs on the
 * SweepRunner worker pool (`--jobs N`, MOENTWINE_JOBS, else the
 * CPUs the process may run on); one WSC system is
 * built once and shared read-only by every worker, and each worker
 * re-seeds its cached engine across cells instead of reconstructing
 * it (cell.worker->engine()) — rows stay byte-identical to `--jobs 1`
 * either way.
 *
 * With `--trace <path>` the finished sweep re-emits as a Chrome trace:
 * one span per cell, laid end-to-end in grid order on a synthetic
 * timeline (span length = mean layer time × measured iterations), with
 * the cell's metrics attached as span args — a quick visual ranking of
 * the strategies in Perfetto.
 */

#include <cstdio>
#include <string>

#include "core/moentwine.hh"
#include "obs/obs.hh"
#include "fig16_grid.hh"
#include "sweep/sweep.hh"
#include "flags.hh"
#include "jobs.hh"
#include "sweep_output.hh"

using namespace moentwine;

namespace {

const char *
kindName(BalancerKind kind)
{
    switch (kind) {
      case BalancerKind::None:
        return "None";
      case BalancerKind::Greedy:
        return "Greedy";
      case BalancerKind::TopologyAware:
        return "Topo-aware";
      case BalancerKind::NonInvasive:
        return "Non-invasive";
    }
    return "?";
}

const char *
scheduleName(SchedulingMode mode)
{
    switch (mode) {
      case SchedulingMode::PrefillOnly:
        return "Prefill-only";
      case SchedulingMode::DecodeOnly:
        return "Decode-only";
      case SchedulingMode::Hybrid:
        return "Hybrid";
    }
    return "?";
}

const char *
gatingName(GatingMode mode)
{
    return mode == GatingMode::SingleScenario ? "Math-only" : "Mixed";
}

} // namespace

int
main(int argc, char **argv)
{
    std::printf("== Fig. 16: balancing strategies across schedules and "
                "workloads ==\n\n");

    const SweepGrid grid = benchgrid::fig16BalancingGrid();

    const SweepRunner runner = benchjobs::makeRunner(argc, argv);
    const auto rows = runner.run(grid, [](const SweepCell &cell) {
        const EngineConfig ec = benchgrid::fig16EngineConfig(cell.point);
        InferenceEngine &engine =
            cell.worker->engine(cell.system->mapping(), ec);

        Summary a2a;
        Summary moe;
        Summary ratio;
        Summary layer;
        double migration = 0.0;
        const auto trace = engine.run(benchgrid::kFig16Iterations);
        for (std::size_t i = benchgrid::kFig16Warmup; i < trace.size();
             ++i) {
            const auto &s = trace[i];
            a2a.add(s.allToAll());
            moe.add(s.moeTime);
            ratio.add(s.loadMax / s.loadAvg);
            layer.add(s.layerTime(ec.pipelineStages));
            migration += s.migrationOverhead;
        }

        SweepResult row;
        row.label = ec.model.name + std::string(" | ") +
            scheduleName(ec.schedule) + " | " +
            gatingName(ec.workload.mode) + " | " +
            kindName(ec.balancer);
        row.add("a2a_us", a2a.mean() * 1e6);
        row.add("moe_us", moe.mean() * 1e6);
        row.add("migration_us",
                migration * 1e6 / benchgrid::kFig16Measured);
        row.add("load_ratio", ratio.mean());
        row.add("layer_us", layer.mean() * 1e6);
        return row;
    });

    for (std::size_t m = 0; m < grid.models.size(); ++m) {
        for (std::size_t s = 0; s < grid.schedules.size(); ++s) {
            for (std::size_t g = 0; g < grid.gatings.size(); ++g) {
                std::printf("-- %s | %s | %s --\n",
                            grid.models[m].name.c_str(),
                            scheduleName(grid.schedules[s]),
                            gatingName(grid.gatings[g]));
                Table t({"strategy", "A2A (us)", "MoE comp (us)",
                         "migration (us)", "load max/avg",
                         "layer time (us)"});
                for (std::size_t b = 0; b < grid.balancers.size(); ++b) {
                    const SweepResult &r = rows[grid.at(
                        static_cast<int>(m), 0, -1, static_cast<int>(b),
                        static_cast<int>(s), static_cast<int>(g))];
                    t.addRow({kindName(grid.balancers[b]),
                              Table::num(r.metric("a2a_us"), 1),
                              Table::num(r.metric("moe_us"), 1),
                              Table::num(r.metric("migration_us"), 2),
                              Table::num(r.metric("load_ratio"), 2),
                              Table::num(r.metric("layer_us"), 1)});
                }
                std::printf("%s\n", t.render().c_str());
            }
        }
    }
    const std::string tracePath =
        benchflags::stringFlag(argc, argv, "--trace");
    if (!tracePath.empty()) {
        // Post-sweep emission from the row vector (grid order), so the
        // trace is identical regardless of worker count.
        TraceSink trace;
        trace.processName(0, "fig16_balancing");
        trace.threadName(0, 0, "cells");
        double cursor = 0.0;
        for (const SweepResult &r : rows) {
            const double span = r.metric("layer_us") * 1e-6 *
                benchgrid::kFig16Measured;
            trace.span(0, 0, "cell", r.label, cursor, cursor + span,
                       {{"a2a_us", TraceSink::num(r.metric("a2a_us"))},
                        {"moe_us", TraceSink::num(r.metric("moe_us"))},
                        {"migration_us",
                         TraceSink::num(r.metric("migration_us"))},
                        {"load_ratio",
                         TraceSink::num(r.metric("load_ratio"))}});
            cursor += span;
        }
        if (trace.writeFile(tracePath))
            std::printf("wrote %s\n", tracePath.c_str());
    }

    benchout::writeSweepFiles("fig16_balancing", rows);
    return 0;
}
