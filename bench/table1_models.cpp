/**
 * @file
 * Table I: parameters of the evaluation MoE models.
 *
 * Trivially parallel, but running on the SweepRunner model grid keeps
 * every fig/table driver on the same `--jobs N` + SWEEP_<bench> row
 * convention (and gives the model table a machine-readable form).
 */

#include <cstdio>

#include "core/moentwine.hh"
#include "sweep/sweep.hh"
#include "jobs.hh"
#include "sweep_output.hh"

using namespace moentwine;

int
main(int argc, char **argv)
{
    if (!benchflags::positionals(argc, argv).empty())
        fatal("table1_models takes no positional arguments");
    std::printf("== Table I: Parameters of Evaluation MoE Models ==\n\n");

    SweepGrid grid;
    grid.models = allModels();

    const SweepRunner runner = benchjobs::makeRunner(argc, argv);
    const auto rows = runner.run(grid, [](const SweepCell &cell) {
        const MoEModelConfig &m = cell.point.modelConfig();
        SweepResult row;
        row.label = m.name;
        row.add("params_b", m.totalParams / 1e9);
        row.add("sparse_layers", m.sparseLayers);
        row.add("total_layers", m.totalLayers);
        row.add("expert_mb", m.expertBytes / units::MB);
        row.add("experts_activated", m.expertsActivated);
        row.add("experts_total", m.expertsTotal);
        row.add("hidden", m.hiddenSize);
        row.add("ed_ratio_ep256", m.edRatio(256));
        return row;
    });

    Table t({"Model", "Size", "Layers (sparse/total)",
             "Single Expert Size", "Experts (act/total)", "Hidden",
             "E/D at EP=256"});
    for (const SweepResult &r : rows) {
        t.addRow({r.label, Table::num(r.metric("params_b"), 0) + "B",
                  std::to_string(
                      static_cast<int>(r.metric("sparse_layers"))) +
                      " / " +
                      std::to_string(
                          static_cast<int>(r.metric("total_layers"))),
                  Table::num(r.metric("expert_mb"), 0) + "MB",
                  std::to_string(static_cast<int>(
                      r.metric("experts_activated"))) +
                      " / " +
                      std::to_string(static_cast<int>(
                          r.metric("experts_total"))),
                  std::to_string(static_cast<int>(r.metric("hidden"))),
                  Table::num(r.metric("ed_ratio_ep256"), 2)});
    }
    std::printf("%s\n", t.render().c_str());
    benchout::writeSweepFiles("table1_models", rows);
    return 0;
}
