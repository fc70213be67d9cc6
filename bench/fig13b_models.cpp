/**
 * @file
 * Fig. 13(b): per-model communication latency of a 4-node DGX, a 6×6
 * WSC under the baseline mapping, and the same wafer under ER-Mapping
 * (256 tokens per group, balanced gating).
 *
 * Expected shape: WSC beats DGX on every model (~50%+); ER-Mapping
 * adds a further win that grows with the number of activated experts,
 * and may lose on Mixtral (2 activated experts, all-reduce-heavy).
 *
 * Runs on the SweepRunner model × platform grid (`--jobs N`); the
 * three systems are built once and shared read-only across workers.
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
        fatal("fig13b_models takes no positional arguments");
    std::printf("== Fig. 13(b): communication latency across models "
                "==\n\n");
    const int tokens = 256;

    SweepGrid grid;
    grid.models = allModels();
    {
        SystemConfig sc;
        sc.platform = PlatformKind::DgxCluster;
        sc.dgxNodes = 4;
        sc.tp = 4;
        grid.systems.push_back(sc); // 0: GPU baseline
        sc.platform = PlatformKind::WscBaseline;
        sc.meshN = 6;
        grid.systems.push_back(sc); // 1: WSC baseline mapping
        sc.platform = PlatformKind::WscEr;
        grid.systems.push_back(sc); // 2: WSC ER-Mapping
    }

    const SweepRunner runner = benchjobs::makeRunner(argc, argv);
    const auto rows = runner.run(grid, [&](const SweepCell &cell) {
        const MoEModelConfig &model = cell.point.modelConfig();
        const auto comm = evaluateCommunication(
            cell.system->mapping(), model, tokens, true);

        SweepResult row;
        row.label = model.name + " | " + cell.system->name();
        row.add("ar_us", comm.allReduce * 1e6);
        row.add("dispatch_us", comm.dispatch * 1e6);
        row.add("combine_us", comm.combine * 1e6);
        row.add("total_us", comm.total() * 1e6);
        return row;
    });

    Table t({"model", "GPU AR", "GPU A2A", "WSC AR", "WSC A2A",
             "ER AR", "ER A2A", "WSC vs GPU", "ER vs WSC"});
    for (std::size_t m = 0; m < grid.models.size(); ++m) {
        const SweepResult &g = rows[grid.at(static_cast<int>(m), 0)];
        const SweepResult &w = rows[grid.at(static_cast<int>(m), 1)];
        const SweepResult &e = rows[grid.at(static_cast<int>(m), 2)];
        const auto a2aOf = [](const SweepResult &r) {
            return r.metric("dispatch_us") + r.metric("combine_us");
        };
        t.addRow({grid.models[m].name, Table::num(g.metric("ar_us"), 1),
                  Table::num(a2aOf(g), 1),
                  Table::num(w.metric("ar_us"), 1),
                  Table::num(a2aOf(w), 1),
                  Table::num(e.metric("ar_us"), 1),
                  Table::num(a2aOf(e), 1),
                  Table::pct(1.0 -
                             w.metric("total_us") / g.metric("total_us")),
                  Table::pct(1.0 - e.metric("total_us") /
                                 w.metric("total_us"))});
    }
    std::printf("%s", t.render().c_str());
    std::printf("\n(latencies in us per sparse layer)\n");
    benchout::writeSweepFiles("fig13b_models", rows);
    return 0;
}
