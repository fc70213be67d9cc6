/**
 * @file
 * Fig. 14(b): justifying the retention of the all-gather half of the
 * attention all-reduce. Retaining AG doubles the (small) all-reduce
 * but shortens token-fetch distances in the subsequent all-to-all.
 *
 * Expected shape: "with AG" wins on total communication for every
 * many-expert model (paper: ~17% average).
 *
 * Runs on the SweepRunner model × retain-AG grid (`--jobs N`).
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
        fatal("fig14b_allgather takes no positional arguments");
    std::printf("== Fig. 14(b): retaining the all-gather ==\n\n");

    SweepGrid grid;
    grid.models = allModels();
    {
        SystemConfig sc;
        sc.platform = PlatformKind::WscEr;
        sc.meshN = 6;
        sc.tp = 4;
        grid.systems = {sc};
    }
    grid.params = {0, 1}; // retain all-gather?

    const SweepRunner runner = benchjobs::makeRunner(argc, argv);
    const auto rows = runner.run(grid, [](const SweepCell &cell) {
        const bool withAg = cell.point.parameter() != 0;
        const auto r = evaluateCommunication(
            cell.system->mapping(), cell.point.modelConfig(), 256,
            withAg);
        SweepResult row;
        row.label = cell.point.modelConfig().name +
            (withAg ? " with AG" : " w/o AG");
        row.add("ar_us", r.allReduce * 1e6);
        row.add("a2a_us", r.allToAll() * 1e6);
        row.add("total_us", r.total() * 1e6);
        return row;
    });

    Table t({"model", "AR w/o AG", "AR with AG", "A2A w/o AG",
             "A2A with AG", "total w/o", "total with", "AG benefit"});
    for (std::size_t m = 0; m < grid.models.size(); ++m) {
        const SweepResult &without =
            rows[grid.at(static_cast<int>(m), 0, -1, -1, -1, -1, 0)];
        const SweepResult &with =
            rows[grid.at(static_cast<int>(m), 0, -1, -1, -1, -1, 1)];
        t.addRow({grid.models[m].name,
                  Table::num(without.metric("ar_us"), 1),
                  Table::num(with.metric("ar_us"), 1),
                  Table::num(without.metric("a2a_us"), 1),
                  Table::num(with.metric("a2a_us"), 1),
                  Table::num(without.metric("total_us"), 1),
                  Table::num(with.metric("total_us"), 1),
                  Table::pct(1.0 - with.metric("total_us") /
                                 without.metric("total_us"))});
    }
    std::printf("%s\n(latencies in us per sparse layer, 6x6 WSC + "
                "ER-Mapping)\n",
                t.render().c_str());
    benchout::writeSweepFiles("fig14b_allgather", rows);
    return 0;
}
