/**
 * @file
 * Fig. 13(c): ER-Mapping improvement over the baseline mapping across
 * WSC scales and TP degrees (Qwen3, 256 tokens per group).
 *
 * Expected shape: ER-Mapping always improves on the baseline; gains
 * vary with FTD geometry and peak at a sweet-spot TP per scale.
 *
 * Runs on the SweepRunner system grid (`--jobs N`): one system per
 * (scale, TP, mapping) case, built in parallel across workers.
 */

#include <cstdio>
#include <vector>

#include "core/moentwine.hh"
#include "sweep/sweep.hh"
#include "jobs.hh"
#include "sweep_output.hh"

using namespace moentwine;

namespace {

struct ScaleCase
{
    int meshN;
    std::vector<int> tps;
};

const std::vector<ScaleCase> &
scaleCases()
{
    static const std::vector<ScaleCase> kCases = {
        {4, {2, 4, 8}},
        {6, {2, 4, 6, 18}},
        {8, {2, 4, 8, 16}},
    };
    return kCases;
}

} // namespace

int
main(int argc, char **argv)
{
    if (!benchflags::positionals(argc, argv).empty())
        fatal("fig13c_scales takes no positional arguments");
    std::printf("== Fig. 13(c): scales and parallelism configurations "
                "(Qwen3) ==\n\n");

    // Systems axis: baseline/ER pairs, scale-major then TP.
    SweepGrid grid;
    for (const ScaleCase &c : scaleCases()) {
        for (const int tp : c.tps) {
            SystemConfig sc;
            sc.meshN = c.meshN;
            sc.tp = tp;
            sc.platform = PlatformKind::WscBaseline;
            grid.systems.push_back(sc);
            sc.platform = PlatformKind::WscEr;
            grid.systems.push_back(sc);
        }
    }

    const SweepRunner runner = benchjobs::makeRunner(argc, argv);
    const auto rows = runner.run(grid, [](const SweepCell &cell) {
        const auto r = evaluateCommunication(cell.system->mapping(),
                                             qwen3(), 256, true);
        SweepResult row;
        row.label = cell.system->name() + " TP=" +
            std::to_string(cell.system->config().tp);
        row.add("ar_us", r.allReduce * 1e6);
        row.add("a2a_us", r.allToAll() * 1e6);
        row.add("total_us", r.total() * 1e6);
        return row;
    });

    std::size_t s = 0;
    for (const ScaleCase &c : scaleCases()) {
        Table t({"TP", "base AR", "base A2A", "ER AR", "ER A2A",
                 "total improvement"});
        for (const int tp : c.tps) {
            const SweepResult &rb =
                rows[grid.at(-1, static_cast<int>(s++))];
            const SweepResult &re =
                rows[grid.at(-1, static_cast<int>(s++))];
            t.addRow({std::to_string(tp),
                      Table::num(rb.metric("ar_us"), 1),
                      Table::num(rb.metric("a2a_us"), 1),
                      Table::num(re.metric("ar_us"), 1),
                      Table::num(re.metric("a2a_us"), 1),
                      Table::pct(1.0 - re.metric("total_us") /
                                     rb.metric("total_us"))});
        }
        std::printf("-- %dx%d WSC --\n%s\n", c.meshN, c.meshN,
                    t.render().c_str());
    }
    benchout::writeSweepFiles("fig13c_scales", rows);
    return 0;
}
