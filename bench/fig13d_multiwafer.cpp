/**
 * @file
 * Fig. 13(d): Hierarchical ER-Mapping on multi-WSC systems — the
 * baseline mapping, flat ER-Mapping, and HER-Mapping compared across
 * 4×(4×4), 4×(6×6), and 4×(8×8) systems and TP degrees (Qwen3).
 *
 * Expected shape: flat ER gains vary (entwined rings spanning wafers
 * get expensive), while HER improves consistently in every case, up to
 * ~60%+.
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
        {4, {4, 8, 16}},
        {6, {4, 6, 36}},
        {8, {4, 8, 16, 32}},
    };
    return kCases;
}

constexpr PlatformKind kMappings[] = {PlatformKind::WscBaseline,
                                      PlatformKind::WscEr,
                                      PlatformKind::WscHer};

} // namespace

int
main(int argc, char **argv)
{
    if (!benchflags::positionals(argc, argv).empty())
        fatal("fig13d_multiwafer takes no positional arguments");
    std::printf("== Fig. 13(d): multi-wafer systems and HER-Mapping "
                "(Qwen3) ==\n\n");

    // Systems axis: (baseline, ER, HER) triples, scale-major then TP.
    SweepGrid grid;
    for (const ScaleCase &c : scaleCases()) {
        for (const int tp : c.tps) {
            for (const PlatformKind mapping : kMappings) {
                SystemConfig sc;
                sc.meshN = c.meshN;
                sc.wafers = 4;
                sc.tp = tp;
                sc.platform = mapping;
                grid.systems.push_back(sc);
            }
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
        Table t({"TP", "baseline total", "ER total", "HER total",
                 "HER AR", "HER A2A", "ER vs base", "HER vs base"});
        for (const int tp : c.tps) {
            const SweepResult &rb =
                rows[grid.at(-1, static_cast<int>(s++))];
            const SweepResult &re =
                rows[grid.at(-1, static_cast<int>(s++))];
            const SweepResult &rh =
                rows[grid.at(-1, static_cast<int>(s++))];
            t.addRow({std::to_string(tp),
                      Table::num(rb.metric("total_us"), 1),
                      Table::num(re.metric("total_us"), 1),
                      Table::num(rh.metric("total_us"), 1),
                      Table::num(rh.metric("ar_us"), 1),
                      Table::num(rh.metric("a2a_us"), 1),
                      Table::pct(1.0 - re.metric("total_us") /
                                     rb.metric("total_us")),
                      Table::pct(1.0 - rh.metric("total_us") /
                                     rb.metric("total_us"))});
        }
        std::printf("-- 4x(%dx%d) WSC --\n%s\n", c.meshN, c.meshN,
                    t.render().c_str());
    }
    benchout::writeSweepFiles("fig13d_multiwafer", rows);
    return 0;
}
