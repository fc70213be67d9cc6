/**
 * @file
 * Fig. 6: all-to-all vs all-reduce latency as the WSC scales from one
 * 4×4 wafer to 4×(8×8) multi-wafer systems, for prefill and decode
 * token counts, under the baseline mapping.
 *
 * Expected shape: all-reduce stays nearly flat while all-to-all surges
 * with scale; the link-latency portion only matters for small decode
 * batches.
 *
 * Runs on the SweepRunner scale × token-count grid (`--jobs N`).
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
        fatal("fig06_comm_scaling takes no positional arguments");
    std::printf("== Fig. 6: all-to-all vs all-reduce across WSC "
                "scales ==\n\n");

    SweepGrid grid;
    const int scales[][2] = {{4, 1}, {6, 1}, {8, 1}, {6, 4}, {8, 4}};
    for (const auto &s : scales) {
        SystemConfig sc;
        sc.platform = PlatformKind::WscBaseline;
        sc.meshN = s[0];
        sc.wafers = s[1];
        sc.tp = 4;
        grid.systems.push_back(sc);
    }
    grid.params = {2048, 64}; // prefill / decode tokens per group

    const SweepRunner runner = benchjobs::makeRunner(argc, argv);
    const auto rows = runner.run(grid, [](const SweepCell &cell) {
        const int tokens = static_cast<int>(cell.point.parameter());
        const auto r = evaluateCommunication(
            cell.system->mapping(), deepseekV3(), tokens, true);

        SweepResult row;
        row.label = cell.system->topology().name() + " tokens=" +
            std::to_string(tokens);
        row.add("tokens", tokens);
        row.add("ar_us", r.allReduce * 1e6);
        row.add("a2a_us", r.allToAll() * 1e6);
        row.add("link_latency_us", r.a2aTraffic.maxPathLatency() * 1e6);
        return row;
    });

    for (std::size_t p = 0; p < grid.params.size(); ++p) {
        std::printf("-- %s (tokens/group = %d) --\n",
                    p == 0 ? "Prefill" : "Decode",
                    static_cast<int>(grid.params[p]));
        Table t({"scale", "all-reduce (us)", "all-to-all (us)",
                 "A2A/AR ratio", "link-latency part (us)"});
        for (std::size_t s = 0; s < grid.systems.size(); ++s) {
            const SweepResult &r = rows[grid.at(
                -1, static_cast<int>(s), -1, -1, -1, -1,
                static_cast<int>(p))];
            const std::string scale =
                r.label.substr(0, r.label.find(" tokens="));
            t.addRow({scale, Table::num(r.metric("ar_us"), 1),
                      Table::num(r.metric("a2a_us"), 1),
                      Table::num(r.metric("a2a_us") / r.metric("ar_us"),
                                 2),
                      Table::num(r.metric("link_latency_us"), 2)});
        }
        std::printf("%s\n", t.render().c_str());
    }
    benchout::writeSweepFiles("fig06_comm_scaling", rows);
    return 0;
}
