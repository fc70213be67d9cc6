/**
 * @file
 * Fig. 13(a): communication improvement of the WSC (with and without
 * ER-Mapping) over DGX clusters as the per-group token count grows
 * from 16 to 32k.
 *
 * Expected shape: the advantage rises with token count and saturates
 * beyond ~256 tokens per group, with ER-Mapping extending it further.
 *
 * Runs on the SweepRunner system × token-count grid (`--jobs N`);
 * the six platforms are built once and shared across workers.
 */

#include <cstdio>

#include "core/moentwine.hh"
#include "sweep/sweep.hh"
#include "jobs.hh"
#include "sweep_output.hh"

using namespace moentwine;

namespace {

/** Platform order in the systems axis. */
enum Platform
{
    kDgx4,
    kDgx8,
    kWsc6,
    kEr6,
    kWsc8,
    kEr8,
};

} // namespace

int
main(int argc, char **argv)
{
    if (!benchflags::positionals(argc, argv).empty())
        fatal("fig13a_token_count takes no positional arguments");
    std::printf("== Fig. 13(a): impact of token count (Qwen3) ==\n\n");

    SweepGrid grid;
    {
        SystemConfig sc;
        sc.platform = PlatformKind::DgxCluster;
        sc.tp = 4;
        sc.dgxNodes = 4;
        grid.systems.push_back(sc); // kDgx4
        sc.dgxNodes = 8;
        grid.systems.push_back(sc); // kDgx8
        sc.platform = PlatformKind::WscBaseline;
        sc.meshN = 6;
        grid.systems.push_back(sc); // kWsc6
        sc.platform = PlatformKind::WscEr;
        grid.systems.push_back(sc); // kEr6
        sc.platform = PlatformKind::WscBaseline;
        sc.meshN = 8;
        grid.systems.push_back(sc); // kWsc8
        sc.platform = PlatformKind::WscEr;
        grid.systems.push_back(sc); // kEr8
    }
    grid.params = {16,   32,   64,   128,  256,  512,
                   1024, 2048, 4096, 8192, 16384, 32768};

    const SweepRunner runner = benchjobs::makeRunner(argc, argv);
    const auto rows = runner.run(grid, [](const SweepCell &cell) {
        const int tokens = static_cast<int>(cell.point.parameter());
        SweepResult row;
        row.label = cell.system->name() + " tokens=" +
            std::to_string(tokens);
        row.add("tokens", tokens);
        row.add("comm_total_us",
                evaluateCommunication(cell.system->mapping(), qwen3(),
                                      tokens, true)
                        .total() *
                    1e6);
        return row;
    });

    Table t({"tokens/group", "6x6 vs 32 GPUs", "6x6+ER vs 32 GPUs",
             "8x8 vs 64 GPUs", "8x8+ER vs 64 GPUs"});
    for (std::size_t p = 0; p < grid.params.size(); ++p) {
        const auto total = [&](int system) {
            return rows[grid.at(-1, system, -1, -1, -1, -1,
                                static_cast<int>(p))]
                .metric("comm_total_us");
        };
        t.addRow({std::to_string(static_cast<int>(grid.params[p])),
                  Table::pct(1.0 - total(kWsc6) / total(kDgx4)),
                  Table::pct(1.0 - total(kEr6) / total(kDgx4)),
                  Table::pct(1.0 - total(kWsc8) / total(kDgx8)),
                  Table::pct(1.0 - total(kEr8) / total(kDgx8))});
    }
    std::printf("%s\n", t.render().c_str());
    benchout::writeSweepFiles("fig13a_token_count", rows);
    return 0;
}
