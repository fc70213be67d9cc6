/**
 * @file
 * Fig. 4: the EP degree each cluster can reach and the corresponding
 * per-device MoE performance, split into computation and memory-access
 * time. Each device serves its own decode batch (per-device routed
 * tokens constant), so growing EP shrinks only the weight-streaming
 * term — the E/D effect.
 *
 * Expected shape: the memory-access share falls monotonically with EP;
 * per-device performance improves from DGX (EP 8-32) through NVL72
 * (EP 72) to the WSC (EP 256).
 *
 * Runs on the SweepRunner model × EP grid (`--jobs N`).
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
        fatal("fig04_ep_scaling takes no positional arguments");
    std::printf("== Fig. 4: EP scaling and per-device MoE "
                "performance ==\n\n");

    SweepGrid grid;
    grid.models = {deepseekV3(), qwen3()};
    grid.params = {8, 16, 32, 72, 256}; // EP degrees

    const SweepRunner runner = benchjobs::makeRunner(argc, argv);
    const auto rows = runner.run(grid, [](const SweepCell &cell) {
        const MoEModelConfig &model = cell.point.modelConfig();
        const int ep = static_cast<int>(cell.point.parameter());
        const CostModel cost;
        const double tokensPerDevice = 256.0 * model.expertsActivated;
        const double expertsPerDevice =
            static_cast<double>(model.expertsTotal) / ep;
        const auto c =
            cost.moeDevice(model, tokensPerDevice, expertsPerDevice);

        SweepResult row;
        row.label = model.name + " EP=" + std::to_string(ep);
        row.add("ep", ep);
        row.add("compute_us", c.computeTime * 1e6);
        row.add("memory_us", c.memoryTime * 1e6);
        return row;
    });

    for (std::size_t m = 0; m < grid.models.size(); ++m) {
        std::printf("-- %s --\n", grid.models[m].name.c_str());
        Table t({"EP", "platform", "compute (us)", "memory (us)",
                 "memory share", "perf vs EP=8"});
        const auto totalOf = [](const SweepResult &r) {
            return r.metric("compute_us") + r.metric("memory_us");
        };
        const double baseline = totalOf(rows[grid.at(
            static_cast<int>(m), -1, -1, -1, -1, -1, 0)]);
        for (std::size_t p = 0; p < grid.params.size(); ++p) {
            const SweepResult &r = rows[grid.at(
                static_cast<int>(m), -1, -1, -1, -1, -1,
                static_cast<int>(p))];
            const int ep = static_cast<int>(r.metric("ep"));
            const char *platform = ep <= 32 ? "DGX"
                : ep <= 72                  ? "NVL72"
                                            : "WSC";
            t.addRow({std::to_string(ep), platform,
                      Table::num(r.metric("compute_us"), 1),
                      Table::num(r.metric("memory_us"), 1),
                      Table::num(r.metric("memory_us") / totalOf(r) *
                                     100.0,
                                 1) +
                          "%",
                      Table::pct(baseline / totalOf(r) - 1.0)});
        }
        std::printf("%s\n", t.render().c_str());
    }
    benchout::writeSweepFiles("fig04_ep_scaling", rows);
    return 0;
}
