/**
 * @file
 * Fig. 14(a): ESP (Expert Sharding Parallelism) for the large-expert
 * models DBRX and Mixtral — 32 GPUs vs a 6×6 WSC (baseline and
 * ER-Mapping). Under ESP the token all-to-all disappears; latency is
 * dominated by the EP-group all-reduce of expert partial sums.
 *
 * Expected shape: WSC beats the GPU cluster by ~50%; ER-Mapping still
 * helps, but only modestly (~9%), because the EP all-reduce dominates.
 *
 * Runs on the SweepRunner model × system grid (`--jobs N`).
 */

#include <cstdio>

#include "core/moentwine.hh"
#include "sweep/sweep.hh"
#include "jobs.hh"
#include "sweep_output.hh"

using namespace moentwine;

namespace {

enum Platform
{
    kGpu,
    kWsc,
    kEr,
};

} // namespace

int
main(int argc, char **argv)
{
    if (!benchflags::positionals(argc, argv).empty())
        fatal("fig14a_esp takes no positional arguments");
    std::printf("== Fig. 14(a): ESP parallelism (DBRX, Mixtral) "
                "==\n\n");

    SweepGrid grid;
    grid.models = {dbrx(), mixtral8x22b()};
    {
        SystemConfig sc;
        sc.platform = PlatformKind::DgxCluster;
        sc.dgxNodes = 4;
        sc.tp = 4;
        grid.systems.push_back(sc); // kGpu
        sc.platform = PlatformKind::WscBaseline;
        sc.meshN = 6;
        grid.systems.push_back(sc); // kWsc
        sc.platform = PlatformKind::WscEr;
        grid.systems.push_back(sc); // kEr
    }

    const SweepRunner runner = benchjobs::makeRunner(argc, argv);
    const auto rows = runner.run(grid, [](const SweepCell &cell) {
        EngineConfig ec;
        ec.model = cell.point.modelConfig();
        ec.esp = true;
        ec.decodeTokensPerGroup = 256;
        ec.workload.mode = GatingMode::Balanced;
        InferenceEngine engine(cell.system->mapping(), ec);
        const auto s = engine.step();

        SweepResult row;
        row.label = ec.model.name + " | " + cell.system->name();
        row.add("attn_ar_us", s.allReduce * 1e6);
        row.add("ep_ar_us", s.epAllReduce * 1e6);
        row.add("moe_us", s.moeTime * 1e6);
        return row;
    });

    Table t({"model", "GPU attn-AR", "GPU EP-AR", "WSC attn-AR",
             "WSC EP-AR", "ER attn-AR", "ER EP-AR", "MoE comp",
             "WSC vs GPU", "ER vs WSC"});
    for (std::size_t m = 0; m < grid.models.size(); ++m) {
        const auto rowOf = [&](int system) -> const SweepResult & {
            return rows[grid.at(static_cast<int>(m), system)];
        };
        const auto totalOf = [&](int system) {
            return rowOf(system).metric("attn_ar_us") +
                rowOf(system).metric("ep_ar_us");
        };
        t.addRow({grid.models[m].name,
                  Table::num(rowOf(kGpu).metric("attn_ar_us"), 1),
                  Table::num(rowOf(kGpu).metric("ep_ar_us"), 1),
                  Table::num(rowOf(kWsc).metric("attn_ar_us"), 1),
                  Table::num(rowOf(kWsc).metric("ep_ar_us"), 1),
                  Table::num(rowOf(kEr).metric("attn_ar_us"), 1),
                  Table::num(rowOf(kEr).metric("ep_ar_us"), 1),
                  Table::num(rowOf(kEr).metric("moe_us"), 1),
                  Table::pct(1.0 - totalOf(kWsc) / totalOf(kGpu)),
                  Table::pct(1.0 - totalOf(kEr) / totalOf(kWsc))});
    }
    std::printf("%s\n(latencies in us per sparse layer)\n",
                t.render().c_str());
    benchout::writeSweepFiles("fig14a_esp", rows);
    return 0;
}
