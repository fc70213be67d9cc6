/**
 * @file
 * Fig. 15: run-time traces of device loads under the four balancing
 * strategies — none, greedy (EPLB-style), topology-aware
 * (Algorithm 1), and non-invasive topology-aware (NI-Balancer) —
 * on a 4×4 ER-mapped wafer serving Qwen3 with a mixed workload.
 *
 * Expected shape: no balancing leaves peak load ~2× the average;
 * greedy balances but interrupts inference with long migrations;
 * topology-aware shortens migrations; NI eliminates interruption
 * entirely while staying continuously active.
 *
 * Runs one strategy per SweepRunner cell (`--jobs N`), every cell on
 * one shared WSC system.
 */

#include <cstdio>

#include "core/moentwine.hh"
#include "sweep/sweep.hh"
#include "jobs.hh"
#include "sweep_output.hh"

using namespace moentwine;

namespace {

const char *
kindName(BalancerKind kind)
{
    switch (kind) {
      case BalancerKind::None:
        return "No balance";
      case BalancerKind::Greedy:
        return "Greedy (EPLB)";
      case BalancerKind::TopologyAware:
        return "Topology-aware";
      case BalancerKind::NonInvasive:
        return "Non-invasive";
    }
    return "?";
}

} // namespace

int
main(int argc, char **argv)
{
    if (!benchflags::positionals(argc, argv).empty())
        fatal("fig15_balancer_traces takes no positional arguments");
    std::printf("== Fig. 15: run-time load traces, 150 iterations "
                "(Qwen3, 4x4 WSC) ==\n\n");

    SweepGrid grid;
    {
        SystemConfig sc;
        sc.platform = PlatformKind::WscEr;
        sc.meshN = 4;
        sc.tp = 4;
        grid.systems = {sc};
    }
    grid.balancers = {BalancerKind::None, BalancerKind::Greedy,
                      BalancerKind::TopologyAware,
                      BalancerKind::NonInvasive};

    const SweepRunner runner = benchjobs::makeRunner(argc, argv);
    const auto rows = runner.run(grid, [](const SweepCell &cell) {
        EngineConfig ec;
        ec.model = qwen3();
        ec.decodeTokensPerGroup = 256;
        ec.workload.mode = GatingMode::MixedScenario;
        ec.workload.mixPeriod = 100;
        ec.balancer = cell.point.balancerKind();
        ec.alpha = 0.5;
        ec.beta = 5;
        InferenceEngine engine(cell.system->mapping(), ec);

        Summary ratio;
        Summary layer;
        double exposed = 0.0;
        int migrations = 0;
        int interruptions = 0;
        const auto traceVec = engine.run(150);
        for (std::size_t i = 0; i < traceVec.size(); ++i) {
            const auto &s = traceVec[i];
            if (i >= 50)
                ratio.add(s.loadMax / s.loadAvg);
            layer.add(s.layerTime(ec.pipelineStages));
            exposed += s.migrationOverhead;
            migrations += s.migrationsPlanned;
            interruptions += s.migrationOverhead > 0.0;
        }

        SweepResult row;
        row.label = kindName(ec.balancer);
        row.add("load_ratio_tail", ratio.mean());
        row.add("migrations", migrations);
        row.add("exposed_us", exposed * 1e6);
        row.add("interrupted_iters", interruptions);
        row.add("layer_us", layer.mean() * 1e6);
        return row;
    });

    Table t({"strategy", "peak/avg load (tail)", "migrations",
             "exposed migration (us)", "interrupted iters",
             "mean layer time (us)"});
    for (const SweepResult &r : rows) {
        t.addRow({r.label,
                  Table::num(r.metric("load_ratio_tail"), 2) + "x",
                  std::to_string(
                      static_cast<int>(r.metric("migrations"))),
                  Table::num(r.metric("exposed_us"), 1),
                  std::to_string(static_cast<int>(
                      r.metric("interrupted_iters"))),
                  Table::num(r.metric("layer_us"), 1)});
    }
    std::printf("%s\n", t.render().c_str());
    benchout::writeSweepFiles("fig15_balancer_traces", rows);
    return 0;
}
