/**
 * @file
 * Serving simulation: a production-style scenario mix (Chat / Coding /
 * Math / Privacy drifting over time) served on an 8×8 wafer with
 * DeepSeek-V3, comparing a static placement against the NI-Balancer
 * over 300 iterations. Prints a live trace every 25 iterations plus a
 * final summary — the Fig. 15/16 experiment as a runnable example.
 *
 * A second part serves an *online* bursty request stream through the
 * request-level simulator (src/serve/): continuous batching into a KV
 * budget, per-request TTFT/TPOT, and goodput under an SLO.
 *
 * Usage: serving_simulation [iterations]   (default 300)
 */

#include <cstdio>

#include "core/moentwine.hh"
#include "flags.hh"

using namespace moentwine;

namespace {

struct RunSummary
{
    double meanLayerUs;
    double meanLoadRatio;
    double exposedMigrationUs;
    int migrations;
};

RunSummary
serve(const System &sys, BalancerKind kind, int iters, bool verbose)
{
    EngineConfig ec;
    ec.model = deepseekV3();
    ec.schedule = SchedulingMode::Hybrid;
    ec.decodeTokensPerGroup = 128;
    ec.workload.mode = GatingMode::MixedScenario;
    ec.workload.mixPeriod = 120;
    ec.balancer = kind;
    ec.alpha = 0.5;
    ec.beta = 5;
    InferenceEngine engine(sys.mapping(), ec);

    Summary layer;
    Summary ratio;
    double exposed = 0.0;
    int migrations = 0;
    for (int it = 0; it < iters; ++it) {
        const auto s = engine.step();
        layer.add(s.layerTime(ec.pipelineStages));
        ratio.add(s.loadMax / s.loadAvg);
        exposed += s.migrationOverhead;
        migrations += s.migrationsPlanned;
        if (verbose && it % 25 == 0) {
            std::printf("  iter %3d: layer %7.1f us, load max/avg "
                        "%.2f, pending migrations %d\n",
                        it, s.layerTime(ec.pipelineStages) * 1e6,
                        s.loadMax / s.loadAvg, s.migrationsPending);
        }
    }
    return RunSummary{layer.mean() * 1e6, ratio.mean(), exposed * 1e6,
                      migrations};
}

} // namespace

int
main(int argc, char **argv)
{
    const int iters =
        argc > 1 ? benchflags::positiveInt(argv[1], "iterations") : 300;

    SystemConfig sc;
    sc.platform = PlatformKind::WscEr;
    sc.meshN = 8;
    sc.tp = 8;
    const System sys = System::make(sc);
    std::printf("serving DeepSeek-V3 on %s, mixed scenario, %d "
                "iterations\n\n",
                sys.name().c_str(), iters);

    std::printf("[static placement]\n");
    const auto none = serve(sys, BalancerKind::None, iters, true);
    std::printf("\n[NI-Balancer]\n");
    const auto ni = serve(sys, BalancerKind::NonInvasive, iters, true);

    std::printf("\nsummary:\n");
    Table t({"strategy", "mean layer (us)", "mean load max/avg",
             "exposed migration (us)", "migrations"});
    t.addRow({"static", Table::num(none.meanLayerUs, 1),
              Table::num(none.meanLoadRatio, 2),
              Table::num(none.exposedMigrationUs, 1),
              std::to_string(none.migrations)});
    t.addRow({"NI-Balancer", Table::num(ni.meanLayerUs, 1),
              Table::num(ni.meanLoadRatio, 2),
              Table::num(ni.exposedMigrationUs, 1),
              std::to_string(ni.migrations)});
    std::printf("%s", t.render().c_str());
    std::printf("\nNI-Balancer speedup: %+.1f%% with zero exposed "
                "migration time\n",
                (none.meanLayerUs / ni.meanLayerUs - 1.0) * 100.0);

    // --- Online request-level serving (src/serve/) --------------------
    std::printf("\n[request-level serving: bursty online stream]\n");
    Table st({"strategy", "TTFT p99 (ms)", "TPOT p99 (ms)",
              "goodput (req/s)", "SLO attainment"});
    for (const BalancerKind kind :
         {BalancerKind::None, BalancerKind::NonInvasive}) {
        ServeConfig scfg;
        scfg.engine.model = deepseekV3();
        scfg.engine.balancer = kind;
        scfg.engine.alpha = 0.5;
        scfg.engine.beta = 5;
        scfg.arrival.kind = ArrivalKind::Bursty;
        scfg.arrival.ratePerSec = 30.0;
        scfg.arrival.mixDriftPeriodSec = 4.0;
        scfg.numRequests = 80;
        scfg.slo.ttft = 0.5;
        scfg.slo.tpot = 0.05;
        ServeSimulator sim(sys.mapping(), scfg);
        const ServeReport r = sim.run();
        st.addRow({kind == BalancerKind::None ? "static"
                                              : "NI-Balancer",
                   Table::num(r.ttftP99 * 1e3, 1),
                   Table::num(r.tpotP99 * 1e3, 2),
                   Table::num(r.goodputRequestsPerSec, 1),
                   Table::num(r.sloAttainment * 100.0, 1) + "%"});
    }
    std::printf("%s", st.render().c_str());
    return 0;
}
