/**
 * @file
 * Fault/SLO bench: the serving simulator under injected faults, swept
 * over fault scenario × balancer × arrival burstiness on a 4×4
 * ER-mapped WSC serving Qwen3.
 *
 * Every cell of one (arrival) column serves the identical seeded
 * request stream — the fault axis never perturbs the stream seed — so
 * goodput and tail-latency deltas are attributable to the injected
 * fault and the degraded-operation response (reroute, retry, shedding),
 * never to different traffic. Rows land in SWEEP_fault_slo.{json,csv},
 * byte-identical between `--jobs 1` and `--jobs N`.
 *
 * Observability:
 *   --trace <path>  Chrome trace-event JSON of the representative
 *                   worst-case cell (Cascade × Bursty × Non-invasive):
 *                   request lifecycle spans interleaved with fault
 *                   instants, loadable in Perfetto.
 *   --stats <path>  merged StatRegistry JSON over all cells (per-cell
 *                   registries merged in grid order — byte-identical
 *                   across `--jobs 1` and `--jobs N`).
 *
 * Usage: fault_slo [requests] [--jobs N] [--trace P] [--stats P]
 *        (default 96 requests)
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "core/moentwine.hh"
#include "fault/fault.hh"
#include "obs/obs.hh"
#include "sweep/sweep.hh"
#include "flags.hh"
#include "jobs.hh"
#include "sweep_output.hh"

using namespace moentwine;

namespace {

/**
 * Stream seed of a cell: a function of the arrival axis only, so every
 * (balancer, fault) pair of one arrival column serves the exact same
 * request stream.
 */
uint64_t
streamSeed(const SweepPoint &p)
{
    return 0xFA017514EEDULL ^ (static_cast<uint64_t>(p.arrival + 1) << 32);
}

/** Serving configuration of one cell (the fault plan is added later —
 *  it needs the cell's topology). */
ServeConfig
cellConfig(const SweepPoint &p, int requests)
{
    ServeConfig sc;
    sc.engine.model = qwen3();
    sc.engine.workload.seed = streamSeed(p);
    sc.engine.balancer = p.balancerKind();
    sc.engine.alpha = 0.5;
    sc.engine.beta = 5;
    sc.arrival.kind = p.arrivalKind();
    sc.arrival.ratePerSec = 150.0;
    sc.arrival.mixDriftPeriodSec = 4.0;
    sc.arrival.promptMeanTokens = 256;
    sc.arrival.promptMaxTokens = 2048;
    sc.arrival.outputMeanTokens = 48;
    sc.arrival.outputMaxTokens = 256;
    sc.arrival.seed = streamSeed(p);
    sc.scheduler.kvBudgetTokens = 16384;
    sc.scheduler.maxRunningRequests = 32;
    sc.scheduler.prefillChunkTokens = 512;
    sc.slo.ttft = 0.05;
    sc.slo.tpot = 0.005;
    sc.numRequests = requests;
    return sc;
}

} // namespace

int
main(int argc, char **argv)
{
    int requests = 96;
    const auto positionals = benchflags::positionals(argc, argv);
    if (positionals.size() > 1)
        fatal("fault_slo takes at most one positional (requests)");
    if (!positionals.empty()) {
        requests = benchflags::positiveInt(positionals.front(),
                                           "fault_slo request count");
    }
    const std::string tracePath =
        benchflags::stringFlag(argc, argv, "--trace");
    const std::string statsPath =
        benchflags::stringFlag(argc, argv, "--stats");

    std::printf("== Fault/SLO: scenario × balancer × arrival "
                "(Qwen3, 4x4 WSC+ER, %d requests) ==\n\n",
                requests);

    SweepGrid grid;
    SystemConfig wsc;
    wsc.platform = PlatformKind::WscEr;
    wsc.meshN = 4;
    wsc.tp = 4;
    grid.systems = {wsc};
    grid.balancers = {BalancerKind::None, BalancerKind::NonInvasive};
    grid.arrivals = {ArrivalKind::Poisson, ArrivalKind::Bursty};
    grid.faultScenarios = {
        FaultScenarioKind::None,      FaultScenarioKind::DegradedLinks,
        FaultScenarioKind::LinkCut,   FaultScenarioKind::Straggler,
        FaultScenarioKind::NodeLoss,  FaultScenarioKind::Cascade};

    // Faults land once the batch is saturated, so lost devices carry
    // resident requests (retries) and the queue feels the capacity cut
    // (shedding) even on short smoke runs.
    FaultScenarioSpec spec;
    spec.startIteration = 40;
    spec.spacing = 25;

    // Per-cell stat registries, written by grid index (each worker
    // touches only its own slots) and merged in grid order afterwards,
    // so --stats output is byte-identical across worker counts. The
    // trace sink attaches to exactly one cell — the representative
    // worst case (Cascade × Bursty × Non-invasive) — so at most one
    // worker emits into it.
    std::vector<StatRegistry> cellStats(grid.cells());
    TraceSink trace;
    const auto isTracedCell = [&](const SweepPoint &p) {
        return !tracePath.empty() &&
            p.faultScenario() == FaultScenarioKind::Cascade &&
            p.arrivalKind() == ArrivalKind::Bursty &&
            p.balancerKind() == BalancerKind::NonInvasive;
    };

    const SweepRunner runner = benchjobs::makeRunner(argc, argv);
    const auto rows = runner.run(grid, [&](const SweepCell &cell) {
        ServeConfig sc = cellConfig(cell.point, requests);
        sc.faults = makeFaultScenario(cell.point.faultScenario(),
                                      cell.system->mapping().topology(),
                                      spec);
        ServeSimulator sim(cell.system->mapping(), sc);
        if (isTracedCell(cell.point))
            sim.setTrace(&trace);
        const ServeReport r = sim.run();
        cellStats[cell.point.index] = sim.stats();

        SweepResult row;
        row.label = faultScenarioName(cell.point.faultScenario()) +
            " | " + arrivalKindName(cell.point.arrivalKind()) + " | " +
            balancerKindName(cell.point.balancerKind());
        row.add("goodput_rps", r.goodputRequestsPerSec);
        row.add("throughput_tps", r.throughputTokensPerSec);
        row.add("ttft_p99_ms", r.ttftP99 * 1e3);
        row.add("tpot_p99_ms", r.tpotP99 * 1e3);
        row.add("latency_p99_ms", r.latencyP99 * 1e3);
        row.add("slo_attainment", r.sloAttainment);
        row.add("shed", r.shedRequests);
        row.add("failed", r.failedRequests);
        row.add("retries", r.retriesTotal);
        row.add("fault_events", r.faultEventsApplied);
        row.add("live_frac_min", r.liveDeviceFractionMin);
        row.add("iterations", r.iterations);
        row.add("makespan_s", r.makespan);
        return row;
    });

    for (std::size_t a = 0; a < grid.arrivals.size(); ++a) {
        for (std::size_t b = 0; b < grid.balancers.size(); ++b) {
            std::printf("-- %s arrivals | %s balancer --\n",
                        arrivalKindName(grid.arrivals[a]).c_str(),
                        balancerKindName(grid.balancers[b]));
            Table t({"scenario", "goodput (req/s)", "p99 TTFT (ms)",
                     "p99 latency (ms)", "SLO att.", "shed/failed",
                     "retries", "live min"});
            for (std::size_t f = 0; f < grid.faultScenarios.size();
                 ++f) {
                const SweepResult &r = rows[grid.at(
                    -1, 0, -1, static_cast<int>(b), -1, -1, -1,
                    static_cast<int>(a), static_cast<int>(f))];
                t.addRow({faultScenarioName(grid.faultScenarios[f]),
                          Table::num(r.metric("goodput_rps"), 1),
                          Table::num(r.metric("ttft_p99_ms"), 1),
                          Table::num(r.metric("latency_p99_ms"), 1),
                          Table::num(r.metric("slo_attainment") * 100.0,
                                     1) +
                              "%",
                          Table::num(r.metric("shed"), 0) + " / " +
                              Table::num(r.metric("failed"), 0),
                          Table::num(r.metric("retries"), 0),
                          Table::num(r.metric("live_frac_min"), 2)});
            }
            std::printf("%s\n", t.render().c_str());
        }
    }

    benchout::writeObsFiles(tracePath, trace, statsPath, cellStats);
    benchout::writeSweepFiles("fault_slo", rows);
    return 0;
}
