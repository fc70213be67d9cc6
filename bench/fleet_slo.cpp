/**
 * @file
 * Fleet/SLO bench: the multi-replica cluster front-end swept over
 * arrival process × replica count × router policy, each replica a 4×4
 * ER-mapped WSC serving Qwen3 behind one shared arrival stream.
 *
 * Every cell of one (arrival) column dispatches the identical seeded
 * request stream — the replica and router axes never perturb the
 * stream seed — so goodput and tail-latency deltas are attributable to
 * fleet capacity and dispatch policy, never to different traffic. A
 * trailing autoscaler section holds the platform fixed (4 replicas, 3
 * parked, diurnal arrivals) and toggles the reactive scaler, charging
 * the cold-start spin-up delay. Rows land in SWEEP_fleet_slo.{json,csv},
 * byte-identical between `--jobs 1` and `--jobs N`.
 *
 * Observability:
 *   --trace <path>  Chrome trace-event JSON of the representative cell
 *                   (4 replicas × power_of_two × Bursty): per-replica
 *                   iteration/request spans plus fleet dispatch and
 *                   scale instants, loadable in Perfetto.
 *   --stats <path>  merged StatRegistry JSON over all cells (per-cell
 *                   fleet registries merged in grid order — byte-
 *                   identical across `--jobs 1` and `--jobs N`).
 *
 * Usage: fleet_slo [requests] [--jobs N] [--trace P] [--stats P]
 *        (default 96 requests)
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "common/logging.hh"
#include "core/moentwine.hh"
#include "obs/obs.hh"
#include "sweep/sweep.hh"
#include "flags.hh"
#include "jobs.hh"
#include "sweep_output.hh"

using namespace moentwine;

namespace {

/**
 * Stream seed of a cell: a function of the arrival axis only, so every
 * (replicas, router) pair of one arrival column dispatches the exact
 * same request stream.
 */
uint64_t
streamSeed(const SweepPoint &p)
{
    return 0xF1EE751AEEDULL ^ (static_cast<uint64_t>(p.arrival + 1) << 32);
}

/** Per-replica serving configuration shared by every cell. */
ServeConfig
replicaServeConfig(uint64_t seed)
{
    ServeConfig sc;
    sc.engine.model = qwen3();
    sc.engine.workload.seed = seed;
    sc.engine.alpha = 0.5;
    sc.engine.beta = 5;
    sc.scheduler.kvBudgetTokens = 16384;
    sc.scheduler.maxRunningRequests = 32;
    sc.scheduler.prefillChunkTokens = 512;
    sc.slo.ttft = 0.05;
    sc.slo.tpot = 0.005;
    return sc;
}

/** Fleet configuration of one grid cell (homogeneous WSC replicas). */
FleetConfig
cellConfig(const SweepPoint &p, int requests)
{
    SystemConfig wsc;
    wsc.platform = PlatformKind::WscEr;
    wsc.meshN = 4;
    wsc.tp = 4;

    FleetConfig fc;
    ReplicaConfig rc;
    rc.system = wsc;
    rc.serve = replicaServeConfig(streamSeed(p));
    fc.replicas.assign(static_cast<std::size_t>(p.replicaCount()), rc);
    fc.arrival.kind = p.arrivalKind();
    fc.arrival.ratePerSec = 150.0;
    fc.arrival.mixDriftPeriodSec = 4.0;
    fc.arrival.promptMeanTokens = 256;
    fc.arrival.promptMaxTokens = 2048;
    fc.arrival.outputMeanTokens = 48;
    fc.arrival.outputMaxTokens = 256;
    fc.arrival.seed = streamSeed(p);
    fc.numRequests = requests;
    fc.router = p.routerPolicy();
    fc.routerSeed = p.seed(0xF1EE7);
    fc.slo.ttft = 0.05;
    fc.slo.tpot = 0.005;
    return fc;
}

/** One output row from a finished fleet run (keys shared by every
 *  section so the CSV stays rectangular). */
SweepResult
fleetRow(const std::string &label, const FleetReport &r)
{
    SweepResult row;
    row.label = label;
    row.add("goodput_rps", r.goodputRequestsPerSec);
    row.add("throughput_tps", r.throughputTokensPerSec);
    row.add("ttft_p99_ms", r.ttftP99 * 1e3);
    row.add("tpot_p99_ms", r.tpotP99 * 1e3);
    row.add("latency_p99_ms", r.latencyP99 * 1e3);
    row.add("slo_attainment", r.sloAttainment);
    row.add("front_door_shed", r.frontDoorShed);
    row.add("shed", r.shedRequests);
    row.add("failed", r.failedRequests);
    row.add("retries", r.retriesTotal);
    row.add("scale_events", static_cast<double>(r.scaleEvents.size()));
    row.add("iterations", r.iterationsTotal);
    row.add("makespan_s", r.makespan);
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    int requests = 96;
    const auto positionals = benchflags::positionals(argc, argv);
    if (positionals.size() > 1)
        fatal("fleet_slo takes at most one positional (requests)");
    if (!positionals.empty()) {
        requests = benchflags::positiveInt(positionals.front(),
                                           "fleet_slo request count");
    }
    const std::string tracePath =
        benchflags::stringFlag(argc, argv, "--trace");
    const std::string statsPath =
        benchflags::stringFlag(argc, argv, "--stats");

    std::printf("== Fleet/SLO: arrival × replicas × router "
                "(Qwen3, 4x4 WSC+ER per replica, %d requests) ==\n\n",
                requests);

    SweepGrid grid;
    grid.arrivals = {ArrivalKind::Poisson, ArrivalKind::Bursty,
                     ArrivalKind::Diurnal};
    grid.replicaCounts = {1, 2, 4};
    grid.routers = allRouterPolicies();

    // Per-cell fleet registries, written by grid index (each worker
    // touches only its own slots) and merged in grid order afterwards,
    // so --stats output is byte-identical across worker counts. The
    // trace sink attaches to exactly one cell — the representative
    // fleet (4 replicas × power_of_two × Bursty) — so at most one
    // worker emits into it.
    std::vector<StatRegistry> cellStats(grid.cells());
    TraceSink trace;
    const auto isTracedCell = [&](const SweepPoint &p) {
        return !tracePath.empty() && p.replicaCount() == 4 &&
            p.routerPolicy() == RouterPolicy::PowerOfTwo &&
            p.arrivalKind() == ArrivalKind::Bursty;
    };

    const SweepRunner runner = benchjobs::makeRunner(argc, argv);
    auto rows = runner.run(grid, [&](const SweepCell &cell) {
        FleetSimulator fleet(cellConfig(cell.point, requests));
        if (isTracedCell(cell.point))
            fleet.setTrace(&trace);
        const FleetReport r = fleet.run();
        cellStats[cell.point.index] = fleet.stats();
        return fleetRow(
            arrivalKindName(cell.point.arrivalKind()) + " | x" +
                std::to_string(cell.point.replicaCount()) + " | " +
                routerPolicyName(cell.point.routerPolicy()),
            r);
    });

    for (std::size_t a = 0; a < grid.arrivals.size(); ++a) {
        std::printf("-- %s arrivals --\n",
                    arrivalKindName(grid.arrivals[a]).c_str());
        Table t({"replicas", "router", "goodput (req/s)",
                 "p99 TTFT (ms)", "p99 latency (ms)", "SLO att.",
                 "front-door shed", "makespan (s)"});
        for (std::size_t n = 0; n < grid.replicaCounts.size(); ++n) {
            for (std::size_t p = 0; p < grid.routers.size(); ++p) {
                const SweepResult &r = rows[grid.at(
                    -1, -1, -1, -1, -1, -1, -1, static_cast<int>(a),
                    -1, static_cast<int>(n), static_cast<int>(p))];
                t.addRow({"x" + std::to_string(grid.replicaCounts[n]),
                          routerPolicyName(grid.routers[p]),
                          Table::num(r.metric("goodput_rps"), 1),
                          Table::num(r.metric("ttft_p99_ms"), 1),
                          Table::num(r.metric("latency_p99_ms"), 1),
                          Table::num(r.metric("slo_attainment") * 100.0,
                                     1) +
                              "%",
                          Table::num(r.metric("front_door_shed"), 0),
                          Table::num(r.metric("makespan_s"), 3)});
            }
        }
        std::printf("%s\n", t.render().c_str());
    }

    // Autoscaler section: 4 identical replicas (3 start parked) under
    // diurnal traffic, scaler off vs on. Runs inline on the caller —
    // two cells are not worth the pool, and serial execution keeps the
    // appended rows byte-identical across worker counts.
    std::printf("-- Autoscaler (Diurnal, 4 replicas, 3 parked) --\n");
    Table scaler({"autoscaler", "goodput (req/s)", "p99 TTFT (ms)",
                  "SLO att.", "scale events", "makespan (s)"});
    const SweepPoint diurnalPoint =
        grid.pointAt(grid.at(-1, -1, -1, -1, -1, -1, -1, 2, -1, 2, 0));
    for (const bool enabled : {false, true}) {
        FleetConfig fc = cellConfig(diurnalPoint, requests);
        for (std::size_t i = 1; i < fc.replicas.size(); ++i)
            fc.replicas[i].startParked = true;
        fc.autoscaler.enabled = enabled;
        fc.autoscaler.evalPeriodSec = 0.05;
        fc.autoscaler.spinUpDelaySec = 0.2;
        fc.autoscaler.scaleUpThreshold = 6.0;
        fc.autoscaler.scaleDownThreshold = 1.0;
        FleetSimulator fleet(fc);
        const FleetReport r = fleet.run();
        SweepResult row = fleetRow(
            std::string("autoscaler ") + (enabled ? "on" : "off") +
                " | Diurnal | x4 (3 parked)",
            r);
        row.index = rows.size();
        scaler.addRow({enabled ? "on" : "off",
                       Table::num(r.goodputRequestsPerSec, 1),
                       Table::num(r.ttftP99 * 1e3, 1),
                       Table::num(r.sloAttainment * 100.0, 1) + "%",
                       Table::num(static_cast<double>(
                                      r.scaleEvents.size()),
                                  0),
                       Table::num(r.makespan, 3)});
        rows.push_back(std::move(row));
    }
    std::printf("%s\n", scaler.render().c_str());

    benchout::writeObsFiles(tracePath, trace, statsPath, cellStats);
    benchout::writeSweepFiles("fleet_slo", rows);
    return 0;
}
