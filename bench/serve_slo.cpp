/**
 * @file
 * Serving SLO bench: the request-level serving simulator (src/serve/)
 * swept over arrival process × balancer × offered rate on a 4×4
 * ER-mapped WSC serving Qwen3.
 *
 * Every cell serves the same seeded request stream for its (arrival,
 * rate) pair — balancers are compared against identical traffic — and
 * reports TTFT/TPOT percentiles, p99 latency, goodput under the SLO,
 * and queue/KV pressure. Rows land in SWEEP_serve_slo.{json,csv},
 * byte-identical between `--jobs 1` and `--jobs N` (cells derive all
 * randomness from their grid coordinates).
 *
 * Observability:
 *   --trace <path>  Chrome trace-event JSON of the representative
 *                   saturated cell (Bursty × 80 req/s × Non-invasive).
 *   --stats <path>  merged StatRegistry JSON over all cells (grid-order
 *                   merge; byte-identical across worker counts).
 *
 * Usage: serve_slo [requests] [--jobs N] [--trace P] [--stats P]
 *        (default 120 requests)
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "core/moentwine.hh"
#include "obs/obs.hh"
#include "sweep/sweep.hh"
#include "flags.hh"
#include "jobs.hh"
#include "serving_cell.hh"
#include "sweep_output.hh"

using namespace moentwine;

namespace {

/**
 * Stream seed of a cell: shared by every balancer serving the same
 * (arrival, rate) pair so latency differences are attributable to the
 * balancing strategy, never to a different request stream.
 */
uint64_t
streamSeed(const SweepPoint &p)
{
    return 0x5E27E5EEDULL ^ (static_cast<uint64_t>(p.arrival + 1) << 32) ^
        static_cast<uint64_t>(p.param + 1);
}

/** Arrival configuration of one cell. */
ArrivalConfig
cellArrival(const SweepPoint &p, int requests)
{
    ArrivalConfig ac = benchserve::arrival(p.arrivalKind(), p.parameter(),
                                           streamSeed(p));
    if (ac.kind == ArrivalKind::Trace) {
        // Deterministic replay: "record" a Poisson stream with a
        // distinct seed and play it back through the trace path.
        ArrivalConfig rec = ac;
        rec.kind = ArrivalKind::Poisson;
        rec.seed = ac.seed ^ 0x77ACEULL;
        for (const ServeRequest &r :
             ArrivalProcess(rec).generate(requests)) {
            ac.trace.push_back(TraceRequest{r.arrivalTime, r.scenario,
                                            r.promptTokens,
                                            r.outputTokens});
        }
    }
    return ac;
}

} // namespace

int
main(int argc, char **argv)
{
    int requests = 120;
    const auto positionals = benchflags::positionals(argc, argv);
    if (positionals.size() > 1)
        fatal("serve_slo takes at most one positional (requests)");
    if (!positionals.empty()) {
        requests = benchflags::positiveInt(positionals.front(),
                                           "serve_slo request count");
    }
    const std::string tracePath =
        benchflags::stringFlag(argc, argv, "--trace");
    const std::string statsPath =
        benchflags::stringFlag(argc, argv, "--stats");

    std::printf("== Serving SLO: arrival × balancer × rate "
                "(Qwen3, 4x4 WSC+ER, %d requests) ==\n\n",
                requests);

    SweepGrid grid;
    grid.systems = {benchserve::wscSystem()};
    grid.balancers = {BalancerKind::None, BalancerKind::NonInvasive};
    grid.params = {40, 80}; // offered load (requests/s)
    grid.arrivals = {ArrivalKind::Poisson, ArrivalKind::Bursty,
                     ArrivalKind::Diurnal, ArrivalKind::Trace};

    // Per-cell registries merged in grid order (see fault_slo); the
    // trace sink attaches only to the saturated representative cell.
    std::vector<StatRegistry> cellStats(grid.cells());
    TraceSink trace;
    const auto isTracedCell = [&](const SweepPoint &p) {
        return !tracePath.empty() &&
            p.arrivalKind() == ArrivalKind::Bursty &&
            p.parameter() == 80.0 &&
            p.balancerKind() == BalancerKind::NonInvasive;
    };

    const SweepRunner runner = benchjobs::makeRunner(argc, argv);
    const auto rows = runner.run(grid, [&](const SweepCell &cell) {
        const ServeConfig sc = benchserve::serveConfig(
            cellArrival(cell.point, requests), streamSeed(cell.point),
            cell.point.balancerKind(), requests);
        ServeSimulator sim(cell.system->mapping(), sc);
        if (isTracedCell(cell.point))
            sim.setTrace(&trace);
        const ServeReport r = sim.run();
        cellStats[cell.point.index] = sim.stats();

        // Queue/KV pressure now lives in the stat registry; derive the
        // row metrics from the distributions (same per-iteration
        // samples the deleted report fields folded, so the row bytes
        // are unchanged).
        const DistributionView queue =
            sim.stats().distributionView("serve.queue.depth");
        const DistributionView kv =
            sim.stats().distributionView("serve.kv.reserved_tokens");

        SweepResult row;
        row.label = arrivalKindName(cell.point.arrivalKind()) + " r=" +
            std::to_string(
                static_cast<int>(cell.point.parameter())) +
            " | " + balancerKindName(cell.point.balancerKind());
        row.add("rate_rps", cell.point.parameter());
        row.add("ttft_p50_ms", r.ttftP50 * 1e3);
        row.add("ttft_p99_ms", r.ttftP99 * 1e3);
        row.add("tpot_p50_ms", r.tpotP50 * 1e3);
        row.add("tpot_p99_ms", r.tpotP99 * 1e3);
        row.add("latency_p99_ms", r.latencyP99 * 1e3);
        row.add("throughput_tps", r.throughputTokensPerSec);
        row.add("goodput_rps", r.goodputRequestsPerSec);
        row.add("slo_attainment", r.sloAttainment);
        row.add("queue_mean", queue.mean());
        row.add("queue_max", queue.max);
        row.add("kv_peak_frac",
                kv.max / static_cast<double>(sc.scheduler.kvBudgetTokens));
        row.add("iterations", r.iterations);
        row.add("makespan_s", r.makespan);
        return row;
    });

    for (std::size_t a = 0; a < grid.arrivals.size(); ++a) {
        for (std::size_t p = 0; p < grid.params.size(); ++p) {
            std::printf("-- %s arrivals, %d req/s --\n",
                        arrivalKindName(grid.arrivals[a]).c_str(),
                        static_cast<int>(grid.params[p]));
            Table t({"balancer", "TTFT p50/p99 (ms)",
                     "TPOT p50/p99 (ms)", "p99 latency (ms)",
                     "goodput (req/s)", "SLO att.", "queue mean/max"});
            for (std::size_t b = 0; b < grid.balancers.size(); ++b) {
                const SweepResult &r = rows[grid.at(
                    -1, 0, -1, static_cast<int>(b), -1, -1,
                    static_cast<int>(p), static_cast<int>(a))];
                t.addRow({balancerKindName(grid.balancers[b]),
                          Table::num(r.metric("ttft_p50_ms"), 1) + " / " +
                              Table::num(r.metric("ttft_p99_ms"), 1),
                          Table::num(r.metric("tpot_p50_ms"), 2) + " / " +
                              Table::num(r.metric("tpot_p99_ms"), 2),
                          Table::num(r.metric("latency_p99_ms"), 1),
                          Table::num(r.metric("goodput_rps"), 1),
                          Table::num(r.metric("slo_attainment") * 100.0,
                                     1) +
                              "%",
                          Table::num(r.metric("queue_mean"), 1) + " / " +
                              Table::num(r.metric("queue_max"), 0)});
            }
            std::printf("%s\n", t.render().c_str());
        }
    }

    benchout::writeObsFiles(tracePath, trace, statsPath, cellStats);
    benchout::writeSweepFiles("serve_slo", rows);
    return 0;
}
