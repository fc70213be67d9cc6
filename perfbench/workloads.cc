/**
 * @file
 * The four benchmark workloads. Each runs in its own process and has
 * the same shape: time the set-up several times (setup_s), run one
 * untimed warm-up that also fixes the reference digest of the
 * simulated outputs, then repeat identical units of work (a grid pass,
 * a served stream, a block of steps, a fleet run) until the measured
 * phase is over. Throughputs are medians over those units; every unit
 * must reproduce the reference digest.
 *
 * The traced pass (--trace 1) times each layer from outside through its
 * public entry points (replay.hh for the engine stages). Every traced
 * unit runs right after an untraced twin doing the same work; the pairs
 * give the tracing overhead. paper_grid first spends half its time on
 * untraced parallel grid passes, which give the sweep layer's figures.
 */

#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench.hh"
#include "cluster/cluster.hh"
#include "replay.hh"
#include "sweep/sweep.hh"

namespace perfbench {

using namespace moentwine;

namespace {

// ---------------------------------------------------------------- shared

/** Medians over the measured units of one run. */
struct Throughput
{
    std::vector<double> itersPerS;
    std::vector<double> requestsPerS;
    /** Per-unit p50 / p90 of the host time per iteration (us). */
    std::vector<double> p50Us;
    std::vector<double> p90Us;
    std::size_t iterationSamples = 0;

    void addUnit(double wallS, double iterations, double requests,
                 const std::vector<double> &iterUs)
    {
        itersPerS.push_back(iterations / wallS);
        requestsPerS.push_back(requests / wallS);
        p50Us.push_back(windowPercentile(iterUs, 50.0));
        p90Us.push_back(windowPercentile(iterUs, 90.0));
        iterationSamples += iterUs.size();
    }
};

void
reportEndToEnd(RunResult &out, const Throughput &t, double setupS)
{
    out.add("sim_iters_per_s", median(t.itersPerS), "iter/s");
    out.add("iter_host_p50_us", median(t.p50Us), "us");
    out.add("iter_host_p90_us", median(t.p90Us), "us");
    out.add("setup_s", setupS, "s");
    out.add("peak_rss_mb", peakRssMb(), "MB");
    std::string units;
    for (const double x : t.itersPerS) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%s%.4g", units.empty() ? "" : ",",
                      x);
        units += buf;
    }
    info("run.unit_iters_per_s", units);
    info("run.iteration_samples",
         static_cast<double>(t.iterationSamples));
    if (median(t.requestsPerS) > 0.0)
        info("run.sim_requests_per_s", median(t.requestsPerS));
}

/** Everything the traced pass reports; layers a workload does not
 *  run stay zero. */
struct Layers
{
    StageTotals engine;
    double systemMakeMs = 0.0;
    double arrivalGenMs = 0.0;
    double serveBeginS = 0.0;
    double serveFinishS = 0.0;
    double serveFinalizeS = 0.0;
    std::int64_t serveBegins = 0;
    std::int64_t serveFinishes = 0;
    std::int64_t serveFinalizes = 0;
    std::int64_t idleAdvances = 0;
    std::int64_t serveIterations = 0;
    double cellMsP50 = 0.0;
    double parallelEfficiency = 0.0;
    std::int64_t steals = 0;
    std::int64_t engineBuilds = 0;
    std::int64_t engineReuses = 0;
    double clusterRunS = 0.0;
    double usPerReplicaIteration = 0.0;
    std::int64_t dispatched = 0;
    std::int64_t frontDoorShed = 0;
    std::int64_t scaleEvents = 0;
    std::int64_t faultEvents = 0;
    std::int64_t linkReroutes = 0;
    std::int64_t devicesLost = 0;
    double traceOverheadFrac = 0.0;
};

double
perCall(double total, std::int64_t calls, double scale)
{
    return calls > 0 ? total * scale / static_cast<double>(calls) : 0.0;
}

void
reportLayers(RunResult &out, const Layers &l)
{
    const StageTotals &e = l.engine;
    const std::int64_t n = e.iterations;
    const auto count = [](std::int64_t c) { return static_cast<double>(c); };
    out.add("workload.gating_us", perCall(e.gatingS, n, 1e6), "us");
    out.add("workload.gating_samples", perCall(count(e.gatingSamples), n, 1),
            "count");
    out.add("workload.gating_ns_per_sample",
            perCall(e.gatingS, e.gatingSamples, 1e9), "ns");
    out.add("token_router.route_us", perCall(e.routeS, n, 1e6), "us");
    out.add("token_router.flows", perCall(count(e.flows), n, 1), "count");
    out.add("network.a2a_us", perCall(e.a2aS, n, 1e6), "us");
    out.add("network.flow_hops", perCall(count(e.flowHops), n, 1), "count");
    out.add("network.ns_per_flow_hop", perCall(e.a2aS, e.flowHops, 1e9),
            "ns");
    out.add("network.busy_links", perCall(count(e.busyLinks), n, 1),
            "count");
    out.add("collectives.allreduce_us", perCall(e.allReduceS, n, 1e6),
            "us");
    out.add("model.moe_cost_us", perCall(e.moeS, n, 1e6), "us");
    out.add("balancer.plan_us", perCall(e.planS, n, 1e6), "us");
    out.add("balancer.ni_advance_us", perCall(e.niAdvanceS, n, 1e6), "us");
    out.add("balancer.migrations_planned",
            perCall(count(e.migrationsPlanned), n, 1), "count");
    out.add("balancer.migrations_completed",
            perCall(count(e.migrationsCompleted), n, 1), "count");
    out.add("engine.step_us", perCall(e.stepS, n, 1e6), "us");
    out.add("engine.unattributed_us",
            perCall(e.stepS - e.stagesS(), n, 1e6), "us");
    out.add("engine.replay_mismatches", count(e.mismatches), "count");
    out.add("core.system_make_ms", l.systemMakeMs, "ms");
    out.add("serve.arrival_gen_ms", l.arrivalGenMs, "ms");
    out.add("serve.begin_us", perCall(l.serveBeginS, l.serveBegins, 1e6),
            "us");
    out.add("serve.finish_us",
            perCall(l.serveFinishS, l.serveFinishes, 1e6), "us");
    // Per served stream, so they count simulated work, not how many
    // streams fit into the run.
    out.add("serve.idle_advances",
            perCall(count(l.idleAdvances), l.serveFinalizes, 1), "count");
    out.add("serve.iterations",
            perCall(count(l.serveIterations), l.serveFinalizes, 1), "count");
    out.add("serve.finalize_ms",
            perCall(l.serveFinalizeS, l.serveFinalizes, 1e3), "ms");
    out.add("sweep.cell_ms_p50", l.cellMsP50, "ms");
    out.add("sweep.parallel_efficiency", l.parallelEfficiency, "frac");
    out.add("sweep.steals", count(l.steals), "count");
    out.add("sweep.engine_builds", count(l.engineBuilds), "count");
    out.add("sweep.engine_reuses", count(l.engineReuses), "count");
    out.add("cluster.run_s", l.clusterRunS, "s");
    out.add("cluster.us_per_replica_iteration", l.usPerReplicaIteration,
            "us");
    out.add("cluster.dispatched", count(l.dispatched), "count");
    out.add("cluster.front_door_shed", count(l.frontDoorShed), "count");
    out.add("cluster.scale_events", count(l.scaleEvents), "count");
    out.add("fault.events_applied", count(l.faultEvents), "count");
    out.add("fault.link_reroutes", count(l.linkReroutes), "count");
    out.add("fault.devices_lost", count(l.devicesLost), "count");
    out.add("obs.trace_overhead_frac", l.traceOverheadFrac, "frac");

    if (n > 0) {
        info("trace.replayed_iterations", count(n));
        info("trace.stage_share_of_step", e.stagesS() / e.stepS);
    }
}

/**
 * obs.trace_overhead_frac: 1 - traced / untraced iterations per host
 * second, the median over pairs of units. Each traced unit runs right
 * after an untraced twin doing the same work, so host drift over the
 * run does not enter the ratio. Where the engine is replayed, the
 * replay is the measuring instrument, not the traced program: the
 * caller takes its time out of the traced unit, which leaves the engine
 * work plus the cost of observing it (spans, lockstep comparison).
 */
struct OverheadPairs
{
    std::vector<double> ratios;

    void add(double untracedItersPerS, double tracedItersPerS)
    {
        ratios.push_back(tracedItersPerS / untracedItersPerS);
    }

    double frac() const { return 1.0 - median(ratios); }
};

/** Replay checks shared by the engine workloads. */
void
checkReplay(RunResult &out, const StageTotals &e)
{
    out.attempted += e.iterations;
    out.failed += e.mismatches;
    if (e.mismatches > 0) {
        std::fprintf(stderr, "CHECK FAILED: %lld replayed iterations "
                             "differ from the engine\n",
                     static_cast<long long>(e.mismatches));
    }
    const double tol =
        1e-9 * std::max(e.dispatchBytes, e.combineBytes) + 1e-9;
    out.check(std::fabs(e.dispatchBytes - e.combineBytes) <= tol,
              "replay: sum of dispatch bytes equals sum of combine bytes");
    for (const double t : {e.stepS, e.gatingS, e.routeS, e.a2aS, e.moeS,
                           e.allReduceS}) {
        out.check(std::isfinite(t) && t > 0.0,
                  "replay: layer time is finite and positive");
    }
}

/** Close a traced run: replay checks (when the engine was replayed),
 *  the per-layer metrics, and the span file. */
void
finishTrace(RunResult &out, const Layers &layers, const SpanLog &spans,
            const Options &opt)
{
    if (layers.engine.iterations > 0)
        checkReplay(out, layers.engine);
    reportLayers(out, layers);
    if (!opt.spansPath.empty() && !spans.write(opt.spansPath))
        std::fprintf(stderr, "perfbench: could not write %s\n",
                     opt.spansPath.c_str());
}

void
addStats(Digest &d, const IterationStats &s)
{
    for (const double x :
         {s.attnCompute, s.allReduce, s.dispatch, s.combine, s.moeTime,
          s.moeComputeOnly, s.moeMemoryOnly, s.epAllReduce,
          s.migrationOverhead, s.loadMax, s.loadAvg, s.imbalance,
          s.faultRecoveryTime}) {
        d.add(x);
    }
    d.add(static_cast<std::int64_t>(s.migrationsPlanned));
    d.add(static_cast<std::int64_t>(s.migrationsCompleted));
    d.add(static_cast<std::int64_t>(s.migrationsPending));
}

/** The fixed-budget demand InferenceEngine::step() uses. */
IterationDemand
configuredDemand(const EngineConfig &cfg)
{
    IterationDemand d;
    switch (cfg.schedule) {
      case SchedulingMode::PrefillOnly:
        d.prefillTokensPerGroup = cfg.prefillTokensPerGroup;
        break;
      case SchedulingMode::DecodeOnly:
        d.decodeTokensPerGroup = cfg.decodeTokensPerGroup;
        break;
      case SchedulingMode::Hybrid:
        d.decodeTokensPerGroup = cfg.decodeTokensPerGroup;
        d.prefillTokensPerGroup = cfg.prefillTokensPerGroup / 4;
        break;
    }
    return d;
}

SystemConfig
wsc4x4()
{
    SystemConfig sc;
    sc.platform = PlatformKind::WscEr;
    sc.meshN = 4;
    sc.tp = 4;
    return sc;
}

double
systemMakeMs(const SystemConfig &sc)
{
    return 1e3 * medianSetupSeconds([&] { System::make(sc); });
}

// ------------------------------------------------------------ paper_grid

/** Iterations per grid cell; the first kGridWarmup are excluded from
 *  the fig16 statistics, as in the figure. */
constexpr int kGridIterations = 160;
constexpr int kGridWarmup = 20;
/** Sweep workers; at most the allowed CPUs. */
constexpr int kGridWorkers = 2;

/** The Fig. 16 grid, as bench/fig16_grid.cc defines it: 2 models x 4
 *  balancers x 3 schedules x 2 gatings on a 4x4 WSC with ER-Mapping.
 *  Copied, not linked, so the benchmark stays fixed if the figure's
 *  grid changes. */
SweepGrid
paperGrid()
{
    SweepGrid grid;
    grid.models = {qwen3(), deepseekV3()};
    grid.systems = {wsc4x4()};
    grid.balancers = {BalancerKind::None, BalancerKind::Greedy,
                      BalancerKind::TopologyAware,
                      BalancerKind::NonInvasive};
    grid.schedules = {SchedulingMode::PrefillOnly,
                      SchedulingMode::DecodeOnly, SchedulingMode::Hybrid};
    grid.gatings = {GatingMode::SingleScenario, GatingMode::MixedScenario};
    return grid;
}

EngineConfig
paperCellConfig(const SweepPoint &p, std::uint64_t base)
{
    EngineConfig ec;
    ec.model = p.modelConfig();
    ec.schedule = p.schedulingMode();
    ec.decodeTokensPerGroup = 128;
    ec.prefillTokensPerGroup = 1024;
    ec.workload.mode = p.gatingMode();
    ec.workload.scenario = ScenarioKind::Math;
    ec.workload.mixPeriod = 60;
    ec.workload.seed = p.seed(base);
    ec.balancer = p.balancerKind();
    ec.alpha = 0.5;
    ec.beta = 5;
    return ec;
}

/** The fig16 row of one cell from its per-iteration stats. */
SweepResult
paperRow(const EngineConfig &ec, const std::vector<IterationStats> &trace)
{
    double a2a = 0.0, moe = 0.0, migration = 0.0, ratio = 0.0, layer = 0.0;
    for (std::size_t i = kGridWarmup; i < trace.size(); ++i) {
        const IterationStats &s = trace[i];
        a2a += s.allToAll();
        moe += s.moeTime;
        ratio += s.loadMax / s.loadAvg;
        layer += s.layerTime(ec.pipelineStages);
        migration += s.migrationOverhead;
    }
    const double n = kGridIterations - kGridWarmup;
    SweepResult row;
    row.add("a2a_us", a2a / n * 1e6);
    row.add("moe_us", moe / n * 1e6);
    row.add("migration_us", migration / n * 1e6);
    row.add("load_ratio", ratio / n);
    row.add("layer_us", layer / n * 1e6);
    Digest d;
    for (const IterationStats &s : trace)
        addStats(d, s);
    row.add("digest_lo", static_cast<double>(d.value() & 0xFFFFFFFFu));
    row.add("digest_hi", static_cast<double>(d.value() >> 32));
    return row;
}

struct GridPass
{
    std::vector<SweepResult> rows;
    double wallS = 0.0;
    double iterations = 0.0;
    std::vector<double> stepUs;
    std::vector<double> cellMs;
    SweepRunStats stats;
};

GridPass
runGridPass(const SweepRunner &runner, const SweepGrid &grid,
            std::uint64_t base)
{
    std::vector<std::vector<double>> stepUs(grid.cells());
    std::vector<double> cellMs(grid.cells(), 0.0);
    GridPass pass;
    const Clock::time_point t0 = Clock::now();
    pass.rows = runner.run(
        grid,
        [&](const SweepCell &cell) {
            const Clock::time_point tc = Clock::now();
            const EngineConfig ec = paperCellConfig(cell.point, base);
            InferenceEngine &engine =
                cell.worker->engine(cell.system->mapping(), ec);
            std::vector<double> &samples = stepUs[cell.point.index];
            samples.reserve(kGridIterations);
            std::vector<IterationStats> trace;
            trace.reserve(kGridIterations);
            for (int i = 0; i < kGridIterations; ++i) {
                const Clock::time_point ts = Clock::now();
                trace.push_back(engine.step());
                samples.push_back(secondsSince(ts) * 1e6);
            }
            cellMs[cell.point.index] = secondsSince(tc) * 1e3;
            return paperRow(ec, trace);
        },
        &pass.stats);
    pass.wallS = secondsSince(t0);
    for (std::size_t c = 0; c < grid.cells(); ++c) {
        pass.stepUs.insert(pass.stepUs.end(), stepUs[c].begin(),
                           stepUs[c].end());
    }
    pass.cellMs = std::move(cellMs);
    pass.iterations = static_cast<double>(pass.stepUs.size());
    return pass;
}

std::string
rowsDigest(const std::vector<SweepResult> &rows)
{
    Digest d;
    for (const SweepResult &r : rows) {
        for (const auto &kv : r.metrics)
            d.add(kv.second);
    }
    return d.hex();
}

/** Paper-shape and sanity invariants of one grid pass. */
void
checkPaperShape(RunResult &out, const SweepGrid &grid,
                const std::vector<SweepResult> &rows)
{
    for (const SweepResult &r : rows) {
        const double layer = r.metric("layer_us");
        out.check(std::isfinite(layer) && layer > 0.0,
                  "paper_grid: layer time is finite and positive");
    }
    const int ni = 3, greedy = 1, topo = 2;
    for (int m = 0; m < static_cast<int>(grid.models.size()); ++m) {
        for (int s = 0; s < static_cast<int>(grid.schedules.size()); ++s) {
            for (int g = 0; g < static_cast<int>(grid.gatings.size());
                 ++g) {
                const SweepResult &n = rows[grid.at(m, 0, -1, ni, s, g)];
                out.check(n.metric("migration_us") == 0.0,
                          "paper_grid: NI migration_us is 0");
            }
        }
        // Mixed gating, Decode-only: the paper's headline comparison.
        const int decode = 1, mixed = 1;
        const double niLayer =
            rows[grid.at(m, 0, -1, ni, decode, mixed)].metric("layer_us");
        for (const int inv : {greedy, topo}) {
            const double invLayer =
                rows[grid.at(m, 0, -1, inv, decode, mixed)].metric(
                    "layer_us");
            out.check(niLayer <= invLayer,
                      "paper_grid: NI layer time <= invasive on Mixed / "
                      "Decode-only (" +
                          grid.models[static_cast<std::size_t>(m)].name +
                          ")");
        }
        info("sim.fig16." + grid.models[static_cast<std::size_t>(m)].name +
                 ".decode_mixed.layer_us.ni",
             niLayer);
    }
}

} // namespace

RunResult
runPaperGrid(const Options &opt)
{
    RunResult out;
    const std::uint64_t base = mixSeed(opt.seed, 11);
    const SweepGrid grid = paperGrid();
    const int workers = std::max(1, std::min(kGridWorkers, allowedCpuCount()));
    printEnvironment(workers);

    // Set-up: the platform, a runner, and one engine per model.
    SetupTimer setup([&] {
        const System sys = System::make(wsc4x4());
        const SweepRunner runner(workers);
        for (const MoEModelConfig &m : grid.models) {
            EngineConfig ec;
            ec.model = m;
            const InferenceEngine engine(sys.mapping(), ec);
        }
    });

    // Warm-up: the serial pass is the reference the parallel passes
    // must reproduce byte for byte (the sweep determinism contract).
    SweepOptions serialOpts;
    serialOpts.jobs = 1;
    const SweepRunner serial(serialOpts);
    const GridPass ref = runGridPass(serial, grid, base);
    const std::string refDigest = rowsDigest(ref.rows);
    out.attempted += static_cast<std::int64_t>(grid.cells());
    checkPaperShape(out, grid, ref.rows);
    info("sim.digest", refDigest);

    SweepOptions opts;
    opts.jobs = workers;
    const SweepRunner runner(opts);
    out.check(rowsDigest(runGridPass(runner, grid, base).rows) == refDigest,
              "paper_grid: parallel warm-up pass matches the serial rows");

    const double measureS = opt.trace ? opt.seconds / 2 : opt.seconds;
    Throughput tp;
    std::vector<double> cellMs;
    GridPass last;
    const Clock::time_point t0 = Clock::now();
    do {
        last = runGridPass(runner, grid, base);
        out.attempted += static_cast<std::int64_t>(grid.cells());
        out.check(rowsDigest(last.rows) == refDigest,
                  "paper_grid: grid pass reproduces the reference rows");
        tp.addUnit(last.wallS, last.iterations, 0.0, last.stepUs);
        cellMs.insert(cellMs.end(), last.cellMs.begin(), last.cellMs.end());
        if (!opt.trace)
            setup.sample();
    } while (secondsSince(t0) < measureS || tp.itersPerS.size() < 3);

    if (!opt.trace) {
        // Every cell runs kGridIterations steps, so cells per second is
        // sim_iters_per_s over a constant: printed, not gated twice.
        info("run.cells_per_s", median(tp.itersPerS) / kGridIterations);
        reportEndToEnd(out, tp, setup.seconds());
        return out;
    }

    // Traced half: every cell, serially, engine and replay in lockstep.
    Layers layers;
    layers.systemMakeMs = systemMakeMs(wsc4x4());
    layers.cellMsP50 = median(cellMs);
    double busy = 0.0;
    for (const double b : last.stats.workerBusySeconds)
        busy += b;
    layers.parallelEfficiency = busy / (last.stats.workers * last.wallS);
    layers.steals = last.stats.steals;
    layers.engineBuilds = last.stats.engineBuilds;
    layers.engineReuses = last.stats.engineReuses;

    // Each traced cell runs serially after an untraced twin of itself.
    SpanLog spans;
    OverheadPairs overhead;
    const System sys = System::make(wsc4x4());
    const Clock::time_point tt = Clock::now();
    std::size_t cell = 0;
    do {
        const SweepPoint point = grid.pointAt(cell % grid.cells());
        const EngineConfig ec = paperCellConfig(point, base);
        const IterationDemand demand = configuredDemand(ec);
        InferenceEngine twin(sys.mapping(), ec);
        const Clock::time_point tu = Clock::now();
        for (int i = 0; i < kGridIterations; ++i)
            twin.step();
        const double untracedS = secondsSince(tu);

        InferenceEngine engine(sys.mapping(), ec);
        LockstepReplay replay(sys.mapping(), ec, spans);
        std::vector<IterationStats> trace;
        const double replayBefore = layers.engine.replayS;
        const Clock::time_point tc = Clock::now();
        for (int i = 0; i < kGridIterations; ++i)
            trace.push_back(replay.step(engine, demand, layers.engine));
        const double tracedS =
            secondsSince(tc) - (layers.engine.replayS - replayBefore);
        overhead.add(kGridIterations / untracedS, kGridIterations / tracedS);
        out.check(paperRow(ec, trace).metrics ==
                      ref.rows[point.index].metrics,
                  "paper_grid: traced cell reproduces its reference row");
        ++cell;
    } while (secondsSince(tt) < opt.seconds / 2 || cell < grid.cells());
    layers.traceOverheadFrac = overhead.frac();
    const StageTotals &e = layers.engine;
    info("trace.gating_is_largest_stage",
         e.gatingS >= std::max({e.allReduceS, e.routeS, e.a2aS, e.moeS,
                                e.planS, e.niAdvanceS})
             ? "true"
             : "false");
    finishTrace(out, layers, spans, opt);
    return out;
}

// ---------------------------------------------------------- serve_bursty

namespace {

/** Requests per served stream. */
constexpr int kServeRequests = 10000;

ServeConfig
serveConfig(std::uint64_t seed)
{
    ServeConfig sc;
    sc.engine.model = qwen3();
    sc.engine.workload.seed = mixSeed(seed, 21);
    sc.engine.balancer = BalancerKind::NonInvasive;
    sc.engine.alpha = 0.5;
    sc.engine.beta = 5;
    sc.arrival.kind = ArrivalKind::Bursty;
    // Above the 4x4 replica's capacity (~80 req/s saturates it), so
    // the queue builds during bursts and admission runs every boundary.
    sc.arrival.ratePerSec = 150.0;
    sc.arrival.mixDriftPeriodSec = 4.0;
    sc.arrival.promptMeanTokens = 256;
    sc.arrival.promptMaxTokens = 2048;
    sc.arrival.outputMeanTokens = 48;
    sc.arrival.outputMaxTokens = 256;
    sc.arrival.seed = mixSeed(seed, 22);
    sc.scheduler.kvBudgetTokens = 16384;
    sc.scheduler.maxRunningRequests = 32;
    sc.scheduler.prefillChunkTokens = 512;
    sc.slo.ttft = 0.05;
    sc.slo.tpot = 0.005;
    sc.numRequests = kServeRequests;
    return sc;
}

std::string
serveDigest(const ServeReport &r)
{
    Digest d;
    d.add(static_cast<std::int64_t>(r.iterations));
    for (const double x :
         {r.makespan, r.ttftP50, r.ttftP95, r.ttftP99, r.tpotP50, r.tpotP95,
          r.tpotP99, r.latencyP50, r.latencyP99, r.throughputTokensPerSec,
          r.goodputRequestsPerSec, r.sloAttainment}) {
        d.add(x);
    }
    for (const RequestMetrics &m : r.requests) {
        d.add(m.admitTime);
        d.add(m.firstTokenTime);
        d.add(m.finishTime);
        d.add(static_cast<std::int64_t>(m.outcome));
    }
    for (const ServeTracePoint &p : r.trace) {
        d.add(static_cast<std::int64_t>(p.decodeTokens));
        d.add(static_cast<std::int64_t>(p.prefillTokens));
        d.add(static_cast<std::int64_t>(p.queueDepth));
    }
    return d.hex();
}

/** One hand-driven served stream. */
struct ServeEpisode
{
    ServeReport report;
    double wallS = 0.0;
    std::vector<double> iterUs;
    /** Scenario mix of each iteration's plan (traced runs only). */
    std::vector<std::vector<double>> mixes;
};

/** Run @p fn inside a span when @p spans is set, else directly. */
template <typename Fn>
auto
timedCall(SpanLog *spans, const char *name, double &total, Fn &&fn)
{
    if (spans == nullptr)
        return fn();
    ScopedSpan s(*spans, name, total);
    return fn();
}

/**
 * Drive a ServeLoop the way ServeSimulator::run() does (the same
 * calls, so the report must match it bitwise), timing each
 * begin/finish pair. With @p spans the serve entry points are also
 * timed one by one into @p layers and the plan's scenario mixes are
 * recorded.
 */
ServeEpisode
driveServe(const Mapping &mapping, const ServeConfig &cfg,
           const std::vector<ServeRequest> &stream, Layers &layers,
           SpanLog *spans)
{
    ServeEpisode ep;
    StatRegistry stats;
    ServeLoop loop(mapping, cfg, &stats, nullptr);
    for (const ServeRequest &r : stream)
        loop.push(r);
    ep.iterUs.reserve(stream.size() * 8);
    const Clock::time_point t0 = Clock::now();
    while (!loop.allFinished()) {
        const Clock::time_point tb = Clock::now();
        ++layers.serveBegins;
        if (timedCall(spans, "serve.begin", layers.serveBeginS,
                      [&] { return loop.beginIteration(); })) {
            if (spans != nullptr)
                ep.mixes.push_back(loop.scheduler().scenarioTokens());
            timedCall(spans, "serve.finish", layers.serveFinishS,
                      [&] { loop.finishIteration(); });
            ++layers.serveFinishes;
            ep.iterUs.push_back(secondsSince(tb) * 1e6);
            continue;
        }
        const double next = loop.nextArrival();
        if (!(next > loop.now()) ||
            next == std::numeric_limits<double>::infinity()) {
            break; // reported by the completion check
        }
        loop.advanceIdle(next);
        ++layers.idleAdvances;
    }
    if (loop.allFinished()) {
        ep.report = timedCall(spans, "serve.finalize", layers.serveFinalizeS,
                              [&] { return loop.finalize(); });
        ++layers.serveFinalizes;
        layers.serveIterations += ep.report.iterations;
    }
    ep.wallS = secondsSince(t0);
    return ep;
}

void
checkServe(RunResult &out, const ServeEpisode &ep, std::size_t pushed,
           const std::string &refDigest)
{
    std::size_t done = 0;
    for (const RequestMetrics &m : ep.report.requests) {
        done += m.outcome == RequestOutcome::Completed ||
            m.outcome == RequestOutcome::Shed ||
            m.outcome == RequestOutcome::Failed;
    }
    out.check(ep.report.requests.size() == pushed && done == pushed,
              "serve_bursty: every pushed request finished as completed, "
              "shed or failed");
    out.check(serveDigest(ep.report) == refDigest,
              "serve_bursty: served stream reproduces the reference report");
    out.check(std::isfinite(ep.wallS) && ep.wallS > 0.0,
              "serve_bursty: host time is finite and positive");
}

} // namespace

RunResult
runServeBursty(const Options &opt)
{
    RunResult out;
    printEnvironment(1);
    const ServeConfig cfg = serveConfig(opt.seed);

    const System sys = System::make(wsc4x4());
    const std::vector<ServeRequest> stream =
        ArrivalProcess(cfg.arrival).generate(cfg.numRequests);

    // Warm-up through the bare simulator: the hand-driven loop below
    // must reproduce its report bitwise.
    ServeSimulator sim(sys.mapping(), cfg);
    const ServeReport ref = sim.run();
    const std::string refDigest = serveDigest(ref);
    info("sim.digest", refDigest);
    info("sim.serve.ttft_p99_ms", ref.ttftP99 * 1e3);
    info("sim.serve.tpot_p99_ms", ref.tpotP99 * 1e3);
    info("sim.serve.goodput_rps", ref.goodputRequestsPerSec);
    info("sim.serve.iterations", ref.iterations);
    info("sim.serve.makespan_s", ref.makespan);

    Layers untraced;
    if (!opt.trace) {
        SetupTimer setup([&] {
            const System s = System::make(wsc4x4());
            const auto requests =
                ArrivalProcess(cfg.arrival).generate(cfg.numRequests);
            ServeLoop loop(s.mapping(), cfg, nullptr, nullptr);
            for (const ServeRequest &r : requests)
                loop.push(r);
        });
        Throughput tp;
        const Clock::time_point t0 = Clock::now();
        do {
            const ServeEpisode ep =
                driveServe(sys.mapping(), cfg, stream, untraced, nullptr);
            checkServe(out, ep, stream.size(), refDigest);
            tp.addUnit(ep.wallS, ep.report.iterations,
                       static_cast<double>(stream.size()), ep.iterUs);
            setup.sample();
        } while (secondsSince(t0) < opt.seconds || tp.itersPerS.size() < 3);
        reportEndToEnd(out, tp, setup.seconds());
        return out;
    }

    Layers layers;
    layers.systemMakeMs = systemMakeMs(wsc4x4());
    layers.arrivalGenMs = 1e3 * medianSetupSeconds([&] {
        ArrivalProcess(cfg.arrival).generate(cfg.numRequests);
    });

    // Each traced stream runs after an untraced twin: serve entry
    // points timed, then the engine stages replayed under the same
    // demand sequence and scenario mixes on a shadow engine (the loop's
    // own engine is private). The shadow decodes at the configured
    // context length, so its NI timeline is representative of, not
    // identical to, the served one, and the lockstep check compares the
    // shadow with its replay, not the served engine.
    SpanLog spans;
    EngineConfig shadowCfg = cfg.engine;
    shadowCfg.workload.mode = GatingMode::MixedScenario;
    // The shadow replay is the instrument; the overhead compares the
    // traced serve loop alone against its untraced twin.
    OverheadPairs overhead;
    const Clock::time_point tt = Clock::now();
    do {
        const ServeEpisode twin =
            driveServe(sys.mapping(), cfg, stream, untraced, nullptr);
        checkServe(out, twin, stream.size(), refDigest);
        const ServeEpisode ep =
            driveServe(sys.mapping(), cfg, stream, layers, &spans);
        checkServe(out, ep, stream.size(), refDigest);
        overhead.add(twin.report.iterations / twin.wallS,
                     ep.report.iterations / ep.wallS);
        InferenceEngine shadow(sys.mapping(), shadowCfg);
        LockstepReplay replay(sys.mapping(), shadowCfg, spans);
        for (std::size_t i = 0; i < ep.report.trace.size(); ++i) {
            IterationDemand demand;
            demand.decodeTokensPerGroup = ep.report.trace[i].decodeTokens;
            demand.prefillTokensPerGroup = ep.report.trace[i].prefillTokens;
            shadow.workload().setScenarioMix(ep.mixes[i]);
            replay.setScenarioMix(ep.mixes[i]);
            replay.step(shadow, demand, layers.engine);
        }
    } while (secondsSince(tt) < opt.seconds);
    layers.traceOverheadFrac = overhead.frac();
    finishTrace(out, layers, spans, opt);
    return out;
}

// ------------------------------------------------------------ scale_1024

namespace {

/** Decode steps per measured block (one block = one reset engine). */
constexpr int kScaleBlockSteps = 8;

SystemConfig
scaleSystem()
{
    SystemConfig sc;
    sc.platform = PlatformKind::WscHer;
    sc.meshN = 16;
    sc.wafers = 4;
    sc.tp = 4;
    return sc;
}

EngineConfig
scaleEngine(std::uint64_t seed)
{
    EngineConfig ec;
    ec.model = qwen3();
    ec.schedule = SchedulingMode::DecodeOnly;
    ec.decodeTokensPerGroup = 16;
    ec.workload.mode = GatingMode::MixedScenario;
    ec.workload.seed = mixSeed(seed, 31);
    ec.balancer = BalancerKind::NonInvasive;
    return ec;
}

struct ScaleBlock
{
    double wallS = 0.0;
    std::vector<double> stepUs;
    std::string digest;
};

ScaleBlock
runScaleBlock(InferenceEngine &engine, const EngineConfig &ec)
{
    ScaleBlock b;
    Digest d;
    const Clock::time_point t0 = Clock::now();
    engine.reset(ec);
    for (int i = 0; i < kScaleBlockSteps; ++i) {
        const Clock::time_point ts = Clock::now();
        const IterationStats s = engine.step();
        b.stepUs.push_back(secondsSince(ts) * 1e6);
        addStats(d, s);
    }
    b.wallS = secondsSince(t0);
    b.digest = d.hex();
    return b;
}

} // namespace

RunResult
runScale1024(const Options &opt)
{
    RunResult out;
    printEnvironment(1);
    const EngineConfig ec = scaleEngine(opt.seed);

    // Set-up dominates this workload's start, so every sample is one
    // full build; the last build is kept for the run.
    std::unique_ptr<System> sys;
    std::unique_ptr<InferenceEngine> engine;
    std::vector<double> setups;
    std::vector<double> makes;
    for (int s = 0; s < 3; ++s) {
        engine.reset();
        sys.reset();
        const Clock::time_point t0 = Clock::now();
        sys = std::make_unique<System>(System::make(scaleSystem()));
        makes.push_back(secondsSince(t0));
        engine = std::make_unique<InferenceEngine>(sys->mapping(), ec);
        setups.push_back(secondsSince(t0));
    }
    info("run.devices", sys->mapping().numDevices());

    const ScaleBlock ref = runScaleBlock(*engine, ec);
    info("sim.digest", ref.digest);
    const auto untracedBlock = [&] {
        const ScaleBlock b = runScaleBlock(*engine, ec);
        out.attempted += kScaleBlockSteps;
        out.check(b.digest == ref.digest,
                  "scale_1024: block reproduces the reference steps");
        return b;
    };
    if (!opt.trace) {
        Throughput tp;
        std::vector<double> allSteps;
        const Clock::time_point t0 = Clock::now();
        do {
            const ScaleBlock b = untracedBlock();
            tp.addUnit(b.wallS, kScaleBlockSteps, 0.0, b.stepUs);
            allSteps.insert(allSteps.end(), b.stepUs.begin(),
                            b.stepUs.end());
        } while (secondsSince(t0) < opt.seconds || tp.itersPerS.size() < 3);
        // A block is too short for its own p90: pool every step instead.
        tp.p50Us.assign(1, windowPercentile(allSteps, 50.0));
        tp.p90Us.assign(1, windowPercentile(allSteps, 90.0));
        reportEndToEnd(out, tp, median(setups));
        return out;
    }

    // Each traced block runs after an untraced twin.
    Layers layers;
    layers.systemMakeMs = median(makes) * 1e3;
    SpanLog spans;
    OverheadPairs overhead;
    const Clock::time_point tt = Clock::now();
    do {
        const ScaleBlock twin = untracedBlock();
        const double replayBefore = layers.engine.replayS;
        const Clock::time_point tb = Clock::now();
        engine->reset(ec);
        LockstepReplay replay(sys->mapping(), ec, spans);
        const IterationDemand demand = configuredDemand(ec);
        Digest d;
        for (int i = 0; i < kScaleBlockSteps; ++i)
            addStats(d, replay.step(*engine, demand, layers.engine));
        const double tracedS =
            secondsSince(tb) - (layers.engine.replayS - replayBefore);
        overhead.add(kScaleBlockSteps / twin.wallS,
                     kScaleBlockSteps / tracedS);
        out.check(d.hex() == ref.digest,
                  "scale_1024: traced block reproduces the reference steps");
    } while (secondsSince(tt) < opt.seconds);
    layers.traceOverheadFrac = overhead.frac();
    const StageTotals &e = layers.engine;
    info("trace.a2a_plus_route_share_of_step",
         (e.a2aS + e.routeS) / e.stepS);
    finishTrace(out, layers, spans, opt);
    return out;
}

// ---------------------------------------------------------- fleet_faults

namespace {

/** Requests per fleet run. */
constexpr int kFleetRequests = 2000;

FleetConfig
fleetConfig(std::uint64_t seed, const FaultPlan &replica0Faults)
{
    ReplicaConfig rc;
    rc.system = wsc4x4();
    rc.serve.engine.model = qwen3();
    rc.serve.engine.workload.seed = mixSeed(seed, 41);
    rc.serve.engine.balancer = BalancerKind::NonInvasive;
    rc.serve.engine.alpha = 0.5;
    rc.serve.engine.beta = 5;
    rc.serve.scheduler.kvBudgetTokens = 16384;
    rc.serve.scheduler.maxRunningRequests = 32;
    rc.serve.scheduler.prefillChunkTokens = 512;
    rc.serve.slo.ttft = 0.05;
    rc.serve.slo.tpot = 0.005;

    FleetConfig fc;
    fc.replicas.assign(4, rc);
    fc.replicas[0].serve.faults = replica0Faults;
    fc.replicas[3].startParked = true;
    fc.arrival.kind = ArrivalKind::Diurnal;
    fc.arrival.ratePerSec = 300.0;
    fc.arrival.mixDriftPeriodSec = 4.0;
    fc.arrival.promptMeanTokens = 256;
    fc.arrival.promptMaxTokens = 2048;
    fc.arrival.outputMeanTokens = 48;
    fc.arrival.outputMaxTokens = 256;
    fc.arrival.seed = mixSeed(seed, 42);
    fc.numRequests = kFleetRequests;
    fc.router = RouterPolicy::PowerOfTwo;
    fc.routerSeed = mixSeed(seed, 43);
    fc.slo.ttft = 0.05;
    fc.slo.tpot = 0.005;
    fc.autoscaler.enabled = true;
    fc.autoscaler.evalPeriodSec = 0.05;
    fc.autoscaler.spinUpDelaySec = 0.2;
    fc.autoscaler.scaleUpThreshold = 6.0;
    fc.autoscaler.scaleDownThreshold = 1.0;
    return fc;
}

FaultPlan
cascadePlan()
{
    FaultScenarioSpec spec;
    spec.startIteration = 40;
    spec.spacing = 25;
    const System sys = System::make(wsc4x4());
    return makeFaultScenario(FaultScenarioKind::Cascade, sys.topology(),
                             spec);
}

std::string
fleetDigest(const FleetReport &r)
{
    Digest d;
    for (const int x : r.dispatched)
        d.add(static_cast<std::int64_t>(x));
    for (const int x :
         {r.totalRequests, r.frontDoorShed, r.completedRequests,
          r.shedRequests, r.failedRequests, r.retriesTotal,
          r.iterationsTotal}) {
        d.add(static_cast<std::int64_t>(x));
    }
    for (const double x :
         {r.makespan, r.ttftP50, r.ttftP99, r.tpotP50, r.tpotP99,
          r.latencyP99, r.throughputTokensPerSec, r.goodputRequestsPerSec,
          r.sloAttainment}) {
        d.add(x);
    }
    for (const ScaleEvent &e : r.scaleEvents) {
        d.add(e.time);
        d.add(static_cast<std::int64_t>(e.kind));
    }
    return d.hex();
}

struct FleetEpisode
{
    FleetReport report;
    double wallS = 0.0;
    std::int64_t faultEvents = 0, linkReroutes = 0, devicesLost = 0;
};

FleetEpisode
runFleet(const FleetConfig &fc)
{
    FleetSimulator fleet(fc);
    FleetEpisode ep;
    const Clock::time_point t0 = Clock::now();
    ep.report = fleet.run();
    ep.wallS = secondsSince(t0);
    const StatRegistry &s = fleet.stats();
    const auto counter = [&](const char *name) {
        return s.contains(name) ? s.counterValue(name) : std::int64_t{0};
    };
    ep.faultEvents = counter("fault.events_applied");
    ep.linkReroutes = counter("fault.link_reroutes");
    ep.devicesLost = counter("fault.devices_lost");
    return ep;
}

void
checkFleet(RunResult &out, const FleetEpisode &ep, const std::string &ref)
{
    const FleetReport &r = ep.report;
    int dispatched = 0;
    for (const int x : r.dispatched)
        dispatched += x;
    out.check(dispatched + r.frontDoorShed == r.totalRequests &&
                  r.totalRequests == kFleetRequests,
              "fleet_faults: dispatched + front-door shed = requests");
    out.check(r.completedRequests + r.shedRequests + r.failedRequests ==
                  dispatched,
              "fleet_faults: every dispatched request finished");
    out.check(fleetDigest(r) == ref,
              "fleet_faults: fleet run reproduces the reference report");
}

} // namespace

RunResult
runFleetFaults(const Options &opt)
{
    RunResult out;
    printEnvironment(1);
    const FaultPlan plan = cascadePlan();
    const FleetConfig fc = fleetConfig(opt.seed, plan);

    const FleetEpisode ref = runFleet(fc);
    const std::string refDigest = fleetDigest(ref.report);
    checkFleet(out, ref, refDigest);
    info("sim.digest", refDigest);
    info("sim.fleet.goodput_rps", ref.report.goodputRequestsPerSec);
    info("sim.fleet.ttft_p99_ms", ref.report.ttftP99 * 1e3);
    info("sim.fleet.tpot_p99_ms", ref.report.tpotP99 * 1e3);
    info("sim.fleet.slo_attainment", ref.report.sloAttainment);
    info("sim.fleet.shed", ref.report.shedRequests);
    info("sim.fleet.failed", ref.report.failedRequests);
    info("sim.fleet.retries", ref.report.retriesTotal);
    info("sim.fleet.front_door_shed", ref.report.frontDoorShed);
    info("sim.fleet.scale_events",
         static_cast<double>(ref.report.scaleEvents.size()));

    if (!opt.trace) {
        SetupTimer setup([&] {
            FleetSimulator fleet(fleetConfig(opt.seed, cascadePlan()));
        });
        Throughput tp;
        std::vector<double> perIterUs;
        const Clock::time_point t0 = Clock::now();
        do {
            const FleetEpisode ep = runFleet(fc);
            checkFleet(out, ep, refDigest);
            const double iterations = ep.report.iterationsTotal;
            // The fleet loop is one call, so its iterations cannot be
            // timed one by one from outside: the sample is the run's
            // mean host time per iteration, and p50/p90 are taken over
            // runs, not iterations.
            tp.addUnit(ep.wallS, iterations, ep.report.totalRequests, {});
            perIterUs.push_back(ep.wallS * 1e6 / iterations);
            setup.sample();
        } while (secondsSince(t0) < opt.seconds || tp.itersPerS.size() < 3);
        tp.p50Us.assign(1, windowPercentile(perIterUs, 50.0));
        tp.p90Us.assign(1, windowPercentile(perIterUs, 90.0));
        tp.iterationSamples = perIterUs.size();
        reportEndToEnd(out, tp, setup.seconds());
        return out;
    }

    // Each traced fleet run follows an untraced twin.
    Layers layers;
    layers.systemMakeMs = systemMakeMs(wsc4x4());
    SpanLog spans;
    OverheadPairs overhead;
    std::vector<double> runS;
    std::vector<double> usPerIter;
    const Clock::time_point tt = Clock::now();
    do {
        const FleetEpisode twin = runFleet(fc);
        checkFleet(out, twin, refDigest);
        FleetEpisode ep;
        {
            double spanS = 0.0;
            ScopedSpan s(spans, "cluster.run", spanS);
            ep = runFleet(fc);
        }
        checkFleet(out, ep, refDigest);
        runS.push_back(ep.wallS);
        usPerIter.push_back(ep.wallS * 1e6 / ep.report.iterationsTotal);
        overhead.add(twin.report.iterationsTotal / twin.wallS,
                     ep.report.iterationsTotal / ep.wallS);
        const FleetReport &r = ep.report;
        layers.dispatched = 0;
        for (const int x : r.dispatched)
            layers.dispatched += x;
        layers.frontDoorShed = r.frontDoorShed;
        layers.scaleEvents = static_cast<std::int64_t>(r.scaleEvents.size());
        layers.faultEvents = ep.faultEvents;
        layers.linkReroutes = ep.linkReroutes;
        layers.devicesLost = ep.devicesLost;
    } while (secondsSince(tt) < opt.seconds || runS.size() < 2);
    layers.clusterRunS = median(runS);
    layers.usPerReplicaIteration = median(usPerIter);
    layers.traceOverheadFrac = overhead.frac();
    out.check(layers.faultEvents > 0,
              "fleet_faults: the cascade plan applied its events");
    finishTrace(out, layers, spans, opt);
    return out;
}

} // namespace perfbench
