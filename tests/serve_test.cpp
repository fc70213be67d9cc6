/**
 * @file
 * Tests for the request-level serving subsystem (src/serve/):
 *  - arrival determinism: equal configs generate identical streams,
 *    distinct kinds/seeds diverge, traces replay verbatim;
 *  - scheduler invariants: the KV reservation never exceeds the
 *    budget, admission is FIFO (globally, hence within every scenario
 *    class), every request finishes with ordered timestamps;
 *  - serve determinism: a fixed seed yields bitwise-identical
 *    per-request metrics across runs, and serve sweep cells under
 *    SweepRunner --jobs 2 byte-compare against --jobs 1;
 *  - engine demand coupling: the fixed-budget step() is exactly the
 *    demand overload with the configured budget;
 *  - pinned digests (ServeDigest.*) of a fault-free Bursty run and of
 *    a Cascade run that evicts and sheds: report, trace and stats.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "core/moentwine.hh"
#include "fault/fault.hh"
#include "serve_digest.hh"
#include "sweep/sweep.hh"
#include "watchdog.hh"

using namespace moentwine;

namespace {

/** Small, fast 4×4 ER-mapped WSC shared by the serving tests. */
const System &
testSystem()
{
    static const System sys = [] {
        SystemConfig sc;
        sc.platform = PlatformKind::WscEr;
        sc.meshN = 4;
        sc.tp = 4;
        return System::make(sc);
    }();
    return sys;
}

/** Compact serving config sized for unit tests. */
ServeConfig
testServeConfig(ArrivalKind kind, BalancerKind balancer, uint64_t seed)
{
    ServeConfig sc;
    sc.engine.model = qwen3();
    sc.engine.workload.seed = seed;
    sc.engine.balancer = balancer;
    sc.engine.alpha = 0.5;
    sc.engine.beta = 5;
    sc.arrival.kind = kind;
    sc.arrival.ratePerSec = 60.0;
    sc.arrival.promptMeanTokens = 128;
    sc.arrival.promptMaxTokens = 1024;
    sc.arrival.outputMeanTokens = 24;
    sc.arrival.outputMaxTokens = 128;
    sc.arrival.mixDriftPeriodSec = 1.0;
    sc.arrival.seed = seed;
    sc.scheduler.kvBudgetTokens = 8192;
    sc.scheduler.maxRunningRequests = 16;
    sc.scheduler.prefillChunkTokens = 256;
    sc.numRequests = 30;
    return sc;
}

} // namespace

// ---------------------------------------------------------- arrival ----

TEST(ArrivalProcess, EqualConfigsGenerateIdenticalStreams)
{
    for (const ArrivalKind kind :
         {ArrivalKind::Poisson, ArrivalKind::Bursty,
          ArrivalKind::Diurnal}) {
        ArrivalConfig ac;
        ac.kind = kind;
        ac.ratePerSec = 100.0;
        ac.mixDriftPeriodSec = 2.0;
        const auto a = ArrivalProcess(ac).generate(50);
        const auto b = ArrivalProcess(ac).generate(50);
        ASSERT_EQ(a.size(), 50u);
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].id, b[i].id);
            EXPECT_EQ(a[i].scenario, b[i].scenario);
            EXPECT_EQ(a[i].promptTokens, b[i].promptTokens);
            EXPECT_EQ(a[i].outputTokens, b[i].outputTokens);
            // Bitwise: the stream is a pure function of the config.
            EXPECT_EQ(a[i].arrivalTime, b[i].arrivalTime);
        }
    }
}

TEST(ArrivalProcess, SeedsAndKindsDiverge)
{
    ArrivalConfig ac;
    ac.ratePerSec = 100.0;
    const auto base = ArrivalProcess(ac).generate(20);
    ac.seed = 43;
    const auto reseeded = ArrivalProcess(ac).generate(20);
    EXPECT_NE(base[5].arrivalTime, reseeded[5].arrivalTime);

    ac.seed = 42;
    ac.kind = ArrivalKind::Bursty;
    const auto bursty = ArrivalProcess(ac).generate(20);
    EXPECT_NE(base[5].arrivalTime, bursty[5].arrivalTime);
}

TEST(ArrivalProcess, ArrivalsAreTimeOrderedAndWellFormed)
{
    for (const ArrivalKind kind :
         {ArrivalKind::Poisson, ArrivalKind::Bursty,
          ArrivalKind::Diurnal}) {
        ArrivalConfig ac;
        ac.kind = kind;
        ac.ratePerSec = 200.0;
        const auto reqs = ArrivalProcess(ac).generate(100);
        double last = 0.0;
        for (const ServeRequest &r : reqs) {
            EXPECT_GE(r.arrivalTime, last);
            last = r.arrivalTime;
            // arrival.cc clamps prompts to >= 16 and outputs to >= 4.
            EXPECT_GE(r.promptTokens, 16);
            EXPECT_LE(r.promptTokens, ac.promptMaxTokens);
            EXPECT_GE(r.outputTokens, 4);
            EXPECT_LE(r.outputTokens, ac.outputMaxTokens);
        }
    }
}

TEST(ArrivalProcess, TraceReplaysVerbatim)
{
    ArrivalConfig ac;
    ac.kind = ArrivalKind::Trace;
    ac.trace = {{0.1, ScenarioKind::Math, 64, 8},
                {0.2, ScenarioKind::Chat, 32, 4},
                {0.5, ScenarioKind::Coding, 128, 16}};
    const auto reqs = ArrivalProcess(ac).generate(10);
    ASSERT_EQ(reqs.size(), 3u); // bounded by the trace
    EXPECT_EQ(reqs[1].scenario, ScenarioKind::Chat);
    EXPECT_EQ(reqs[1].promptTokens, 32);
    EXPECT_EQ(reqs[2].arrivalTime, 0.5);
}

// -------------------------------------------------------- scheduler ----

TEST(Scheduler, KvBudgetNeverOverflowsAndFifoHolds)
{
    ArrivalConfig ac;
    ac.ratePerSec = 500.0; // heavy backlog so admission gates
    ac.promptMeanTokens = 256;
    ac.outputMeanTokens = 32;
    const auto reqs = ArrivalProcess(ac).generate(60);

    ServeSchedulerConfig cfg;
    cfg.kvBudgetTokens = 2048; // tight: forces queueing
    cfg.maxRunningRequests = 8;
    cfg.prefillChunkTokens = 128;
    ContinuousBatchScheduler sched(cfg);
    for (const ServeRequest &r : reqs)
        sched.push(r);

    double now = 0.0;
    int guard = 0;
    while (!sched.done()) {
        ASSERT_LT(guard++, 100000) << "scheduler made no progress";
        sched.admit(now);
        ASSERT_LE(sched.kvReserved(), cfg.kvBudgetTokens);
        ASSERT_LE(sched.runningCount(), cfg.maxRunningRequests);
        const IterationDemand d = sched.plan();
        if (d.tokensPerGroup() == 0) {
            now = sched.nextArrival();
            continue;
        }
        EXPECT_LE(d.prefillTokensPerGroup, cfg.prefillChunkTokens);
        EXPECT_LE(d.decodeTokensPerGroup, cfg.maxRunningRequests);
        now += 0.001;
        sched.complete(now);
    }

    // Admission is globally FIFO (head-of-line blocking), therefore
    // FIFO within every scenario class as well.
    const auto &order = sched.admissionOrder();
    ASSERT_EQ(order.size(), reqs.size());
    std::map<ScenarioKind, int> lastOfClass;
    for (std::size_t i = 0; i < order.size(); ++i) {
        if (i > 0) {
            EXPECT_GT(order[i], order[i - 1]) << "global FIFO broken";
        }
        const ScenarioKind s =
            reqs[static_cast<std::size_t>(order[i])].scenario;
        auto it = lastOfClass.find(s);
        if (it != lastOfClass.end()) {
            EXPECT_GT(order[i], it->second) << "class FIFO broken";
        }
        lastOfClass[s] = order[i];
    }

    // Every request finished with ordered timestamps.
    for (const RequestMetrics &m : sched.metrics()) {
        EXPECT_GE(m.admitTime, m.arrivalTime);
        EXPECT_GE(m.firstTokenTime, m.admitTime);
        EXPECT_GE(m.finishTime, m.firstTokenTime);
        EXPECT_GE(m.ttft(), 0.0);
        EXPECT_GE(m.tpot(), 0.0);
    }
    EXPECT_EQ(sched.kvReserved(), 0);
}

TEST(Scheduler, PressureAccessorsMatchRegistryBitwise)
{
    ArrivalConfig ac;
    ac.ratePerSec = 300.0;
    ac.promptMeanTokens = 128;
    ac.outputMeanTokens = 16;
    const auto reqs = ArrivalProcess(ac).generate(40);

    ServeSchedulerConfig cfg;
    cfg.kvBudgetTokens = 4096;
    cfg.maxRunningRequests = 8;
    cfg.prefillChunkTokens = 128;
    StatRegistry stats;
    ContinuousBatchScheduler sched(cfg);
    for (const ServeRequest &r : reqs)
        sched.push(r);
    sched.attachStats(&stats);

    double now = 0.0;
    while (!sched.done()) {
        sched.admit(now);
        // The router-visible pressure signals are pure re-reads of the
        // scheduler's own counters — bitwise, not approximately.
        int notArrived = 0;
        for (const ServeRequest &r : reqs)
            notArrived += r.arrivalTime > now ? 1 : 0;
        EXPECT_EQ(sched.queueDepth() + sched.runningCount() +
                      sched.finishedCount() + sched.retryPending() +
                      notArrived,
                  static_cast<int>(reqs.size()));
        EXPECT_EQ(sched.kvReservedFraction(),
                  static_cast<double>(sched.kvReserved()) /
                      static_cast<double>(cfg.kvBudgetTokens));
        if (sched.plan().tokensPerGroup() == 0) {
            now = sched.nextArrival();
            continue;
        }
        now += 0.001;
        sched.complete(now);
    }

    // The registry's transition counters re-derive the same story the
    // accessors told: every request admitted once and completed once
    // (fault-free), nothing shed, failed, or evicted.
    EXPECT_EQ(stats.counterValue("serve.sched.admitted"),
              static_cast<std::int64_t>(reqs.size()));
    EXPECT_EQ(stats.counterValue("serve.sched.completed"),
              static_cast<std::int64_t>(reqs.size()));
    EXPECT_EQ(stats.counterValue("serve.sched.shed"), 0);
    EXPECT_EQ(stats.counterValue("serve.sched.failed"), 0);
    EXPECT_EQ(stats.counterValue("serve.sched.evictions"), 0);
    EXPECT_EQ(sched.kvReservedFraction(), 0.0);
}

TEST(Scheduler, TickIdleElapsesBackoffAndReadmitsInEvictionOrder)
{
    ServeSchedulerConfig cfg;
    cfg.kvBudgetTokens = 4096;
    cfg.maxRunningRequests = 8;
    cfg.prefillChunkTokens = 128;
    ContinuousBatchScheduler sched(cfg);

    for (int id = 0; id < 3; ++id) {
        ServeRequest r;
        r.id = id;
        r.scenario = ScenarioKind::Chat;
        r.promptTokens = 64;
        r.outputTokens = 8;
        r.arrivalTime = 0.0;
        sched.push(r);
    }
    sched.admit(0.0);
    ASSERT_EQ(sched.runningCount(), 3);

    // A fault evicts all three; the eviction order (1, 0, 2) is the
    // order they must re-enter the queue front in.
    sched.evictToRetry(1, 2);
    sched.evictToRetry(0, 2);
    sched.evictToRetry(2, 2);
    EXPECT_EQ(sched.retryPending(), 3);
    EXPECT_EQ(sched.runningCount(), 0);
    EXPECT_EQ(sched.kvReserved(), 0);

    // Nothing is runnable while the backoff pends: plan() is empty and
    // only tickIdle() advances the iteration clock the backoff counts.
    sched.admit(0.0);
    EXPECT_EQ(sched.queueDepth(), 0);
    EXPECT_EQ(sched.plan().tokensPerGroup(), 0);
    sched.tickIdle();
    sched.admit(0.0);
    EXPECT_EQ(sched.queueDepth(), 0) << "re-admitted before backoff";
    sched.tickIdle();
    EXPECT_EQ(sched.iterationIndex(), 2);

    // Backoff elapsed: all three re-queue at the front in eviction
    // order and admit FIFO from there — deterministically 1, 0, 2.
    sched.admit(0.0);
    EXPECT_EQ(sched.retryPending(), 0);
    ASSERT_EQ(sched.runningCount(), 3);
    const std::vector<int> expected = {0, 1, 2, 1, 0, 2};
    EXPECT_EQ(sched.admissionOrder(), expected);

    double now = 0.0;
    while (!sched.done()) {
        sched.admit(now);
        if (sched.plan().tokensPerGroup() == 0)
            break;
        now += 0.001;
        sched.complete(now);
    }
    EXPECT_TRUE(sched.done());
    for (const RequestMetrics &m : sched.metrics()) {
        EXPECT_EQ(m.retries, 1);
        EXPECT_EQ(m.outcome, RequestOutcome::Completed);
    }
}

// ------------------------------------------------ serve simulation ----

TEST(ServeSimulator, FixedSeedIsBitwiseDeterministic)
{
    const ServeConfig sc = testServeConfig(
        ArrivalKind::Bursty, BalancerKind::NonInvasive, 7);
    const ServeReport a =
        ServeSimulator(testSystem().mapping(), sc).run();
    const ServeReport b =
        ServeSimulator(testSystem().mapping(), sc).run();

    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        // Bitwise, not approximate: the whole serving timeline is a
        // pure function of the seed.
        EXPECT_EQ(a.requests[i].arrivalTime, b.requests[i].arrivalTime);
        EXPECT_EQ(a.requests[i].admitTime, b.requests[i].admitTime);
        EXPECT_EQ(a.requests[i].firstTokenTime,
                  b.requests[i].firstTokenTime);
        EXPECT_EQ(a.requests[i].finishTime, b.requests[i].finishTime);
    }
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.ttftP99, b.ttftP99);
    EXPECT_EQ(a.goodputRequestsPerSec, b.goodputRequestsPerSec);
}

TEST(ServeSimulator, ServesEveryRequestAndRespectsKvBudget)
{
    const ServeConfig sc =
        testServeConfig(ArrivalKind::Poisson, BalancerKind::None, 11);
    ServeSimulator sim(testSystem().mapping(), sc);
    const ServeReport r = sim.run();

    ASSERT_EQ(r.requests.size(),
              static_cast<std::size_t>(sc.numRequests));
    EXPECT_GT(r.iterations, 0);
    EXPECT_GT(r.makespan, 0.0);
    EXPECT_GT(r.throughputTokensPerSec, 0.0);
    for (const RequestMetrics &m : r.requests) {
        EXPECT_GT(m.finishTime, 0.0);
        EXPECT_GE(m.ttft(), 0.0);
        EXPECT_GE(m.latency(), m.ttft());
    }
    for (const ServeTracePoint &p : r.trace)
        EXPECT_LE(p.kvReserved, sc.scheduler.kvBudgetTokens);
    // KV pressure now lives in the stat registry (src/obs/).
    const DistributionView kv =
        sim.stats().distributionView("serve.kv.reserved_tokens");
    EXPECT_LE(kv.max,
              static_cast<double>(sc.scheduler.kvBudgetTokens));
}

TEST(ServeLoop, EmptyStreamFinalizesToZerosWithoutPanicking)
{
    // A fleet replica that never receives a dispatch finalizes an
    // empty completed set: percentiles and rates degrade to zero
    // instead of tripping the Summary percentile panic.
    const ServeConfig sc =
        testServeConfig(ArrivalKind::Poisson, BalancerKind::None, 3);
    StatRegistry stats;
    ServeLoop loop(testSystem().mapping(), sc, &stats, nullptr);

    EXPECT_EQ(loop.pushedRequests(), 0);
    EXPECT_TRUE(loop.allFinished());
    EXPECT_FALSE(loop.beginIteration()); // nothing runnable
    const ServeReport r = loop.finalize();

    EXPECT_TRUE(r.requests.empty());
    EXPECT_EQ(r.iterations, 0);
    EXPECT_EQ(r.makespan, 0.0);
    EXPECT_EQ(r.ttftP50, 0.0);
    EXPECT_EQ(r.ttftP99, 0.0);
    EXPECT_EQ(r.tpotP99, 0.0);
    EXPECT_EQ(r.latencyP99, 0.0);
    EXPECT_EQ(r.throughputTokensPerSec, 0.0);
    EXPECT_EQ(r.goodputRequestsPerSec, 0.0);
    EXPECT_EQ(r.sloAttainment, 0.0);
}

TEST(ServeLoop, SingleRequestStreamDrivesLoopToCompletion)
{
    // The smallest populated stream: one pushed request driven through
    // the public begin/finish interface. Pins the singleton-percentile
    // convention (P50 == P99) right next to the empty-set guard above.
    ServeConfig sc =
        testServeConfig(ArrivalKind::Poisson, BalancerKind::None, 5);
    sc.scheduler.kvBudgetTokens = 4096;
    ServeLoop loop(testSystem().mapping(), sc, nullptr, nullptr);

    ServeRequest r;
    r.id = 0;
    r.scenario = ScenarioKind::Chat;
    r.promptTokens = 64;
    r.outputTokens = 8;
    r.arrivalTime = 0.0;
    loop.push(r);
    while (!loop.allFinished()) {
        if (loop.beginIteration()) {
            loop.finishIteration();
            continue;
        }
        loop.advanceIdle(loop.nextArrival());
    }
    const ServeReport report = loop.finalize();
    ASSERT_EQ(report.requests.size(), 1u);
    EXPECT_EQ(report.requests[0].outcome, RequestOutcome::Completed);
    EXPECT_GT(report.makespan, 0.0);
    EXPECT_EQ(report.ttftP50, report.ttftP99); // singleton percentile
    EXPECT_GT(report.sloAttainment, 0.0);
}

// -------------------------------------------------- pinned digests ----
//
// FNV-1a digests of whole served runs: every score field, the
// iteration count, each request's admit/first-token/finish times,
// outcome and retries, every trace point, and the bytes of the
// published stats JSON. The Cascade run evicts residents of lost
// devices and sheds, so the digest covers the fault response too.
// The constants pin the serving layer's output; they must never be
// regenerated to make a serving change pass.

namespace {

/** Digest of one ServeSimulator run; @p out receives its report. */
std::uint64_t
serveRunDigest(const ServeConfig &sc, ServeReport &out)
{
    ServeSimulator sim(testSystem().mapping(), sc);
    out = sim.run();
    std::uint64_t h = digest::kOffset;
    mixServeReport(h, out);
    digest::mixBytes(h, sim.stats().toJson());
    return h;
}

} // namespace

TEST(ServeDigest, FaultFreeBurstyRun)
{
    const ServeConfig sc = testServeConfig(
        ArrivalKind::Bursty, BalancerKind::NonInvasive, 7);
    ServeReport r;
    const std::uint64_t h = serveRunDigest(sc, r);
    EXPECT_EQ(r.faultEventsApplied, 0);
    EXPECT_EQ(h, 0x91863b2a872ea4a3ULL) << std::hex << h;
}

TEST(ServeDigest, CascadeRunEvictsAndSheds)
{
    ServeConfig sc = testServeConfig(
        ArrivalKind::Poisson, BalancerKind::NonInvasive, 11);
    sc.arrival.ratePerSec = 800.0; // a backlog the TTFT shed bound cuts
    sc.numRequests = 80;
    sc.slo.ttft = 0.02;
    sc.scheduler.kvBudgetTokens = 16384;
    sc.scheduler.maxRunningRequests = 48; // several residents per device
    FaultScenarioSpec spec;
    spec.startIteration = 5;
    spec.spacing = 10;
    sc.faults = makeFaultScenario(FaultScenarioKind::Cascade,
                                  testSystem().mapping().topology(), spec);
    ServeReport r;
    const std::uint64_t h = serveRunDigest(sc, r);
    EXPECT_GT(r.faultEventsApplied, 0);
    EXPECT_GT(r.retriesTotal, 0);
    EXPECT_GT(r.shedRequests, 0);
    EXPECT_EQ(h, 0x0d5ab414306ea632ULL) << std::hex << h;
}

// ----------------------------------------------------- sweep cells ----

TEST(ServeSweep, ParallelServeCellsByteIdenticalToSerial)
{
    SweepGrid grid;
    SystemConfig wsc;
    wsc.platform = PlatformKind::WscEr;
    wsc.meshN = 4;
    wsc.tp = 4;
    grid.systems = {wsc};
    grid.balancers = {BalancerKind::None, BalancerKind::NonInvasive};
    grid.arrivals = {ArrivalKind::Poisson, ArrivalKind::Bursty};

    const auto cellFn = [](const SweepCell &cell) {
        ServeConfig sc = testServeConfig(cell.point.arrivalKind(),
                                         cell.point.balancerKind(),
                                         cell.point.seed());
        sc.numRequests = 15;
        const ServeReport r =
            ServeSimulator(cell.system->mapping(), sc).run();
        SweepResult row;
        row.label = arrivalKindName(cell.point.arrivalKind()) + " #" +
            std::to_string(cell.point.index);
        row.add("ttft_p99", r.ttftP99);
        row.add("tpot_p99", r.tpotP99);
        row.add("goodput", r.goodputRequestsPerSec);
        row.add("makespan", r.makespan);
        return row;
    };

    const auto serial = SweepRunner(1).run(grid, cellFn);
    const auto parallel = SweepRunner(2).run(grid, cellFn);
    ASSERT_EQ(serial.size(), grid.cells());
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].label, parallel[i].label);
        ASSERT_EQ(serial[i].metrics.size(), parallel[i].metrics.size());
        for (std::size_t m = 0; m < serial[i].metrics.size(); ++m) {
            EXPECT_EQ(serial[i].metrics[m].first,
                      parallel[i].metrics[m].first);
            // Bitwise: thread count must not perturb a single ULP.
            EXPECT_EQ(serial[i].metrics[m].second,
                      parallel[i].metrics[m].second)
                << "row " << i;
        }
    }
}

// -------------------------------------------------- engine demand ----

TEST(EngineDemand, FixedBudgetStepEqualsDemandOverload)
{
    EngineConfig ec;
    ec.model = qwen3();
    ec.schedule = SchedulingMode::Hybrid;
    ec.decodeTokensPerGroup = 64;
    ec.prefillTokensPerGroup = 512;
    ec.workload.mode = GatingMode::MixedScenario;
    ec.balancer = BalancerKind::NonInvasive;

    InferenceEngine fixed(testSystem().mapping(), ec);
    InferenceEngine demanded(testSystem().mapping(), ec);
    IterationDemand d;
    d.decodeTokensPerGroup = 64;
    d.prefillTokensPerGroup = 512 / 4; // the Hybrid composition
    for (int i = 0; i < 6; ++i) {
        const IterationStats a = fixed.step();
        const IterationStats b = demanded.step(d);
        EXPECT_EQ(a.attnCompute, b.attnCompute);
        EXPECT_EQ(a.allReduce, b.allReduce);
        EXPECT_EQ(a.dispatch, b.dispatch);
        EXPECT_EQ(a.combine, b.combine);
        EXPECT_EQ(a.moeTime, b.moeTime);
        EXPECT_EQ(a.migrationOverhead, b.migrationOverhead);
    }
}

TEST(EngineDemand, PrefillOnlyDemandSkipsDecodeAttention)
{
    EngineConfig ec;
    ec.model = qwen3();
    ec.workload.mode = GatingMode::Balanced;
    InferenceEngine engine(testSystem().mapping(), ec);

    IterationDemand prefill;
    prefill.prefillTokensPerGroup = 256;
    IterationDemand decode;
    decode.decodeTokensPerGroup = 256;
    const double prefillAttn = engine.step(prefill).attnCompute;
    const double decodeAttn = engine.step(decode).attnCompute;
    EXPECT_GT(prefillAttn, 0.0);
    EXPECT_GT(decodeAttn, 0.0);
    EXPECT_NE(prefillAttn, decodeAttn);
}

TEST(EngineDemand, ScenarioMixOverrideSteersGating)
{
    WorkloadConfig wc;
    wc.numExperts = 64;
    wc.topK = 4;
    wc.mode = GatingMode::MixedScenario;
    WorkloadGenerator gen(wc);

    std::vector<double> math(allScenarios().size(), 0.0);
    math[2] = 1.0; // ScenarioKind::Math
    gen.setScenarioMix(math);
    const auto overridden = gen.affinity(0, 0);

    WorkloadConfig single = wc;
    single.mode = GatingMode::SingleScenario;
    single.scenario = ScenarioKind::Math;
    const auto reference = WorkloadGenerator(single).affinity(0, 0);
    ASSERT_EQ(overridden.size(), reference.size());
    for (std::size_t e = 0; e < overridden.size(); ++e)
        EXPECT_DOUBLE_EQ(overridden[e], reference[e]);

    gen.clearScenarioMix();
    const auto internal = gen.affinity(0, 0);
    bool differs = false;
    for (std::size_t e = 0; e < internal.size(); ++e)
        differs |= internal[e] != overridden[e];
    EXPECT_TRUE(differs);
}

TEST(EngineDemand, MixChangeTakesEffectAtUnchangedIteration)
{
    // A large mix change must reach the gating sampler even when the
    // iteration index does not advance between calls (the alias table
    // was built at this very iteration).
    WorkloadConfig wc;
    wc.numExperts = 64;
    wc.topK = 4;
    wc.mode = GatingMode::MixedScenario;

    const auto countsWithMix =
        [&](const std::vector<double> *mix) {
            WorkloadGenerator gen(wc);
            auto warm = gen.sampleCounts(3, 0, 512, 1); // builds alias
            (void)warm;
            if (mix)
                gen.setScenarioMix(*mix);
            return gen.sampleCounts(3, 0, 512, 1); // same iteration
        };

    std::vector<double> math(allScenarios().size(), 0.0);
    math[2] = 1.0; // far from the iteration-3 rotating mixture
    const auto steered = countsWithMix(&math);
    const auto unsteered = countsWithMix(nullptr);
    ASSERT_EQ(steered.size(), unsteered.size());
    bool differs = false;
    for (std::size_t e = 0; e < steered[0].size(); ++e)
        differs |= steered[0][e] != unsteered[0][e];
    EXPECT_TRUE(differs) << "same-iteration mix change was ignored";
}
