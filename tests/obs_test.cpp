/**
 * @file
 * Tests for the observability layer (src/obs/):
 *  - StatRegistry basics: handle resolution (same name → same handle),
 *    counter/gauge/distribution semantics, kind-mismatch panics;
 *  - merge semantics and the deterministic mergedInOrder() idiom,
 *    including the one-registry-per-worker concurrency pattern (the
 *    TSan target: concurrent writers never share a registry);
 *  - TraceSink: structural JSON validity and byte-determinism of
 *    identical emission sequences;
 *  - the observation-is-free contract: attaching stats + trace to a
 *    ServeSimulator leaves the report bitwise identical to an
 *    unobserved run, and two observed runs produce byte-identical
 *    trace files;
 *  - published counter sanity: scheduler/engine/fault stats visible
 *    through ServeSimulator::stats() agree with the report;
 *  - the HwCounters PMU probe: two probes agree and release their
 *    descriptor.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <string>
#include <thread>
#include <vector>

#include "core/moentwine.hh"
#include "fault/fault.hh"
#include "obs/obs.hh"
#include "serve/serve_sim.hh"
#include "watchdog.hh"

using namespace moentwine;

namespace {

/** Small WSC platform shared by the serving-level tests. */
System
testSystem()
{
    SystemConfig wsc;
    wsc.platform = PlatformKind::WscEr;
    wsc.meshN = 4;
    wsc.tp = 4;
    return System::make(wsc);
}

/** Short saturating serve config (deterministic stream). */
ServeConfig
testServeConfig(int requests)
{
    ServeConfig sc;
    sc.engine.model = qwen3();
    sc.engine.workload.seed = 77;
    sc.arrival.kind = ArrivalKind::Bursty;
    sc.arrival.ratePerSec = 150.0;
    sc.arrival.promptMeanTokens = 256;
    sc.arrival.promptMaxTokens = 2048;
    sc.arrival.outputMeanTokens = 48;
    sc.arrival.outputMaxTokens = 256;
    sc.arrival.seed = 4711;
    sc.scheduler.kvBudgetTokens = 16384;
    sc.scheduler.maxRunningRequests = 32;
    sc.numRequests = requests;
    return sc;
}

/** Very light structural JSON sanity: balanced braces/brackets outside
 *  strings, and a leading '{'. (Full validation runs in CI through
 *  `python3 -m json.tool`.) */
void
expectBalancedJson(const std::string &doc)
{
    ASSERT_FALSE(doc.empty());
    EXPECT_EQ(doc.front(), '{');
    int brace = 0, bracket = 0;
    bool inString = false, escaped = false;
    for (const char c : doc) {
        if (escaped) {
            escaped = false;
            continue;
        }
        if (c == '\\') {
            escaped = true;
            continue;
        }
        if (c == '"') {
            inString = !inString;
            continue;
        }
        if (inString)
            continue;
        brace += (c == '{') - (c == '}');
        bracket += (c == '[') - (c == ']');
        EXPECT_GE(brace, 0);
        EXPECT_GE(bracket, 0);
    }
    EXPECT_FALSE(inString);
    EXPECT_EQ(brace, 0);
    EXPECT_EQ(bracket, 0);
}

} // namespace

// ------------------------------------------------- stat registry ----

TEST(StatRegistry, CountersGaugesDistributions)
{
    StatRegistry reg;
    const auto c = reg.counter("engine.iterations");
    const auto g = reg.gauge("engine.migrations.pending");
    const auto d = reg.distribution("serve.queue.depth");
    EXPECT_TRUE(c.valid() && g.valid() && d.valid());
    EXPECT_FALSE(StatRegistry::Handle().valid());
    EXPECT_EQ(reg.size(), 3u);

    reg.add(c);
    reg.add(c, 4);
    EXPECT_EQ(reg.counterValue("engine.iterations"), 5);

    reg.set(g, 2.0);
    reg.set(g, 7.5); // last write wins
    EXPECT_EQ(reg.gaugeValue("engine.migrations.pending"), 7.5);

    reg.observe(d, 3.0);
    reg.observe(d, 1.0);
    reg.observe(d, 5.0);
    const DistributionView v = reg.distributionView("serve.queue.depth");
    EXPECT_EQ(v.count, 3);
    EXPECT_EQ(v.min, 1.0);
    EXPECT_EQ(v.max, 5.0);
    EXPECT_DOUBLE_EQ(v.mean(), 3.0);
    EXPECT_GT(v.stddev(), 0.0);

    EXPECT_TRUE(reg.contains("engine.iterations"));
    EXPECT_FALSE(reg.contains("engine.unknown"));
    EXPECT_EQ(reg.kindOf("serve.queue.depth"), StatKind::Distribution);
}

TEST(StatRegistry, EmptyDistributionReadsZero)
{
    StatRegistry reg;
    reg.distribution("serve.kv.reserved_tokens");
    const DistributionView v =
        reg.distributionView("serve.kv.reserved_tokens");
    EXPECT_EQ(v.count, 0);
    EXPECT_EQ(v.mean(), 0.0);
    EXPECT_EQ(v.stddev(), 0.0);
    EXPECT_EQ(v.min, 0.0);
    EXPECT_EQ(v.max, 0.0);
}

TEST(StatRegistry, SameNameResolvesToSameHandle)
{
    StatRegistry reg;
    const auto a = reg.counter("fault.events_applied");
    const auto b = reg.counter("fault.events_applied");
    reg.add(a);
    reg.add(b);
    EXPECT_EQ(reg.counterValue("fault.events_applied"), 2);
    EXPECT_EQ(reg.size(), 1u);
}

TEST(StatRegistryDeathTest, KindMismatchPanics)
{
    StatRegistry reg;
    reg.counter("engine.iterations");
    EXPECT_DEATH(reg.gauge("engine.iterations"), "kind");
}

TEST(StatRegistry, MergeFoldsByName)
{
    StatRegistry a, b;
    a.add(a.counter("n"), 3);
    b.add(b.counter("n"), 4);
    b.add(b.counter("only_b"), 1);
    a.observe(a.distribution("d"), 1.0);
    b.observe(b.distribution("d"), 9.0);
    b.set(b.gauge("g"), 2.5);

    a.merge(b);
    EXPECT_EQ(a.counterValue("n"), 7);
    EXPECT_EQ(a.counterValue("only_b"), 1);
    const DistributionView d = a.distributionView("d");
    EXPECT_EQ(d.count, 2);
    EXPECT_EQ(d.min, 1.0);
    EXPECT_EQ(d.max, 9.0);
    EXPECT_EQ(a.gaugeValue("g"), 2.5);
}

TEST(StatRegistry, MergedInOrderIsWorkerCountIndependent)
{
    // The sweep idiom: one registry per cell, written concurrently by
    // however many workers, merged in grid order afterwards. The
    // merged JSON must not depend on which thread produced which
    // registry — only on the vector order.
    constexpr int kCells = 8;
    const auto fill = [](StatRegistry &reg, int cell) {
        const auto c = reg.counter("cell.visits");
        const auto d = reg.distribution("cell.value");
        for (int i = 0; i <= cell; ++i) {
            reg.add(c);
            reg.observe(d, 0.1 * (cell + 1) + i);
        }
    };

    // Serial reference.
    std::vector<StatRegistry> serial(kCells);
    for (int i = 0; i < kCells; ++i)
        fill(serial[i], i);

    // Concurrent: each thread owns a disjoint slot (the TSan target).
    std::vector<StatRegistry> parallel(kCells);
    std::vector<std::thread> threads;
    threads.reserve(kCells);
    for (int i = 0; i < kCells; ++i)
        threads.emplace_back([&parallel, &fill, i] {
            fill(parallel[i], i);
        });
    for (std::thread &t : threads)
        t.join();

    const std::string a = StatRegistry::mergedInOrder(serial).toJson();
    const std::string b = StatRegistry::mergedInOrder(parallel).toJson();
    EXPECT_EQ(a, b);
    expectBalancedJson(a);
}

TEST(StatRegistry, JsonIsDeterministicAndOrdered)
{
    StatRegistry reg;
    reg.add(reg.counter("z.last"), 2);
    reg.observe(reg.distribution("a.first"), 1.5);
    reg.set(reg.gauge("m.middle"), 3.0);

    const std::string doc = reg.toJson();
    expectBalancedJson(doc);
    // Lexicographic emission: a.first < m.middle < z.last.
    const std::size_t pa = doc.find("a.first");
    const std::size_t pm = doc.find("m.middle");
    const std::size_t pz = doc.find("z.last");
    ASSERT_NE(pa, std::string::npos);
    ASSERT_NE(pm, std::string::npos);
    ASSERT_NE(pz, std::string::npos);
    EXPECT_LT(pa, pm);
    EXPECT_LT(pm, pz);
    EXPECT_EQ(doc, reg.toJson());
}

// ------------------------------------------------------ trace sink ----

TEST(TraceSink, JsonIsStructurallyValidAndDeterministic)
{
    const auto emit = [](TraceSink &t) {
        t.processName(0, "engine");
        t.threadName(0, 0, "iterations");
        t.span(0, 0, "engine", "attn", 0.0, 1e-4,
               {{"layer", TraceSink::num(1.5)},
                {"note", TraceSink::str("quoted \"x\"\n")}});
        t.instant(0, 0, "fault", "fault_events", 5e-5);
        t.counter(0, "queue", 1e-4,
                  {{"depth", TraceSink::num(static_cast<long long>(3))}});
    };
    TraceSink a, b;
    emit(a);
    emit(b);
    EXPECT_EQ(a.eventCount(), b.eventCount());
    EXPECT_GE(a.eventCount(), 3u);
    EXPECT_EQ(a.toJson(), b.toJson());
    expectBalancedJson(a.toJson());
    // Required trace-event fields are present.
    EXPECT_NE(a.toJson().find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(a.toJson().find("\"ph\""), std::string::npos);
}

TEST(TraceSink, EmptySinkStillSerialises)
{
    const TraceSink t;
    EXPECT_EQ(t.eventCount(), 0u);
    expectBalancedJson(t.toJson());
}

// ----------------------------------------- observation is free ----

TEST(ObsServe, AttachingObserversKeepsReportBitwiseIdentical)
{
    const System sys = testSystem();
    const ServeConfig sc = testServeConfig(24);

    ServeSimulator plain(sys.mapping(), sc);
    const ServeReport a = plain.run();

    TraceSink trace;
    ServeSimulator observed(sys.mapping(), sc);
    observed.setTrace(&trace);
    const ServeReport b = observed.run();

    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.ttftP50, b.ttftP50);
    EXPECT_EQ(a.ttftP99, b.ttftP99);
    EXPECT_EQ(a.tpotP99, b.tpotP99);
    EXPECT_EQ(a.latencyP99, b.latencyP99);
    EXPECT_EQ(a.throughputTokensPerSec, b.throughputTokensPerSec);
    EXPECT_EQ(a.goodputRequestsPerSec, b.goodputRequestsPerSec);
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_EQ(a.requests[i].finishTime, b.requests[i].finishTime);
        EXPECT_EQ(a.requests[i].firstTokenTime,
                  b.requests[i].firstTokenTime);
    }
    EXPECT_GT(trace.eventCount(), 0u);
}

TEST(ObsServe, TraceIsByteDeterministicAcrossRuns)
{
    const System sys = testSystem();
    ServeConfig sc = testServeConfig(24);
    FaultScenarioSpec spec;
    spec.startIteration = 30;
    sc.faults = makeFaultScenario(FaultScenarioKind::NodeLoss,
                                  sys.mapping().topology(), spec);

    const auto traced = [&]() {
        TraceSink t;
        ServeSimulator sim(sys.mapping(), sc);
        sim.setTrace(&t);
        sim.run();
        return t.toJson();
    };
    const std::string a = traced();
    const std::string b = traced();
    EXPECT_EQ(a, b);
    expectBalancedJson(a);
    // Request lifecycle spans and the fault instant both made it in.
    EXPECT_NE(a.find("\"decode\""), std::string::npos);
    EXPECT_NE(a.find("\"request\""), std::string::npos);
    EXPECT_NE(a.find("\"fault\""), std::string::npos);
}

TEST(ObsServe, PublishedStatsAgreeWithReport)
{
    const System sys = testSystem();
    ServeConfig sc = testServeConfig(32);
    FaultScenarioSpec spec;
    spec.startIteration = 30;
    sc.faults = makeFaultScenario(FaultScenarioKind::NodeLoss,
                                  sys.mapping().topology(), spec);

    ServeSimulator sim(sys.mapping(), sc);
    const ServeReport r = sim.run();
    const StatRegistry &stats = sim.stats();

    EXPECT_EQ(stats.counterValue("engine.iterations"), r.iterations);
    const std::int64_t completed =
        static_cast<std::int64_t>(r.requests.size()) - r.shedRequests -
        r.failedRequests;
    EXPECT_EQ(stats.counterValue("serve.sched.completed"), completed);
    // Admission counts events, not requests: an evicted request is
    // re-admitted after its retry backoff.
    EXPECT_GE(stats.counterValue("serve.sched.admitted"),
              completed + r.failedRequests);
    EXPECT_LE(stats.counterValue("serve.sched.admitted"),
              static_cast<std::int64_t>(r.requests.size()) +
                  r.retriesTotal);
    EXPECT_EQ(stats.counterValue("serve.sched.evictions"),
              r.retriesTotal);
    EXPECT_EQ(stats.counterValue("serve.sched.shed"), r.shedRequests);
    EXPECT_EQ(stats.counterValue("serve.sched.failed"),
              r.failedRequests);
    EXPECT_EQ(stats.counterValue("fault.events_applied"),
              r.faultEventsApplied);
    const DistributionView q =
        stats.distributionView("serve.queue.depth");
    EXPECT_EQ(q.count, static_cast<std::int64_t>(r.trace.size()));
    expectBalancedJson(stats.toJson());
}

TEST(ObsEngine, DirectAttachPublishesPhases)
{
    const System sys = testSystem();
    EngineConfig ec;
    ec.model = qwen3();
    ec.workload.mode = GatingMode::MixedScenario;
    ec.workload.seed = 5;
    ec.balancer = BalancerKind::NonInvasive;

    StatRegistry stats;
    TraceSink trace;
    InferenceEngine engine(sys.mapping(), ec);
    ObsHooks hooks;
    hooks.stats = &stats;
    hooks.trace = &trace;
    engine.attachObs(hooks);
    engine.run(6);

    EXPECT_EQ(stats.counterValue("engine.iterations"), 6);
    const DistributionView attn =
        stats.distributionView("engine.phase.attn_compute_s");
    EXPECT_EQ(attn.count, 6);
    EXPECT_GT(attn.min, 0.0);
    EXPECT_EQ(stats.distributionView("engine.iter.layer_s").count, 6);
    EXPECT_GT(trace.eventCount(), 0u);
}

// ---------------------------------------------------- hw counters ----

TEST(HwCounters, ProbesAgreeAndReleaseTheirDescriptor)
{
    // dup() returns the lowest free descriptor, so a probe that leaked
    // its counter would shift it.
    const int before = dup(0);
    ASSERT_GE(before, 0);
    close(before);
    {
        const HwCounters first;
        const HwCounters second;
        EXPECT_EQ(first.available(), second.available());
    }
    const int after = dup(0);
    close(after);
    EXPECT_EQ(after, before);
}
