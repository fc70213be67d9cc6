/**
 * @file
 * Tests for the fleet-scale serving front-end (src/cluster/):
 *  - the 1-replica identity: a RoundRobin fleet of one always-active
 *    replica reproduces a bare ServeSimulator run bitwise — report and
 *    published stats — both fault-free and under a Cascade fault plan;
 *  - router policies: eligibility gating, per-policy choices and
 *    tie-breaks, round-robin cursor fairness, seeded power-of-two
 *    determinism, scenario-affinity homing with linear probing;
 *  - fleet determinism: equal configs give bitwise-equal reports and
 *    byte-equal stat registries, and fleet sweep cells under
 *    SweepRunner --jobs 2 match --jobs 1 bitwise;
 *  - heterogeneous fleets (WSC next to DGX) conserve every request,
 *    and so does an autoscaled fleet under Cascade faults, where
 *    front-door sheds, replica sheds and failures all occur and each
 *    replica reports exactly the requests dispatched to it;
 *  - autoscaler life-cycle: cold starts charge the spin-up delay,
 *    drained replicas park empty, scale events are time-ordered;
 *  - the sweep grid's replica/router axes: innermost ordering, at()
 *    inversion, and seed retro-compatibility with pre-cluster grids;
 *  - pinned digests (FleetDigest.*) of a 4-replica autoscaled fleet
 *    with Cascade faults on replica 0, one per router policy.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hh"
#include "core/moentwine.hh"
#include "serve_digest.hh"
#include "sweep/sweep.hh"
#include "watchdog.hh"

using namespace moentwine;

namespace {

/** Small, fast 4×4 ER-mapped WSC shared by the cluster tests. */
SystemConfig
testSystemConfig()
{
    SystemConfig sc;
    sc.platform = PlatformKind::WscEr;
    sc.meshN = 4;
    sc.tp = 4;
    return sc;
}

/** Compact per-replica serving config sized for unit tests. */
ServeConfig
testServeConfig(ArrivalKind kind, uint64_t seed)
{
    ServeConfig sc;
    sc.engine.model = qwen3();
    sc.engine.workload.seed = seed;
    sc.engine.balancer = BalancerKind::NonInvasive;
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
    sc.numRequests = 24;
    return sc;
}

/** A 1-replica fleet serving exactly the bare simulator's stream. */
FleetConfig
mirrorFleetConfig(const ServeConfig &sc)
{
    FleetConfig fc;
    ReplicaConfig rc;
    rc.system = testSystemConfig();
    rc.serve = sc;
    fc.replicas = {rc};
    fc.arrival = sc.arrival;
    fc.numRequests = sc.numRequests;
    fc.router = RouterPolicy::RoundRobin;
    fc.slo = sc.slo;
    return fc;
}

/** Bitwise ServeReport comparison (EXPECT, so mismatches enumerate). */
void
expectReportsBitwiseEqual(const ServeReport &a, const ServeReport &b)
{
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_EQ(a.requests[i].arrivalTime, b.requests[i].arrivalTime);
        EXPECT_EQ(a.requests[i].admitTime, b.requests[i].admitTime);
        EXPECT_EQ(a.requests[i].firstTokenTime,
                  b.requests[i].firstTokenTime);
        EXPECT_EQ(a.requests[i].finishTime, b.requests[i].finishTime);
        EXPECT_EQ(a.requests[i].outcome, b.requests[i].outcome);
        EXPECT_EQ(a.requests[i].retries, b.requests[i].retries);
    }
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (std::size_t i = 0; i < a.trace.size(); ++i) {
        EXPECT_EQ(a.trace[i].time, b.trace[i].time);
        EXPECT_EQ(a.trace[i].queueDepth, b.trace[i].queueDepth);
        EXPECT_EQ(a.trace[i].running, b.trace[i].running);
        EXPECT_EQ(a.trace[i].kvReserved, b.trace[i].kvReserved);
    }
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.ttftP50, b.ttftP50);
    EXPECT_EQ(a.ttftP95, b.ttftP95);
    EXPECT_EQ(a.ttftP99, b.ttftP99);
    EXPECT_EQ(a.tpotP50, b.tpotP50);
    EXPECT_EQ(a.tpotP95, b.tpotP95);
    EXPECT_EQ(a.tpotP99, b.tpotP99);
    EXPECT_EQ(a.latencyP50, b.latencyP50);
    EXPECT_EQ(a.latencyP99, b.latencyP99);
    EXPECT_EQ(a.throughputTokensPerSec, b.throughputTokensPerSec);
    EXPECT_EQ(a.goodputRequestsPerSec, b.goodputRequestsPerSec);
    EXPECT_EQ(a.sloAttainment, b.sloAttainment);
    EXPECT_EQ(a.completedRequests, b.completedRequests);
    EXPECT_EQ(a.shedRequests, b.shedRequests);
    EXPECT_EQ(a.failedRequests, b.failedRequests);
    EXPECT_EQ(a.retriesTotal, b.retriesTotal);
    EXPECT_EQ(a.faultEventsApplied, b.faultEventsApplied);
    EXPECT_EQ(a.liveDeviceFractionMin, b.liveDeviceFractionMin);
}

/** The serve-layer stats the bare simulator and a 1-replica fleet
 *  must publish identically (the fleet registry adds fleet.* on top). */
void
expectServeStatsEqual(const StatRegistry &bare, const StatRegistry &fleet)
{
    for (const char *counter :
         {"serve.sched.admitted", "serve.sched.completed",
          "serve.sched.shed", "serve.sched.failed",
          "serve.sched.evictions", "serve.sched.idle_iterations"}) {
        EXPECT_EQ(bare.counterValue(counter), fleet.counterValue(counter))
            << counter;
    }
    for (const char *dist :
         {"serve.queue.depth", "serve.kv.reserved_tokens"}) {
        const DistributionView a = bare.distributionView(dist);
        const DistributionView b = fleet.distributionView(dist);
        EXPECT_EQ(a.count, b.count) << dist;
        EXPECT_EQ(a.sum, b.sum) << dist;
        EXPECT_EQ(a.min, b.min) << dist;
        EXPECT_EQ(a.max, b.max) << dist;
    }
}

/** Pressure snapshot helper for the router unit tests. */
ReplicaPressure
pressure(int replica, int queue, int running, double kvFraction,
         bool routable = true, int kvBudget = 8192)
{
    ReplicaPressure p;
    p.replica = replica;
    p.queueDepth = queue;
    p.runningCount = running;
    p.kvFraction = kvFraction;
    p.kvBudgetTokens = kvBudget;
    p.routable = routable;
    return p;
}

/** A minimal request for routing decisions. */
ServeRequest
routeRequest(ScenarioKind scenario = ScenarioKind::Chat,
             int promptTokens = 64, int outputTokens = 8)
{
    ServeRequest r;
    r.id = 0;
    r.scenario = scenario;
    r.arrivalTime = 0.0;
    r.promptTokens = promptTokens;
    r.outputTokens = outputTokens;
    return r;
}

} // namespace

// ------------------------------------------------ 1-replica identity ----

TEST(FleetIdentity, SingleReplicaMatchesBareSimulatorBitwise)
{
    const ServeConfig sc = testServeConfig(ArrivalKind::Bursty, 7);
    const System sys = System::make(testSystemConfig());
    ServeSimulator bare(sys.mapping(), sc);
    const ServeReport bareReport = bare.run();

    FleetSimulator fleet(mirrorFleetConfig(sc));
    const FleetReport fleetReport = fleet.run();

    ASSERT_EQ(fleetReport.replicas.size(), 1u);
    EXPECT_EQ(fleetReport.frontDoorShed, 0);
    EXPECT_EQ(fleetReport.dispatched[0], sc.numRequests);
    expectReportsBitwiseEqual(bareReport, fleetReport.replicas[0]);
    expectServeStatsEqual(bare.stats(), fleet.stats());

    // The fleet aggregates collapse to the single replica's figures.
    EXPECT_EQ(fleetReport.makespan, bareReport.makespan);
    EXPECT_EQ(fleetReport.ttftP99, bareReport.ttftP99);
    EXPECT_EQ(fleetReport.throughputTokensPerSec,
              bareReport.throughputTokensPerSec);
    EXPECT_TRUE(fleetReport.scaleEvents.empty());
}

TEST(FleetIdentity, SingleReplicaMatchesBareUnderCascadeFaults)
{
    ServeConfig sc = testServeConfig(ArrivalKind::Poisson, 11);
    sc.numRequests = 40;
    const System sys = System::make(testSystemConfig());
    FaultScenarioSpec spec;
    spec.startIteration = 10;
    spec.spacing = 15;
    sc.faults = makeFaultScenario(FaultScenarioKind::Cascade,
                                  sys.mapping().topology(), spec);

    ServeSimulator bare(sys.mapping(), sc);
    const ServeReport bareReport = bare.run();
    EXPECT_GT(bareReport.faultEventsApplied, 0);

    FleetSimulator fleet(mirrorFleetConfig(sc));
    const FleetReport fleetReport = fleet.run();

    ASSERT_EQ(fleetReport.replicas.size(), 1u);
    expectReportsBitwiseEqual(bareReport, fleetReport.replicas[0]);
    expectServeStatsEqual(bare.stats(), fleet.stats());
    EXPECT_EQ(fleetReport.retriesTotal, bareReport.retriesTotal);
    EXPECT_EQ(fleetReport.failedRequests, bareReport.failedRequests);
}

// ----------------------------------------------------------- router ----

TEST(RequestRouter, EligibilityGatesRoutingAndShedsWhenNoneFit)
{
    RequestRouter router(RouterPolicy::LeastQueueDepth);
    const ServeRequest r = routeRequest();

    // Unroutable and too-small replicas never receive dispatches.
    std::vector<ReplicaPressure> pressures = {
        pressure(0, 0, 0, 0.0, /*routable=*/false),
        pressure(1, 5, 3, 0.5),
        pressure(2, 0, 0, 0.0, true, /*kvBudget=*/16), // request > budget
    };
    EXPECT_EQ(router.route(r, pressures), 1);

    pressures[1].routable = false;
    EXPECT_EQ(router.route(r, pressures), -1); // front-door shed
}

TEST(RequestRouter, RoundRobinCyclesPastIneligibleReplicas)
{
    RequestRouter router(RouterPolicy::RoundRobin);
    const ServeRequest r = routeRequest();
    std::vector<ReplicaPressure> pressures = {
        pressure(0, 0, 0, 0.0), pressure(1, 0, 0, 0.0),
        pressure(2, 0, 0, 0.0)};

    EXPECT_EQ(router.route(r, pressures), 0);
    EXPECT_EQ(router.route(r, pressures), 1);
    EXPECT_EQ(router.route(r, pressures), 2);
    EXPECT_EQ(router.route(r, pressures), 0); // wraps

    pressures[1].routable = false; // drained mid-cycle
    EXPECT_EQ(router.route(r, pressures), 2);
    EXPECT_EQ(router.route(r, pressures), 0);
}

TEST(RequestRouter, LeastPressurePoliciesBreakTiesDeterministically)
{
    const ServeRequest r = routeRequest();
    const std::vector<ReplicaPressure> pressures = {
        pressure(0, 4, 2, 0.50), pressure(1, 2, 2, 0.50),
        pressure(2, 2, 2, 0.25), pressure(3, 6, 1, 0.25)};

    // least_kv: 2 and 3 tie on KV fraction; 2 has the shorter queue.
    EXPECT_EQ(RequestRouter(RouterPolicy::LeastKvPressure)
                  .route(r, pressures),
              2);
    // least_queue: 1 and 2 tie on queue depth; 2 has the lower KV.
    EXPECT_EQ(RequestRouter(RouterPolicy::LeastQueueDepth)
                  .route(r, pressures),
              2);
}

TEST(RequestRouter, PowerOfTwoIsSeedDeterministicAndPicksLessLoaded)
{
    const ServeRequest r = routeRequest();
    const std::vector<ReplicaPressure> pressures = {
        pressure(0, 8, 8, 0.9), pressure(1, 0, 1, 0.1),
        pressure(2, 4, 4, 0.5), pressure(3, 2, 2, 0.3)};

    // Equal seeds give the identical decision sequence.
    RequestRouter a(RouterPolicy::PowerOfTwo, 99);
    RequestRouter b(RouterPolicy::PowerOfTwo, 99);
    for (int i = 0; i < 64; ++i) {
        const int pick = a.route(r, pressures);
        EXPECT_EQ(pick, b.route(r, pressures));
        ASSERT_GE(pick, 0);
        ASSERT_LT(pick, 4);
    }

    // With two candidates the draw is forced: the less loaded wins.
    const std::vector<ReplicaPressure> two = {pressure(0, 8, 8, 0.9),
                                              pressure(1, 0, 1, 0.1)};
    RequestRouter forced(RouterPolicy::PowerOfTwo, 7);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(forced.route(r, two), 1);

    // A single candidate needs no draw at all.
    const std::vector<ReplicaPressure> one = {pressure(5, 3, 3, 0.4)};
    EXPECT_EQ(RequestRouter(RouterPolicy::PowerOfTwo).route(r, one), 5);
}

TEST(RequestRouter, ScenarioAffinityHomesAndProbesLinearly)
{
    RequestRouter router(RouterPolicy::ScenarioAffinity);
    std::vector<ReplicaPressure> pressures = {
        pressure(0, 0, 0, 0.0), pressure(1, 0, 0, 0.0),
        pressure(2, 0, 0, 0.0)};

    const auto home = [&](ScenarioKind s) {
        return static_cast<int>(static_cast<std::size_t>(s) %
                                pressures.size());
    };
    for (const ScenarioKind s : allScenarios()) {
        EXPECT_EQ(router.route(routeRequest(s), pressures), home(s));
    }

    // A drained home degrades to its upward neighbour (mod N).
    const ScenarioKind s = allScenarios().front();
    pressures[static_cast<std::size_t>(home(s))].routable = false;
    EXPECT_EQ(router.route(routeRequest(s), pressures),
              (home(s) + 1) % 3);
}

TEST(RequestRouter, PolicyNamesAreStable)
{
    EXPECT_EQ(routerPolicyName(RouterPolicy::RoundRobin), "round_robin");
    EXPECT_EQ(routerPolicyName(RouterPolicy::LeastKvPressure),
              "least_kv");
    EXPECT_EQ(routerPolicyName(RouterPolicy::LeastQueueDepth),
              "least_queue");
    EXPECT_EQ(routerPolicyName(RouterPolicy::PowerOfTwo), "power_of_two");
    EXPECT_EQ(routerPolicyName(RouterPolicy::ScenarioAffinity),
              "scenario_affinity");
    EXPECT_EQ(allRouterPolicies().size(), 5u);
}

// ------------------------------------------------ fleet determinism ----

TEST(FleetSimulator, EqualConfigsAreBitwiseDeterministic)
{
    FleetConfig fc;
    ReplicaConfig rc;
    rc.system = testSystemConfig();
    rc.serve = testServeConfig(ArrivalKind::Bursty, 3);
    fc.replicas = {rc, rc, rc};
    fc.arrival = rc.serve.arrival;
    fc.arrival.ratePerSec = 200.0;
    fc.numRequests = 36;
    fc.router = RouterPolicy::PowerOfTwo;
    fc.routerSeed = 17;

    FleetSimulator simA(fc);
    const FleetReport a = simA.run();
    FleetSimulator simB(fc);
    const FleetReport b = simB.run();

    ASSERT_EQ(a.replicas.size(), b.replicas.size());
    EXPECT_EQ(a.dispatched, b.dispatched);
    for (std::size_t i = 0; i < a.replicas.size(); ++i)
        expectReportsBitwiseEqual(a.replicas[i], b.replicas[i]);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.ttftP99, b.ttftP99);
    EXPECT_EQ(a.goodputRequestsPerSec, b.goodputRequestsPerSec);
    // The merged registries agree byte-for-byte, not just numerically.
    EXPECT_EQ(simA.stats().toJson(), simB.stats().toJson());
}

TEST(FleetSimulator, RoundRobinSpreadsDispatchesEvenly)
{
    FleetConfig fc;
    ReplicaConfig rc;
    rc.system = testSystemConfig();
    rc.serve = testServeConfig(ArrivalKind::Poisson, 5);
    fc.replicas = {rc, rc, rc, rc};
    fc.arrival = rc.serve.arrival;
    fc.numRequests = 34; // not a multiple of 4 on purpose
    fc.router = RouterPolicy::RoundRobin;

    FleetSimulator fleet(fc);
    const FleetReport r = fleet.run();

    EXPECT_EQ(r.frontDoorShed, 0);
    int sum = 0;
    int lo = fc.numRequests, hi = 0;
    for (const int d : r.dispatched) {
        sum += d;
        lo = std::min(lo, d);
        hi = std::max(hi, d);
    }
    EXPECT_EQ(sum, fc.numRequests);
    // Every replica stays eligible at these loads, so the cursor hands
    // out perfectly balanced shares (±1 for the remainder).
    EXPECT_LE(hi - lo, 1);
}

TEST(FleetSimulator, HeterogeneousFleetConservesEveryRequest)
{
    ReplicaConfig wsc;
    wsc.system = testSystemConfig();
    wsc.serve = testServeConfig(ArrivalKind::Diurnal, 9);

    ReplicaConfig dgx;
    dgx.system.platform = PlatformKind::DgxCluster;
    dgx.system.dgxNodes = 4;
    dgx.system.tp = 4;
    dgx.serve = testServeConfig(ArrivalKind::Diurnal, 9);

    FleetConfig fc;
    fc.replicas = {wsc, dgx};
    fc.arrival = wsc.serve.arrival;
    fc.arrival.ratePerSec = 150.0;
    fc.numRequests = 30;
    fc.router = RouterPolicy::LeastQueueDepth;

    FleetSimulator fleet(fc);
    ASSERT_EQ(fleet.systems().size(), 2u);
    EXPECT_NE(fleet.systems()[0]->name(), fleet.systems()[1]->name());

    const FleetReport r = fleet.run();
    EXPECT_EQ(r.totalRequests, fc.numRequests);
    EXPECT_EQ(r.completedRequests + r.shedRequests + r.failedRequests +
                  r.frontDoorShed,
              r.totalRequests);
    // Both platforms actually served traffic.
    EXPECT_GT(r.dispatched[0], 0);
    EXPECT_GT(r.dispatched[1], 0);
    EXPECT_GT(r.makespan, 0.0);
    EXPECT_GT(r.throughputTokensPerSec, 0.0);
}

// --------------------------------------------------------- autoscaler ----

TEST(Autoscaler, EvaluatesOnCadenceAndRespectsFloors)
{
    AutoscalerConfig ac;
    ac.enabled = true;
    ac.evalPeriodSec = 0.25;
    ac.scaleUpThreshold = 8.0;
    ac.scaleDownThreshold = 2.0;
    ac.minReplicas = 2;
    Autoscaler scaler(ac);

    EXPECT_TRUE(scaler.enabled());
    EXPECT_EQ(scaler.nextEval(), 0.25);
    // Overloaded with a parked spare: scale up.
    EXPECT_EQ(scaler.evaluate(10.0, 2, 1, 0), ScaleDecision::Up);
    EXPECT_EQ(scaler.nextEval(), 0.5);
    // Still overloaded but a start is pending: hold.
    EXPECT_EQ(scaler.evaluate(10.0, 2, 1, 1), ScaleDecision::Hold);
    // Idle but at the floor: hold.
    EXPECT_EQ(scaler.evaluate(0.0, 2, 0, 0), ScaleDecision::Hold);
    // Idle above the floor: scale down.
    EXPECT_EQ(scaler.evaluate(0.0, 3, 0, 0), ScaleDecision::Down);
    EXPECT_EQ(scaler.nextEval(), 1.25);

    AutoscalerConfig off;
    EXPECT_FALSE(Autoscaler(off).enabled());
    EXPECT_TRUE(std::isinf(Autoscaler(off).nextEval()));
}

TEST(FleetSimulator, AutoscalerColdStartsAndParksReplicas)
{
    FleetConfig fc;
    ReplicaConfig rc;
    rc.system = testSystemConfig();
    rc.serve = testServeConfig(ArrivalKind::Bursty, 13);
    fc.replicas = {rc, rc};
    fc.replicas[1].startParked = true;
    fc.arrival = rc.serve.arrival;
    fc.arrival.ratePerSec = 400.0; // saturate the lone active replica
    fc.numRequests = 48;
    fc.autoscaler.enabled = true;
    fc.autoscaler.evalPeriodSec = 0.02;
    fc.autoscaler.spinUpDelaySec = 0.05;
    fc.autoscaler.scaleUpThreshold = 4.0;
    fc.autoscaler.scaleDownThreshold = 0.5;

    FleetSimulator fleet(fc);
    const FleetReport r = fleet.run();

    // The overload woke the spare: a Start followed by an Activate
    // exactly one spin-up delay later, and the spare then served.
    const ScaleEvent *start = nullptr;
    const ScaleEvent *activate = nullptr;
    double lastTime = 0.0;
    for (const ScaleEvent &e : r.scaleEvents) {
        EXPECT_GE(e.time, lastTime) << "scale events out of order";
        lastTime = e.time;
        if (e.kind == ScaleEventKind::Start && start == nullptr)
            start = &e;
        if (e.kind == ScaleEventKind::Activate && activate == nullptr)
            activate = &e;
    }
    ASSERT_NE(start, nullptr);
    ASSERT_NE(activate, nullptr);
    EXPECT_EQ(start->replica, 1);
    EXPECT_EQ(activate->replica, 1);
    EXPECT_EQ(activate->time, start->time + fc.autoscaler.spinUpDelaySec);
    EXPECT_GT(r.dispatched[1], 0);

    // A drained replica always finishes its work before parking.
    for (std::size_t i = 0; i + 1 < r.scaleEvents.size(); ++i) {
        if (r.scaleEvents[i].kind != ScaleEventKind::Drain)
            continue;
        bool parked = false;
        for (std::size_t j = i + 1; j < r.scaleEvents.size(); ++j) {
            if (r.scaleEvents[j].kind == ScaleEventKind::Park &&
                r.scaleEvents[j].replica == r.scaleEvents[i].replica) {
                EXPECT_GE(r.scaleEvents[j].time, r.scaleEvents[i].time);
                parked = true;
                break;
            }
        }
        (void)parked; // a drain at stream end may outlive the run
    }
    EXPECT_EQ(r.completedRequests + r.shedRequests + r.failedRequests +
                  r.frontDoorShed,
              r.totalRequests);
    EXPECT_EQ(scaleEventKindName(ScaleEventKind::Start),
              std::string("start"));
}

TEST(FleetSimulator, CascadeFaultsUnderAutoscalerConserveRequests)
{
    // Replica 0 loses devices to a Cascade plan with a tight TTFT
    // bound and no retry budget, replica 2 starts parked behind the
    // autoscaler, and a replayed trace makes every outcome path
    // certain by construction, whatever the gating and router seeds:
    //  - request A (kv 3064) and B (kv 3964) fit only replica 0's 4096
    //    budget, so both go there. A runs alone in replica 0's first
    //    iteration, so placeResidents homes it on device 0; device 0
    //    fails at iteration 1 and A fails (no retries);
    //  - B waits behind A. Losing 1 of 16 devices cuts the budget to
    //    3840 < 3964, so B is shed as hopeless at iteration 1;
    //  - request C (kv 5064) fits no replica: front-door shed;
    //  - 40 requests at 1 ms each need 16 decode iterations, so they
    //    are still outstanding at the first evaluation (20 ms), far
    //    above the scale-up threshold: replica 2 starts;
    //  - a steady tail keeps replica 0 busy past iteration 20, so the
    //    Cascade events fire too.
    // Every run must conserve requests.
    const System sys = System::make(testSystemConfig());
    FaultScenarioSpec spec;
    spec.startIteration = 20;
    spec.spacing = 10;

    for (const std::uint64_t seed : {17, 67}) {
        SCOPED_TRACE(seed);
        FleetConfig fc;
        ReplicaConfig rc;
        rc.system = testSystemConfig();
        rc.serve = testServeConfig(ArrivalKind::Trace, seed);
        rc.serve.scheduler.kvBudgetTokens = 2048;
        fc.replicas = {rc, rc, rc};
        ServeConfig &faulty = fc.replicas[0].serve;
        faulty.scheduler.kvBudgetTokens = 4096;
        faulty.faults.events.push_back(FaultEvent::nodeFail(1, 0));
        const FaultPlan cascade = makeFaultScenario(
            FaultScenarioKind::Cascade, sys.mapping().topology(), spec);
        faulty.faults.events.insert(faulty.faults.events.end(),
                                    cascade.events.begin(),
                                    cascade.events.end());
        faulty.slo.ttft = 0.1;
        faulty.maxRetries = 0;
        fc.replicas[2].startParked = true;
        fc.arrival = rc.serve.arrival;
        std::vector<TraceRequest> &trace = fc.arrival.trace;
        trace.push_back({0.0, ScenarioKind::Coding, 3000, 64}); // A
        trace.push_back({0.0, ScenarioKind::Coding, 3900, 64}); // B
        trace.push_back({0.0, ScenarioKind::Coding, 5000, 64}); // C
        for (int i = 0; i < 40; ++i)
            trace.push_back({0.001, ScenarioKind::Chat, 64, 16});
        for (int i = 0; i < 30; ++i)
            trace.push_back({0.01 + 0.004 * i, ScenarioKind::Math, 128, 24});
        fc.numRequests = static_cast<int>(trace.size());
        fc.router = RouterPolicy::PowerOfTwo;
        fc.routerSeed = seed;
        fc.autoscaler.enabled = true;
        fc.autoscaler.evalPeriodSec = 0.02;
        fc.autoscaler.spinUpDelaySec = 0.05;
        fc.autoscaler.scaleUpThreshold = 4.0;
        fc.autoscaler.scaleDownThreshold = 0.5;

        FleetSimulator fleet(fc);
        const FleetReport r = fleet.run();
        EXPECT_GT(r.replicas[0].faultEventsApplied, 0);
        EXPECT_FALSE(r.scaleEvents.empty());
        EXPECT_GT(r.frontDoorShed, 0);
        EXPECT_GT(r.shedRequests, 0);
        EXPECT_GT(r.replicas[0].failedRequests, 0);

        EXPECT_EQ(r.totalRequests, fc.numRequests);
        EXPECT_EQ(r.frontDoorShed + r.completedRequests +
                      r.shedRequests + r.failedRequests,
                  r.totalRequests);
        ASSERT_EQ(r.dispatched.size(), r.replicas.size());
        int dispatched = 0;
        for (std::size_t i = 0; i < r.replicas.size(); ++i) {
            const ServeReport &rep = r.replicas[i];
            EXPECT_EQ(r.dispatched[i],
                      static_cast<int>(rep.requests.size()))
                << "replica " << i;
            int completed = 0;
            for (const RequestMetrics &m : rep.requests)
                completed += m.outcome == RequestOutcome::Completed;
            EXPECT_EQ(completed + rep.shedRequests + rep.failedRequests,
                      r.dispatched[i])
                << "replica " << i;
            dispatched += r.dispatched[i];
        }
        EXPECT_EQ(dispatched + r.frontDoorShed, r.totalRequests);
    }
}

// -------------------------------------------------- pinned digests ----
//
// FNV-1a digests of whole fleet runs, one per router policy: every
// fleet score field, dispatch counts, scale events, each replica's
// report (serve_digest.hh) and the bytes of the merged stats JSON.
// Four replicas serve behind the autoscaler (replica 3 starts parked)
// while replica 0 runs a Cascade plan, so routing, scaling, evictions
// and sheds all feed the digest. The constants pin the fleet's output;
// they must never be regenerated to make a fleet change pass.

TEST(FleetDigest, EveryRouterPolicyUnderCascadeAndAutoscaler)
{
    const System sys = System::make(testSystemConfig());
    FaultScenarioSpec spec;
    spec.startIteration = 10;
    spec.spacing = 10;

    FleetConfig fc;
    ReplicaConfig rc;
    rc.system = testSystemConfig();
    rc.serve = testServeConfig(ArrivalKind::Bursty, 19);
    fc.replicas = {rc, rc, rc, rc};
    fc.replicas[0].serve.faults = makeFaultScenario(
        FaultScenarioKind::Cascade, sys.mapping().topology(), spec);
    fc.replicas[0].serve.slo.ttft = 0.05;
    fc.replicas[3].startParked = true;
    fc.arrival = rc.serve.arrival;
    fc.arrival.ratePerSec = 600.0;
    fc.numRequests = 96;
    fc.routerSeed = 5;
    fc.autoscaler.enabled = true;
    fc.autoscaler.evalPeriodSec = 0.02;
    fc.autoscaler.spinUpDelaySec = 0.05;
    fc.autoscaler.scaleUpThreshold = 4.0;
    fc.autoscaler.scaleDownThreshold = 0.5;

    const std::pair<RouterPolicy, std::uint64_t> pinned[] = {
        {RouterPolicy::RoundRobin, 0xc2be5e034ace9cb6ULL},
        {RouterPolicy::LeastKvPressure, 0xa87fed85beb72982ULL},
        {RouterPolicy::LeastQueueDepth, 0xa87fed85beb72982ULL},
        {RouterPolicy::PowerOfTwo, 0x0eccfcf62a8bbe5fULL},
        {RouterPolicy::ScenarioAffinity, 0xce740e5941d5e35bULL},
    };
    ASSERT_EQ(std::size(pinned), allRouterPolicies().size());
    for (const auto &[policy, expected] : pinned) {
        fc.router = policy;
        FleetSimulator fleet(fc);
        const FleetReport r = fleet.run();
        EXPECT_GT(r.replicas[0].faultEventsApplied, 0);

        std::uint64_t h = digest::kOffset;
        for (const int x : r.dispatched)
            digest::mixInt(h, x);
        for (const int x :
             {r.totalRequests, r.frontDoorShed, r.completedRequests,
              r.shedRequests, r.failedRequests, r.retriesTotal,
              r.iterationsTotal})
            digest::mixInt(h, x);
        for (const double x :
             {r.ttftP50, r.ttftP95, r.ttftP99, r.tpotP50, r.tpotP95,
              r.tpotP99, r.latencyP50, r.latencyP99,
              r.throughputTokensPerSec, r.goodputRequestsPerSec,
              r.sloAttainment, r.makespan})
            digest::mixDouble(h, x);
        for (const ScaleEvent &e : r.scaleEvents) {
            digest::mixDouble(h, e.time);
            digest::mixInt(h, e.replica);
            digest::mixInt(h, static_cast<std::int64_t>(e.kind));
        }
        for (const ServeReport &rep : r.replicas)
            mixServeReport(h, rep);
        digest::mixBytes(h, fleet.stats().toJson());
        EXPECT_EQ(h, expected)
            << routerPolicyName(policy) << " 0x" << std::hex << h;
    }
}

// -------------------------------------------------- fleet sweep cells ----

TEST(FleetSweep, ParallelFleetCellsByteIdenticalToSerial)
{
    SweepGrid grid;
    grid.arrivals = {ArrivalKind::Poisson, ArrivalKind::Bursty};
    grid.replicaCounts = {1, 2};
    grid.routers = {RouterPolicy::RoundRobin,
                    RouterPolicy::LeastKvPressure};

    const auto cellFn = [](const SweepCell &cell) {
        FleetConfig fc;
        ReplicaConfig rc;
        rc.system = testSystemConfig();
        rc.serve = testServeConfig(cell.point.arrivalKind(),
                                   cell.point.seed());
        fc.replicas.assign(
            static_cast<std::size_t>(cell.point.replicaCount()), rc);
        fc.arrival = rc.serve.arrival;
        fc.numRequests = 12;
        fc.router = cell.point.routerPolicy();
        fc.routerSeed = cell.point.seed(7);
        FleetSimulator fleet(fc);
        const FleetReport r = fleet.run();
        SweepResult row;
        row.label = routerPolicyName(cell.point.routerPolicy()) + " x" +
            std::to_string(cell.point.replicaCount());
        row.add("goodput", r.goodputRequestsPerSec);
        row.add("ttft_p99", r.ttftP99);
        row.add("makespan", r.makespan);
        row.add("front_door_shed", r.frontDoorShed);
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
            // Bitwise: thread count must not perturb a single ULP.
            EXPECT_EQ(serial[i].metrics[m].second,
                      parallel[i].metrics[m].second)
                << "row " << i;
        }
    }
}

// -------------------------------------------------- sweep grid axes ----

TEST(SweepGridTest, ClusterAxesAreInnermostAndPreserveSeeds)
{
    SweepGrid grid;
    grid.models = {qwen3()};
    grid.arrivals = {ArrivalKind::Poisson, ArrivalKind::Bursty};

    // Seeds of the pre-cluster grid, before the axes exist.
    const uint64_t seed0 = grid.pointAt(0).seed();
    const uint64_t seed1 = grid.pointAt(1).seed();

    grid.replicaCounts = {1, 4};
    grid.routers = {RouterPolicy::RoundRobin, RouterPolicy::PowerOfTwo,
                    RouterPolicy::ScenarioAffinity};
    EXPECT_EQ(grid.cells(), 12u);

    const SweepPoint p0 = grid.pointAt(0);
    const SweepPoint p1 = grid.pointAt(1);
    const SweepPoint p3 = grid.pointAt(3);
    const SweepPoint p6 = grid.pointAt(6);
    EXPECT_EQ(p0.router, 0);
    EXPECT_EQ(p1.router, 1); // router advances first (innermost)
    EXPECT_EQ(p0.replicas, 0);
    EXPECT_EQ(p3.replicas, 1); // then the replica axis
    EXPECT_EQ(p6.arrival, 1);
    EXPECT_EQ(p0.replicaCount(), 1);
    EXPECT_EQ(p3.replicaCount(), 4);
    EXPECT_EQ(p1.routerPolicy(), RouterPolicy::PowerOfTwo);
    EXPECT_EQ(grid.at(0, -1, -1, -1, -1, -1, -1, 1, -1, 1, 2), 11u);

    // Round-trip: at() inverts pointAt() on the new axes.
    for (std::size_t i = 0; i < grid.cells(); ++i) {
        const SweepPoint p = grid.pointAt(i);
        EXPECT_EQ(grid.at(p.model, p.system, p.tp, p.balancer,
                          p.schedule, p.gating, p.param, p.arrival,
                          p.fault, p.replicas, p.router),
                  i);
    }

    // Retro-compat: the cluster axes only join the seed hash when the
    // cell actually sweeps them, so pre-cluster grids keep their
    // streams.
    SweepGrid preCluster;
    preCluster.models = {qwen3()};
    preCluster.arrivals = {ArrivalKind::Poisson, ArrivalKind::Bursty};
    EXPECT_EQ(preCluster.pointAt(0).seed(), seed0);
    EXPECT_EQ(preCluster.pointAt(1).seed(), seed1);
    // And swept cluster cells get distinct streams per coordinate.
    EXPECT_NE(grid.pointAt(0).seed(), grid.pointAt(1).seed());
    EXPECT_NE(grid.pointAt(0).seed(), grid.pointAt(3).seed());

    // An unswept point reports the defaults.
    SweepGrid bare;
    bare.params = {1.0};
    EXPECT_EQ(bare.pointAt(0).replicaCount(), 1);
    EXPECT_EQ(bare.pointAt(0).routerPolicy(), RouterPolicy::RoundRobin);
}
