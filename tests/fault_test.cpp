/**
 * @file
 * Tests for the fault-injection layer (src/fault/):
 *  - plan validation rejects malformed event streams loudly;
 *  - the degraded-topology property: after any link failures, no
 *    computed route traverses a failed link, every reachable pair gets
 *    a connected min-hop path, and unreachable pairs are reported
 *    (never silently mis-routed);
 *  - degrade/restore exactness: restored links return to their
 *    bitwise-original bandwidth, degrade-only overlays keep base paths;
 *  - injector semantics: ordered idempotent advance, monotone device
 *    loss, straggler factors;
 *  - placement re-homing invariants under markDeviceLost();
 *  - the empty-plan equivalence contract: an attached empty plan (and
 *    a non-empty plan whose events lie beyond the run) is bitwise
 *    identical to an unattached run, for both the engine and the
 *    serving simulator;
 *  - degraded serving: node loss under load produces retries/shedding,
 *    every request ends in exactly one outcome, and fault runs are
 *    deterministic end to end;
 *  - randomized plans: seeded plans of all five event kinds serve to
 *    completion, and at every boundary reachable() and walk() agree
 *    with a breadth-first search over the live links.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/moentwine.hh"
#include "digest.hh"
#include "fault/fault.hh"
#include "serve/serve_sim.hh"

using namespace moentwine;

namespace {

/** Small WSC platform shared by the serving-level tests. */
SystemConfig
smallWsc()
{
    SystemConfig wsc;
    wsc.platform = PlatformKind::WscEr;
    wsc.meshN = 4;
    wsc.tp = 4;
    return wsc;
}

/** Serving config with a saturating arrival burst (fault-laden). */
ServeConfig
loadedServeConfig(int requests)
{
    ServeConfig sc;
    sc.engine.model = qwen3();
    sc.engine.workload.seed = 99;
    sc.arrival.kind = ArrivalKind::Poisson;
    sc.arrival.ratePerSec = 200.0;
    sc.arrival.promptMeanTokens = 256;
    sc.arrival.promptMaxTokens = 2048;
    sc.arrival.outputMeanTokens = 48;
    sc.arrival.outputMaxTokens = 256;
    sc.arrival.seed = 4242;
    sc.scheduler.kvBudgetTokens = 16384;
    sc.scheduler.maxRunningRequests = 32;
    sc.numRequests = requests;
    return sc;
}

/** EXPECT_EQ over every timeline field of two iteration stats. */
void
expectIdenticalStats(const IterationStats &a, const IterationStats &b)
{
    EXPECT_EQ(a.attnCompute, b.attnCompute);
    EXPECT_EQ(a.allReduce, b.allReduce);
    EXPECT_EQ(a.dispatch, b.dispatch);
    EXPECT_EQ(a.combine, b.combine);
    EXPECT_EQ(a.moeTime, b.moeTime);
    EXPECT_EQ(a.migrationOverhead, b.migrationOverhead);
    EXPECT_EQ(a.faultRecoveryTime, b.faultRecoveryTime);
    EXPECT_EQ(a.loadMax, b.loadMax);
    EXPECT_EQ(a.loadAvg, b.loadAvg);
    EXPECT_EQ(a.imbalance, b.imbalance);
}

/**
 * Seeded random plan of at least @p events events over @p topo, of all
 * five kinds, at non-decreasing iterations in [0, @p lastIteration]; a
 * draw may fail one link, both directions of one, or every link of one
 * device. Every plan passes FaultPlan::validate(), and a draw is kept
 * only when a FaultInjector replaying the plan up to it still has at
 * least half the devices live and, unless @p allowIsolation, every
 * device pair reachable.
 */
FaultPlan
randomFaultPlan(const Topology &topo, std::uint64_t seed, int events,
                int lastIteration, bool allowIsolation)
{
    Rng rng(seed);
    const auto &links = topo.links();
    const int devices = topo.numDevices();
    FaultPlan plan;
    std::vector<LinkId> failed;
    int iteration = 0;
    while (static_cast<int>(plan.events.size()) < events) {
        iteration = std::min(lastIteration,
                             iteration + static_cast<int>(rng.range(0, 5)));
        const auto link = static_cast<LinkId>(rng.below(links.size()));
        const auto dev = static_cast<DeviceId>(
            rng.below(static_cast<std::uint64_t>(devices)));
        const std::size_t before = plan.events.size();
        switch (rng.below(7)) {
        case 0:
            plan.events.push_back(FaultEvent::linkDegrade(
                iteration, link, rng.uniform(0.1, 1.0)));
            break;
        case 1:
            plan.events.push_back(FaultEvent::linkFail(iteration, link));
            break;
        case 2: {
            // Both directions: the cut that can isolate a device.
            const Link &l = links[static_cast<std::size_t>(link)];
            plan.events.push_back(FaultEvent::linkFail(iteration, link));
            plan.events.push_back(FaultEvent::linkFail(
                iteration, topo.linkBetween(l.dst, l.src)));
            break;
        }
        case 3:
            plan.events.push_back(FaultEvent::linkRestore(
                iteration,
                failed.empty() ? link : failed[rng.below(failed.size())]));
            break;
        case 4:
            plan.events.push_back(FaultEvent::slowNode(
                iteration, dev, rng.uniform(1.0, 3.0)));
            break;
        case 5:
            plan.events.push_back(FaultEvent::nodeFail(iteration, dev));
            break;
        default:
            // Every link touching one device: a dead die's router.
            for (std::size_t l = 0; l < links.size(); ++l) {
                if (links[l].src == dev || links[l].dst == dev) {
                    plan.events.push_back(FaultEvent::linkFail(
                        iteration, static_cast<LinkId>(l)));
                }
            }
            break;
        }
        FaultInjector replay(topo, plan);
        replay.advanceTo(iteration);
        bool connected = true;
        for (DeviceId a = 0; a < devices && connected; ++a) {
            for (DeviceId b = 0; b < devices && connected; ++b)
                connected = replay.reachable(a, b);
        }
        if (2 * replay.liveDeviceCount() < devices ||
            !(connected || allowIsolation)) {
            plan.events.resize(before);
            continue;
        }
        for (std::size_t i = before; i < plan.events.size(); ++i) {
            const FaultEvent &e = plan.events[i];
            const auto it = std::find(failed.begin(), failed.end(),
                                      static_cast<LinkId>(e.target));
            if (e.kind == FaultEventKind::LinkFail && it == failed.end())
                failed.push_back(static_cast<LinkId>(e.target));
            else if (e.kind == FaultEventKind::LinkRestore &&
                     it != failed.end())
                failed.erase(it);
        }
    }
    return plan;
}

/**
 * Check every ordered device pair of @p inj's current topology against
 * a breadth-first search over the links @p failed leaves live:
 * reachable() must equal BFS reachability, and a reachable pair's
 * walk() must use live links only, end at its destination and take the
 * BFS hop count.
 */
void
expectRoutesMatchLiveBfs(const FaultInjector &inj,
                         const std::vector<char> &failed)
{
    const Topology &topo = inj.topology();
    const auto &links = topo.links();
    const auto nodes = static_cast<std::size_t>(topo.numNodes());
    std::vector<std::vector<LinkId>> out(nodes);
    for (std::size_t l = 0; l < links.size(); ++l) {
        if (!failed[l])
            out[static_cast<std::size_t>(links[l].src)].push_back(
                static_cast<LinkId>(l));
    }
    std::vector<int> dist(nodes);
    std::vector<NodeId> queue;
    for (DeviceId s = 0; s < topo.numDevices(); ++s) {
        std::fill(dist.begin(), dist.end(), -1);
        dist[static_cast<std::size_t>(s)] = 0;
        queue.assign(1, s);
        for (std::size_t q = 0; q < queue.size(); ++q) {
            const NodeId v = queue[q];
            for (const LinkId l : out[static_cast<std::size_t>(v)]) {
                const NodeId u = links[static_cast<std::size_t>(l)].dst;
                if (dist[static_cast<std::size_t>(u)] < 0) {
                    dist[static_cast<std::size_t>(u)] =
                        dist[static_cast<std::size_t>(v)] + 1;
                    queue.push_back(u);
                }
            }
        }
        for (DeviceId d = 0; d < topo.numDevices(); ++d) {
            const int hops = dist[static_cast<std::size_t>(d)];
            ASSERT_EQ(inj.reachable(s, d), hops >= 0)
                << "pair " << s << "->" << d;
            if (hops <= 0)
                continue;
            NodeId at = s;
            int walked = 0;
            for (const LinkId l : topo.walk(s, d)) {
                EXPECT_FALSE(failed[static_cast<std::size_t>(l)])
                    << "route " << s << "->" << d << " uses failed link "
                    << l;
                EXPECT_EQ(links[static_cast<std::size_t>(l)].src, at);
                at = links[static_cast<std::size_t>(l)].dst;
                ++walked;
            }
            EXPECT_EQ(at, d) << "route " << s << "->" << d;
            EXPECT_EQ(walked, hops) << "route " << s << "->" << d;
        }
    }
}

} // namespace

TEST(FaultPlanTest, ValidateRejectsMalformedPlans)
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);

    FaultPlan negative;
    negative.events.push_back(FaultEvent::slowNode(-1, 0, 2.0));
    EXPECT_EXIT(negative.validate(mesh),
                ::testing::ExitedWithCode(1), "negative iteration");

    FaultPlan unsorted;
    unsorted.events.push_back(FaultEvent::linkFail(10, 0));
    unsorted.events.push_back(FaultEvent::linkRestore(5, 0));
    EXPECT_EXIT(unsorted.validate(mesh),
                ::testing::ExitedWithCode(1), "");

    FaultPlan badFactor;
    badFactor.events.push_back(FaultEvent::linkDegrade(0, 0, 1.5));
    EXPECT_EXIT(badFactor.validate(mesh),
                ::testing::ExitedWithCode(1), "");

    FaultPlan badLink;
    badLink.events.push_back(FaultEvent::linkFail(
        0, static_cast<int>(mesh.links().size())));
    EXPECT_EXIT(badLink.validate(mesh),
                ::testing::ExitedWithCode(1), "");

    FaultPlan good;
    good.events.push_back(FaultEvent::linkDegrade(0, 0, 0.5));
    good.events.push_back(FaultEvent::slowNode(0, 3, 2.0));
    good.events.push_back(FaultEvent::linkRestore(7, 0));
    good.validate(mesh); // must not exit
}

TEST(FaultTopologyTest, NoRouteTraversesAFailedLink)
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    FaultTopology ft(mesh);

    // Cut an asymmetric set of links (both directions of some, one
    // direction of others) so reroutes are non-trivial.
    std::set<LinkId> cut;
    const auto cutBetween = [&](NodeId a, NodeId b, bool both) {
        cut.insert(mesh.linkBetween(a, b));
        if (both)
            cut.insert(mesh.linkBetween(b, a));
    };
    cutBetween(5, 6, true);
    cutBetween(9, 10, true);
    cutBetween(1, 2, false);
    cutBetween(13, 14, true);
    for (const LinkId l : cut)
        ft.failLink(l);
    ft.rebuildAfterFaults();

    const auto &links = ft.links();
    for (DeviceId s = 0; s < ft.numDevices(); ++s) {
        for (DeviceId d = 0; d < ft.numDevices(); ++d) {
            if (s == d)
                continue;
            // Unreachable pairs are reported; routing them asserts
            // (UnreachablePairQueriesDie).
            if (!ft.reachable(s, d))
                continue;
            const std::vector<LinkId> path = ft.computeRoute(s, d);
            ASSERT_FALSE(path.empty());
            // Connected chain s → d over live links only.
            NodeId at = s;
            for (const LinkId l : path) {
                EXPECT_FALSE(ft.linkFailed(l))
                    << "route " << s << "->" << d
                    << " uses failed link " << l;
                EXPECT_EQ(links[static_cast<std::size_t>(l)].src, at);
                at = links[static_cast<std::size_t>(l)].dst;
            }
            EXPECT_EQ(at, d);
        }
    }
}

TEST(FaultTopologyTest, DegradeScalesAndRestoreIsBitwiseExact)
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    FaultTopology ft(mesh);
    const LinkId l = mesh.linkBetween(5, 6);
    const double nameplate =
        mesh.links()[static_cast<std::size_t>(l)].bandwidth;

    ft.degradeLink(l, 0.25);
    ft.rebuildAfterFaults();
    EXPECT_EQ(ft.links()[static_cast<std::size_t>(l)].bandwidth,
              nameplate * 0.25);
    // Degrade-only: routing delegates to the base paths exactly.
    for (DeviceId s = 0; s < ft.numDevices(); s += 3) {
        for (DeviceId d = 0; d < ft.numDevices(); d += 5) {
            if (s == d)
                continue;
            const auto base = mesh.computeRoute(s, d);
            const auto over = ft.computeRoute(s, d);
            EXPECT_EQ(base, over);
        }
    }

    ft.failLink(l);
    ft.rebuildAfterFaults();
    EXPECT_EQ(ft.links()[static_cast<std::size_t>(l)].bandwidth,
              FaultTopology::kFailedLinkBandwidth);
    EXPECT_TRUE(ft.linkFailed(l));

    ft.restoreLink(l);
    ft.rebuildAfterFaults();
    EXPECT_EQ(ft.links()[static_cast<std::size_t>(l)].bandwidth,
              nameplate);
    EXPECT_FALSE(ft.linkFailed(l));
    EXPECT_EQ(ft.failedLinkCount(), 0);
    EXPECT_TRUE(ft.isolatedDevices().empty());
}

TEST(FaultTopologyTest, FullyCutDeviceIsIsolated)
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    FaultTopology ft(mesh);
    // Corner device 0 touches neighbours 1 and 4 only.
    for (const NodeId n : {1, 4}) {
        ft.failLink(mesh.linkBetween(0, n));
        ft.failLink(mesh.linkBetween(n, 0));
    }
    ft.rebuildAfterFaults();

    ASSERT_EQ(ft.isolatedDevices().size(), 1u);
    EXPECT_EQ(ft.isolatedDevices()[0], 0);
    EXPECT_FALSE(ft.reachable(0, 5));
    EXPECT_FALSE(ft.reachable(5, 0));
    EXPECT_TRUE(ft.reachable(5, 10));
}

TEST(FaultTopologyTest, UnreachablePairQueriesDie)
{
    // A cut-off pair must never be charged as a free transfer: every
    // route query on it asserts, whatever the system size.
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    FaultTopology ft(mesh);
    for (const NodeId n : {1, 4}) {
        ft.failLink(mesh.linkBetween(0, n));
        ft.failLink(mesh.linkBetween(n, 0));
    }
    ft.rebuildAfterFaults();
    ASSERT_FALSE(ft.reachable(0, 5));

    EXPECT_DEATH((void)ft.hops(0, 5), "unreachable");
    EXPECT_DEATH((void)ft.hops(5, 0), "unreachable");
    EXPECT_DEATH((void)ft.pathLatency(0, 5), "unreachable");
    EXPECT_DEATH((void)ft.pathInvBandwidthSum(0, 5), "unreachable");
    EXPECT_DEATH((void)ft.computeRoute(0, 5), "unreachable");
    EXPECT_DEATH((void)flowTime(ft, 0, 5, 1e9), "unreachable");
    PhaseTraffic traffic(ft);
    EXPECT_DEATH(traffic.addFlow(0, 5, 1e9), "unreachable");
    // Reachable pairs on the same overlay still route normally.
    EXPECT_GT(ft.hops(5, 10), 0);
}

TEST(FaultInjectorTest, AdvanceIsOrderedAndIdempotent)
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    FaultPlan plan;
    plan.events.push_back(FaultEvent::slowNode(5, 3, 2.0));
    plan.events.push_back(
        FaultEvent::linkFail(10, mesh.linkBetween(5, 6)));
    plan.events.push_back(FaultEvent::slowNode(10, 3, 1.0));
    FaultInjector inj(mesh, plan);

    EXPECT_EQ(inj.advanceTo(4), 0);
    EXPECT_EQ(&inj.topology(), &mesh); // no link event yet
    EXPECT_EQ(inj.computeFactor(3), 1.0);

    EXPECT_EQ(inj.advanceTo(5), 1);
    EXPECT_EQ(inj.advanceTo(5), 0); // idempotent
    EXPECT_EQ(inj.computeFactor(3), 2.0);
    EXPECT_EQ(inj.maxLiveComputeFactor(), 2.0);
    EXPECT_EQ(inj.topologyEpoch(), 0);

    EXPECT_EQ(inj.advanceTo(12), 2); // both iteration-10 events
    EXPECT_EQ(inj.computeFactor(3), 1.0);
    EXPECT_EQ(inj.topologyEpoch(), 1);
    EXPECT_NE(&inj.topology(), &mesh);
    EXPECT_EQ(inj.appliedEvents(), 3);
    EXPECT_TRUE(inj.reachable(5, 6)); // rerouted, not disconnected
}

TEST(FaultInjectorTest, DeviceLossIsMonotone)
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    FaultPlan plan;
    plan.events.push_back(FaultEvent::nodeFail(2, 7));
    // Later restores never resurrect the device.
    plan.events.push_back(
        FaultEvent::linkDegrade(4, mesh.linkBetween(0, 1), 0.5));
    plan.events.push_back(
        FaultEvent::linkRestore(6, mesh.linkBetween(0, 1)));
    FaultInjector inj(mesh, plan);

    inj.advanceTo(3);
    EXPECT_TRUE(inj.deviceLost(7));
    EXPECT_EQ(inj.liveDeviceCount(), mesh.numDevices() - 1);
    ASSERT_EQ(inj.lostDevices().size(), 1u);
    EXPECT_EQ(inj.lostDevices()[0], 7);

    inj.advanceTo(100);
    EXPECT_TRUE(inj.deviceLost(7));
    EXPECT_EQ(inj.lostDevices().size(), 1u);
    EXPECT_DOUBLE_EQ(inj.liveFraction(), 15.0 / 16.0);
}

TEST(FaultPlacementTest, MarkDeviceLostRehomesDeterministically)
{
    ExpertPlacement p(16, 8, 1);
    const DeviceId dead = 3; // natively hosts experts 3 and 11
    const auto rehomed = p.markDeviceLost(dead);

    ASSERT_EQ(rehomed.size(), 2u);
    EXPECT_EQ(rehomed[0].expert, 3);
    EXPECT_EQ(rehomed[1].expert, 11);
    for (const ExpertRehoming &r : rehomed) {
        EXPECT_EQ(r.from, dead);
        EXPECT_NE(r.to, dead);
        EXPECT_TRUE(p.hosts(r.to, r.expert));
        EXPECT_TRUE(p.isNative(r.to, r.expert));
        // Native re-homes ride a capacity bump: shadow headroom of the
        // target is untouched.
        EXPECT_EQ(p.freeSlots(r.to), p.shadowSlots());
    }
    EXPECT_TRUE(p.deviceLost(dead));
    EXPECT_TRUE(p.expertsOn(dead).empty());
    EXPECT_EQ(p.freeSlots(dead), 0);

    // Idempotent; and resetToNative() keeps the device drained.
    EXPECT_TRUE(p.markDeviceLost(dead).empty());
    p.resetToNative();
    EXPECT_TRUE(p.expertsOn(dead).empty());
    for (int e = 0; e < 16; ++e)
        EXPECT_GE(p.numReplicas(e), 1);

    // Same starting state, same deterministic targets.
    ExpertPlacement q(16, 8, 1);
    const auto again = q.markDeviceLost(dead);
    ASSERT_EQ(again.size(), rehomed.size());
    for (std::size_t i = 0; i < again.size(); ++i) {
        EXPECT_EQ(again[i].expert, rehomed[i].expert);
        EXPECT_EQ(again[i].to, rehomed[i].to);
    }
}

TEST(FaultPlacementTest, RetiringDevicesDownToOneKeepsEveryExpert)
{
    // Retire the devices of a 4×4 wafer one by one, in a scattered
    // order, until a single survivor hosts everything; after each loss
    // every expert keeps a replica, none on a lost device, and the lost
    // devices host nothing. E ≥ D and E < D, with shadow replicas in
    // place (and re-planned) between losses.
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    const int order[] = {5, 0, 15, 10, 3, 12, 6, 9, 1, 14, 2, 13, 7, 8, 4};
    for (const int experts : {40, 16, 6}) {
        SCOPED_TRACE("experts " + std::to_string(experts));
        ExpertPlacement p(experts, mesh.numDevices(), 2);
        TopologyAwareBalancer tb(mesh);
        std::vector<double> loads(static_cast<std::size_t>(experts));
        for (int e = 0; e < experts; ++e)
            loads[static_cast<std::size_t>(e)] = 1000.0 / (e + 1);
        std::set<DeviceId> lost;
        for (const int d : order) {
            tb.rebalance(loads, p);
            p.markDeviceLost(d);
            lost.insert(d);
            for (const DeviceId l : lost) {
                EXPECT_TRUE(p.deviceLost(l));
                EXPECT_TRUE(p.expertsOn(l).empty()) << "device " << l;
                EXPECT_EQ(p.freeSlots(l), 0) << "device " << l;
            }
            for (int e = 0; e < experts; ++e) {
                ASSERT_GE(p.numReplicas(e), 1) << "expert " << e;
                for (const DeviceId r : p.replicasOf(e)) {
                    EXPECT_FALSE(p.deviceLost(r))
                        << "expert " << e << " on lost device " << r;
                    EXPECT_TRUE(p.hosts(r, e));
                }
            }
        }
        // The survivor natively hosts every expert.
        const DeviceId survivor = 11;
        ASSERT_FALSE(p.deviceLost(survivor));
        p.resetToNative();
        for (int e = 0; e < experts; ++e) {
            EXPECT_TRUE(p.isNative(survivor, e)) << "expert " << e;
            EXPECT_EQ(p.replicasOf(e), std::vector<DeviceId>{survivor});
        }
    }
}

TEST(EngineFaultTest, EmptyAndDormantPlansAreBitwiseIdentical)
{
    const System sys = System::make(smallWsc());
    EngineConfig ec;
    ec.model = qwen3();
    ec.decodeTokensPerGroup = 64;
    ec.workload.mode = GatingMode::MixedScenario;
    ec.workload.seed = 7;
    ec.balancer = BalancerKind::NonInvasive;

    InferenceEngine plain(sys.mapping(), ec);
    const auto reference = plain.run(12);

    // Empty plan: attachFaults() detaches entirely.
    InferenceEngine withEmpty(sys.mapping(), ec);
    FaultInjector empty(sys.mapping().topology(), FaultPlan{});
    withEmpty.attachFaults(&empty);
    const auto emptyRun = withEmpty.run(12);

    // Dormant plan: events exist but fire beyond the run; the attached
    // fast path must still multiply by exactly 1.0 / route identically.
    FaultPlan dormant;
    dormant.events.push_back(FaultEvent::slowNode(1000, 0, 2.0));
    FaultInjector sleeping(sys.mapping().topology(), dormant);
    InferenceEngine withDormant(sys.mapping(), ec);
    withDormant.attachFaults(&sleeping);
    const auto dormantRun = withDormant.run(12);

    ASSERT_EQ(reference.size(), emptyRun.size());
    ASSERT_EQ(reference.size(), dormantRun.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
        expectIdenticalStats(reference[i], emptyRun[i]);
        expectIdenticalStats(reference[i], dormantRun[i]);
    }
}

TEST(EngineFaultTest, StragglerScalesComputeExactly)
{
    const System sys = System::make(smallWsc());
    EngineConfig ec;
    ec.model = qwen3();
    ec.decodeTokensPerGroup = 64;
    ec.workload.mode = GatingMode::MixedScenario;
    ec.workload.seed = 7;

    InferenceEngine plain(sys.mapping(), ec);
    const IterationStats base = plain.step();

    FaultPlan plan;
    plan.events.push_back(FaultEvent::slowNode(0, 0, 2.0));
    FaultInjector inj(sys.mapping().topology(), plan);
    InferenceEngine slowed(sys.mapping(), ec);
    slowed.attachFaults(&inj);
    inj.advanceTo(0);
    const IterationStats hit = slowed.step();

    // Attention runs in TP lockstep: the slowest device sets the pace.
    EXPECT_EQ(hit.attnCompute, base.attnCompute * 2.0);
    EXPECT_EQ(hit.faultEventsApplied, 1);
    // Same RNG stream, same routing: communication is untouched.
    EXPECT_EQ(hit.allReduce, base.allReduce);
    EXPECT_EQ(hit.dispatch, base.dispatch);
    EXPECT_GE(hit.moeTime, base.moeTime);
}

TEST(EngineFaultTest, NodeLossChargesRecoveryAndDrainsDevice)
{
    const System sys = System::make(smallWsc());
    EngineConfig ec;
    ec.model = qwen3();
    ec.decodeTokensPerGroup = 64;
    ec.workload.mode = GatingMode::MixedScenario;
    ec.workload.seed = 7;

    FaultPlan plan;
    plan.events.push_back(FaultEvent::nodeFail(3, 5));
    FaultInjector inj(sys.mapping().topology(), plan);
    InferenceEngine engine(sys.mapping(), ec);
    engine.attachFaults(&inj);

    std::vector<IterationStats> run;
    for (int i = 0; i < 6; ++i) {
        inj.advanceTo(i);
        run.push_back(engine.step());
    }
    EXPECT_EQ(run[2].faultRecoveryTime, 0.0);
    EXPECT_EQ(run[3].faultEventsApplied, 1);
    EXPECT_GT(run[3].faultRecoveryTime, 0.0);
    EXPECT_EQ(run[4].faultRecoveryTime, 0.0); // one-time charge
    EXPECT_TRUE(engine.placement().deviceLost(5));
    EXPECT_TRUE(engine.placement().expertsOn(5).empty());
}

TEST(FaultDigest, BareEngineUnderCascade)
{
    // A bare engine under the staged Cascade plan (degrade, cut and
    // straggler, device loss, restore), with the injector advanced
    // before every step as ServeLoop advances it. Pins every
    // IterationStats field but faultEventsApplied.
    const System sys = System::make(smallWsc());
    EngineConfig ec;
    ec.model = qwen3();
    ec.decodeTokensPerGroup = 64;
    ec.workload.mode = GatingMode::MixedScenario;
    ec.workload.seed = 7;
    ec.balancer = BalancerKind::NonInvasive;
    ec.beta = 3;

    FaultScenarioSpec spec;
    spec.startIteration = 3;
    spec.spacing = 4;
    FaultInjector inj(sys.mapping().topology(),
                      makeFaultScenario(FaultScenarioKind::Cascade,
                                        sys.mapping().topology(), spec));
    InferenceEngine engine(sys.mapping(), ec);
    engine.attachFaults(&inj);

    std::uint64_t h = digest::kOffset;
    for (int i = 0; i < 24; ++i) {
        inj.advanceTo(i);
        const IterationStats s = engine.step();
        for (const double v :
             {s.attnCompute, s.allReduce, s.dispatch, s.combine, s.moeTime,
              s.moeComputeOnly, s.moeMemoryOnly, s.epAllReduce,
              s.migrationOverhead, s.loadMax, s.loadAvg, s.imbalance,
              s.faultRecoveryTime})
            digest::mixDouble(h, v);
        for (const int v : {s.migrationsPlanned, s.migrationsCompleted,
                            s.migrationsPending})
            digest::mixInt(h, v);
    }
    EXPECT_EQ(inj.appliedEvents(),
              static_cast<int>(inj.plan().events.size()));
    EXPECT_TRUE(engine.placement().deviceLost(8));
    EXPECT_EQ(h, 0x4e763dcc0070eac1ULL);
}

TEST(ServeFaultTest, EmptyPlanReportIsBitwiseIdentical)
{
    const System sys = System::make(smallWsc());
    ServeConfig sc = loadedServeConfig(30);

    ServeSimulator plain(sys.mapping(), sc);
    const ServeReport a = plain.run();

    ServeConfig withNone = sc;
    withNone.faults = makeFaultScenario(
        FaultScenarioKind::None, sys.mapping().topology());
    ASSERT_TRUE(withNone.faults.empty());
    ServeSimulator gated(sys.mapping(), withNone);
    const ServeReport b = gated.run();

    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.ttftP50, b.ttftP50);
    EXPECT_EQ(a.ttftP99, b.ttftP99);
    EXPECT_EQ(a.tpotP99, b.tpotP99);
    EXPECT_EQ(a.latencyP99, b.latencyP99);
    EXPECT_EQ(a.throughputTokensPerSec, b.throughputTokensPerSec);
    EXPECT_EQ(a.goodputRequestsPerSec, b.goodputRequestsPerSec);
    EXPECT_EQ(a.sloAttainment, b.sloAttainment);
    EXPECT_EQ(
        plain.stats().distributionView("serve.kv.reserved_tokens").max,
        gated.stats().distributionView("serve.kv.reserved_tokens").max);
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (std::size_t i = 0; i < a.trace.size(); ++i) {
        EXPECT_EQ(a.trace[i].time, b.trace[i].time);
        EXPECT_EQ(a.trace[i].kvReserved, b.trace[i].kvReserved);
    }
    EXPECT_EQ(b.shedRequests, 0);
    EXPECT_EQ(b.failedRequests, 0);
    EXPECT_EQ(b.retriesTotal, 0);
}

TEST(ServeFaultTest, NodeLossUnderLoadRetriesAndAttributes)
{
    const System sys = System::make(smallWsc());
    ServeConfig sc = loadedServeConfig(40);
    FaultScenarioSpec spec;
    spec.startIteration = 40;
    sc.faults = makeFaultScenario(FaultScenarioKind::NodeLoss,
                                  sys.mapping().topology(), spec);

    ServeSimulator sim(sys.mapping(), sc);
    const ServeReport r = sim.run();

    EXPECT_EQ(r.faultEventsApplied, 1);
    EXPECT_LT(r.liveDeviceFractionMin, 1.0);
    EXPECT_GE(r.retriesTotal, 1);

    // Every request reaches a terminal outcome exactly once.
    int completed = 0, shed = 0, failed = 0;
    for (const RequestMetrics &m : r.requests) {
        switch (m.outcome) {
        case RequestOutcome::Completed:
            ++completed;
            break;
        case RequestOutcome::Shed:
            ++shed;
            EXPECT_EQ(m.firstTokenTime, 0.0);
            break;
        case RequestOutcome::Failed:
            ++failed;
            break;
        }
    }
    EXPECT_EQ(completed + shed + failed, sc.numRequests);
    EXPECT_EQ(shed, r.shedRequests);
    EXPECT_EQ(failed, r.failedRequests);
}

TEST(ServeFaultTest, CascadeRunsAreDeterministic)
{
    const System sys = System::make(smallWsc());
    ServeConfig sc = loadedServeConfig(32);
    FaultScenarioSpec spec;
    spec.startIteration = 20;
    spec.spacing = 15;
    sc.faults = makeFaultScenario(FaultScenarioKind::Cascade,
                                  sys.mapping().topology(), spec);

    const ServeReport a = ServeSimulator(sys.mapping(), sc).run();
    const ServeReport b = ServeSimulator(sys.mapping(), sc).run();

    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.goodputRequestsPerSec, b.goodputRequestsPerSec);
    EXPECT_EQ(a.latencyP99, b.latencyP99);
    EXPECT_EQ(a.shedRequests, b.shedRequests);
    EXPECT_EQ(a.failedRequests, b.failedRequests);
    EXPECT_EQ(a.retriesTotal, b.retriesTotal);
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_EQ(a.requests[i].finishTime, b.requests[i].finishTime);
        EXPECT_EQ(a.requests[i].outcome, b.requests[i].outcome);
        EXPECT_EQ(a.requests[i].retries, b.requests[i].retries);
    }
}

TEST(FaultScenarioTest, GeneratorsProduceValidPlans)
{
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    for (const FaultScenarioKind kind :
         {FaultScenarioKind::None, FaultScenarioKind::DegradedLinks,
          FaultScenarioKind::LinkCut, FaultScenarioKind::Straggler,
          FaultScenarioKind::NodeLoss, FaultScenarioKind::Cascade}) {
        const FaultPlan plan = makeFaultScenario(kind, mesh);
        plan.validate(mesh); // fatal() on any malformation
        EXPECT_EQ(plan.empty(), kind == FaultScenarioKind::None)
            << faultScenarioName(kind);
        // Same inputs, same plan: the determinism contract.
        const FaultPlan again = makeFaultScenario(kind, mesh);
        ASSERT_EQ(plan.events.size(), again.events.size());
        for (std::size_t i = 0; i < plan.events.size(); ++i) {
            EXPECT_EQ(plan.events[i].iteration,
                      again.events[i].iteration);
            EXPECT_EQ(plan.events[i].target, again.events[i].target);
            EXPECT_EQ(plan.events[i].factor, again.events[i].factor);
        }
    }
}

namespace {

/**
 * Replay @p plan boundary by boundary up to its last event and check
 * every device pair of each new fault state against a BFS over the live
 * links (expectRoutesMatchLiveBfs), tracking the failed links from the
 * plan itself. Fault state is a pure function of the plan and the
 * iteration, so these are exactly the states a run of the plan routes
 * over.
 */
void
expectEveryBoundaryRoutesOverLiveLinks(const Topology &topo,
                                       const FaultPlan &plan)
{
    FaultInjector inj(topo, plan);
    std::vector<char> failed(topo.links().size(), 0);
    std::size_t next = 0;
    for (int i = 0; i <= plan.events.back().iteration; ++i) {
        if (inj.advanceTo(i) == 0 && i > 0)
            continue;
        for (; next < plan.events.size() &&
             plan.events[next].iteration <= i;
             ++next) {
            const FaultEvent &e = plan.events[next];
            if (e.kind == FaultEventKind::LinkFail)
                failed[static_cast<std::size_t>(e.target)] = 1;
            else if (e.kind == FaultEventKind::LinkRestore)
                failed[static_cast<std::size_t>(e.target)] = 0;
        }
        SCOPED_TRACE("boundary " + std::to_string(i));
        EXPECT_GE(2 * inj.liveDeviceCount(), topo.numDevices());
        expectRoutesMatchLiveBfs(inj, failed);
    }
}

} // namespace

TEST(FaultRandomPlanTest, SeededPlansServeAndRouteOverLiveLinks)
{
    // Each seed's plan serves to completion on 4×4 ER (the run asserts
    // request, KV and byte conservation at every boundary), and every
    // boundary state it routed over is checked against a BFS. Served
    // plans keep every device connected: a device cut off by link
    // failures still sits in its TP all-reduce ring, and the engine's
    // ring walk to it asserts (IsolatingPlansReportUnreachablePairs
    // checks such plans' reachability without serving them).
    const System sys = System::make(smallWsc());
    const Topology &topo = sys.mapping().topology();
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        ServeConfig sc = loadedServeConfig(32);
        sc.faults = randomFaultPlan(topo, seed, 16, 40, false);
        sc.faults.validate(topo);
        const ServeReport r = ServeSimulator(sys.mapping(), sc).run();
        EXPECT_EQ(r.faultEventsApplied,
                  static_cast<int>(sc.faults.events.size()));
        EXPECT_GE(2.0 * r.liveDeviceFractionMin, 1.0);
        expectEveryBoundaryRoutesOverLiveLinks(topo, sc.faults);
    }
}

TEST(FaultRandomPlanTest, IsolatingPlansReportUnreachablePairs)
{
    // Plans whose link failures cut devices off: reachable() must match
    // the BFS on the unreachable pairs too, and the cut-off devices are
    // lost.
    const MeshTopology mesh = MeshTopology::singleWafer(4);
    int isolatingSeeds = 0;
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const FaultPlan plan = randomFaultPlan(mesh, seed, 16, 40, true);
        plan.validate(mesh);
        expectEveryBoundaryRoutesOverLiveLinks(mesh, plan);
        FaultInjector inj(mesh, plan);
        inj.advanceTo(plan.events.back().iteration);
        for (DeviceId d = 0; d < mesh.numDevices(); ++d) {
            if (!inj.reachable(0, d) || !inj.reachable(d, 0)) {
                ++isolatingSeeds;
                break;
            }
        }
    }
    EXPECT_GT(isolatingSeeds, 0) << "no seed cut a device off";
}
