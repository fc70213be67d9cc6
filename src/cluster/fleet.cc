#include "cluster/fleet.hh"

#include <algorithm>
#include <limits>
#include <string>

#include "common/logging.hh"

namespace moentwine {

const char *
scaleEventKindName(ScaleEventKind kind)
{
    switch (kind) {
    case ScaleEventKind::Start:
        return "start";
    case ScaleEventKind::Activate:
        return "activate";
    case ScaleEventKind::Drain:
        return "drain";
    case ScaleEventKind::Park:
        return "park";
    }
    panic("unknown scale-event kind");
}

namespace {

/**
 * Replica life cycle. Only Active replicas receive dispatches;
 * Draining and Starting replicas still run (Draining finishes its
 * in-flight work, Starting has none by construction — a replica is
 * always drained before it parks, so it wakes empty).
 */
enum class ReplicaState
{
    Active,
    Starting,
    Draining,
    Parked,
};

} // namespace

struct FleetSimulator::Replica
{
    std::unique_ptr<StatRegistry> stats;
    std::unique_ptr<ServeLoop> loop;
    ReplicaState state = ReplicaState::Active;
    double activationTime = 0.0; ///< Starting only
};

FleetSimulator::FleetSimulator(const FleetConfig &cfg) : cfg_(cfg)
{
    MOE_ASSERT(!cfg_.replicas.empty(),
               "fleet needs at least one replica");
    MOE_ASSERT(cfg_.numRequests > 0, "fleet run needs requests");
    bool anyActive = false;
    systems_.reserve(cfg_.replicas.size());
    for (const ReplicaConfig &rc : cfg_.replicas) {
        anyActive = anyActive || !rc.startParked;
        systems_.push_back(
            std::make_shared<const System>(System::make(rc.system)));
    }
    MOE_ASSERT(anyActive,
               "fleet cannot start with every replica parked");
}

FleetSimulator::~FleetSimulator() = default;

FleetReport
FleetSimulator::run()
{
    const int n = static_cast<int>(cfg_.replicas.size());
    const double inf = std::numeric_limits<double>::infinity();
    const int fleetPid = 2 * n;

    // Fleet-level registry; merged with the replica registries (in
    // replica-id order) into stats_ at the end of the run.
    StatRegistry fleetStats;
    const StatRegistry::Handle dispatchedStat =
        fleetStats.counter("fleet.dispatched");
    const StatRegistry::Handle frontShedStat =
        fleetStats.counter("fleet.front_door_shed");
    const StatRegistry::Handle startStat =
        fleetStats.counter("fleet.scale.starts");
    const StatRegistry::Handle activateStat =
        fleetStats.counter("fleet.scale.activations");
    const StatRegistry::Handle drainStat =
        fleetStats.counter("fleet.scale.drains");
    const StatRegistry::Handle parkStat =
        fleetStats.counter("fleet.scale.parks");
    if (trace_ != nullptr) {
        trace_->processName(fleetPid, "fleet");
        trace_->threadName(fleetPid, 0, "dispatch");
        trace_->threadName(fleetPid, 1, "scale");
    }

    std::vector<Replica> reps;
    reps.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        Replica rep;
        rep.stats = std::make_unique<StatRegistry>();
        rep.loop = std::make_unique<ServeLoop>(
            systems_[static_cast<std::size_t>(i)]->mapping(),
            cfg_.replicas[static_cast<std::size_t>(i)].serve,
            rep.stats.get(), trace_, 2 * i,
            "replica" + std::to_string(i),
            "replica" + std::to_string(i) + ".requests");
        rep.state = cfg_.replicas[static_cast<std::size_t>(i)].startParked
            ? ReplicaState::Parked
            : ReplicaState::Active;
        reps.push_back(std::move(rep));
    }

    // Mirror the bare serving loop's time-zero boundary on every
    // initially active replica: a fault plan firing at iteration 0
    // stamps its event time at 0 in both drivers.
    for (Replica &rep : reps) {
        if (rep.state == ReplicaState::Active) {
            const bool started = rep.loop->beginIteration();
            MOE_ASSERT(!started, "iteration started with no requests");
        }
    }

    const std::vector<ServeRequest> stream =
        ArrivalProcess(cfg_.arrival).generate(cfg_.numRequests);
    RequestRouter router(cfg_.router, cfg_.routerSeed);
    Autoscaler scaler(cfg_.autoscaler);

    // Replica i's router-visible load: the one statement of replica
    // load, read by the router at every dispatch and, through
    // outstanding(), by the autoscaler at every evaluation.
    const auto pressureOf = [&](int i) {
        const Replica &rep = reps[static_cast<std::size_t>(i)];
        const ContinuousBatchScheduler &sched = rep.loop->scheduler();
        ReplicaPressure p;
        p.replica = i;
        p.queueDepth = sched.queueDepth();
        p.runningCount = sched.runningCount();
        p.kvFraction = sched.kvReservedFraction();
        p.kvBudgetTokens = rep.loop->config().scheduler.kvBudgetTokens;
        p.routable = rep.state == ReplicaState::Active;
        return p;
    };

    // The router's view at each dispatch, refilled in place.
    std::vector<ReplicaPressure> pressures(static_cast<std::size_t>(n));

    FleetReport report;
    report.totalRequests = static_cast<int>(stream.size());
    report.dispatched.assign(static_cast<std::size_t>(n), 0);
    std::size_t nextDispatch = 0;

    const auto recordScale = [&](double t, int replica,
                                 ScaleEventKind kind,
                                 StatRegistry::Handle stat) {
        report.scaleEvents.push_back(ScaleEvent{t, replica, kind});
        fleetStats.add(stat);
        if (trace_ != nullptr) {
            trace_->instant(
                fleetPid, 1, "scale", scaleEventKindName(kind), t,
                {{"replica",
                  TraceSink::num(static_cast<long long>(replica))}});
        }
    };

    for (;;) {
        // Termination: everything dispatched, every replica drained.
        bool done = nextDispatch == stream.size();
        for (int i = 0; done && i < n; ++i) {
            const Replica &rep = reps[static_cast<std::size_t>(i)];
            if (rep.loop->inFlight() || !rep.loop->allFinished())
                done = false;
        }
        if (done)
            break;

        // Earliest pending action of each class; lowest replica id
        // wins inside a class (strict < keeps the first minimum).
        double tAct = inf;
        int actId = -1;
        double tStart = inf;
        int startId = -1;
        double tComp = inf;
        int compId = -1;
        for (int i = 0; i < n; ++i) {
            Replica &rep = reps[static_cast<std::size_t>(i)];
            if (rep.state == ReplicaState::Starting &&
                rep.activationTime < tAct) {
                tAct = rep.activationTime;
                actId = i;
            }
            if (rep.loop->inFlight()) {
                if (rep.loop->iterationEnd() < tComp) {
                    tComp = rep.loop->iterationEnd();
                    compId = i;
                }
            } else if ((rep.state == ReplicaState::Active ||
                        rep.state == ReplicaState::Draining) &&
                       !rep.loop->allFinished() &&
                       rep.loop->now() < tStart) {
                tStart = rep.loop->now();
                startId = i;
            }
        }
        const double tArr = nextDispatch < stream.size()
            ? stream[nextDispatch].arrivalTime
            : inf;
        const double tEval = scaler.enabled() ? scaler.nextEval() : inf;

        // Fixed priority at exact time ties: activation, arrival,
        // start, completion, autoscaler evaluation. Arrivals before
        // starts is the invariant the ServeLoop push contract needs
        // (every request reaches its replica no later than the
        // boundary covering its arrival time); activations before
        // arrivals make a replica whose spin-up ends at t routable
        // for a request arriving at t.
        if (tAct <= tArr && tAct <= tStart && tAct <= tComp &&
            tAct <= tEval) {
            Replica &rep = reps[static_cast<std::size_t>(actId)];
            rep.state = ReplicaState::Active;
            rep.loop->advanceIdle(std::max(rep.loop->now(), tAct));
            recordScale(tAct, actId, ScaleEventKind::Activate,
                        activateStat);
        } else if (tArr <= tStart && tArr <= tComp && tArr <= tEval) {
            const ServeRequest &req = stream[nextDispatch++];
            for (int i = 0; i < n; ++i)
                pressures[static_cast<std::size_t>(i)] = pressureOf(i);
            const int target = router.route(req, pressures);
            if (target < 0) {
                // Front-door shed: no routable replica can ever fit
                // the request (it never enters a scheduler).
                ++report.frontDoorShed;
                fleetStats.add(frontShedStat);
                if (trace_ != nullptr) {
                    trace_->instant(
                        fleetPid, 0, "dispatch", "front_door_shed",
                        tArr,
                        {{"request",
                          TraceSink::num(
                              static_cast<long long>(req.id))}});
                }
            } else {
                Replica &rep = reps[static_cast<std::size_t>(target)];
                if (!rep.loop->inFlight()) {
                    rep.loop->advanceIdle(
                        std::max(rep.loop->now(), tArr));
                }
                rep.loop->push(req);
                ++report.dispatched[static_cast<std::size_t>(target)];
                fleetStats.add(dispatchedStat);
                if (trace_ != nullptr) {
                    trace_->instant(
                        fleetPid, 0, "dispatch", "dispatch", tArr,
                        {{"request",
                          TraceSink::num(
                              static_cast<long long>(req.id))},
                         {"replica",
                          TraceSink::num(
                              static_cast<long long>(target))}});
                }
            }
        } else if (tStart <= tComp && tStart <= tEval) {
            Replica &rep = reps[static_cast<std::size_t>(startId)];
            const bool started = rep.loop->beginIteration();
            // false is only legal when the boundary shed the last of
            // the replica's work (degraded-KV admission control).
            MOE_ASSERT(started || rep.loop->allFinished(),
                       "idle replica with runnable work");
        } else if (tComp <= tEval) {
            Replica &rep = reps[static_cast<std::size_t>(compId)];
            rep.loop->finishIteration();
            if (rep.loop->allFinished()) {
                if (nextDispatch < stream.size()) {
                    // The bare loop runs one more (empty) boundary
                    // when it goes idle mid-stream; mirror it so a
                    // fault event landing in the idle gap stamps the
                    // same time in both drivers.
                    const bool started = rep.loop->beginIteration();
                    MOE_ASSERT(!started,
                               "drained replica began an iteration");
                }
                if (rep.state == ReplicaState::Draining) {
                    rep.state = ReplicaState::Parked;
                    recordScale(tComp, compId, ScaleEventKind::Park,
                                parkStat);
                }
            }
        } else {
            MOE_ASSERT(tEval < inf, "fleet event loop stalled");
            int admitting = 0;
            int wakeable = 0;
            int starting = 0;
            double outstanding = 0.0;
            for (int i = 0; i < n; ++i) {
                switch (reps[static_cast<std::size_t>(i)].state) {
                case ReplicaState::Active:
                    ++admitting;
                    outstanding += pressureOf(i).outstanding();
                    break;
                case ReplicaState::Parked:
                    ++wakeable;
                    break;
                case ReplicaState::Starting:
                    ++starting;
                    break;
                case ReplicaState::Draining:
                    break;
                }
            }
            const double avg =
                admitting > 0 ? outstanding / admitting : 0.0;
            const ScaleDecision decision =
                scaler.evaluate(avg, admitting, wakeable, starting);
            if (decision == ScaleDecision::Up) {
                for (int i = 0; i < n; ++i) {
                    Replica &rep = reps[static_cast<std::size_t>(i)];
                    if (rep.state != ReplicaState::Parked)
                        continue;
                    rep.state = ReplicaState::Starting;
                    rep.activationTime =
                        tEval + cfg_.autoscaler.spinUpDelaySec;
                    recordScale(tEval, i, ScaleEventKind::Start,
                                startStat);
                    break;
                }
            } else if (decision == ScaleDecision::Down) {
                for (int i = n - 1; i >= 0; --i) {
                    Replica &rep = reps[static_cast<std::size_t>(i)];
                    if (rep.state != ReplicaState::Active)
                        continue;
                    rep.state = ReplicaState::Draining;
                    recordScale(tEval, i, ScaleEventKind::Drain,
                                drainStat);
                    if (rep.loop->allFinished() &&
                        !rep.loop->inFlight()) {
                        // Already empty: parks on the spot.
                        rep.state = ReplicaState::Parked;
                        recordScale(tEval, i, ScaleEventKind::Park,
                                    parkStat);
                    }
                    break;
                }
            }
        }
    }

    // Per-replica reports in replica-id order; the fleet score merges
    // their requests in the same order, so it is deterministic.
    std::vector<RequestMetrics> requests;
    report.replicas.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        ServeReport r =
            reps[static_cast<std::size_t>(i)].loop->finalize();
        report.iterationsTotal += r.iterations;
        report.makespan = std::max(report.makespan, r.makespan);
        requests.insert(requests.end(), r.requests.begin(),
                        r.requests.end());
        report.replicas.push_back(std::move(r));
    }
    static_cast<ServeScore &>(report) = scoreRequests(
        requests, cfg_.slo, report.makespan, report.totalRequests);
    // Request conservation: every generated request is shed at the
    // front door or ends in exactly one replica outcome, and every
    // replica reports each request dispatched to it.
    MOE_ASSERT(report.totalRequests ==
                   report.frontDoorShed + report.completedRequests +
                       report.shedRequests + report.failedRequests,
               "fleet outcomes do not add up to the generated requests");
    for (std::size_t i = 0; i < report.replicas.size(); ++i) {
        MOE_ASSERT(report.dispatched[i] ==
                       static_cast<int>(report.replicas[i].requests.size()),
                   "replica " + std::to_string(i) +
                       " reports a different request count than was "
                       "dispatched to it");
    }

    std::vector<StatRegistry> parts;
    parts.reserve(static_cast<std::size_t>(n) + 1);
    parts.push_back(std::move(fleetStats));
    for (Replica &rep : reps)
        parts.push_back(std::move(*rep.stats));
    stats_ = StatRegistry::mergedInOrder(parts);
    return report;
}

} // namespace moentwine
