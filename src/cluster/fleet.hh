/**
 * @file
 * FleetSimulator: N serving replicas behind one request router on a
 * shared virtual clock.
 *
 * Each replica is a full ServeLoop over its own System (heterogeneous
 * fleets mix platforms — e.g. WSC wafers next to DGX nodes — via
 * per-replica SystemConfig), with its own engine, scheduler, fault
 * plan, and StatRegistry. The fleet generates a single arrival stream
 * and dispatches each request at its arrival instant through a
 * RequestRouter policy; an optional Autoscaler wakes parked replicas
 * under load (charging a cold-start spin-up delay) and drains surplus
 * ones (stop admitting, finish in-flight work, park).
 *
 * Execution is a deterministic single-threaded event loop. Pending
 * actions are ordered by virtual time with a fixed priority at exact
 * ties — activation, arrival, iteration start, iteration completion,
 * autoscaler evaluation — and by replica id inside a class. Iteration
 * durations are pure functions of the iteration's own plan (ServeLoop
 * steps the engine eagerly at the boundary), so the interleaving is a
 * pure function of the configuration: equal configs produce byte-
 * identical fleet reports for any host, worker count, or run.
 *
 * Replica load is stated once: run() builds each replica's
 * ReplicaPressure in one function, which the router reads at every
 * dispatch and whose outstanding() the autoscaler averages at every
 * evaluation.
 *
 * The fleet score is scoreRequests() over every replica's requests,
 * concatenated in replica-id order, against FleetConfig::slo, with
 * all generated requests (front-door sheds included) as the SLO
 * attainment denominator.
 *
 * Determinism contract (pinned by tests/cluster_test.cpp): a fleet of
 * one always-active replica under RoundRobin with the autoscaler off
 * reproduces a bare ServeSimulator run bitwise — same report, same
 * stats — because both drive the identical ServeLoop with the
 * identical call sequence.
 */

#ifndef MOENTWINE_CLUSTER_FLEET_HH
#define MOENTWINE_CLUSTER_FLEET_HH

#include <memory>
#include <vector>

#include "cluster/autoscaler.hh"
#include "cluster/router.hh"
#include "core/moentwine.hh"
#include "serve/serve_loop.hh"

namespace moentwine {

/** One replica of the fleet. */
struct ReplicaConfig
{
    /** Platform the replica serves on (heterogeneous fleets differ
     *  here). */
    SystemConfig system;
    /**
     * Per-replica serving configuration: engine, scheduler, SLO, and
     * fault plan/policy thread through unchanged. The arrival process
     * and numRequests are ignored — the fleet owns the stream.
     */
    ServeConfig serve;
    /** Start in the parked pool (autoscaler spare capacity) instead
     *  of admitting from time zero. */
    bool startParked = false;
};

/** Fleet-run configuration. */
struct FleetConfig
{
    /** The replicas, id = index. At least one must not start parked. */
    std::vector<ReplicaConfig> replicas;
    /** Fleet-wide arrival stream. */
    ArrivalConfig arrival;
    /** Requests to generate and dispatch. */
    int numRequests = 200;
    /** Dispatch policy of the front door. */
    RouterPolicy router = RouterPolicy::RoundRobin;
    /** Router Rng seed (PowerOfTwo draws; other policies ignore it). */
    std::uint64_t routerSeed = 0;
    /** Fleet-level SLO for aggregate goodput/attainment accounting
     *  (replicas keep their own SLO for per-replica reports). */
    SloConfig slo;
    /** Replica-count control (disabled = static fleet). */
    AutoscalerConfig autoscaler;
};

/** Replica life-cycle transition kinds the autoscaler drives. */
enum class ScaleEventKind
{
    Start,    ///< parked → starting (cold start begins)
    Activate, ///< starting → active (spin-up delay elapsed)
    Drain,    ///< active → draining (stops admitting)
    Park,     ///< draining → parked (in-flight work finished)
};

/** Human-readable transition name ("start", "activate", ...). */
const char *scaleEventKindName(ScaleEventKind kind);

/** One autoscaler-driven replica transition. */
struct ScaleEvent
{
    /** Virtual time of the transition (s). */
    double time = 0.0;
    /** Replica id. */
    int replica = 0;
    ScaleEventKind kind = ScaleEventKind::Start;
};

/** Aggregate fleet metrics of one run: the fleet score (see above;
 *  shedRequests counts replica admission control only) plus these. */
struct FleetReport : ServeScore
{
    /** Per-replica serving reports, replica-id order. */
    std::vector<ServeReport> replicas;
    /** Requests dispatched to each replica, replica-id order. */
    std::vector<int> dispatched;

    /** Requests generated (dispatched + front-door shed). */
    int totalRequests = 0;
    /** Requests no routable replica could ever fit (never entered a
     *  scheduler; counted against SLO attainment). */
    int frontDoorShed = 0;
    /** Engine iterations summed over replicas. */
    int iterationsTotal = 0;
    /** Latest replica virtual clock at the end of the run (s). */
    double makespan = 0.0;

    /** Autoscaler transitions in processing order. */
    std::vector<ScaleEvent> scaleEvents;
};

/**
 * Multi-replica serving simulation behind one request router.
 */
class FleetSimulator
{
  public:
    /** Builds every replica's System up front; fatal on an invalid
     *  configuration (no replicas, all parked, ...). */
    explicit FleetSimulator(const FleetConfig &cfg);
    ~FleetSimulator();

    /** Run the stream to completion and report. Call once. */
    FleetReport run();

    /**
     * Stats of the run (populated by run()): the fleet-level registry
     * ("fleet.dispatched", "fleet.front_door_shed", "fleet.scale.*")
     * merged with every replica's registry in replica-id order — the
     * deterministic-aggregate idiom of src/obs/.
     */
    const StatRegistry &stats() const { return stats_; }

    /**
     * Attach a trace sink (null = no tracing). Replica i emits on
     * pids 2i ("replica<i>": iteration phases, faults, counters) and
     * 2i+1 ("replica<i>.requests"); the fleet emits dispatch and
     * scale instants on pid 2N ("fleet"). Must be set before run().
     */
    void setTrace(TraceSink *trace) { trace_ = trace; }

    const FleetConfig &config() const { return cfg_; }

    /** The per-replica systems, replica-id order (bench labelling). */
    const std::vector<std::shared_ptr<const System>> &systems() const
    {
        return systems_;
    }

  private:
    struct Replica;

    FleetConfig cfg_;
    std::vector<std::shared_ptr<const System>> systems_;
    StatRegistry stats_;
    TraceSink *trace_ = nullptr;
};

} // namespace moentwine

#endif // MOENTWINE_CLUSTER_FLEET_HH
