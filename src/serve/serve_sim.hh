/**
 * @file
 * Request-level serving simulator: an online arrival/batching layer on
 * top of the per-iteration InferenceEngine.
 *
 * ServeSimulator generates a deterministic request stream (ArrivalKind
 * processes), admits it through the continuous-batching scheduler, and
 * feeds the resulting dynamic per-iteration token demand into
 * InferenceEngine::step(IterationDemand). A virtual clock advances by
 * IterationStats::layerTime() × the model's sparse layer count per
 * iteration, turning every steady-state engine figure into a
 * latency/SLO curve: per-request TTFT and TPOT, percentile latency,
 * goodput under an SLO, and queue-depth traces. scoreRequests() turns
 * finished request records into those figures (a ServeScore); it is
 * the one scorer of both ServeReport and the fleet's FleetReport.
 *
 * Drift coupling: the scenario mix of the tokens the scheduler
 * actually planned each iteration drives the engine's gating
 * mixture (WorkloadGenerator::setScenarioMix()), so balancers are
 * evaluated against the stream they serve instead of the synthetic
 * cyclic drift.
 */

#ifndef MOENTWINE_SERVE_SERVE_SIM_HH
#define MOENTWINE_SERVE_SERVE_SIM_HH

#include <vector>

#include "engine/engine.hh"
#include "fault/fault_plan.hh"
#include "serve/arrival.hh"
#include "serve/request.hh"
#include "serve/scheduler.hh"

namespace moentwine {

/** Latency service-level objective. */
struct SloConfig
{
    /** Time-to-first-token bound (s). */
    double ttft = 0.5;
    /** Time-per-output-token bound (s). */
    double tpot = 0.05;

    /** True when a completed request met both bounds. */
    bool met(const RequestMetrics &m) const
    {
        return m.ttft() <= ttft && m.tpot() <= tpot;
    }
};

/** Serving-simulation configuration. */
struct ServeConfig
{
    /**
     * Engine configuration. The scheduling mode and fixed token
     * budgets are ignored (demand is dynamic); ServeLoop forces the
     * workload gating mode to MixedScenario so the scenario-affinity
     * machinery is active.
     */
    EngineConfig engine;
    /** Arrival process of the request stream. */
    ArrivalConfig arrival;
    /** Continuous-batching scheduler parameters. */
    ServeSchedulerConfig scheduler;
    /** Latency SLO for goodput accounting. */
    SloConfig slo;
    /** Requests to generate and serve. */
    int numRequests = 200;
    /** Fault plan injected at iteration boundaries (empty = no faults,
     *  and the run is bitwise identical to a build without faults). */
    FaultPlan faults;
    /**
     * Evictions a request survives before it is Failed outright
     * (ignored while faults is empty; serve_loop.cc fixes the rest of
     * the degraded-operation response).
     */
    int maxRetries = 2;
};

/** One per-iteration sample of the serving state. */
struct ServeTracePoint
{
    /** Virtual time at iteration end (s). */
    double time = 0.0;
    /** Wait-queue depth after admission. */
    int queueDepth = 0;
    /** Running batch size. */
    int running = 0;
    /** KV tokens reserved. */
    int kvReserved = 0;
    /** Decode tokens this iteration (per TP group). */
    int decodeTokens = 0;
    /** Prefill tokens this iteration (per TP group). */
    int prefillTokens = 0;
};

/**
 * Request-level quality of one served stream, or of a fleet's streams
 * merged in replica-id order. scoreRequests() is the one place these
 * fields are computed.
 */
struct ServeScore
{
    /** Requests served to their last output token. */
    int completedRequests = 0;
    /** Requests shed by admission control. */
    int shedRequests = 0;
    /** Requests failed after exhausting their retry budget. */
    int failedRequests = 0;
    /** Fault-triggered evictions across all requests. */
    int retriesTotal = 0;

    // Latency percentiles over completions (s; zero when none).
    double ttftP50 = 0.0, ttftP95 = 0.0, ttftP99 = 0.0;
    double tpotP50 = 0.0, tpotP95 = 0.0, tpotP99 = 0.0;
    double latencyP50 = 0.0, latencyP99 = 0.0;

    /** Output tokens per second of makespan. */
    double throughputTokensPerSec = 0.0;
    /** SLO-satisfying completions per second of makespan. */
    double goodputRequestsPerSec = 0.0;
    /** SLO-met fraction of the offered requests. */
    double sloAttainment = 0.0;
};

/**
 * Score finished request records against @p slo over @p makespan
 * seconds. @p offered is the attainment denominator: the records
 * themselves for one replica, plus the front-door sheds (which have no
 * record) for a fleet. Zero completions leave the percentiles at zero
 * and a zero makespan leaves the rates at zero, never a panic.
 */
ServeScore scoreRequests(const std::vector<RequestMetrics> &requests,
                         const SloConfig &slo, double makespan,
                         int offered);

/** Aggregate serving metrics of one run. */
struct ServeReport : ServeScore
{
    /** Completion records in request-id order (all finished). */
    std::vector<RequestMetrics> requests;
    /** Per-iteration serving-state trace. */
    std::vector<ServeTracePoint> trace;

    /** Engine iterations executed. */
    int iterations = 0;
    /** Virtual time at which the last request finished (s). */
    double makespan = 0.0;

    // Queue-depth and KV-occupancy aggregates live in the simulator's
    // StatRegistry ("serve.queue.depth", "serve.kv.reserved_tokens")
    // instead of bespoke report fields — read ServeSimulator::stats().

    // Fault accounting (unchanged on a fault-free run).
    /** Fault-plan events applied during the run. */
    int faultEventsApplied = 0;
    /** Lowest live-device fraction seen during the run. */
    double liveDeviceFractionMin = 1.0;
};

/**
 * Online serving simulation over one mapped platform.
 */
class ServeSimulator
{
  public:
    /**
     * @param mapping Mapping (and topology) to serve on; must outlive
     *                the simulator.
     * @param cfg     Serving configuration.
     */
    ServeSimulator(const Mapping &mapping, const ServeConfig &cfg);

    /** Run the stream to completion and report. Call once. */
    ServeReport run();

    /**
     * Stats the run published (src/obs/): "serve.queue.depth" and
     * "serve.kv.reserved_tokens" distributions over the per-iteration
     * trace, the scheduler's "serve.sched.*" transition counters, the
     * engine's "engine.*" stats, and "fault.*" when a plan is active.
     * Empty before run().
     */
    const StatRegistry &stats() const { return stats_; }

    /**
     * Attach a trace sink the run emits into (null = no tracing):
     * pid 0 "serve" carries the iteration phase spans (engine phases
     * scaled to the serve clock), the per-iteration queue/KV counter
     * tracks, and fault-event instants; pid 1 "requests" carries one
     * timeline per request (queued → prefill → decode spans). Must be
     * set before run(); the sink must outlive it.
     */
    void setTrace(TraceSink *trace) { trace_ = trace; }

  private:
    const Mapping &mapping_;
    ServeConfig cfg_;
    StatRegistry stats_;
    TraceSink *trace_ = nullptr;
};

} // namespace moentwine

#endif // MOENTWINE_SERVE_SERVE_SIM_HH
