/**
 * @file
 * Request-level serving primitives: one online inference request and
 * the per-request latency record the serving simulator produces.
 *
 * The serving layer models the request stream of one DP replica: token
 * demands it derives are *per TP group*, mirrored across the DP groups
 * by the engine (groups are homogeneous), which keeps the coupling to
 * the per-group iteration model of the engine exact.
 */

#ifndef MOENTWINE_SERVE_REQUEST_HH
#define MOENTWINE_SERVE_REQUEST_HH

#include <cstdint>

#include "workload/scenario.hh"

namespace moentwine {

/** One online inference request. */
struct ServeRequest
{
    /** Dense id in arrival order (0-based). */
    int id = 0;
    /** Workload scenario the request belongs to. */
    ScenarioKind scenario = ScenarioKind::Chat;
    /** Prompt length (tokens to prefill). */
    int promptTokens = 0;
    /** Output length (tokens to decode; the first comes from prefill). */
    int outputTokens = 0;
    /** Arrival time on the virtual clock (seconds). */
    double arrivalTime = 0.0;

    /** KV-cache footprint the request eventually reaches (tokens). */
    int kvTokens() const { return promptTokens + outputTokens; }
};

/**
 * How a request left the system. Under a fault-free run every request
 * completes; the fault layer (src/fault/ + the serve loop's
 * degraded-operation response) adds load shedding and hard failures.
 */
enum class RequestOutcome
{
    Completed, ///< served to the last output token
    Shed,      ///< dropped from the wait queue (admission control)
    Failed,    ///< lost to a fault after exhausting its retry budget
};

/** Completion record of one request (times on the virtual clock). */
struct RequestMetrics
{
    int id = 0;
    ScenarioKind scenario = ScenarioKind::Chat;
    int promptTokens = 0;
    int outputTokens = 0;
    double arrivalTime = 0.0;
    /** Admission into the running batch. */
    double admitTime = 0.0;
    /** Completion of the iteration that finished the prefill (the
     *  prefill emits the first output token). */
    double firstTokenTime = 0.0;
    /** Completion of the last decode iteration. */
    double finishTime = 0.0;
    /** Terminal state (Completed unless the fault layer intervened). */
    RequestOutcome outcome = RequestOutcome::Completed;
    /** Fault-triggered evictions this request survived (restart count). */
    int retries = 0;

    /** Time to first token, queueing included. */
    double ttft() const { return firstTokenTime - arrivalTime; }

    /** Time per output token after the first. */
    double tpot() const
    {
        return outputTokens > 1
            ? (finishTime - firstTokenTime) / (outputTokens - 1)
            : 0.0;
    }

    /** End-to-end request latency. */
    double latency() const { return finishTime - arrivalTime; }
};

} // namespace moentwine

#endif // MOENTWINE_SERVE_REQUEST_HH
