/**
 * @file
 * ServeLoop: the steppable per-replica serving state machine.
 *
 * This is ServeSimulator::run()'s iteration body factored into an
 * explicit begin/finish interface so an outer coordinator — the fleet
 * front-end of src/cluster/ — can interleave many replicas on one
 * shared virtual clock. ServeSimulator::run() itself is now a thin
 * driver over one ServeLoop (push the whole stream up front, then
 * begin/finish until drained), so a single-replica fleet run and a
 * bare ServeSimulator run execute the *same* code path and are
 * bitwise identical by construction (pinned by tests/cluster_test.cpp,
 * mirroring the empty-fault-plan identity of src/fault/).
 *
 * Lifecycle of one iteration:
 *  - beginIteration(): processes the boundary at now() — fault events,
 *    retry re-admission, FIFO admission, SLO-aware shedding, homing
 *    new admits — plans the next batch and, when the plan is
 *    non-empty, steps the engine eagerly (the iteration's duration is
 *    a pure function of its plan, so nothing that happens elsewhere in
 *    a fleet before iterationEnd() can change it). Returns false when the replica
 *    has nothing runnable (idle).
 *  - finishIteration(): commits the in-flight plan at iterationEnd(),
 *    records the trace point, and advances now().
 *  - advanceIdle(t): moves an idle replica's boundary clock forward
 *    (to the next arrival in a bare run; to the wake-up time of a
 *    dispatched request in a fleet run).
 *
 * Requests enter through push() in arrival order — all up front for a
 * bare run, one at a time as a router dispatches them in a fleet run.
 * Admission only ever considers requests with arrivalTime <= now(),
 * so the two feeding disciplines are indistinguishable as long as
 * every request is pushed no later than the boundary covering its
 * arrival time (the fleet event loop's dispatch-before-completion
 * ordering guarantees exactly that).
 *
 * Under a non-empty fault plan every running request lives on one
 * device, where its KV cache sits. Homes are kept per request and
 * resident counts are taken from the running batch at each boundary,
 * so a request that finishes, is evicted or fails simply leaves with
 * the batch. When a device dies, its residents are evicted to retry
 * or failed.
 *
 * finalize() scores the drained stream with scoreRequests(), the same
 * function the fleet scores its merged streams with.
 */

#ifndef MOENTWINE_SERVE_SERVE_LOOP_HH
#define MOENTWINE_SERVE_SERVE_LOOP_HH

#include <memory>
#include <vector>

#include "serve/serve_sim.hh"

namespace moentwine {

class FaultInjector;

/**
 * Steppable serving loop of one replica.
 */
class ServeLoop
{
  public:
    /**
     * @param mapping  Mapping (and topology) to serve on; must outlive
     *                 the loop.
     * @param cfg      Serving configuration. numRequests is ignored —
     *                 the stream is whatever push() delivers.
     * @param stats    Stat registry the run publishes into (may be
     *                 null: no stats). Must outlive the loop.
     * @param trace    Trace sink (may be null: no tracing). Spans land
     *                 on pid @p tracePidBase (iteration phases, fault
     *                 instants, queue/KV counters) and
     *                 @p tracePidBase + 1 (per-request timelines).
     * @param traceLabel Process name of the phase pid ("serve" for the
     *                 bare simulator, "replicaN" in a fleet).
     * @param requestsLabel Process name of the request-timeline pid.
     */
    ServeLoop(const Mapping &mapping, const ServeConfig &cfg,
              StatRegistry *stats, TraceSink *trace,
              int tracePidBase = 0,
              const std::string &traceLabel = "serve",
              const std::string &requestsLabel = "requests");

    ~ServeLoop();

    /** Hand the next request of the stream over (arrival-ordered). */
    void push(const ServeRequest &r);

    /** Requests pushed so far. */
    int pushedRequests() const { return sched_.streamSize(); }

    /** True when every pushed request has finished. */
    bool allFinished() const
    {
        return sched_.finishedCount() == sched_.streamSize();
    }

    /** Boundary clock: start of the next iteration (or idle time). */
    double now() const { return now_; }

    /** True while an iteration is in flight (begun, not finished). */
    bool inFlight() const { return inFlight_; }

    /** End time of the in-flight iteration; panics when idle. */
    double iterationEnd() const;

    /**
     * Process the boundary at now() and try to start an iteration.
     * Burns idle retry-backoff iterations internally (the tickIdle
     * path). Returns true when an iteration is now in flight; false
     * when the replica is idle (nothing admissible and no retries
     * pending) and the caller must advance the clock.
     */
    bool beginIteration();

    /** Complete the in-flight iteration at iterationEnd(). */
    void finishIteration();

    /**
     * Advance the idle boundary clock to @p t (>= now()). Panics with
     * an iteration in flight.
     */
    void advanceIdle(double t);

    /** Arrival time of the next not-yet-arrived pushed request;
     *  infinity when none. */
    double nextArrival() const { return sched_.nextArrival(); }

    /** The scheduler — the router-visible pressure signals
     *  (queueDepth(), runningCount(), kvReservedFraction()). */
    const ContinuousBatchScheduler &scheduler() const { return sched_; }

    /** Iterations completed so far. */
    int iterations() const { return report_.iterations; }

    /** The configuration in use (after normalisation). */
    const ServeConfig &config() const { return cfg_; }

    /**
     * Build the final report: the stream's scoreRequests() score and
     * per-request trace timelines. Zero requests or zero completions
     * (an all-shed or never-dispatched replica) yield all-zero
     * percentile fields, never a panic. Call once, after the stream is
     * drained.
     */
    ServeReport finalize();

  private:
    /** Fault boundary of the current iteration (no-op when fault-free). */
    void faultBoundary();

    /**
     * Assert, in O(1), that every arrived request is finished
     * (completed, shed or failed), queued, running or waiting out a
     * retry backoff, and that the reserved KV tokens fit the configured
     * KV budget. Checked at every boundary.
     */
    void assertBoundaryInvariants() const;

    /**
     * Home every homeless running request on the live device with the
     * fewest running residents (ties to the lowest id). Faulted runs
     * only.
     */
    void placeResidents();

    const Mapping &mapping_;
    ServeConfig cfg_;
    ContinuousBatchScheduler sched_;
    InferenceEngine engine_;
    StatRegistry *stats_;
    TraceSink *trace_;
    int pidBase_;

    // Fault state: null on an empty plan, which keeps the loop on the
    // exact fault-free code path (bitwise-identical output).
    std::unique_ptr<FaultInjector> injector_;
    /** Device holding each request's KV cache since its last
     *  admission; -1 before the first. Indexed by stream position. */
    std::vector<int> home_;
    std::size_t lostSeen_ = 0;
    int faultsTraced_ = 0; ///< applied fault events already traced

    double now_ = 0.0;
    bool inFlight_ = false;
    double iterStart_ = 0.0;
    double iterEnd_ = 0.0;
    IterationStats pendingStats_;
    IterationDemand pendingDemand_;
    bool finalized_ = false;

    ServeReport report_; ///< accumulates trace points and fault minima
    StatRegistry::Handle queueStat_;
    StatRegistry::Handle kvStat_;
    double layers_;
    int stages_;
};

} // namespace moentwine

#endif // MOENTWINE_SERVE_SERVE_LOOP_HH
