/**
 * @file
 * Continuous-batching scheduler: admits online requests into a bounded
 * KV-cache budget and packs every iteration from a prefill chunk plus
 * the in-flight decode batch (the vLLM/Orca iteration shape).
 *
 * Admission is strict FIFO with head-of-line blocking: a request is
 * admitted when the queue head fits the remaining KV budget and the
 * running-batch bound; nothing overtakes it. The KV budget is reserved
 * up front (prompt + output tokens) so the cache can never overflow
 * mid-decode. Prefill is chunked: each iteration spends at most
 * prefillChunkTokens on the oldest unfinished prefills, while every
 * fully prefilled request contributes one decode token.
 *
 * The fault layer drives three extra transitions: shedHead() drops the
 * queue head under admission control, evictToRetry() bounces a running
 * request back to the queue front after a backoff (its progress is
 * lost — KV state died with the device), and failRunning() terminates
 * one that exhausted its retry budget. setKvBudgetLimit() lowers the
 * effective admission budget while capacity is degraded; reservations
 * already made are never revoked by the limit alone.
 *
 * All token quantities are per TP group (see serve/request.hh).
 */

#ifndef MOENTWINE_SERVE_SCHEDULER_HH
#define MOENTWINE_SERVE_SCHEDULER_HH

#include <deque>
#include <vector>

#include "engine/engine.hh"
#include "serve/request.hh"

namespace moentwine {

/** Continuous-batching scheduler configuration. */
struct ServeSchedulerConfig
{
    /** KV-cache budget (tokens) of one TP group's devices. */
    int kvBudgetTokens = 1 << 16;
    /** Maximum concurrently running (admitted) requests. */
    int maxRunningRequests = 64;
    /** Prefill tokens an iteration may spend (chunked prefill). */
    int prefillChunkTokens = 512;
};

/**
 * Online request scheduler over a fixed request stream.
 */
class ContinuousBatchScheduler
{
  public:
    /**
     * An initially empty stream: requests are handed over through
     * push(), all up front for a bare serve run or one at a time as
     * the fleet front-end of src/cluster/ dispatches them.
     * @param cfg Scheduler configuration.
     */
    explicit ContinuousBatchScheduler(const ServeSchedulerConfig &cfg);

    /**
     * Append the next request of the stream (arrival-ordered: its
     * arrivalTime must not precede the last pushed request's). The
     * request must individually fit the full KV budget. Admission
     * only ever considers pushed requests, so a request pushed before
     * the admit() boundary covering its arrival time behaves exactly
     * as if it had been pushed before the first admit() — the property
     * the fleet dispatch path relies on.
     */
    void push(const ServeRequest &r);

    /** Requests pushed so far. */
    int streamSize() const { return static_cast<int>(requests_.size()); }

    /** True when every request of the stream has finished. */
    bool done() const;

    /** Arrival time of the next not-yet-arrived request; infinity when
     *  the stream is exhausted. */
    double nextArrival() const;

    /**
     * Move requests with arrivalTime ≤ @p now into the wait queue and
     * admit from the queue head while the KV budget and running bound
     * allow (FIFO, head-of-line blocking). Records admitTime = @p now
     * for every admitted request.
     */
    void admit(double now);

    /**
     * Plan one iteration over the running batch: a prefill chunk (the
     * oldest unfinished prefills, up to prefillChunkTokens) plus one
     * decode token per fully prefilled request. Returns a demand with
     * zero tokens when the running batch is empty. The planned demand
     * stays pending until complete() is called.
     */
    IterationDemand plan();

    /**
     * Commit the pending planned iteration as finished at time @p end:
     * advances prefill progress, emits first/decode tokens, finishes
     * requests and releases their KV reservation.
     */
    void complete(double end);

    /** Requests waiting for admission. */
    int queueDepth() const { return static_cast<int>(queue_.size()); }

    /** Completed iterations (complete() calls) so far. */
    int iterationIndex() const { return iteration_; }

    /** Fault-evicted requests still waiting out their backoff. */
    int retryPending() const
    {
        return static_cast<int>(retryQueue_.size());
    }

    /**
     * Advance the iteration counter across an idle (no-plan) iteration
     * so retry backoffs — measured in iterations — still elapse while
     * the platform waits for its only requests to become re-admissible.
     */
    void tickIdle()
    {
        ++iteration_;
        if (stats_ != nullptr)
            stats_->add(statIdle_);
    }

    /**
     * Attach a stat registry (src/obs/): transition counters publish
     * under "serve.sched.". Must be called before the first admit();
     * null detaches. Publication never changes scheduling decisions.
     */
    void attachStats(StatRegistry *stats);

    /**
     * Lower (or restore) the effective KV admission budget. Admission
     * stops while kvReserved() exceeds the limit; running requests keep
     * their reservations. Clamped to [1, cfg.kvBudgetTokens].
     */
    void setKvBudgetLimit(int tokens);

    /** Effective KV admission budget (cfg budget unless lowered). */
    int kvBudgetLimit() const { return kvLimit_; }

    /** Request index at the head of the wait queue; -1 when empty. */
    int queueHead() const
    {
        return queue_.empty() ? -1 : queue_.front();
    }

    /** The request with the given stream index. */
    const ServeRequest &request(int idx) const;

    /** Stream indices of the running batch, admission-ordered. */
    std::vector<int> runningRequests() const;

    /**
     * Drop the queue head (admission control under overload): its
     * outcome becomes Shed with finishTime = @p now, and it counts as
     * finished. Panics on an empty queue.
     */
    void shedHead(double now);

    /**
     * Evict a running request after a fault: its KV reservation is
     * released, all prefill/decode progress is discarded (the KV state
     * lived on the lost device), its retry count increments, and it
     * re-enters the wait queue *front* — ahead of never-admitted
     * arrivals — once iterationIndex() reaches @p readyIteration.
     * Panics when the request is not running or a plan is pending.
     */
    void evictToRetry(int requestIdx, int readyIteration);

    /**
     * Terminate a running request that exhausted its retry budget:
     * reservation released, outcome = Failed, finishTime = @p now.
     * Panics when the request is not running or a plan is pending.
     */
    void failRunning(int requestIdx, double now);

    // Pressure signals: the router-visible load of this replica (see
    // src/cluster/router.hh). queueDepth(), runningCount(), and
    // kvReservedFraction() are pure reads of the same counters the
    // serving loop publishes into its StatRegistry, so a policy
    // decision and the recorded stats can never disagree.

    /** Requests admitted and not yet finished. */
    int runningCount() const { return static_cast<int>(running_.size()); }

    /** KV tokens currently reserved by the running batch. */
    int kvReserved() const { return kvReserved_; }

    /** Reserved fraction of the full configured KV budget, in [0, 1]. */
    double kvReservedFraction() const
    {
        return static_cast<double>(kvReserved_) /
            static_cast<double>(cfg_.kvBudgetTokens);
    }

    /** Finished requests so far: completed, shed or failed. */
    int finishedCount() const { return finished_; }

    /** Requests that arrived so far (moved into the queue by admit()). */
    int arrivedCount() const { return static_cast<int>(nextArrival_); }

    /**
     * Planned tokens per scenario of the last plan() call (prefill
     * chunk plus decode tokens) — the live mix that drives the engine's
     * gating mixture under drift coupling. Indexed like allScenarios().
     */
    const std::vector<double> &scenarioTokens() const
    {
        return scenarioTokens_;
    }

    /**
     * Completion records, one per request id. Only entries of finished
     * requests are fully populated; ServeLoop::finalize() reads them
     * after done().
     */
    const std::vector<RequestMetrics> &metrics() const { return metrics_; }

    /** Admission order (request ids), for FIFO auditing in tests. */
    const std::vector<int> &admissionOrder() const
    {
        return admissionOrder_;
    }

    /** The configuration in use. */
    const ServeSchedulerConfig &config() const { return cfg_; }

  private:
    /** In-flight state of one admitted request. */
    struct Running
    {
        int request;        ///< index into requests_
        int prefillDone;    ///< prompt tokens already prefilled
        int prefillPlanned; ///< prefill tokens in the pending plan
        int decoded;        ///< output tokens emitted so far
        bool decodePlanned; ///< pending plan holds one decode token
    };

    /** A fault-evicted request waiting out its retry backoff. */
    struct Retry
    {
        int request;        ///< index into requests_
        int readyIteration; ///< first iterationIndex() it may re-queue
    };

    /** Drop requests_[requestIdx] from running_ and release its KV. */
    void removeRunning(int requestIdx);

    ServeSchedulerConfig cfg_;
    std::vector<ServeRequest> requests_;
    std::vector<RequestMetrics> metrics_;
    std::size_t nextArrival_ = 0; ///< first not-yet-arrived request
    std::deque<int> queue_;       ///< arrived, waiting for admission
    std::vector<Running> running_; ///< admission-ordered running batch
    std::vector<Retry> retryQueue_; ///< eviction-ordered, backoff-gated
    std::vector<int> admissionOrder_;
    std::vector<double> scenarioTokens_;
    int kvReserved_ = 0;
    int kvLimit_ = 0; ///< effective admission budget (set in ctor)
    int finished_ = 0;
    int iteration_ = 0; ///< complete() calls so far
    bool planPending_ = false;

    // Observability (null = no-op path): handles pre-resolved at
    // attach so transitions publish without name lookups.
    StatRegistry *stats_ = nullptr;
    StatRegistry::Handle statAdmitted_;
    StatRegistry::Handle statCompleted_;
    StatRegistry::Handle statShed_;
    StatRegistry::Handle statFailed_;
    StatRegistry::Handle statEvictions_;
    StatRegistry::Handle statIdle_;
};

} // namespace moentwine

#endif // MOENTWINE_SERVE_SCHEDULER_HH
