#include "serve/serve_loop.hh"

#include <algorithm>

#include "common/logging.hh"
#include "fault/fault_injector.hh"

namespace moentwine {

namespace {

// Degraded-operation response, active only while a non-empty FaultPlan
// is configured (an empty plan takes the exact fault-free path):
//  - the queue head is shed once it has waited longer than
//    kShedTtftFactor × SloConfig::ttft (SLO-aware admission control: a
//    request that already blew its TTFT bound only wastes degraded
//    capacity); requests too large for the degraded KV budget are
//    always shed, since they can never be admitted;
//  - an evicted request waits kRetryBackoffIterations before
//    re-queueing (its KV state died with the device; the restart is
//    not free), up to ServeConfig::maxRetries times;
//  - the KV admission budget scales with the live-device fraction
//    (lost devices take their cache capacity with them).
constexpr double kShedTtftFactor = 2.0;
constexpr int kRetryBackoffIterations = 4;

ServeConfig
normalizedConfig(ServeConfig cfg)
{
    // The serving layer owns the iteration composition; the engine's
    // fixed budgets are bypassed by the demand overload. Scenario
    // affinities must be active for per-request scenario tags (and the
    // drift coupling) to matter.
    cfg.engine.workload.mode = GatingMode::MixedScenario;
    return cfg;
}

} // namespace

ServeLoop::ServeLoop(const Mapping &mapping, const ServeConfig &cfg,
                     StatRegistry *stats, TraceSink *trace,
                     int tracePidBase, const std::string &traceLabel,
                     const std::string &requestsLabel)
    : mapping_(mapping),
      cfg_(normalizedConfig(cfg)),
      sched_(cfg_.scheduler),
      engine_(mapping, cfg_.engine),
      stats_(stats),
      trace_(trace),
      pidBase_(tracePidBase),
      layers_(static_cast<double>(cfg_.engine.model.sparseLayers)),
      stages_(cfg_.engine.pipelineStages)
{
    // Observability: publication never perturbs the simulation. The
    // engine gets stats only — when the serving layer drives it, all
    // trace emission happens here, on the serve clock.
    sched_.attachStats(stats_);
    ObsHooks engineObs;
    engineObs.stats = stats_;
    engine_.attachObs(engineObs);
    if (stats_ != nullptr) {
        queueStat_ = stats_->distribution("serve.queue.depth");
        kvStat_ = stats_->distribution("serve.kv.reserved_tokens");
    }
    if (trace_ != nullptr) {
        trace_->processName(pidBase_, traceLabel);
        trace_->threadName(pidBase_, 0, "iterations");
        trace_->threadName(pidBase_, 1, "faults");
        trace_->processName(pidBase_ + 1, requestsLabel);
    }

    if (!cfg_.faults.empty()) {
        injector_ = std::make_unique<FaultInjector>(mapping_.topology(),
                                                    cfg_.faults);
        injector_->attachStats(stats_);
        engine_.attachFaults(injector_.get());
    }
}

ServeLoop::~ServeLoop() = default;

void
ServeLoop::push(const ServeRequest &r)
{
    MOE_ASSERT(!finalized_, "push() after finalize()");
    sched_.push(r);
}

double
ServeLoop::iterationEnd() const
{
    MOE_ASSERT(inFlight_, "iterationEnd() with no iteration in flight");
    return iterEnd_;
}

void
ServeLoop::faultBoundary()
{
    if (!injector_)
        return;
    // Fault boundary, ahead of admission so this iteration's admits
    // already see the degraded system. The engine reacts to the
    // injector state this advance produces (its own advanceTo is a
    // no-op at an equal-or-older iteration).
    injector_->advanceTo(sched_.iterationIndex());
    for (; faultsTraced_ < injector_->appliedEvents(); ++faultsTraced_) {
        if (trace_ != nullptr) {
            trace_->instant(
                pidBase_, 1, "fault",
                describe(cfg_.faults.events[static_cast<std::size_t>(
                    faultsTraced_)]),
                now_);
        }
    }
    report_.liveDeviceFractionMin = std::min(
        report_.liveDeviceFractionMin, injector_->liveFraction());

    // Requests resident on newly lost devices lose their KV state:
    // bounded retry, then hard failure.
    const auto &lost = injector_->lostDevices();
    while (lostSeen_ < lost.size()) {
        const DeviceId dead = lost[lostSeen_++];
        for (const int idx : sched_.runningRequests()) {
            if (home_[static_cast<std::size_t>(idx)] != dead)
                continue;
            const RequestMetrics &m =
                sched_.metrics()[static_cast<std::size_t>(idx)];
            if (m.retries < cfg_.maxRetries) {
                sched_.evictToRetry(
                    idx, sched_.iterationIndex() + kRetryBackoffIterations);
            } else {
                sched_.failRunning(idx, now_);
            }
        }
    }
    sched_.setKvBudgetLimit(static_cast<int>(
        cfg_.scheduler.kvBudgetTokens * injector_->liveFraction()));
}

void
ServeLoop::assertBoundaryInvariants() const
{
    MOE_ASSERT(sched_.arrivedCount() ==
                   sched_.finishedCount() + sched_.queueDepth() +
                       sched_.runningCount() + sched_.retryPending(),
               "arrived requests must be finished, queued, running or "
               "retrying");
    MOE_ASSERT(sched_.kvReserved() <= cfg_.scheduler.kvBudgetTokens,
               "reserved KV tokens exceed the KV budget");
}

void
ServeLoop::placeResidents()
{
    // Residents are counted from the running batch itself, so finished,
    // evicted and failed requests leave with it. A running request is
    // homeless when newly admitted, or re-admitted after its home died.
    home_.resize(static_cast<std::size_t>(sched_.streamSize()), -1);
    std::vector<int> residents(
        static_cast<std::size_t>(mapping_.topology().numDevices()), 0);
    std::vector<int> homeless;
    for (const int idx : sched_.runningRequests()) {
        const int h = home_[static_cast<std::size_t>(idx)];
        if (h >= 0 && !injector_->deviceLost(h))
            ++residents[static_cast<std::size_t>(h)];
        else
            homeless.push_back(idx);
    }
    for (const int idx : homeless) {
        int target = -1;
        for (std::size_t d = 0; d < residents.size(); ++d) {
            if (injector_->deviceLost(static_cast<DeviceId>(d)))
                continue;
            if (target < 0 ||
                residents[d] < residents[static_cast<std::size_t>(target)])
                target = static_cast<int>(d);
        }
        MOE_ASSERT(target >= 0, "no live device to home a request");
        home_[static_cast<std::size_t>(idx)] = target;
        ++residents[static_cast<std::size_t>(target)];
    }
}

bool
ServeLoop::beginIteration()
{
    MOE_ASSERT(!inFlight_, "beginIteration() with one in flight");
    MOE_ASSERT(!finalized_, "beginIteration() after finalize()");
    for (;;) {
        faultBoundary();
        sched_.admit(now_);
        if (injector_) {
            // SLO-aware shedding: a queue head that can never fit the
            // degraded KV budget, or that already blew its TTFT bound
            // by kShedTtftFactor, is dropped — re-admitting after
            // each shed since the head-of-line block may clear.
            for (;;) {
                const int head = sched_.queueHead();
                if (head < 0)
                    break;
                const ServeRequest &r = sched_.request(head);
                const bool hopeless =
                    r.kvTokens() > sched_.kvBudgetLimit();
                const bool late = now_ - r.arrivalTime >
                    kShedTtftFactor * cfg_.slo.ttft;
                if (!hopeless && !late)
                    break;
                sched_.shedHead(now_);
                sched_.admit(now_);
            }
            placeResidents();
        }
        const IterationDemand demand = sched_.plan();
        if (demand.tokensPerGroup() == 0) {
            if (injector_ && sched_.retryPending() > 0) {
                // Nothing runnable but evicted requests are waiting
                // out an iteration-counted backoff: burn an idle
                // iteration so they become re-admissible.
                sched_.tickIdle();
                continue;
            }
            assertBoundaryInvariants();
            return false; // idle: the caller advances the clock
        }
        // Couple the engine's gating mixture to the live batch mix.
        engine_.workload().setScenarioMix(sched_.scenarioTokens());
        // Step the engine eagerly: the iteration's duration is a pure
        // function of its plan, so the end time is known at begin and
        // a fleet can order completions against other replicas.
        pendingStats_ = engine_.step(demand);
        pendingDemand_ = demand;
        iterStart_ = now_;
        iterEnd_ = now_ + pendingStats_.layerTime(stages_) * layers_;
        inFlight_ = true;
        assertBoundaryInvariants();
        return true;
    }
}

void
ServeLoop::finishIteration()
{
    MOE_ASSERT(inFlight_, "finishIteration() with none in flight");
    inFlight_ = false;
    const IterationStats &stats = pendingStats_;
    const double iterStart = iterStart_;
    now_ = iterEnd_;
    sched_.complete(now_);
    assertBoundaryInvariants();
    ++report_.iterations;
    if (trace_ != nullptr) {
        // Engine phases stretched to the serve clock: one stepped
        // iteration stands for sparseLayers real layers.
        double cursor = iterStart;
        const double attn = stats.attnPhase(stages_) * layers_;
        const double moe = stats.moePhase(stages_) * layers_;
        trace_->span(pidBase_, 0, "serve", "attn", cursor,
                     cursor + attn);
        cursor += attn;
        trace_->span(pidBase_, 0, "serve", "moe", cursor, cursor + moe,
                     {{"imbalance", TraceSink::num(stats.imbalance)}});
        cursor += moe;
        if (stats.migrationOverhead > 0.0) {
            const double mig = stats.migrationOverhead * layers_;
            trace_->span(pidBase_, 0, "serve", "migration", cursor,
                         cursor + mig);
            cursor += mig;
        }
        if (stats.faultRecoveryTime > 0.0) {
            const double rec = stats.faultRecoveryTime * layers_;
            trace_->span(pidBase_, 0, "serve", "fault_recovery", cursor,
                         cursor + rec);
        }
    }
    ServeTracePoint point;
    point.time = now_;
    point.queueDepth = sched_.queueDepth();
    point.running = sched_.runningCount();
    point.kvReserved = sched_.kvReserved();
    point.decodeTokens = pendingDemand_.decodeTokensPerGroup;
    point.prefillTokens = pendingDemand_.prefillTokensPerGroup;
    report_.trace.push_back(point);
    // Same per-iteration sample order the old Summary-based report
    // fields used, so derived means/maxes are bitwise identical.
    if (stats_ != nullptr) {
        stats_->observe(queueStat_, point.queueDepth);
        stats_->observe(kvStat_, point.kvReserved);
    }
    if (trace_ != nullptr) {
        trace_->counter(
            pidBase_, "queue_depth", now_,
            {{"requests",
              TraceSink::num(
                  static_cast<long long>(point.queueDepth))}});
        trace_->counter(
            pidBase_, "running", now_,
            {{"requests",
              TraceSink::num(static_cast<long long>(point.running))}});
        trace_->counter(
            pidBase_, "kv_reserved_tokens", now_,
            {{"tokens",
              TraceSink::num(
                  static_cast<long long>(point.kvReserved))}});
    }
}

void
ServeLoop::advanceIdle(double t)
{
    MOE_ASSERT(!inFlight_, "advanceIdle() with an iteration in flight");
    MOE_ASSERT(t >= now_, "advanceIdle() must not move time backwards");
    now_ = t;
}

ServeReport
ServeLoop::finalize()
{
    MOE_ASSERT(!inFlight_, "finalize() with an iteration in flight");
    MOE_ASSERT(!finalized_, "finalize() called twice");
    MOE_ASSERT(allFinished(), "finalize() with unfinished requests");
    finalized_ = true;

    ServeReport report = std::move(report_);
    report.requests = sched_.metrics();
    report.makespan = now_;
    static_cast<ServeScore &>(report) =
        scoreRequests(report.requests, cfg_.slo, report.makespan,
                      static_cast<int>(report.requests.size()));

    if (trace_ != nullptr) {
        // One timeline per request: queued → prefill → decode spans,
        // with shed/failed terminations as instants.
        for (const RequestMetrics &m : report.requests) {
            TraceSink::Args args{
                {"scenario", TraceSink::str(scenarioName(m.scenario))},
                {"prompt_tokens",
                 TraceSink::num(
                     static_cast<long long>(m.promptTokens))},
                {"output_tokens",
                 TraceSink::num(
                     static_cast<long long>(m.outputTokens))},
                {"retries",
                 TraceSink::num(static_cast<long long>(m.retries))}};
            switch (m.outcome) {
            case RequestOutcome::Completed:
                trace_->span(pidBase_ + 1, m.id, "request", "queued",
                             m.arrivalTime, m.admitTime, args);
                trace_->span(pidBase_ + 1, m.id, "request", "prefill",
                             m.admitTime, m.firstTokenTime);
                trace_->span(pidBase_ + 1, m.id, "request", "decode",
                             m.firstTokenTime, m.finishTime);
                break;
            case RequestOutcome::Shed:
                trace_->span(pidBase_ + 1, m.id, "request", "queued",
                             m.arrivalTime, m.finishTime, args);
                trace_->instant(pidBase_ + 1, m.id, "request", "shed",
                                m.finishTime);
                break;
            case RequestOutcome::Failed:
                trace_->span(pidBase_ + 1, m.id, "request", "queued",
                             m.arrivalTime, m.admitTime, args);
                trace_->span(pidBase_ + 1, m.id, "request", "running",
                             m.admitTime, m.finishTime);
                trace_->instant(pidBase_ + 1, m.id, "request",
                                "failed", m.finishTime);
                break;
            }
        }
    }

    if (injector_)
        report.faultEventsApplied = injector_->appliedEvents();
    return report;
}

} // namespace moentwine
