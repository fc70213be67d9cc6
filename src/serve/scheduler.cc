#include "serve/scheduler.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace moentwine {

ContinuousBatchScheduler::ContinuousBatchScheduler(
    const ServeSchedulerConfig &cfg)
    : cfg_(cfg)
{
    MOE_ASSERT(cfg.kvBudgetTokens > 0, "KV budget must be positive");
    MOE_ASSERT(cfg.maxRunningRequests > 0,
               "running-request bound must be positive");
    MOE_ASSERT(cfg.prefillChunkTokens > 0,
               "prefill chunk must be positive");
    scenarioTokens_.assign(allScenarios().size(), 0.0);
    kvLimit_ = cfg_.kvBudgetTokens;
}

void
ContinuousBatchScheduler::push(const ServeRequest &r)
{
    MOE_ASSERT(r.promptTokens > 0 && r.outputTokens > 0,
               "request with empty prompt or output");
    MOE_ASSERT(r.kvTokens() <= cfg_.kvBudgetTokens,
               "request exceeds the whole KV budget");
    MOE_ASSERT(requests_.empty() ||
                   requests_.back().arrivalTime <= r.arrivalTime,
               "requests must be arrival-sorted");
    requests_.push_back(r);
    RequestMetrics m;
    m.id = r.id;
    m.scenario = r.scenario;
    m.promptTokens = r.promptTokens;
    m.outputTokens = r.outputTokens;
    m.arrivalTime = r.arrivalTime;
    metrics_.push_back(m);
}

void
ContinuousBatchScheduler::attachStats(StatRegistry *stats)
{
    MOE_ASSERT(iteration_ == 0 && admissionOrder_.empty(),
               "attachStats after scheduling started");
    stats_ = stats;
    if (stats_ == nullptr)
        return;
    statAdmitted_ = stats_->counter("serve.sched.admitted");
    statCompleted_ = stats_->counter("serve.sched.completed");
    statShed_ = stats_->counter("serve.sched.shed");
    statFailed_ = stats_->counter("serve.sched.failed");
    statEvictions_ = stats_->counter("serve.sched.evictions");
    statIdle_ = stats_->counter("serve.sched.idle_iterations");
}

bool
ContinuousBatchScheduler::done() const
{
    return finished_ == static_cast<int>(requests_.size());
}

double
ContinuousBatchScheduler::nextArrival() const
{
    return nextArrival_ < requests_.size()
        ? requests_[nextArrival_].arrivalTime
        : std::numeric_limits<double>::infinity();
}

void
ContinuousBatchScheduler::admit(double now)
{
    MOE_ASSERT(!planPending_, "admit() with a plan pending");
    while (nextArrival_ < requests_.size() &&
           requests_[nextArrival_].arrivalTime <= now) {
        queue_.push_back(static_cast<int>(nextArrival_));
        ++nextArrival_;
    }
    // Retries whose backoff elapsed re-enter at the queue *front*, in
    // eviction order, so fault victims do not also lose their place.
    if (!retryQueue_.empty()) {
        std::size_t w = 0;
        std::size_t inserted = 0;
        for (std::size_t i = 0; i < retryQueue_.size(); ++i) {
            const Retry entry = retryQueue_[i];
            if (entry.readyIteration <= iteration_) {
                queue_.insert(queue_.begin() +
                                  static_cast<std::ptrdiff_t>(inserted++),
                              entry.request);
            } else {
                retryQueue_[w++] = entry;
            }
        }
        retryQueue_.resize(w);
    }
    // FIFO with head-of-line blocking: stop at the first request that
    // does not fit, so admission order equals arrival order.
    while (!queue_.empty() &&
           static_cast<int>(running_.size()) < cfg_.maxRunningRequests) {
        const int idx = queue_.front();
        const ServeRequest &r =
            requests_[static_cast<std::size_t>(idx)];
        if (kvReserved_ + r.kvTokens() > kvLimit_)
            break;
        queue_.pop_front();
        kvReserved_ += r.kvTokens();
        running_.push_back(Running{idx, 0, 0, 0, false});
        admissionOrder_.push_back(r.id);
        metrics_[static_cast<std::size_t>(idx)].admitTime = now;
        if (stats_ != nullptr)
            stats_->add(statAdmitted_);
    }
}

void
ContinuousBatchScheduler::setKvBudgetLimit(int tokens)
{
    kvLimit_ = std::min(std::max(tokens, 1), cfg_.kvBudgetTokens);
}

const ServeRequest &
ContinuousBatchScheduler::request(int idx) const
{
    MOE_ASSERT(idx >= 0 &&
                   idx < static_cast<int>(requests_.size()),
               "request(): bad stream index");
    return requests_[static_cast<std::size_t>(idx)];
}

std::vector<int>
ContinuousBatchScheduler::runningRequests() const
{
    std::vector<int> indices;
    indices.reserve(running_.size());
    for (const Running &run : running_)
        indices.push_back(run.request);
    return indices;
}

void
ContinuousBatchScheduler::shedHead(double now)
{
    MOE_ASSERT(!planPending_, "shedHead() with a plan pending");
    MOE_ASSERT(!queue_.empty(), "shedHead() on an empty queue");
    const int idx = queue_.front();
    queue_.pop_front();
    RequestMetrics &m = metrics_[static_cast<std::size_t>(idx)];
    m.outcome = RequestOutcome::Shed;
    m.finishTime = now;
    ++finished_;
    if (stats_ != nullptr)
        stats_->add(statShed_);
}

void
ContinuousBatchScheduler::removeRunning(int requestIdx)
{
    const auto it = std::find_if(
        running_.begin(), running_.end(),
        [requestIdx](const Running &run) {
            return run.request == requestIdx;
        });
    MOE_ASSERT(it != running_.end(), "request is not running");
    kvReserved_ -=
        requests_[static_cast<std::size_t>(requestIdx)].kvTokens();
    running_.erase(it);
}

void
ContinuousBatchScheduler::evictToRetry(int requestIdx,
                                       int readyIteration)
{
    MOE_ASSERT(!planPending_, "evictToRetry() with a plan pending");
    removeRunning(requestIdx);
    RequestMetrics &m = metrics_[static_cast<std::size_t>(requestIdx)];
    // The restart recomputes everything: the first token the retry
    // emits is the one that counts for TTFT.
    m.firstTokenTime = 0.0;
    ++m.retries;
    retryQueue_.push_back(Retry{requestIdx, readyIteration});
    if (stats_ != nullptr)
        stats_->add(statEvictions_);
}

void
ContinuousBatchScheduler::failRunning(int requestIdx, double now)
{
    MOE_ASSERT(!planPending_, "failRunning() with a plan pending");
    removeRunning(requestIdx);
    RequestMetrics &m = metrics_[static_cast<std::size_t>(requestIdx)];
    m.outcome = RequestOutcome::Failed;
    m.finishTime = now;
    ++finished_;
    if (stats_ != nullptr)
        stats_->add(statFailed_);
}

IterationDemand
ContinuousBatchScheduler::plan()
{
    MOE_ASSERT(!planPending_, "plan() with a plan pending");
    IterationDemand demand;
    std::fill(scenarioTokens_.begin(), scenarioTokens_.end(), 0.0);

    int prefillLeft = cfg_.prefillChunkTokens;
    double contextSum = 0.0;
    int decodeCount = 0;
    for (Running &run : running_) {
        const ServeRequest &r =
            requests_[static_cast<std::size_t>(run.request)];
        const auto scenario = static_cast<std::size_t>(r.scenario);
        if (run.prefillDone < r.promptTokens) {
            // Oldest-first chunked prefill until the budget is spent.
            const int chunk = std::min(
                prefillLeft, r.promptTokens - run.prefillDone);
            run.prefillPlanned = chunk;
            prefillLeft -= chunk;
            demand.prefillTokensPerGroup += chunk;
            scenarioTokens_[scenario] += chunk;
        } else if (run.decoded < r.outputTokens) {
            run.decodePlanned = true;
            demand.decodeTokensPerGroup += 1;
            scenarioTokens_[scenario] += 1.0;
            contextSum += r.promptTokens + run.decoded;
            ++decodeCount;
        }
    }
    if (decodeCount > 0)
        demand.contextLen = contextSum / decodeCount;
    planPending_ = demand.tokensPerGroup() > 0;
    return demand;
}

void
ContinuousBatchScheduler::complete(double end)
{
    MOE_ASSERT(planPending_, "complete() without a pending plan");
    planPending_ = false;
    ++iteration_;
    std::size_t w = 0;
    for (std::size_t i = 0; i < running_.size(); ++i) {
        Running run = running_[i];
        const ServeRequest &r =
            requests_[static_cast<std::size_t>(run.request)];
        RequestMetrics &m =
            metrics_[static_cast<std::size_t>(run.request)];
        if (run.prefillPlanned > 0) {
            run.prefillDone += run.prefillPlanned;
            run.prefillPlanned = 0;
            if (run.prefillDone == r.promptTokens) {
                // The prefill emits the first output token.
                m.firstTokenTime = end;
                run.decoded = 1;
            }
        } else if (run.decodePlanned) {
            run.decodePlanned = false;
            ++run.decoded;
        }
        if (run.prefillDone == r.promptTokens &&
            run.decoded >= r.outputTokens) {
            m.finishTime = end;
            kvReserved_ -= r.kvTokens();
            ++finished_;
            if (stats_ != nullptr)
                stats_->add(statCompleted_);
            continue; // drop from the running batch
        }
        running_[w++] = run;
    }
    running_.resize(w);
}

} // namespace moentwine
