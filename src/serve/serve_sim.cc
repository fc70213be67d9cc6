#include "serve/serve_sim.hh"

#include <limits>

#include "common/logging.hh"
#include "common/stats.hh"
#include "serve/serve_loop.hh"

namespace moentwine {

ServeScore
scoreRequests(const std::vector<RequestMetrics> &requests,
              const SloConfig &slo, double makespan, int offered)
{
    ServeScore score;
    Summary ttft;
    Summary tpot;
    Summary latency;
    double outputTokens = 0.0;
    int good = 0;
    for (const RequestMetrics &m : requests) {
        switch (m.outcome) {
        case RequestOutcome::Completed:
            ++score.completedRequests;
            ttft.add(m.ttft());
            tpot.add(m.tpot());
            latency.add(m.latency());
            outputTokens += m.outputTokens;
            good += slo.met(m);
            break;
        case RequestOutcome::Shed:
            ++score.shedRequests;
            break;
        case RequestOutcome::Failed:
            ++score.failedRequests;
            break;
        }
        score.retriesTotal += m.retries;
    }
    if (ttft.count() > 0) {
        score.ttftP50 = ttft.percentile(50.0);
        score.ttftP95 = ttft.percentile(95.0);
        score.ttftP99 = ttft.percentile(99.0);
        score.tpotP50 = tpot.percentile(50.0);
        score.tpotP95 = tpot.percentile(95.0);
        score.tpotP99 = tpot.percentile(99.0);
        score.latencyP50 = latency.percentile(50.0);
        score.latencyP99 = latency.percentile(99.0);
    }
    if (makespan > 0.0) {
        score.throughputTokensPerSec = outputTokens / makespan;
        score.goodputRequestsPerSec = good / makespan;
    }
    score.sloAttainment = offered > 0
        ? static_cast<double>(good) / static_cast<double>(offered)
        : 0.0;
    return score;
}

ServeSimulator::ServeSimulator(const Mapping &mapping,
                               const ServeConfig &cfg)
    : mapping_(mapping), cfg_(cfg)
{
    MOE_ASSERT(cfg.numRequests > 0, "serve run needs requests");
}

ServeReport
ServeSimulator::run()
{
    // The iteration machinery lives in ServeLoop (shared with the
    // fleet front-end of src/cluster/); a bare run pushes the whole
    // generated stream up front and drives the loop to completion.
    const ArrivalProcess arrivals(cfg_.arrival);
    ServeLoop loop(mapping_, cfg_, &stats_, trace_);
    for (const ServeRequest &r : arrivals.generate(cfg_.numRequests))
        loop.push(r);

    while (!loop.allFinished()) {
        if (loop.beginIteration()) {
            loop.finishIteration();
            continue;
        }
        // Nothing runnable: the platform idles until the next arrival.
        // The scheduler guarantees a queued request is admissible once
        // the batch drains (each fits the budget alone), so arrivals
        // must remain — otherwise the stream would already be done.
        const double next = loop.nextArrival();
        MOE_ASSERT(next > loop.now() &&
                       next < std::numeric_limits<double>::infinity(),
                   "idle serving loop with no future arrival");
        loop.advanceIdle(next);
    }
    return loop.finalize();
}

} // namespace moentwine
