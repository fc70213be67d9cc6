/**
 * @file
 * Digest of one served stream's report, shared by the pinned
 * ServeDigest (serve_test) and FleetDigest (cluster_test) suites.
 */

#ifndef MOENTWINE_TESTS_SERVE_DIGEST_HH
#define MOENTWINE_TESTS_SERVE_DIGEST_HH

#include "digest.hh"
#include "serve/serve_sim.hh"

/**
 * Fold every score field of @p r, its iteration count, makespan and
 * fault minima, each request's admit/first-token/finish times, outcome
 * and retries, and every trace point into @p h.
 */
inline void
mixServeReport(std::uint64_t &h, const moentwine::ServeReport &r)
{
    using namespace moentwine;
    for (const int x :
         {r.completedRequests, r.shedRequests, r.failedRequests,
          r.retriesTotal, r.iterations, r.faultEventsApplied})
        digest::mixInt(h, x);
    for (const double x :
         {r.ttftP50, r.ttftP95, r.ttftP99, r.tpotP50, r.tpotP95,
          r.tpotP99, r.latencyP50, r.latencyP99, r.throughputTokensPerSec,
          r.goodputRequestsPerSec, r.sloAttainment, r.makespan,
          r.liveDeviceFractionMin})
        digest::mixDouble(h, x);
    digest::mixInt(h, static_cast<std::int64_t>(r.requests.size()));
    for (const RequestMetrics &m : r.requests) {
        digest::mixInt(h, m.id);
        digest::mixDouble(h, m.admitTime);
        digest::mixDouble(h, m.firstTokenTime);
        digest::mixDouble(h, m.finishTime);
        digest::mixInt(h, static_cast<std::int64_t>(m.outcome));
        digest::mixInt(h, m.retries);
    }
    digest::mixInt(h, static_cast<std::int64_t>(r.trace.size()));
    for (const ServeTracePoint &p : r.trace) {
        digest::mixDouble(h, p.time);
        for (const int x : {p.queueDepth, p.running, p.kvReserved,
                            p.decodeTokens, p.prefillTokens})
            digest::mixInt(h, x);
    }
}

#endif // MOENTWINE_TESTS_SERVE_DIGEST_HH
