/**
 * @file
 * The serving cell shared by serve_slo, fault_slo and fleet_slo:
 * Qwen3 on a 4×4 WSC with ER-Mapping, balancer thresholds α 0.5 and
 * β 5, a scheduler of 16384 KV tokens, 32 running requests and
 * 512-token prefill chunks, a 50 ms TTFT / 5 ms TPOT SLO, and a request
 * stream of 256/2048-token prompts and 48/256-token outputs (mean/max)
 * whose scenario mix drifts once per 4 s. Each driver sets only what
 * differs: rate, seeds, faults and router.
 */

#ifndef MOENTWINE_BENCH_SERVING_CELL_HH
#define MOENTWINE_BENCH_SERVING_CELL_HH

#include <cstdint>

#include "core/moentwine.hh"

namespace moentwine {
namespace benchserve {

/** The 4×4 WSC with ER-Mapping and TP 4 that every cell runs on. */
inline SystemConfig
wscSystem()
{
    SystemConfig sc;
    sc.platform = PlatformKind::WscEr;
    sc.meshN = 4;
    sc.tp = 4;
    return sc;
}

/** The shared stream shape at @p kind and @p ratePerSec. */
inline ArrivalConfig
arrival(ArrivalKind kind, double ratePerSec, std::uint64_t seed)
{
    ArrivalConfig ac;
    ac.kind = kind;
    ac.ratePerSec = ratePerSec;
    ac.mixDriftPeriodSec = 4.0; // production mixes drift slowly
    ac.promptMeanTokens = 256;
    ac.promptMaxTokens = 2048;
    ac.outputMeanTokens = 48;
    ac.outputMaxTokens = 256;
    ac.seed = seed;
    return ac;
}

/**
 * One replica's serving configuration: the shared engine, scheduler
 * and SLO, gating seeded by @p gatingSeed, serving @p requests of
 * @p stream.
 */
inline ServeConfig
serveConfig(const ArrivalConfig &stream, std::uint64_t gatingSeed,
            BalancerKind balancer, int requests)
{
    ServeConfig sc;
    sc.engine.model = qwen3();
    sc.engine.workload.seed = gatingSeed;
    sc.engine.balancer = balancer;
    sc.engine.alpha = 0.5;
    sc.engine.beta = 5;
    sc.arrival = stream;
    sc.scheduler.kvBudgetTokens = 16384;
    sc.scheduler.maxRunningRequests = 32;
    sc.scheduler.prefillChunkTokens = 512;
    sc.slo.ttft = 0.05;
    sc.slo.tpot = 0.005;
    sc.numRequests = requests;
    return sc;
}

} // namespace benchserve
} // namespace moentwine

#endif // MOENTWINE_BENCH_SERVING_CELL_HH
