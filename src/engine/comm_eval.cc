#include "engine/comm_eval.hh"

#include "common/logging.hh"
#include "engine/token_router.hh"
#include "mapping/ring_order.hh"
#include "model/cost_model.hh"
#include "network/collectives.hh"

namespace moentwine {

CommEvalResult
evaluateCommunication(const Mapping &mapping, const MoEModelConfig &model,
                      int tokensPerGroup, bool retainAllGather,
                      const ExpertPlacement *placement)
{
    MOE_ASSERT(tokensPerGroup > 0, "tokensPerGroup must be positive");

    // Attention all-reduce: the group's activation tensor.
    const double arBytes = tokensPerGroup * model.tokenBytes();
    CollectiveTiming ar = mapping.allReduce(arBytes, retainAllGather);

    // Balanced gating: expected token count per (group, expert).
    ExpertPlacement fallback(model.expertsTotal, mapping.numDevices(), 0);
    const ExpertPlacement &place = placement ? *placement : fallback;
    const double perExpert = static_cast<double>(tokensPerGroup) *
        model.expertsActivated / model.expertsTotal;
    std::vector<std::vector<int>> counts(
        static_cast<std::size_t>(mapping.dp()),
        std::vector<int>(static_cast<std::size_t>(model.expertsTotal),
                         std::max(1, static_cast<int>(perExpert + 0.5))));
    // Scale token bytes so that integer counts preserve exact volume.
    const double scale = perExpert /
        std::max(1, static_cast<int>(perExpert + 0.5));
    const RoutedTraffic routed = routeTokens(
        mapping, place, counts, model.tokenBytes() * scale,
        retainAllGather, model.expertsActivated);

    CollectiveTiming disp = allToAll(mapping.topology(), routed.dispatch);
    CollectiveTiming comb = allToAll(mapping.topology(), routed.combine);

    CommEvalResult result{ar.time, disp.time, comb.time,
                          std::move(ar.traffic), std::move(disp.traffic)};
    result.a2aTraffic.merge(comb.traffic);
    return result;
}

IterationStats
evaluateEsp(const Mapping &mapping, const MoEModelConfig &model,
            int tokensPerGroup)
{
    MOE_ASSERT(tokensPerGroup > 0, "tokensPerGroup must be positive");
    const Topology &topo = mapping.topology();
    const double tokenBytes = model.tokenBytes();
    IterationStats stats;
    stats.allReduce = mapping.allReduce(tokensPerGroup * tokenBytes,
                                        /*withAllGather=*/true)
                          .time;

    std::vector<std::vector<DeviceId>> rings;
    rings.reserve(mapping.ftds().size());
    for (const auto &ftd : mapping.ftds())
        rings.push_back(serpentineRing(topo, ftd));
    const double numFtds = static_cast<double>(mapping.ftds().size());
    const double ftdSize =
        static_cast<double>(mapping.ftds().front().size());
    const double perFtdTokens =
        static_cast<double>(mapping.dp()) * tokensPerGroup / numFtds;
    stats.epAllReduce = ringCollective(topo, rings,
                                       perFtdTokens * tokenBytes,
                                       RingOp::AllReduce,
                                       mapping.staggeredRings())
                            .time;

    const double perDeviceTokens =
        perFtdTokens * model.expertsActivated / ftdSize;
    const double perDeviceExperts = model.expertsTotal / numFtds / ftdSize;
    const MoeDeviceCost c =
        CostModel().moeDevice(model, perDeviceTokens, perDeviceExperts);
    stats.moeTime = c.total();
    stats.moeComputeOnly = c.computeTime;
    stats.moeMemoryOnly = c.memoryTime;
    return stats;
}

} // namespace moentwine
