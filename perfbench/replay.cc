#include "replay.hh"

#include <algorithm>
#include <cstring>

namespace perfbench {

using namespace moentwine;

namespace {

WorkloadConfig
engineWorkload(const EngineConfig &cfg)
{
    WorkloadConfig w = cfg.workload;
    w.numExperts = cfg.model.expertsTotal;
    w.topK = cfg.model.expertsActivated;
    return w;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool
sameStats(const IterationStats &a, const IterationStats &b)
{
    return sameBits(a.attnCompute, b.attnCompute) &&
        sameBits(a.allReduce, b.allReduce) &&
        sameBits(a.dispatch, b.dispatch) &&
        sameBits(a.combine, b.combine) && sameBits(a.moeTime, b.moeTime) &&
        sameBits(a.moeComputeOnly, b.moeComputeOnly) &&
        sameBits(a.moeMemoryOnly, b.moeMemoryOnly) &&
        sameBits(a.epAllReduce, b.epAllReduce) &&
        sameBits(a.migrationOverhead, b.migrationOverhead) &&
        sameBits(a.loadMax, b.loadMax) && sameBits(a.loadAvg, b.loadAvg) &&
        sameBits(a.imbalance, b.imbalance) &&
        a.migrationsPlanned == b.migrationsPlanned &&
        a.migrationsCompleted == b.migrationsCompleted &&
        a.migrationsPending == b.migrationsPending &&
        a.faultEventsApplied == b.faultEventsApplied &&
        sameBits(a.faultRecoveryTime, b.faultRecoveryTime);
}

} // namespace

LockstepReplay::LockstepReplay(const Mapping &mapping,
                               const EngineConfig &cfg, SpanLog &spans)
    : mapping_(mapping),
      cfg_(cfg),
      spans_(spans),
      cost_(cfg.device, cfg.gemmEfficiency),
      workload_(engineWorkload(cfg)),
      placement_(cfg.model.expertsTotal, mapping.numDevices(),
                 cfg.shadowSlots),
      emaLoads_(static_cast<std::size_t>(cfg.model.expertsTotal), 0.0),
      trigger_(cfg.alpha,
               cfg.balancer == BalancerKind::NonInvasive ? 0 : cfg.beta),
      a2a_(mapping.topology()),
      disp_(mapping.topology()),
      comb_(mapping.topology()),
      ar_(mapping.topology())
{
    switch (cfg_.balancer) {
      case BalancerKind::None:
        break;
      case BalancerKind::Greedy:
        invasive_ = std::make_unique<GreedyBalancer>();
        break;
      case BalancerKind::TopologyAware:
        invasive_ =
            std::make_unique<TopologyAwareBalancer>(mapping_.topology());
        break;
      case BalancerKind::NonInvasive:
        nonInvasive_ =
            std::make_unique<NiBalancer>(mapping_, cfg_.model.expertBytes);
        break;
    }
}

LockstepReplay::~LockstepReplay() = default;

void
LockstepReplay::setScenarioMix(const std::vector<double> &weights)
{
    workload_.setScenarioMix(weights);
}

IterationStats
LockstepReplay::step(InferenceEngine &engine, const IterationDemand &demand,
                     StageTotals &totals)
{
    IterationStats real;
    {
        ScopedSpan s(spans_, "engine.step", totals.stepS);
        real = engine.step(demand);
    }
    IterationStats mirrored;
    {
        ScopedSpan s(spans_, "replay.step", totals.replayS);
        mirrored = replay(demand, totals, s.id());
    }
    ++totals.iterations;
    if (!sameStats(real, mirrored))
        ++totals.mismatches;
    totals.migrationsPlanned += real.migrationsPlanned;
    totals.migrationsCompleted += real.migrationsCompleted;
    return real;
}

IterationStats
LockstepReplay::replay(const IterationDemand &demand, StageTotals &totals,
                       int parent)
{
    // Mirrors InferenceEngine::step on the fault-free, non-ESP path;
    // keep it in engine.cc's order so the stage spans nest the same
    // way the engine spends its time.
    IterationStats stats;
    const int tokens = demand.tokensPerGroup();
    const double tokenBytes = cfg_.model.tokenBytes();
    const Topology &topo = mapping_.topology();

    // Attention compute (analytic; not a timed stage).
    const double ctx =
        demand.contextLen < 0.0 ? cfg_.contextLen : demand.contextLen;
    double attn = 0.0;
    if (demand.decodeTokensPerGroup > 0) {
        attn += cost_.attentionTime(cfg_.model, demand.decodeTokensPerGroup,
                                    mapping_.tp(), ctx, Stage::Decode);
    }
    if (demand.prefillTokensPerGroup > 0) {
        attn += cost_.attentionTime(cfg_.model,
                                    demand.prefillTokensPerGroup,
                                    mapping_.tp(), ctx, Stage::Prefill);
    }
    stats.attnCompute = attn * 1.0;

    {
        ScopedSpan s(spans_, "collectives.allreduce", totals.allReduceS,
                     parent);
        stats.allReduce = mapping_.allReduceInto(
            topo, tokens * tokenBytes, cfg_.retainAllGather, ar_);
    }
    {
        ScopedSpan s(spans_, "workload.gating", totals.gatingS, parent);
        workload_.sampleCountsInto(iteration_, 0, tokens, mapping_.dp(),
                                   counts_);
    }
    totals.gatingSamples += static_cast<std::int64_t>(mapping_.dp()) *
        tokens * cfg_.model.expertsActivated;

    {
        ScopedSpan s(spans_, "token_router.route", totals.routeS, parent);
        routeTokens(mapping_, placement_, counts_, tokenBytes,
                    cfg_.retainAllGather, cfg_.model.expertsActivated,
                    routed_, cfg_.aggregateFlows);
    }
    {
        ScopedSpan s(spans_, "network.a2a", totals.a2aS, parent);
        a2a_.clear();
        stats.dispatch = allToAllInto(routed_.dispatch, disp_);
        stats.combine = allToAllInto(routed_.combine, comb_);
        a2a_.merge(disp_);
        a2a_.merge(comb_);
    }
    {
        ScopedSpan s(spans_, "model.moe_cost", totals.moeS, parent);
        for (DeviceId d = 0; d < mapping_.numDevices(); ++d) {
            const std::size_t i = static_cast<std::size_t>(d);
            const MoeDeviceCost c = cost_.moeDevice(
                cfg_.model, routed_.tokensPerDevice[i],
                routed_.activeExpertsPerDevice[i], 1.0);
            if (c.total() > stats.moeTime) {
                stats.moeTime = c.total();
                stats.moeComputeOnly = c.computeTime;
                stats.moeMemoryOnly = c.memoryTime;
            }
        }
    }

    // Counts of the work the network stages did (untimed).
    for (const Flow &f : routed_.dispatch) {
        totals.flowHops += topo.hops(f.src, f.dst);
        totals.dispatchBytes += f.bytes;
    }
    for (const Flow &f : routed_.combine) {
        totals.flowHops += topo.hops(f.src, f.dst);
        totals.combineBytes += f.bytes;
    }
    totals.flows += static_cast<std::int64_t>(routed_.dispatch.size() +
                                              routed_.combine.size());
    totals.busyLinks += a2a_.busyLinkCount();

    // Load statistics, EMA and the trigger: untimed, so they land in
    // engine.unattributed_us.
    const std::vector<double> &deviceTokens = routed_.tokensPerDevice;
    double sum = 0.0;
    for (const double t : deviceTokens) {
        stats.loadMax = std::max(stats.loadMax, t);
        sum += t;
    }
    stats.loadAvg = sum / static_cast<double>(deviceTokens.size());
    stats.imbalance = stats.loadAvg > 0.0
        ? (stats.loadMax - stats.loadAvg) / stats.loadAvg
        : 0.0;
    for (std::size_t e = 0; e < emaLoads_.size(); ++e) {
        emaLoads_[e] = cfg_.emaAlpha * routed_.expertLoads[e] +
            (1.0 - cfg_.emaAlpha) * emaLoads_[e];
    }

    if (cfg_.balancer != BalancerKind::None &&
        trigger_.poll(stats.imbalance)) {
        ScopedSpan s(spans_, "balancer.plan", totals.planS, parent);
        if (invasive_) {
            const auto steps = invasive_->rebalance(emaLoads_, placement_);
            stats.migrationsPlanned = static_cast<int>(steps.size());
            PhaseTraffic mig(topo);
            double slowest = 0.0;
            for (const MigrationStep &m : steps) {
                mig.addFlow(m.srcDevice, m.dstDevice,
                            cfg_.model.expertBytes);
                slowest = std::max(slowest,
                                   flowTime(topo, m.srcDevice, m.dstDevice,
                                            cfg_.model.expertBytes));
            }
            stats.migrationOverhead = cfg_.migrationViaDisk
                ? 0.0
                : std::max(slowest, mig.phaseTime());
        } else if (nonInvasive_) {
            stats.migrationsPlanned =
                nonInvasive_->plan(emaLoads_, placement_);
        }
    }

    if (nonInvasive_) {
        ScopedSpan s(spans_, "balancer.ni_advance", totals.niAdvanceS,
                     parent);
        const double layers = cfg_.model.sparseLayers;
        const double attnWindow =
            stats.attnPhase(cfg_.pipelineStages) * layers;
        const double moeWindow =
            stats.moePhase(cfg_.pipelineStages) * layers;
        stats.migrationsCompleted =
            nonInvasive_->advanceAttention(ar_.traffic, attnWindow,
                                           placement_) +
            nonInvasive_->advanceMoe(a2a_, moeWindow, placement_);
        stats.migrationsPending =
            static_cast<int>(nonInvasive_->pendingCount());
    }

    ++iteration_;
    return stats;
}

} // namespace perfbench
