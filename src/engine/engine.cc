#include "engine/engine.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "engine/token_router.hh"
#include "fault/fault_injector.hh"
#include "network/collectives.hh"

namespace moentwine {

const char *
balancerKindName(BalancerKind kind)
{
    switch (kind) {
    case BalancerKind::None:
        return "None";
    case BalancerKind::Greedy:
        return "Greedy";
    case BalancerKind::TopologyAware:
        return "Topo-aware";
    case BalancerKind::NonInvasive:
        return "Non-invasive";
    }
    panic("unknown balancer kind");
}

namespace {

/**
 * Host-reload bandwidth (B/s) used when re-homing an expert after
 * device loss finds no reachable surviving replica: the weights
 * restream cold from host DRAM over the service fabric instead of
 * peer-to-peer over the mesh (fault recovery worst case).
 */
constexpr double kFaultHostReloadBandwidth = 64e9;

/** Trace pid the engine's spans are emitted under. */
constexpr int kTracePid = 0;

/**
 * Time of expert transfers that run concurrently, each paying the
 * Eq.(1) store-and-forward cost of its route: the larger of the
 * slowest one and the phase time of their shared links. @p slowest
 * seeds the maximum with transfers that bypass the network.
 */
double
concurrentTransferTime(const Topology &topo, const std::vector<Flow> &flows,
                       double slowest)
{
    PhaseTraffic traffic(topo);
    for (const Flow &f : flows) {
        traffic.addFlow(f.src, f.dst, f.bytes);
        slowest = std::max(slowest, flowTime(topo, f.src, f.dst, f.bytes));
    }
    return std::max(slowest, traffic.phaseTime());
}

/** PipeMoE-style micro-batch overlap of a compute and a comm stream. */
double
overlap(double comp, double comm, int stages)
{
    MOE_ASSERT(stages >= 1, "pipeline stages must be >= 1");
    return std::max(comp, comm) + std::min(comp, comm) / stages;
}

} // namespace

double
IterationStats::attnPhase(int stages) const
{
    return overlap(attnCompute, allReduce, stages);
}

double
IterationStats::moePhase(int stages) const
{
    return overlap(moeTime, allToAll() + epAllReduce, stages);
}

EngineState::EngineState(const Mapping &mapping, const EngineConfig &cfg)
    : cfg_(cfg),
      cost_(cfg.device, cfg.gemmEfficiency),
      workload_([&] {
          WorkloadConfig w = cfg.workload;
          w.numExperts = cfg.model.expertsTotal;
          w.topK = cfg.model.expertsActivated;
          return w;
      }()),
      placement_(cfg.model.expertsTotal, mapping.numDevices(),
                 cfg.shadowSlots),
      emaLoads_(static_cast<std::size_t>(cfg.model.expertsTotal), 0.0),
      trigger_(cfg.alpha,
               cfg.balancer == BalancerKind::NonInvasive ? 0 : cfg.beta)
{
    switch (cfg.balancer) {
      case BalancerKind::None:
        break;
      case BalancerKind::Greedy:
        invasive_ = std::make_unique<GreedyBalancer>();
        break;
      case BalancerKind::TopologyAware:
        invasive_ =
            std::make_unique<TopologyAwareBalancer>(mapping.topology());
        break;
      case BalancerKind::NonInvasive:
        nonInvasive_ =
            std::make_unique<NiBalancer>(mapping, cfg.model.expertBytes);
        break;
    }
}

InferenceEngine::InferenceEngine(const Mapping &mapping,
                                 const EngineConfig &cfg)
    : EngineState(mapping, cfg),
      mapping_(mapping),
      a2aTraffic_(mapping.topology()),
      dispTraffic_(mapping.topology()),
      combTraffic_(mapping.topology()),
      arScratch_(mapping.topology())
{
}

void
InferenceEngine::reset(const EngineConfig &cfg)
{
    // The simulation state is rebuilt from scratch; the per-iteration
    // scratch members are deliberately NOT touched — every step()
    // overwrites their contents before reading them, so only their
    // capacity survives, which is the reuse win and is unobservable in
    // results.
    EngineState::operator=(EngineState(mapping_, cfg));
}

void
InferenceEngine::attachFaults(FaultInjector *injector)
{
    MOE_ASSERT(iteration_ == 0, "attachFaults after the first step");
    if (injector == nullptr || injector->empty()) {
        faults_ = nullptr;
        return;
    }
    MOE_ASSERT(&injector->baseTopology() == &mapping_.topology(),
               "fault injector must shadow the engine's topology");
    faults_ = injector;
}

const Topology &
InferenceEngine::activeTopology() const
{
    return faults_ != nullptr ? faults_->topology() : mapping_.topology();
}

void
InferenceEngine::attachObs(const ObsHooks &obs)
{
    MOE_ASSERT(iteration_ == 0, "attachObs after the first step");
    obs_ = obs;
    traceNow_ = 0.0;
    if (obs_.stats != nullptr) {
        StatRegistry &s = *obs_.stats;
        obsHandles_.iterations = s.counter("engine.iterations");
        obsHandles_.attnCompute =
            s.distribution("engine.phase.attn_compute_s");
        obsHandles_.allReduce = s.distribution("engine.phase.all_reduce_s");
        obsHandles_.dispatch = s.distribution("engine.phase.dispatch_s");
        obsHandles_.combine = s.distribution("engine.phase.combine_s");
        obsHandles_.moe = s.distribution("engine.phase.moe_s");
        obsHandles_.layer = s.distribution("engine.iter.layer_s");
        obsHandles_.imbalance = s.distribution("engine.iter.imbalance");
        obsHandles_.migPlanned = s.counter("engine.migrations.planned");
        obsHandles_.migCompleted =
            s.counter("engine.migrations.completed");
        obsHandles_.migPending = s.gauge("engine.migrations.pending");
        obsHandles_.faultRecovery =
            s.distribution("engine.fault.recovery_s");
    }
    if (obs_.trace != nullptr) {
        obs_.trace->processName(kTracePid, "engine");
        obs_.trace->threadName(kTracePid, 0, "iterations");
    }
}

void
InferenceEngine::publishObs(const IterationStats &stats)
{
    const int stages = cfg_.pipelineStages;
    if (obs_.stats != nullptr) {
        StatRegistry &s = *obs_.stats;
        s.add(obsHandles_.iterations);
        s.observe(obsHandles_.attnCompute, stats.attnCompute);
        s.observe(obsHandles_.allReduce, stats.allReduce);
        s.observe(obsHandles_.dispatch, stats.dispatch);
        s.observe(obsHandles_.combine, stats.combine);
        s.observe(obsHandles_.moe, stats.moeTime);
        s.observe(obsHandles_.layer, stats.layerTime(stages));
        s.observe(obsHandles_.imbalance, stats.imbalance);
        if (stats.migrationsPlanned > 0)
            s.add(obsHandles_.migPlanned, stats.migrationsPlanned);
        if (stats.migrationsCompleted > 0)
            s.add(obsHandles_.migCompleted, stats.migrationsCompleted);
        s.set(obsHandles_.migPending, stats.migrationsPending);
        if (stats.faultRecoveryTime > 0.0)
            s.observe(obsHandles_.faultRecovery, stats.faultRecoveryTime);
    }
    if (obs_.trace != nullptr) {
        TraceSink &t = *obs_.trace;
        const int pid = kTracePid;
        double cursor = traceNow_;
        const double attn = stats.attnPhase(stages);
        const double moe = stats.moePhase(stages);
        t.span(pid, 0, "engine", "attn", cursor, cursor + attn,
               {{"iteration", TraceSink::num(
                                  static_cast<long long>(iteration_))}});
        cursor += attn;
        t.span(pid, 0, "engine", "moe", cursor, cursor + moe,
               {{"imbalance", TraceSink::num(stats.imbalance)}});
        cursor += moe;
        if (stats.migrationOverhead > 0.0) {
            t.span(pid, 0, "engine", "migration", cursor,
                   cursor + stats.migrationOverhead,
                   {{"planned", TraceSink::num(static_cast<long long>(
                                    stats.migrationsPlanned))}});
            cursor += stats.migrationOverhead;
        }
        if (stats.faultRecoveryTime > 0.0) {
            t.span(pid, 0, "engine", "fault_recovery", cursor,
                   cursor + stats.faultRecoveryTime);
            cursor += stats.faultRecoveryTime;
        }
        traceNow_ = cursor;
    }
}

void
InferenceEngine::syncFaults(IterationStats &stats)
{
    stats.faultEventsApplied = faults_->advanceTo(iteration_);
    if (faults_->topologyEpoch() != faultTopoEpochSeen_) {
        // Link state changed: re-point every traffic accumulator at
        // the overlay (same link ids, so buffers survive). Safe at the
        // boundary — all are refilled from scratch each iteration.
        faultTopoEpochSeen_ = faults_->topologyEpoch();
        const Topology &topo = faults_->topology();
        a2aTraffic_.retarget(topo);
        dispTraffic_.retarget(topo);
        combTraffic_.retarget(topo);
        arScratch_.retarget(topo);
    }
    const auto &lost = faults_->lostDevices();
    while (faultLostSeen_ < lost.size()) {
        const auto rehomed =
            placement_.markDeviceLost(lost[faultLostSeen_++]);
        stats.faultRecoveryTime += recoveryTime(rehomed);
    }
}

double
InferenceEngine::recoveryTime(
    const std::vector<ExpertRehoming> &rehomed) const
{
    if (rehomed.empty())
        return 0.0;
    const Topology &topo = activeTopology();
    // Rare event: fresh buffers here are fine. Transfers run
    // concurrently, like invasive migration.
    std::vector<Flow> transfers;
    double hostReload = 0.0;
    for (const ExpertRehoming &r : rehomed) {
        // Nearest reachable surviving replica supplies the weights;
        // lowest device id breaks hop-count ties.
        DeviceId src = -1;
        int bestHops = 0;
        for (const DeviceId c : placement_.replicasOf(r.expert)) {
            if (c == r.to || placement_.deviceLost(c) ||
                !faults_->reachable(c, r.to)) {
                continue;
            }
            const int h = topo.hops(c, r.to);
            if (src < 0 || h < bestHops ||
                (h == bestHops && c < src)) {
                src = c;
                bestHops = h;
            }
        }
        if (src >= 0) {
            transfers.push_back(Flow{src, r.to, cfg_.model.expertBytes});
        } else {
            // No reachable replica: cold host reload.
            hostReload = cfg_.model.expertBytes / kFaultHostReloadBandwidth;
        }
    }
    return concurrentTransferTime(topo, transfers, hostReload);
}

IterationDemand
InferenceEngine::configuredDemand() const
{
    IterationDemand demand;
    switch (cfg_.schedule) {
      case SchedulingMode::PrefillOnly:
        demand.prefillTokensPerGroup = cfg_.prefillTokensPerGroup;
        return demand;
      case SchedulingMode::DecodeOnly:
        demand.decodeTokensPerGroup = cfg_.decodeTokensPerGroup;
        return demand;
      case SchedulingMode::Hybrid:
        demand.decodeTokensPerGroup = cfg_.decodeTokensPerGroup;
        demand.prefillTokensPerGroup = cfg_.prefillTokensPerGroup / 4;
        return demand;
    }
    panic("unknown scheduling mode");
}

int
InferenceEngine::tokensPerGroup() const
{
    return configuredDemand().tokensPerGroup();
}

double
InferenceEngine::attentionCompute(const IterationDemand &demand) const
{
    const double ctx =
        demand.contextLen < 0.0 ? cfg_.contextLen : demand.contextLen;
    double t = 0.0;
    if (demand.decodeTokensPerGroup > 0) {
        t += cost_.attentionTime(cfg_.model,
                                 demand.decodeTokensPerGroup,
                                 mapping_.tp(), ctx, Stage::Decode);
    }
    if (demand.prefillTokensPerGroup > 0) {
        t += cost_.attentionTime(cfg_.model,
                                 demand.prefillTokensPerGroup,
                                 mapping_.tp(), ctx, Stage::Prefill);
    }
    return t;
}

IterationStats
InferenceEngine::step()
{
    return step(configuredDemand());
}

IterationStats
InferenceEngine::step(const IterationDemand &demand)
{
    MOE_ASSERT(demand.decodeTokensPerGroup >= 0 &&
                   demand.prefillTokensPerGroup >= 0,
               "negative iteration demand");
    MOE_ASSERT(demand.tokensPerGroup() > 0,
               "iteration demand must carry at least one token");
    IterationStats stats;
    const int tokens = demand.tokensPerGroup();
    const double tokenBytes = cfg_.model.tokenBytes();

    // --- Fault boundary ----------------------------------------------------
    // Null faults_ is the guaranteed fast path: everything below then
    // follows the pre-fault code exactly (factors of 1.0, the
    // mapping's own topology), bitwise identical to an unattached run.
    if (faults_ != nullptr)
        syncFaults(stats);

    // --- Attention phase -------------------------------------------------
    // TP shards run in lockstep, so one straggler in the group holds
    // every attention shard back by its factor.
    stats.attnCompute = attentionCompute(demand) *
        (faults_ != nullptr ? faults_->maxLiveComputeFactor() : 1.0);
    stats.allReduce = mapping_.allReduceInto(
        activeTopology(), tokens * tokenBytes, cfg_.retainAllGather,
        arScratch_);

    // --- Gating -----------------------------------------------------------
    workload_.sampleCountsInto(iteration_, 0, tokens, mapping_.dp(),
                               countsScratch_);

    // --- MoE phase ---------------------------------------------------------
    routeTokens(mapping_, placement_, countsScratch_, tokenBytes,
                cfg_.retainAllGather, cfg_.model.expertsActivated,
                routedScratch_, cfg_.aggregateFlows);
    stats.dispatch = allToAllInto(routedScratch_.dispatch, dispTraffic_);
    stats.combine = allToAllInto(routedScratch_.combine, combTraffic_);
    // Each combine flow carries its dispatch flow's bytes, in the same
    // order, so the sums are bitwise equal.
    MOE_ASSERT(dispTraffic_.totalFlowBytes() ==
                   combTraffic_.totalFlowBytes(),
               "dispatch and combine bytes differ");
    a2aTraffic_.clear();
    a2aTraffic_.merge(dispTraffic_);
    a2aTraffic_.merge(combTraffic_);

    const std::vector<double> &deviceTokens =
        routedScratch_.tokensPerDevice;
    for (DeviceId d = 0; d < mapping_.numDevices(); ++d) {
        const MoeDeviceCost c = cost_.moeDevice(
            cfg_.model, deviceTokens[static_cast<std::size_t>(d)],
            routedScratch_
                .activeExpertsPerDevice[static_cast<std::size_t>(d)],
            faults_ != nullptr ? faults_->computeFactor(d) : 1.0);
        if (c.total() > stats.moeTime) {
            stats.moeTime = c.total();
            stats.moeComputeOnly = c.computeTime;
            stats.moeMemoryOnly = c.memoryTime;
        }
    }

    // --- Load statistics ---------------------------------------------------
    // Under faults the fleet shrank: lost devices route zero tokens
    // and would drag the mean down, so imbalance is over live devices.
    double sum = 0.0;
    std::size_t liveCount = 0;
    for (std::size_t d = 0; d < deviceTokens.size(); ++d) {
        if (faults_ != nullptr &&
            faults_->deviceLost(static_cast<DeviceId>(d))) {
            continue;
        }
        const double t = deviceTokens[d];
        stats.loadMax = std::max(stats.loadMax, t);
        sum += t;
        ++liveCount;
    }
    stats.loadAvg = sum / static_cast<double>(liveCount);
    stats.imbalance = stats.loadAvg > 0.0
        ? (stats.loadMax - stats.loadAvg) / stats.loadAvg
        : 0.0;

    // --- Expert-load prediction (EMA) ---------------------------------------
    for (std::size_t e = 0; e < emaLoads_.size(); ++e) {
        emaLoads_[e] = cfg_.emaAlpha * routedScratch_.expertLoads[e] +
            (1.0 - cfg_.emaAlpha) * emaLoads_[e];
    }

    // --- Balancing ----------------------------------------------------------
    if (cfg_.balancer != BalancerKind::None &&
        trigger_.poll(stats.imbalance)) {
        if (invasive_) {
            const auto &steps =
                invasive_->rebalance(emaLoads_, placement_);
            stats.migrationsPlanned = static_cast<int>(steps.size());
            // Invasive migration interrupts inference for its
            // concurrent transfers, unless they go over disk.
            if (!cfg_.migrationViaDisk) {
                std::vector<Flow> transfers;
                for (const MigrationStep &s : steps)
                    transfers.push_back(Flow{s.srcDevice, s.dstDevice,
                                             cfg_.model.expertBytes});
                stats.migrationOverhead =
                    concurrentTransferTime(activeTopology(), transfers, 0.0);
            }
        } else if (nonInvasive_) {
            stats.migrationsPlanned =
                nonInvasive_->plan(emaLoads_, placement_);
        }
    }

    // --- Hidden migration stream (NI) ---------------------------------------
    if (nonInvasive_) {
        // One simulated iteration stands for sparseLayers real layers,
        // each opening one attention and one MoE idle window.
        const double layers = cfg_.model.sparseLayers;
        const double attnWindow =
            stats.attnPhase(cfg_.pipelineStages) * layers;
        const double moeWindow =
            stats.moePhase(cfg_.pipelineStages) * layers;
        stats.migrationsCompleted =
            nonInvasive_->advanceAttention(arScratch_.traffic, attnWindow,
                                           placement_) +
            nonInvasive_->advanceMoe(a2aTraffic_, moeWindow, placement_);
        stats.migrationsPending =
            static_cast<int>(nonInvasive_->pendingCount());
    }

    // --- Observability -------------------------------------------------------
    // Purely additive: null hooks skip both branches; attached hooks
    // read the finished stats and never feed back into them.
    if (obs_.stats != nullptr || obs_.trace != nullptr)
        publishObs(stats);

    ++iteration_;
    return stats;
}

std::vector<IterationStats>
InferenceEngine::run(int iterations)
{
    MOE_ASSERT(iterations > 0, "run requires at least one iteration");
    std::vector<IterationStats> out;
    out.reserve(static_cast<std::size_t>(iterations));
    for (int i = 0; i < iterations; ++i)
        out.push_back(step());
    return out;
}

} // namespace moentwine
