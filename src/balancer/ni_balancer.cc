#include "balancer/ni_balancer.hh"

#include <algorithm>

#include "common/logging.hh"

namespace moentwine {

NiBalancer::NiBalancer(const Mapping &mapping, double expertBytes)
    : mapping_(mapping),
      expertBytes_(expertBytes),
      planner_(mapping.topology()),
      budget_(mapping.topology().links().size(), -1.0)
{
    MOE_ASSERT(expertBytes > 0.0, "expert size must be positive");
}

int
NiBalancer::plan(const std::vector<double> &expertLoads,
                 ExpertPlacement &placement)
{
    // Re-plan the target with Algorithm 1 and adopt it immediately,
    // then retract the replicas whose weights still have to travel —
    // they activate on completion.
    const auto &steps = planner_.rebalance(expertLoads, placement);
    int enqueued = 0;
    for (const MigrationStep &step : steps) {
        const bool alreadyPending = std::any_of(
            pending_.begin(), pending_.end(), [&](const Pending &p) {
                return p.step.expert == step.expert &&
                       p.step.dstDevice == step.dstDevice;
            });
        if (alreadyPending) {
            // Keep the slot reserved; transfer already in flight.
            placement.removeReplica(step.expert, step.dstDevice);
            continue;
        }
        placement.removeReplica(step.expert, step.dstDevice);
        enqueue(step);
        ++enqueued;
    }
    return enqueued;
}

void
NiBalancer::enqueue(const MigrationStep &step)
{
    if (spare_.empty()) {
        pending_.emplace_back();
    } else {
        pending_.push_back(std::move(spare_.back()));
        spare_.pop_back();
    }
    Pending &p = pending_.back();
    p.step = step;
    decompose(p);
    MOE_ASSERT(!p.segments.empty(), "migration between co-located replicas");
    p.delivered.assign(p.segments.size(), 0.0);
}

void
NiBalancer::decompose(Pending &p) const
{
    const DeviceId src = p.step.srcDevice;
    const DeviceId dst = p.step.dstDevice;
    MOE_ASSERT(mapping_.topology().hops(src, dst) > 0,
               "empty migration route");
    p.links.clear();
    p.segments.clear();
    const auto &links = mapping_.topology().links();
    const int devices = mapping_.numDevices();
    // Links touching internal switch nodes (no FTD of their own)
    // inherit the flow-level classification.
    const bool flowLocal = mapping_.ftdOf(src) == mapping_.ftdOf(dst);
    for (const LinkId l : mapping_.topology().walk(src, dst)) {
        const Link &link = links[static_cast<std::size_t>(l)];
        bool local = flowLocal;
        if (link.src < devices && link.dst < devices)
            local = mapping_.ftdOf(link.src) == mapping_.ftdOf(link.dst);
        if (p.segments.empty() || p.segments.back().local != local)
            p.segments.push_back(Segment{p.links.size(), p.links.size(),
                                         local});
        p.links.push_back(l);
        ++p.segments.back().end;
    }
}

int
NiBalancer::advanceAttention(const PhaseTraffic &traffic, double window,
                             ExpertPlacement &placement)
{
    return advance(traffic, window, true, placement);
}

int
NiBalancer::advanceMoe(const PhaseTraffic &traffic, double window,
                       ExpertPlacement &placement)
{
    return advance(traffic, window, false, placement);
}

int
NiBalancer::advance(const PhaseTraffic &traffic, double window, bool local,
                    ExpertPlacement &placement)
{
    if (pending_.empty() || window <= 0.0)
        return 0;

    // Idle byte budget per link for this window, shared FCFS. A read
    // budget stays non-negative, so each link is touched once.
    auto budgetOf = [&](LinkId l) -> double & {
        auto &b = budget_[static_cast<std::size_t>(l)];
        if (b < 0.0) {
            b = traffic.idleBytes(l, window);
            touched_.push_back(l);
        }
        return b;
    };

    for (Pending &p : pending_) {
        for (std::size_t i = 0; i < p.segments.size(); ++i) {
            const Segment &seg = p.segments[i];
            if (seg.local != local)
                continue;
            const double upstream =
                (i == 0 ? expertBytes_ : p.delivered[i - 1]) -
                p.delivered[i];
            if (upstream <= 0.0)
                continue;
            double capacity = upstream;
            for (std::size_t k = seg.begin; k < seg.end; ++k)
                capacity = std::min(capacity, budgetOf(p.links[k]));
            if (capacity <= 0.0)
                continue;
            for (std::size_t k = seg.begin; k < seg.end; ++k)
                budgetOf(p.links[k]) -= capacity;
            p.delivered[i] += capacity;
            hiddenBytes_ += capacity;
        }
    }
    for (const LinkId l : touched_)
        budget_[static_cast<std::size_t>(l)] = -1.0;
    touched_.clear();

    // Activate completed migrations, in enqueue order, and compact the
    // rest in order; the completed ones end up past `kept`.
    int completed = 0;
    std::size_t kept = 0;
    const double done = expertBytes_ * (1.0 - 1e-9);
    for (std::size_t i = 0; i < pending_.size(); ++i) {
        Pending &p = pending_[i];
        if (p.delivered.back() >= done) {
            const MigrationStep &s = p.step;
            if (!placement.hosts(s.dstDevice, s.expert) &&
                placement.freeSlots(s.dstDevice) > 0) {
                placement.addReplica(s.expert, s.dstDevice);
            }
            ++completed;
            continue;
        }
        if (kept != i)
            std::swap(pending_[kept], p);
        ++kept;
    }
    while (pending_.size() > kept) {
        spare_.push_back(std::move(pending_.back()));
        pending_.pop_back();
    }
    return completed;
}

} // namespace moentwine
