#include "sweep/sweep_grid.hh"

#include <algorithm>
#include <iterator>

#include "common/logging.hh"

namespace moentwine {

namespace {

/** Length of one SweepGrid axis vector. */
template <auto SweepGrid::*Axis>
std::size_t
axisSize(const SweepGrid &grid)
{
    return (grid.*Axis).size();
}

/** One grid axis: its length in a grid and its SweepPoint coordinate. */
struct AxisSpec
{
    std::size_t (*size)(const SweepGrid &);
    int SweepPoint::*coord;
};

/**
 * The axes in row-major order, models outermost, router policies
 * innermost. cells(), pointAt(), at() and SweepPoint::seed() all walk
 * this one table.
 */
constexpr AxisSpec kAxes[] = {
    {axisSize<&SweepGrid::models>, &SweepPoint::model},
    {axisSize<&SweepGrid::systems>, &SweepPoint::system},
    {axisSize<&SweepGrid::tpDegrees>, &SweepPoint::tp},
    {axisSize<&SweepGrid::balancers>, &SweepPoint::balancer},
    {axisSize<&SweepGrid::schedules>, &SweepPoint::schedule},
    {axisSize<&SweepGrid::gatings>, &SweepPoint::gating},
    {axisSize<&SweepGrid::params>, &SweepPoint::param},
    {axisSize<&SweepGrid::arrivals>, &SweepPoint::arrival},
    {axisSize<&SweepGrid::faultScenarios>, &SweepPoint::fault},
    {axisSize<&SweepGrid::replicaCounts>, &SweepPoint::replicas},
    {axisSize<&SweepGrid::routers>, &SweepPoint::router},
};

/**
 * The fault, replica and router axes (kAxes[kLateAxes..]) joined the
 * grid after seeds were baked into goldens; seed() mixes them only
 * when swept, so every grid without them keeps its exact seed stream.
 */
constexpr std::size_t kLateAxes = 8;

/** Effective length of an axis: empty axes are one wildcard cell. */
std::size_t
axisLen(std::size_t size)
{
    return size == 0 ? 1 : size;
}

} // namespace

std::size_t
SweepGrid::cells() const
{
    std::size_t n = 1;
    for (const AxisSpec &a : kAxes)
        n *= axisLen(a.size(*this));
    return n;
}

SweepPoint
SweepGrid::pointAt(std::size_t index) const
{
    MOE_ASSERT(index < cells(), "sweep point index out of range");
    SweepPoint p;
    p.grid = this;
    p.index = index;
    // Row-major: peel the innermost axis first; -1 marks unswept.
    std::size_t rest = index;
    for (std::size_t k = std::size(kAxes); k-- > 0;) {
        const std::size_t size = kAxes[k].size(*this);
        p.*kAxes[k].coord = size == 0 ? -1 : static_cast<int>(rest % size);
        rest /= axisLen(size);
    }
    return p;
}

std::size_t
SweepGrid::at(int model, int system, int tp, int balancer, int schedule,
              int gating, int param, int arrival, int fault, int replicas,
              int router) const
{
    const SweepPoint q{this,     0,        model,  system, tp,
                       balancer, schedule, gating, param,  arrival,
                       fault,    replicas, router};
    std::size_t index = 0;
    for (const AxisSpec &a : kAxes) {
        const std::size_t size = a.size(*this);
        const int i = q.*a.coord;
        MOE_ASSERT(size > 0 || i <= 0, "axis index into an unswept axis");
        MOE_ASSERT(size == 0 || (i >= 0 && static_cast<std::size_t>(i) < size),
                   "axis index out of range");
        index = index * axisLen(size) +
            static_cast<std::size_t>(std::max(i, 0));
    }
    return index;
}

const MoEModelConfig &
SweepPoint::modelConfig() const
{
    MOE_ASSERT(model >= 0, "grid does not sweep models");
    return grid->models[static_cast<std::size_t>(model)];
}

SystemConfig
SweepPoint::systemConfig() const
{
    MOE_ASSERT(system >= 0, "grid does not sweep systems");
    SystemConfig sc = grid->systems[static_cast<std::size_t>(system)];
    if (tp >= 0)
        sc.tp = grid->tpDegrees[static_cast<std::size_t>(tp)];
    return sc;
}

int
SweepPoint::tpDegree() const
{
    if (tp >= 0)
        return grid->tpDegrees[static_cast<std::size_t>(tp)];
    MOE_ASSERT(system >= 0, "grid sweeps neither TP nor systems");
    return grid->systems[static_cast<std::size_t>(system)].tp;
}

BalancerKind
SweepPoint::balancerKind() const
{
    return balancer >= 0
        ? grid->balancers[static_cast<std::size_t>(balancer)]
        : BalancerKind::None;
}

SchedulingMode
SweepPoint::schedulingMode() const
{
    return schedule >= 0
        ? grid->schedules[static_cast<std::size_t>(schedule)]
        : SchedulingMode::DecodeOnly;
}

GatingMode
SweepPoint::gatingMode() const
{
    return gating >= 0 ? grid->gatings[static_cast<std::size_t>(gating)]
                       : GatingMode::Balanced;
}

double
SweepPoint::parameter() const
{
    MOE_ASSERT(param >= 0, "grid does not sweep params");
    return grid->params[static_cast<std::size_t>(param)];
}

ArrivalKind
SweepPoint::arrivalKind() const
{
    return arrival >= 0
        ? grid->arrivals[static_cast<std::size_t>(arrival)]
        : ArrivalKind::Poisson;
}

FaultScenarioKind
SweepPoint::faultScenario() const
{
    return fault >= 0
        ? grid->faultScenarios[static_cast<std::size_t>(fault)]
        : FaultScenarioKind::None;
}

int
SweepPoint::replicaCount() const
{
    return replicas >= 0
        ? grid->replicaCounts[static_cast<std::size_t>(replicas)]
        : 1;
}

RouterPolicy
SweepPoint::routerPolicy() const
{
    return router >= 0 ? grid->routers[static_cast<std::size_t>(router)]
                       : RouterPolicy::RoundRobin;
}

uint64_t
SweepPoint::seed(uint64_t base) const
{
    // FNV-1a over the axis coordinates: stable across runs, platforms,
    // and thread schedules. The linear index is deliberately excluded
    // so a cell keeps its seed when an unrelated axis grows.
    uint64_t h = 0xCBF29CE484222325ULL ^ base;
    for (std::size_t k = 0; k < std::size(kAxes); ++k) {
        const int c = this->*kAxes[k].coord;
        if (k >= kLateAxes && c < 0)
            continue;
        // +1 so index 0 and "unswept" (-1 → 0) differ.
        h ^= static_cast<uint64_t>(static_cast<int64_t>(c)) + 1;
        h *= 0x100000001B3ULL;
    }
    return h;
}

double
SweepResult::metric(const std::string &key) const
{
    for (const auto &[k, v] : metrics)
        if (k == key)
            return v;
    panic("sweep row '" + label + "' has no metric '" + key + "'");
}

} // namespace moentwine
