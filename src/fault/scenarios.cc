#include "fault/scenarios.hh"

#include <vector>

#include "common/logging.hh"
#include "topology/topology.hh"

namespace moentwine {

std::string
faultScenarioName(FaultScenarioKind kind)
{
    switch (kind) {
      case FaultScenarioKind::None:
        return "none";
      case FaultScenarioKind::DegradedLinks:
        return "degrade";
      case FaultScenarioKind::LinkCut:
        return "linkcut";
      case FaultScenarioKind::Straggler:
        return "straggler";
      case FaultScenarioKind::NodeLoss:
        return "nodeloss";
      case FaultScenarioKind::Cascade:
        return "cascade";
    }
    panic("unknown fault scenario kind");
}

namespace {

/** LinkDegrade bandwidth factor of the degrade stages. */
constexpr double kDegradeFactor = 0.3;
/** SlowNode compute factor of the straggler stages. */
constexpr double kSlowFactor = 2.5;

/**
 * The scenario's victim connection: the central device's lowest-id
 * outgoing link plus its reverse direction when one exists.
 */
std::vector<LinkId>
centralLinkPair(const Topology &topo, DeviceId center)
{
    LinkId first = -1;
    for (std::size_t l = 0; l < topo.links().size(); ++l) {
        if (topo.links()[l].src == center) {
            first = static_cast<LinkId>(l);
            break;
        }
    }
    MOE_ASSERT(first >= 0, "central device has no outgoing link");
    std::vector<LinkId> pair{first};
    const Link &link = topo.links()[static_cast<std::size_t>(first)];
    const LinkId reverse = topo.linkBetween(link.dst, link.src);
    if (reverse >= 0)
        pair.push_back(reverse);
    return pair;
}

} // namespace

FaultPlan
makeFaultScenario(FaultScenarioKind kind, const Topology &topo,
                  const FaultScenarioSpec &spec)
{
    FaultPlan plan;
    if (kind == FaultScenarioKind::None)
        return plan;

    MOE_ASSERT(spec.startIteration >= 0 && spec.spacing > 0,
               "scenario start/spacing out of range");
    const int devices = topo.numDevices();
    const DeviceId center = devices / 2;
    const DeviceId other = (center + 1) % devices;
    const auto pair = centralLinkPair(topo, center);
    const int t0 = spec.startIteration;
    const int dt = spec.spacing;
    auto &ev = plan.events;

    switch (kind) {
      case FaultScenarioKind::None:
        break;
      case FaultScenarioKind::DegradedLinks:
        for (const LinkId l : pair)
            ev.push_back(FaultEvent::linkDegrade(t0, l, kDegradeFactor));
        for (const LinkId l : pair)
            ev.push_back(FaultEvent::linkRestore(t0 + 2 * dt, l));
        break;
      case FaultScenarioKind::LinkCut:
        for (const LinkId l : pair)
            ev.push_back(FaultEvent::linkFail(t0, l));
        for (const LinkId l : pair)
            ev.push_back(FaultEvent::linkRestore(t0 + 2 * dt, l));
        break;
      case FaultScenarioKind::Straggler:
        ev.push_back(FaultEvent::slowNode(t0, center, kSlowFactor));
        ev.push_back(FaultEvent::slowNode(t0 + 2 * dt, center, 1.0));
        break;
      case FaultScenarioKind::NodeLoss:
        ev.push_back(FaultEvent::nodeFail(t0, center));
        break;
      case FaultScenarioKind::Cascade:
        for (const LinkId l : pair)
            ev.push_back(FaultEvent::linkDegrade(t0, l, kDegradeFactor));
        for (const LinkId l : pair)
            ev.push_back(FaultEvent::linkFail(t0 + dt, l));
        ev.push_back(FaultEvent::slowNode(t0 + dt, other, kSlowFactor));
        ev.push_back(FaultEvent::nodeFail(t0 + 2 * dt, center));
        for (const LinkId l : pair)
            ev.push_back(FaultEvent::linkRestore(t0 + 3 * dt, l));
        break;
    }
    return plan;
}

} // namespace moentwine
