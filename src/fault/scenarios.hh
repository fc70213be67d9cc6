/**
 * @file
 * Named fault scenarios: deterministic FaultPlan generators keyed by a
 * sweepable enum, so fault injection can be a grid axis next to
 * balancers and arrival processes.
 *
 * Every generator derives its targets from the topology alone (the
 * central device and its lowest-id outgoing link, both directions), so
 * a (kind, topology, spec) triple always yields the same plan — no RNG,
 * no wall clock, per the src/fault/ determinism contract.
 */

#ifndef MOENTWINE_FAULT_SCENARIOS_HH
#define MOENTWINE_FAULT_SCENARIOS_HH

#include <string>

#include "fault/fault_plan.hh"

namespace moentwine {

class Topology;

/** Sweepable fault scenarios, mildest first. */
enum class FaultScenarioKind
{
    /** Empty plan: the bitwise-identical fault-free path. */
    None,
    /** Central link pair degraded, later restored. */
    DegradedLinks,
    /** Central link pair failed (reroute), later restored. */
    LinkCut,
    /** Central device slowed, later back to nominal. */
    Straggler,
    /** Central device fails permanently. */
    NodeLoss,
    /** Degrade → link cut + straggler → node loss → link restore. */
    Cascade,
};

/** Short lowercase scenario name for bench output ("linkcut", ...). */
std::string faultScenarioName(FaultScenarioKind kind);

/** Shape parameters shared by the scenario generators. */
struct FaultScenarioSpec
{
    /** Iteration of the first event. */
    int startIteration = 20;
    /** Iterations between staged events of one scenario. */
    int spacing = 30;
};

/** Build the deterministic plan of @p kind for @p topo. */
FaultPlan makeFaultScenario(FaultScenarioKind kind, const Topology &topo,
                            const FaultScenarioSpec &spec = {});

} // namespace moentwine

#endif // MOENTWINE_FAULT_SCENARIOS_HH
