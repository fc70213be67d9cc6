/**
 * @file
 * Test-only reference of the expert balancers, and the seeded inputs
 * the balancer tests share.
 *
 * The reference is the planner as it stood before the production one
 * moved to heat tournament trees, a holder snapshot per expert,
 * Manhattan-ring destination search and in-place NI planning: a full
 * max_element and a full cold-set scan per round, a std::set snapshot
 * of the prior replicas, and (for NI) two placement copies per plan
 * plus a links-sized budget vector per advance. It keeps its own heat
 * vector, updated per addition by the same arithmetic as the production
 * HeatIndex, and never uses the heat trees. It is slow on purpose
 * and exists only so balancer_reference_test can demand that the
 * production planner returns the same step lists and leaves the same
 * placement behind, on the same inputs.
 */

#ifndef MOENTWINE_TESTS_BALANCER_REFERENCE_HH
#define MOENTWINE_TESTS_BALANCER_REFERENCE_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "balancer/balancer.hh"
#include "balancer/placement.hh"
#include "mapping/mapping.hh"
#include "network/traffic.hh"
#include "topology/topology.hh"

namespace moentwine {
namespace reference {

/** Load shapes of the balancer digest and differential cases. */
enum class LoadShape
{
    Zipf,    ///< seeded permutation of 1000 / (rank + 1)
    Uniform, ///< every expert at the same load
    Zero,    ///< all-zero loads
    Ties,    ///< three seeded levels, so many heats tie exactly
};

/** Per-expert loads of @p shape for @p experts, drawn from @p seed. */
std::vector<double> shapedLoads(LoadShape shape, int experts,
                                std::uint64_t seed);

/** Greedy (EPLB) rebalance: the pre-tree replication loop. */
std::vector<MigrationStep> greedyRebalance(
    const std::vector<double> &loads, ExpertPlacement &placement);

/** Topology-aware (Algorithm 1) rebalance: the pre-tree loop. */
std::vector<MigrationStep> topologyAwareRebalance(
    const Topology &topo, const std::vector<double> &loads,
    ExpertPlacement &placement);

/**
 * NiBalancer as it stood before it planned in place and kept a budget
 * buffer: plans on a full copy through topologyAwareRebalance() and
 * allocates a links-sized budget on every advance.
 */
class NiBalancer
{
  public:
    NiBalancer(const Mapping &mapping, double expertBytes);

    int plan(const std::vector<double> &expertLoads,
             ExpertPlacement &placement);
    int advanceAttention(const PhaseTraffic &traffic, double window,
                         ExpertPlacement &placement);
    int advanceMoe(const PhaseTraffic &traffic, double window,
                   ExpertPlacement &placement);
    std::size_t pendingCount() const { return pending_.size(); }
    double hiddenBytesMoved() const { return hiddenBytes_; }

  private:
    struct Segment
    {
        std::vector<LinkId> links;
        bool local;
    };

    struct Pending
    {
        MigrationStep step;
        std::vector<Segment> segments;
        std::vector<double> delivered;
    };

    std::vector<Segment> decompose(DeviceId src, DeviceId dst) const;
    int advance(const PhaseTraffic &traffic, double window, bool local,
                ExpertPlacement &placement);

    const Mapping &mapping_;
    double expertBytes_;
    std::deque<Pending> pending_;
    double hiddenBytes_ = 0.0;
};

} // namespace reference
} // namespace moentwine

#endif // MOENTWINE_TESTS_BALANCER_REFERENCE_HH
