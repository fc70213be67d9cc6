/**
 * @file
 * Expert load balancers: the Eq.(2) rebalance trigger, the EPLB-style
 * greedy balancer, and the topology-aware balancer of Algorithm 1.
 *
 * Both balancers plan a *target* placement from the predicted expert
 * loads: starting from the native placement, they repeatedly replicate
 * the most loaded expert of the hottest device onto a colder device
 * until peak heat can no longer be reduced. A device is *cold* for an
 * expert when it is not the hottest device, has a free slot, does not
 * host the expert, and heat + the expert's new per-replica share stays
 * strictly below the peak. The balancers differ in destination and
 * source choice:
 *  - Greedy (EPLB): the coldest cold device, copied from the
 *    lowest-id device that held the expert *before the re-plan* (a
 *    native or a shadow replica) — oblivious to distance, hence long
 *    invasive migrations;
 *  - Topology-aware (Algorithm 1): the cold device nearest to one of
 *    the expert's current replicas, copied from the prior holder
 *    nearest to it — same balance quality, far shorter transfers.
 *
 * Tie rules: the hottest device is the std::max_element answer (lowest
 * id among equal heats); Greedy takes the lowest id among the coldest;
 * Topology-aware minimises (hops, heat, id); the source is the lowest-id
 * prior holder among the nearest.
 *
 * Cost: a plan makes at most devices × shadowSlots additions. Each round
 * reads the hottest device from the placement's heat tree in O(1) and
 * the coldest eligible device in O(log devices); the cold set is empty
 * iff that device fails the cold test, since adding the new share is
 * monotone in heat. Topology-aware then searches Manhattan rings around
 * the replicas on a mesh, and scans every device on other topologies
 * (whose hops() are not Manhattan). Each addition updates the tree in
 * O(replicas × log devices). Steady-state plans allocate nothing: the
 * prior holders, additions and steps live in buffers the balancer
 * reuses.
 *
 * The migration steps returned are the replica copies that must move
 * weights over the network; dropping stale shadow replicas is free.
 */

#ifndef MOENTWINE_BALANCER_BALANCER_HH
#define MOENTWINE_BALANCER_BALANCER_HH

#include <string>
#include <utility>
#include <vector>

#include "balancer/placement.hh"
#include "topology/topology.hh"

namespace moentwine {

/** One expert-weight copy over the network. */
struct MigrationStep
{
    /** Expert whose weights are copied. */
    int expert;
    /** Replica device the weights are read from. */
    DeviceId srcDevice;
    /** Shadow slot the weights are written to. */
    DeviceId dstDevice;
};

/**
 * Eq.(2) rebalance trigger: fires when the cumulative imbalance degree
 * exceeds alpha and at least beta iterations have passed since the last
 * migration (beta = 0 for non-invasive balancing).
 */
class RebalanceTrigger
{
  public:
    /**
     * @param alpha Cumulative imbalance threshold (> 0).
     * @param beta  Minimum iterations between migrations (≥ 0).
     */
    RebalanceTrigger(double alpha, int beta);

    /**
     * Record one iteration's imbalance degree; returns true when the
     * trigger fires (and resets the accumulator).
     */
    bool poll(double imbalance);

    /** Accumulated imbalance since the last firing. */
    double accumulated() const { return accumulated_; }

  private:
    double alpha_;
    int beta_;
    double accumulated_ = 0.0;
    int sinceLast_;
};

/**
 * Base class of placement balancers. A balancer keeps scratch buffers
 * between plans, so one instance must not plan on two threads at once.
 */
class Balancer
{
  public:
    virtual ~Balancer() = default;

    /** Balancer name for bench output. */
    virtual std::string name() const = 0;

    /**
     * Recompute the shadow-replica assignment for the predicted loads.
     *
     * The placement is reset to native and rebuilt; the returned steps
     * are the weight copies required to realise the new assignment
     * relative to the replicas held before the call (replicas already
     * present cost nothing).
     *
     * @param expertLoads Predicted per-expert loads.
     * @param placement   Placement to mutate into the new target.
     * @return Required weight-copy migrations, valid until the next
     *         rebalance() on this balancer.
     */
    virtual const std::vector<MigrationStep> &rebalance(
        const std::vector<double> &expertLoads,
        ExpertPlacement &placement) = 0;

  protected:
    /**
     * Shared driver: snapshot the prior holders, reset to native, run
     * the replication loop, and diff. @p topo selects the policy:
     * nullptr plans greedily, otherwise topology-aware on @p topo.
     */
    const std::vector<MigrationStep> &rebalanceWith(
        const std::vector<double> &loads, ExpertPlacement &placement,
        const Topology *topo);

  private:
    // Prior holders per expert as CSR: expert e's holders, sorted by
    // device id, are holders_[holderStart_[e] .. holderStart_[e + 1]).
    std::vector<int> holderStart_;
    std::vector<DeviceId> holders_;
    // (expert, dst) additions of the replication loop, in order.
    std::vector<std::pair<int, DeviceId>> added_;
    std::vector<MigrationStep> steps_;
};

/**
 * EPLB-style greedy balancer (topology-oblivious).
 */
class GreedyBalancer : public Balancer
{
  public:
    std::string name() const override { return "Greedy"; }

    const std::vector<MigrationStep> &rebalance(
        const std::vector<double> &expertLoads,
        ExpertPlacement &placement) override;
};

/**
 * Topology-aware balancer (Algorithm 1 of the paper).
 */
class TopologyAwareBalancer : public Balancer
{
  public:
    /** @param topo Topology used for nearest-destination selection. */
    explicit TopologyAwareBalancer(const Topology &topo);

    std::string name() const override { return "Topology-aware"; }

    const std::vector<MigrationStep> &rebalance(
        const std::vector<double> &expertLoads,
        ExpertPlacement &placement) override;

  private:
    const Topology &topo_;
};

} // namespace moentwine

#endif // MOENTWINE_BALANCER_BALANCER_HH
