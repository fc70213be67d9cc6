/**
 * @file
 * Expert load balancers: the Eq.(2) rebalance trigger, the EPLB-style
 * greedy balancer, and the topology-aware balancer of Algorithm 1. This
 * module owns every notion of load: the device-heat formula
 * (heatOf(), deviceHeats()) and the HeatIndex the planner queries.
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
 * Cost: a plan makes at most devices × shadowSlots additions. The
 * balancer owns a HeatIndex, rebuilt from (loads, placement) after the
 * reset to native and reused across plans: each round reads the
 * hottest device from it in O(1) and the coldest eligible device in
 * O(log devices); the cold set is empty iff that device fails the cold
 * test, since adding the new share is monotone in heat. Topology-aware
 * then searches Manhattan rings around the replicas on a mesh, and
 * scans every device on other topologies (whose hops() are not
 * Manhattan). Each addition goes through the index, which updates the
 * heats and re-seats the changed leaves in O(replicas × log devices).
 * Steady-state plans allocate nothing: the index, prior holders,
 * additions and steps live in buffers the balancer reuses.
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
#include "common/logging.hh"
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
 * Device heat given per-expert loads: Heat_d = Σ Load_e / Num_e over the
 * experts hosted by @p d (Algorithm 1), summed in expertsOn() order.
 */
double heatOf(const ExpertPlacement &placement, DeviceId d,
              const std::vector<double> &expertLoads);

/** heatOf() for every device, recomputed in O(devices × experts). */
std::vector<double> deviceHeats(const ExpertPlacement &placement,
                                const std::vector<double> &expertLoads);

/**
 * Algorithm 1's per-round query structure: the device heats of one set
 * of loads, kept current across replica additions, and two tournament
 * trees over them. Both trees break heat ties toward the lowest id:
 *  - hottest() reads the max tree in O(1) and returns exactly what
 *    std::max_element over heats() returns;
 *  - coldestOpen() walks the min tree over devices with a free slot in
 *    O((1 + excluded) · log devices).
 * The trees only index the heat doubles, they never recompute them.
 * The index is valid while every change to the placement after build()
 * goes through addReplica(); rebuild it after any other change.
 */
class HeatIndex
{
  public:
    /** Index the heats of @p expertLoads on @p placement. */
    void build(const std::vector<double> &expertLoads,
               const ExpertPlacement &placement);

    /**
     * Add a replica of @p expert on @p d to @p placement, then update
     * the heats and re-seat the changed leaves in
     * O(replicas of the expert × log devices). @p load is the expert's
     * load in the vector given to build().
     */
    void addReplica(ExpertPlacement &placement, int expert, DeviceId d,
                    double load);

    /** Current heat of every device. */
    const std::vector<double> &heats() const { return heats_; }

    /** Device of maximum heat, ties to the lowest id. */
    DeviceId hottest() const
    {
        MOE_ASSERT(!maxTree_.empty(), "hottest() before build()");
        return maxTree_[1];
    }

    /**
     * Device of minimum heat, ties to the lowest id, among devices with
     * a free slot that are not @p skip and do not host @p expert; -1
     * when there is none.
     */
    DeviceId coldestOpen(const ExpertPlacement &placement, int expert,
                         DeviceId skip) const;

  private:
    /**
     * Re-seat device @p d's leaf after its heat or slots changed; call
     * once per changed device, before changing the next.
     */
    void touch(const ExpertPlacement &placement, DeviceId d);
    /** Tree winners: the hotter / colder of two devices (-1 = none). */
    DeviceId hotter(DeviceId a, DeviceId b) const;
    DeviceId colder(DeviceId a, DeviceId b) const;
    /** coldestOpen() below tree node @p node. */
    DeviceId coldestOpenUnder(const ExpertPlacement &placement, int node,
                              int expert, DeviceId skip) const;

    std::vector<double> heats_;
    // Tournament trees over heats_: device d's leaf is node
    // treeBase_ + d, node i plays 2i against 2i + 1, and each node
    // holds its winning device (-1: none). maxTree_ is the max over all
    // devices; freeMinTree_ the min over devices with a free slot.
    int treeBase_ = 0;
    std::vector<DeviceId> maxTree_;
    std::vector<DeviceId> freeMinTree_;
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
    HeatIndex heatIndex_;
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
