/**
 * @file
 * Abstract parallelism mapping: how attention-layer TP groups and
 * MoE-layer experts are placed on the devices of a topology.
 *
 * A mapping owns three structures:
 *  - TP groups in ring order (the all-reduce rings of the attention
 *    layer). Group g's rank r device holds the r-th token shard of its
 *    group after a reduce-scatter;
 *  - FTDs (Full Token Domains): the minimal device sets that together
 *    hold tokens from every TP group. Their geometry governs all-to-all
 *    cost (Section IV-A of the paper);
 *  - the dispatch-source rule: which device supplies a token to an
 *    expert device, which depends on whether the all-gather half of the
 *    all-reduce was retained (Fig. 9). Without it the shard's owner
 *    serves; with it each mapping states one O(1) closed form over
 *    O(devices · wafers) data built in its constructor. Nothing is
 *    memoised or built lazily, so a const mapping is safe to share
 *    across threads.
 *
 * Concrete mappings, each with its all-gather dispatch rule:
 *  - BaselineMapping (contiguous TP blocks): the destination clamped
 *    into the group's block, its unique Manhattan-nearest member;
 *  - ErMapping (entwined strided TP groups): the group's member inside
 *    the destination's FTD;
 *  - HierarchicalErMapping (per-wafer ER with hierarchical all-reduce):
 *    the rank owner's mirror on the destination's wafer;
 *  - ClusterMapping (GPU baselines on switch topologies): the
 *    destination itself when it is in the group, else the group's
 *    lowest-id member on the destination's node, else its first member.
 */

#ifndef MOENTWINE_MAPPING_MAPPING_HH
#define MOENTWINE_MAPPING_MAPPING_HH

#include <string>
#include <vector>

#include "common/logging.hh"
#include "network/collectives.hh"
#include "topology/topology.hh"

namespace moentwine {

/**
 * Base class of all parallelism mappings.
 */
class Mapping
{
  public:
    virtual ~Mapping() = default;

    /** The topology this mapping is placed on. */
    const Topology &topology() const { return topo_; }

    /** Number of compute devices. */
    int numDevices() const { return numDevices_; }

    /** Tensor-parallel degree (size of each TP group). */
    int tp() const { return static_cast<int>(tpGroups_.front().size()); }

    /** Data-parallel degree (number of TP groups). */
    int dp() const { return static_cast<int>(tpGroups_.size()); }

    /** TP groups, each in all-reduce ring order. */
    const std::vector<std::vector<DeviceId>> &tpGroups() const
    {
        return tpGroups_;
    }

    /** TP group (DP shard) index of a device. */
    int tpGroupOf(DeviceId d) const
    {
        MOE_ASSERT(d >= 0 && d < numDevices(), "tpGroupOf: bad device");
        return groupOf_[static_cast<std::size_t>(d)];
    }

    /** Ring position of a device within its TP group. */
    int tpRankOf(DeviceId d) const
    {
        MOE_ASSERT(d >= 0 && d < numDevices(), "tpRankOf: bad device");
        return rankOf_[static_cast<std::size_t>(d)];
    }

    /** Full Token Domains (disjoint device sets covering all groups). */
    const std::vector<std::vector<DeviceId>> &ftds() const { return ftds_; }

    /** FTD index of a device. */
    int ftdOf(DeviceId d) const
    {
        MOE_ASSERT(d >= 0 && d < numDevices(), "ftdOf: bad device");
        return ftdIndexOf_[static_cast<std::size_t>(d)];
    }

    /** Mapping name for bench output. */
    virtual std::string name() const = 0;

    /**
     * Whether concurrent all-reduce rings use the time-staggered
     * entwined schedule (true for ER-style mappings).
     */
    virtual bool staggeredRings() const = 0;

    /**
     * Attention-layer all-reduce over all TP groups concurrently.
     * @param bytesPerGroup Full activation tensor bytes of one group.
     * @param withAllGather Retain the all-gather half (Fig. 9); when
     *        false only the reduce-scatter runs.
     */
    CollectiveTiming allReduce(double bytesPerGroup,
                               bool withAllGather) const;

    /**
     * Allocation-free allReduce() with this mapping's ring schedule
     * charged over @p onTopo instead of the construction topology: the
     * per-link traffic accumulates into @p scratch (engine-owned,
     * reused across iterations) instead of a freshly allocated
     * PhaseTraffic. The virtual customisation point (HER-Mapping
     * overrides it with the hierarchical two-stage schedule). The
     * fault layer passes the degraded overlay here — identical link
     * ids, mutated bandwidths and routes — so all-reduce cost reacts to
     * degraded links without rebuilding the mapping.
     */
    virtual double allReduceInto(const Topology &onTopo,
                                 double bytesPerGroup, bool withAllGather,
                                 CollectiveScratch &scratch) const;

    /**
     * Device that supplies tokens of (TP group, shard rank) to an
     * expert device during dispatch (and receives the combined output).
     *
     * @param group    Owning TP group of the token shard.
     * @param rank     Shard rank within the group (reduce-scatter slot).
     * @param expertDevice Destination expert device.
     * @param allGatherRetained With all-gather, the shard is replicated
     *        and the mapping's sourceWithAllGather() rule picks the copy
     *        that serves; without it only the rank-owner can.
     *
     * O(1) and allocation-free: the token router calls it once per
     * logical transfer.
     */
    DeviceId dispatchSource(int group, int rank, DeviceId expertDevice,
                            bool allGatherRetained) const
    {
        MOE_ASSERT(group >= 0 && group < dp(), "bad TP group index");
        MOE_ASSERT(rank >= 0 && rank < tp(), "bad shard rank");
        MOE_ASSERT(expertDevice >= 0 && expertDevice < numDevices(),
                   "bad expert device");
        if (!allGatherRetained) {
            // Only the reduce-scatter owner holds the shard.
            return tpGroups_[static_cast<std::size_t>(group)]
                            [static_cast<std::size_t>(rank)];
        }
        return sourceWithAllGather(group, rank, expertDevice);
    }

    /**
     * True when dispatchSource() ignores the shard rank under the
     * given all-gather mode (with the all-gather retained, every group
     * member holds every shard, so the chosen source depends only on
     * the destination). The token router's aggregated path collapses
     * its TP-rank loop into one contribution per replica when this
     * holds. Mappings with rank-dependent sources (HER's per-wafer
     * mirrors) must override to return false.
     */
    virtual bool dispatchSourceRankInvariant(bool allGatherRetained) const
    {
        return allGatherRetained;
    }

    /**
     * True when each remote (source, expert device) pair of the
     * dispatch is served by one (group, rank) only, ranks counted once
     * where dispatchSourceRankInvariant() holds. The token router then
     * adds a (group, rank, device)'s bytes to its pair pre-summed over
     * the device's experts, which equals the per-expert adds bit for
     * bit only under this property. Sources drawn from the token's own
     * group have it; HER-Mapping's cross-wafer mirrors serve a pair for
     * one group per wafer and must override to return false.
     */
    virtual bool dispatchPairsSingleSourced(bool /*allGatherRetained*/) const
    {
        return true;
    }

    /**
     * Volume reduction factor for a dispatch/combine flow, modelling
     * hierarchical all-to-all optimisations (DeepSpeed-MoE style): on
     * switch clusters, tokens heading to several experts on the same
     * remote node cross the inter-node fabric once, shrinking the
     * cross-node volume by N·(1−(1−1/N)^k)/k. Mesh mappings impose no
     * routing restriction and return 1.
     *
     * @param src  Flow source device.
     * @param dst  Flow destination device.
     * @param topk Experts activated per token.
     */
    virtual double dispatchDedupFactor(DeviceId src, DeviceId dst,
                                       int topk) const;

  protected:
    explicit Mapping(const Topology &topo);

    /**
     * Build the reverse indices; must be called by every concrete
     * constructor after populating tpGroups_ and ftds_.
     */
    void finalize();

    /**
     * The mapping's dispatch rule with the all-gather retained: which
     * holder of the (group, rank) shard serves @p expertDevice (a group
     * member, or under HER-Mapping a mirror on the expert's wafer).
     * Arguments are range-checked by dispatchSource(); must be O(1).
     */
    virtual DeviceId sourceWithAllGather(int group, int rank,
                                         DeviceId expertDevice) const = 0;

    /**
     * Assert that every FTD holds exactly one member of each of
     * @p groupsPerFtd consecutive TP groups (all groups under
     * ER-Mapping, its own wafer's under HER-Mapping). @p who names the
     * mapping in the failure message.
     */
    void assertFtdsHoldEachGroupOnce(int groupsPerFtd,
                                     const std::string &who) const;

    const Topology &topo_;
    std::vector<std::vector<DeviceId>> tpGroups_;
    std::vector<std::vector<DeviceId>> ftds_;

  private:
    // topo_.numDevices(), kept to spare the hot path a virtual call.
    const int numDevices_;
    std::vector<int> groupOf_;
    std::vector<int> rankOf_;
    std::vector<int> ftdIndexOf_;
};

} // namespace moentwine

#endif // MOENTWINE_MAPPING_MAPPING_HH
