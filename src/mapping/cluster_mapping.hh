/**
 * @file
 * Parallelism mapping for switch-based GPU clusters (DGX, NVL72).
 *
 * TP groups are consecutive device blocks, kept inside a node whenever
 * TP does not exceed the node size — the standard deployment on GPU
 * systems, where NVLink carries the all-reduce. FTD structure is not
 * meaningful on a switched fabric (every device is one switch domain
 * away from every other), so the whole cluster is reported as a single
 * FTD.
 */

#ifndef MOENTWINE_MAPPING_CLUSTER_MAPPING_HH
#define MOENTWINE_MAPPING_CLUSTER_MAPPING_HH

#include <array>
#include <string>

#include "mapping/mapping.hh"
#include "topology/switch_cluster.hh"

namespace moentwine {

/**
 * Block TP placement on a switch cluster.
 */
class ClusterMapping : public Mapping
{
  public:
    /**
     * @param cluster Cluster to map onto.
     * @param tp      Tensor-parallel degree (divides the device count).
     */
    ClusterMapping(const SwitchClusterTopology &cluster, int tp);

    std::string name() const override { return "Cluster"; }

    bool staggeredRings() const override { return false; }

    double dispatchDedupFactor(DeviceId src, DeviceId dst,
                               int topk) const override;

  protected:
    /**
     * The nearest member: hops are 0, 2 (same node) or 4, so that is
     * @p expertDevice itself when in the group, else the group's
     * lowest-id member on its node, else the group's first member.
     */
    DeviceId sourceWithAllGather(int group, int rank,
                                 DeviceId expertDevice) const override;

  private:
    const SwitchClusterTopology &cluster_;
    /** Largest topk whose cross-node dedup factor is tabulated. */
    static constexpr int kMaxMemoTopk = 64;
    // Cross-node dedup factor of each topk in 1..kMaxMemoTopk, computed
    // in the constructor (index 0 unused).
    std::array<double, kMaxMemoTopk + 1> crossByTopk_{};
};

} // namespace moentwine

#endif // MOENTWINE_MAPPING_CLUSTER_MAPPING_HH
