/**
 * @file
 * Hierarchical ER-Mapping for multi-wafer systems (Fig. 10(c)).
 *
 * Each wafer is ER-mapped independently, so TP groups never span a
 * wafer boundary. The attention all-reduce splits into two stages:
 *  1. intra-wafer reduce-scatter over the per-wafer entwined rings;
 *  2. inter-wafer all-gather over rings of mirror devices (the devices
 *     at the same within-wafer coordinate on every wafer).
 * After both stages every wafer holds a distributed copy of all tokens,
 * so the MoE all-to-all is confined within individual wafers: the
 * dispatch source of a token for an expert on wafer w is the mirror of
 * the token's shard owner on wafer w.
 */

#ifndef MOENTWINE_MAPPING_HER_MAPPING_HH
#define MOENTWINE_MAPPING_HER_MAPPING_HH

#include <string>
#include <vector>

#include "mapping/mapping.hh"
#include "mapping/parallelism.hh"
#include "topology/mesh.hh"

namespace moentwine {

/**
 * Per-wafer ER placement with hierarchical all-reduce.
 */
class HierarchicalErMapping : public Mapping
{
  public:
    /**
     * @param mesh Multi-wafer mesh (per-wafer dims divisible by TP shape).
     * @param par  TP shape (within one wafer).
     */
    HierarchicalErMapping(const MeshTopology &mesh, ParallelismConfig par);

    std::string name() const override { return "HER-Mapping"; }

    bool staggeredRings() const override { return true; }

    double allReduceInto(const Topology &onTopo, double bytesPerGroup,
                         bool withAllGather,
                         CollectiveScratch &scratch) const override;

    /** Sources are per-wafer mirrors of the rank owner: rank matters. */
    bool dispatchSourceRankInvariant(bool) const override
    {
        return false;
    }

    /** Without the all-gather the owner serves; with it, the mirror of
     *  a local position on the expert's wafer serves one group of
     *  every wafer. */
    bool dispatchPairsSingleSourced(bool allGatherRetained) const override
    {
        return !allGatherRetained;
    }

    /** Mirror of device @p d on wafer @p wafer (same local coordinate). */
    DeviceId mirrorOn(DeviceId d, int wafer) const;

    /** The inter-wafer all-gather rings (one per within-wafer position). */
    const std::vector<std::vector<DeviceId>> &interWaferRings() const
    {
        return interRings_;
    }

    /** The mesh this mapping is placed on. */
    const MeshTopology &mesh() const { return mesh_; }

  protected:
    /** The rank owner's mirror on @p expertDevice's wafer. */
    DeviceId sourceWithAllGather(int group, int rank,
                                 DeviceId expertDevice) const override;

  private:
    /** The device at within-wafer position @p local on @p wafer. */
    DeviceId mirrorAt(int local, int wafer) const
    {
        return mirror_[static_cast<std::size_t>(local) *
                           static_cast<std::size_t>(mesh_.numWafers()) +
                       static_cast<std::size_t>(wafer)];
    }

    const MeshTopology &mesh_;
    std::vector<std::vector<DeviceId>> interRings_;
    // Row-major within-wafer position and wafer of each device, and the
    // device at position p on wafer w at [p · wafers + w], so a mirror
    // is two table reads with no coordinate arithmetic.
    std::vector<int> localOf_;
    std::vector<int> waferOf_;
    std::vector<DeviceId> mirror_;
};

} // namespace moentwine

#endif // MOENTWINE_MAPPING_HER_MAPPING_HH
