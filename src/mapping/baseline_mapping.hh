/**
 * @file
 * Baseline mapping: TP groups are contiguous tpX×tpY blocks tiled over
 * the mesh (Fig. 8(b) of the paper).
 *
 * Each FTD pairs the devices at the same within-block offset across all
 * blocks; the resulting domains span nearly the whole mesh and all
 * intersect in the centre, which is exactly the congestion pathology
 * ER-Mapping removes.
 */

#ifndef MOENTWINE_MAPPING_BASELINE_MAPPING_HH
#define MOENTWINE_MAPPING_BASELINE_MAPPING_HH

#include <string>
#include <vector>

#include "mapping/mapping.hh"
#include "mapping/parallelism.hh"
#include "topology/mesh.hh"

namespace moentwine {

/**
 * Contiguous-block TP placement on a mesh.
 */
class BaselineMapping : public Mapping
{
  public:
    /**
     * @param mesh Mesh to map onto (rows divisible by tpX, cols by tpY).
     * @param par  TP shape.
     */
    BaselineMapping(const MeshTopology &mesh, ParallelismConfig par);

    std::string name() const override { return "Baseline"; }

    /** Baseline rings are quadrant-local and need no staggering. */
    bool staggeredRings() const override { return false; }

  protected:
    /**
     * @p expertDevice clamped into the group's tpX×tpY block: hops are
     * Manhattan, so that is the unique nearest member.
     */
    DeviceId sourceWithAllGather(int group, int rank,
                                 DeviceId expertDevice) const override;

  private:
    const MeshTopology &mesh_;
    ParallelismConfig par_;
    // Top-left coordinate of each TP group's block.
    std::vector<Coord> blockOrigin_;
};

} // namespace moentwine

#endif // MOENTWINE_MAPPING_BASELINE_MAPPING_HH
