/**
 * @file
 * Entwined Ring Mapping (ER-Mapping, Fig. 10(a) of the paper).
 *
 * TP groups are *strided* over the mesh: group (i, j) contains the
 * devices at coordinates {(i + s·a, j + t·b)} with a = rows/tpX and
 * b = cols/tpY. Every contiguous a×b block then holds exactly one
 * member of every TP group and forms a compact, non-overlapping FTD —
 * all-to-all traffic stays inside these blocks, eliminating the central
 * congestion of the baseline mapping. The price is that all-reduce
 * rings become "entwined": consecutive ring members sit a (or b) mesh
 * hops apart, and intersecting rings are time-staggered (Fig. 8(d)).
 */

#ifndef MOENTWINE_MAPPING_ER_MAPPING_HH
#define MOENTWINE_MAPPING_ER_MAPPING_HH

#include <string>
#include <vector>

#include "mapping/mapping.hh"
#include "mapping/parallelism.hh"
#include "topology/mesh.hh"

namespace moentwine {

/**
 * ER-Mapping's layout of the @p rows × @p cols tile of @p mesh whose
 * top-left device is at @p origin (the whole mesh, or one wafer under
 * HER-Mapping). Appends the tile's strided TP groups, in entwined-ring
 * order, to @p groups, then its contiguous a×b block FTDs to @p ftds.
 * The shape must divide the tile.
 */
void appendErTile(const MeshTopology &mesh, Coord origin, int rows,
                  int cols, const ParallelismConfig &par,
                  std::vector<std::vector<DeviceId>> &groups,
                  std::vector<std::vector<DeviceId>> &ftds);

/**
 * Strided (entwined) TP placement on a mesh.
 */
class ErMapping : public Mapping
{
  public:
    /**
     * @param mesh Mesh to map onto (rows divisible by tpX, cols by tpY).
     * @param par  TP shape.
     */
    ErMapping(const MeshTopology &mesh, ParallelismConfig par);

    std::string name() const override { return "ER-Mapping"; }

    /** Entwined rings rely on the time-staggered schedule. */
    bool staggeredRings() const override { return true; }

    /** Row stride between TP-group members (a = rows / tpX). */
    int strideRows() const { return strideRows_; }

    /** Column stride between TP-group members (b = cols / tpY). */
    int strideCols() const { return strideCols_; }

  protected:
    /**
     * The group's member inside @p expertDevice's FTD, even when a
     * neighbouring domain's member is closer (Section IV-A: "confining
     * communication to this domain").
     */
    DeviceId sourceWithAllGather(int group, int rank,
                                 DeviceId expertDevice) const override;

  private:
    int strideRows_;
    int strideCols_;
    // The member of TP group g inside FTD f, at [f · dp + g].
    std::vector<DeviceId> memberInFtd_;
};

} // namespace moentwine

#endif // MOENTWINE_MAPPING_ER_MAPPING_HH
