/**
 * @file
 * 2-D mesh topology for wafer-scale chips, supporting both a single wafer
 * and a grid of wafers connected at their borders (Dojo-style).
 *
 * A multi-wafer system is modelled as one large global mesh whose links
 * crossing a wafer boundary carry the (different) cross-wafer bandwidth
 * and latency. This matches the physical construction described by the
 * paper: every facing pair of edge dies on adjacent wafers is connected,
 * so the global structure remains a mesh with heterogeneous links.
 *
 * Routing is deterministic dimension-ordered XY: first along the row
 * (column index changes), then along the column. This is the standard
 * deadlock-free mesh routing assumed by the paper's congestion analysis.
 * nextLink() compares two coordinates and reads a per-device neighbour
 * array, so routing stores nothing per device pair.
 */

#ifndef MOENTWINE_TOPOLOGY_MESH_HH
#define MOENTWINE_TOPOLOGY_MESH_HH

#include <string>
#include <vector>

#include "topology/topology.hh"

namespace moentwine {

/** Zero-based (row, col) position in the global mesh. */
struct Coord
{
    int row;
    int col;

    bool operator==(const Coord &o) const
    {
        return row == o.row && col == o.col;
    }
};

/** Configuration of a (possibly multi-wafer) mesh. */
struct MeshSpec
{
    /** Rows of compute dies per wafer. */
    int meshRows = 4;
    /** Columns of compute dies per wafer. */
    int meshCols = 4;
    /** Rows of wafers in the system. */
    int waferGridRows = 1;
    /** Columns of wafers in the system. */
    int waferGridCols = 1;
    /**
     * Per-direction bandwidth of an on-wafer die-to-die link (B/s).
     * The paper quotes 8 TB/s *bidirectional per die*; spread over the
     * four mesh edges that is 1 TB/s per edge per direction.
     */
    double linkBandwidth = 1e12;
    /**
     * Per-hop latency of an on-wafer link (s). Includes the NoC router
     * traversal and protocol processing of a store-and-forward hop, so
     * it is substantially larger than the raw wire delay.
     */
    double linkLatency = 300e-9;
    /**
     * Per-direction bandwidth of one cross-wafer border link (B/s).
     * The paper quotes 9 TB/s per wafer border; an 8-wide border gives
     * roughly 0.55 TB/s per facing die pair per direction.
     */
    double crossBandwidth = 0.55e12;
    /** Per-hop latency of a cross-wafer link (s). */
    double crossLatency = 600e-9;
};

/**
 * Wafer-scale 2-D mesh (single- or multi-wafer).
 */
class MeshTopology final : public Topology
{
  public:
    /** Build a mesh from a full specification. */
    explicit MeshTopology(const MeshSpec &spec);

    /** Convenience factory: one n×n wafer with default link parameters. */
    static MeshTopology singleWafer(int n);

    /**
     * Convenience factory: a 1×wafers row of n×n wafers with default
     * link parameters (the paper's "4×(8×8)" style systems).
     */
    static MeshTopology waferRow(int wafers, int n);

    int numDevices() const override { return rows_ * cols_; }

    LinkId nextLink(NodeId at, DeviceId dst) const override;

    /** XY routes are minimal: the Manhattan distance. */
    int hops(DeviceId src, DeviceId dst) const override
    {
        return manhattan(src, dst);
    }

    std::string name() const override;

    /** Total rows in the global mesh. */
    int rows() const { return rows_; }

    /** Total columns in the global mesh. */
    int cols() const { return cols_; }

    /** Rows per wafer. */
    int waferRows() const { return spec_.meshRows; }

    /** Columns per wafer. */
    int waferCols() const { return spec_.meshCols; }

    /** Number of wafers in the system. */
    int numWafers() const
    {
        return spec_.waferGridRows * spec_.waferGridCols;
    }

    /** Devices per wafer. */
    int devicesPerWafer() const
    {
        return spec_.meshRows * spec_.meshCols;
    }

    /** Coordinate of a device in the global mesh. */
    Coord coordOf(DeviceId d) const;

    /** Device at a global mesh coordinate. */
    DeviceId deviceAt(int row, int col) const;

    /** Device at a global mesh coordinate. */
    DeviceId deviceAt(Coord c) const { return deviceAt(c.row, c.col); }

    /** Wafer index (row-major over the wafer grid) hosting a device. */
    int waferOf(DeviceId d) const;

    /** All devices on the given wafer, in row-major order. */
    std::vector<DeviceId> waferDevices(int wafer) const;

    /** Manhattan distance between two devices in the global mesh. */
    int manhattan(DeviceId a, DeviceId b) const;

    /** True when the directed link crosses a wafer boundary. */
    bool isCrossWafer(LinkId l) const;

    /** The specification this mesh was built from. */
    const MeshSpec &spec() const { return spec_; }

  private:
    /** Outgoing neighbour directions, indexing ports_. */
    enum Port
    {
        East,  ///< column + 1
        West,  ///< column - 1
        South, ///< row + 1
        North, ///< row - 1
        kPorts
    };

    MeshSpec spec_;
    int rows_;
    int cols_;
    // Coordinate of each device, so routing divides nothing per hop.
    std::vector<Coord> coords_;
    // Outgoing link of device d toward each Port at d × kPorts + port
    // (-1 on the mesh edge).
    std::vector<LinkId> ports_;
};

} // namespace moentwine

#endif // MOENTWINE_TOPOLOGY_MESH_HH
