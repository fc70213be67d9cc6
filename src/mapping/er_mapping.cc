#include "mapping/er_mapping.hh"

#include "mapping/ring_order.hh"

namespace moentwine {

void
appendErTile(const MeshTopology &mesh, Coord origin, int rows, int cols,
             const ParallelismConfig &par,
             std::vector<std::vector<DeviceId>> &groups,
             std::vector<std::vector<DeviceId>> &ftds)
{
    const int strideRows = rows / par.tpX; // a in the paper's algorithm
    const int strideCols = cols / par.tpY; // b

    // TP groups: residue classes (i, j) mod (a, b); members at
    // (i + s·a, j + t·b) visited in entwined-ring order.
    const auto cycle = gridCycle(par.tpX, par.tpY);
    for (int i = 0; i < strideRows; ++i) {
        for (int j = 0; j < strideCols; ++j) {
            std::vector<DeviceId> group;
            group.reserve(cycle.size());
            for (const auto &[s, t] : cycle) {
                group.push_back(
                    mesh.deviceAt(origin.row + i + s * strideRows,
                                  origin.col + j + t * strideCols));
            }
            groups.push_back(std::move(group));
        }
    }

    // FTDs: contiguous a×b blocks; block (p, q) holds exactly one
    // member of every TP group (one device per residue class).
    for (int p = 0; p < par.tpX; ++p) {
        for (int q = 0; q < par.tpY; ++q) {
            std::vector<DeviceId> ftd;
            ftd.reserve(static_cast<std::size_t>(strideRows * strideCols));
            for (int i = 0; i < strideRows; ++i)
                for (int j = 0; j < strideCols; ++j)
                    ftd.push_back(
                        mesh.deviceAt(origin.row + p * strideRows + i,
                                      origin.col + q * strideCols + j));
            ftds.push_back(std::move(ftd));
        }
    }
}

ErMapping::ErMapping(const MeshTopology &mesh, ParallelismConfig par)
    : Mapping(mesh)
{
    par.requireDivides(mesh.rows(), mesh.cols(), "ER-Mapping", "mesh");
    strideRows_ = mesh.rows() / par.tpX;
    strideCols_ = mesh.cols() / par.tpY;
    appendErTile(mesh, Coord{0, 0}, mesh.rows(), mesh.cols(), par,
                 tpGroups_, ftds_);
    finalize();

    // Each block holds one device per residue class, i.e. exactly one
    // member of every TP group: that member serves the block.
    assertFtdsHoldEachGroupOnce(dp(), "ER-Mapping");
    const auto groups = static_cast<std::size_t>(dp());
    memberInFtd_.resize(ftds_.size() * groups);
    for (std::size_t f = 0; f < ftds_.size(); ++f)
        for (const DeviceId d : ftds_[f])
            memberInFtd_[f * groups +
                         static_cast<std::size_t>(tpGroupOf(d))] = d;
}

DeviceId
ErMapping::sourceWithAllGather(int group, int, DeviceId expertDevice) const
{
    return memberInFtd_[static_cast<std::size_t>(ftdOf(expertDevice)) *
                            static_cast<std::size_t>(dp()) +
                        static_cast<std::size_t>(group)];
}

} // namespace moentwine
