#include "mapping/baseline_mapping.hh"

#include <algorithm>

#include "mapping/ring_order.hh"

namespace moentwine {

BaselineMapping::BaselineMapping(const MeshTopology &mesh,
                                 ParallelismConfig par)
    : Mapping(mesh), mesh_(mesh), par_(par)
{
    par.requireDivides(mesh.rows(), mesh.cols(), "baseline mapping",
                       "mesh");
    const int blocksX = mesh.rows() / par.tpX; // blocks along rows
    const int blocksY = mesh.cols() / par.tpY; // blocks along cols

    // TP groups: one per contiguous block, members in ring order.
    const auto cycle = gridCycle(par.tpX, par.tpY);
    for (int bx = 0; bx < blocksX; ++bx) {
        for (int by = 0; by < blocksY; ++by) {
            std::vector<DeviceId> group;
            group.reserve(cycle.size());
            for (const auto &[i, j] : cycle) {
                group.push_back(mesh.deviceAt(bx * par.tpX + i,
                                              by * par.tpY + j));
            }
            tpGroups_.push_back(std::move(group));
            blockOrigin_.push_back(Coord{bx * par.tpX, by * par.tpY});
        }
    }

    // FTDs: the devices at the same within-block offset in every block.
    for (int i = 0; i < par.tpX; ++i) {
        for (int j = 0; j < par.tpY; ++j) {
            std::vector<DeviceId> ftd;
            ftd.reserve(static_cast<std::size_t>(blocksX * blocksY));
            for (int bx = 0; bx < blocksX; ++bx)
                for (int by = 0; by < blocksY; ++by)
                    ftd.push_back(mesh.deviceAt(bx * par.tpX + i,
                                                by * par.tpY + j));
            ftds_.push_back(std::move(ftd));
        }
    }

    finalize();
}

DeviceId
BaselineMapping::sourceWithAllGather(int group, int,
                                     DeviceId expertDevice) const
{
    const Coord at = mesh_.coordOf(expertDevice);
    const Coord lo = blockOrigin_[static_cast<std::size_t>(group)];
    return mesh_.deviceAt(std::clamp(at.row, lo.row, lo.row + par_.tpX - 1),
                          std::clamp(at.col, lo.col, lo.col + par_.tpY - 1));
}

} // namespace moentwine
