#include "mapping/er_mapping.hh"

#include "common/logging.hh"
#include "mapping/ring_order.hh"

namespace moentwine {

ErMapping::ErMapping(const MeshTopology &mesh, ParallelismConfig par)
    : Mapping(mesh), mesh_(mesh), par_(par)
{
    const int rows = mesh.rows();
    const int cols = mesh.cols();
    if (rows % par.tpX != 0 || cols % par.tpY != 0) {
        fatal("ER-Mapping: TP shape " + par.label() +
              " does not divide the " + std::to_string(rows) + "x" +
              std::to_string(cols) + " mesh");
    }
    strideRows_ = rows / par.tpX; // a in the paper's algorithm
    strideCols_ = cols / par.tpY; // b

    // TP groups: residue classes (i, j) mod (a, b); members at
    // (i + s·a, j + t·b) visited in entwined-ring order.
    const auto cycle = gridCycle(par.tpX, par.tpY);
    for (int i = 0; i < strideRows_; ++i) {
        for (int j = 0; j < strideCols_; ++j) {
            std::vector<DeviceId> group;
            group.reserve(cycle.size());
            for (const auto &[s, t] : cycle) {
                group.push_back(mesh.deviceAt(i + s * strideRows_,
                                              j + t * strideCols_));
            }
            tpGroups_.push_back(std::move(group));
        }
    }

    // FTDs: contiguous a×b blocks; block (p, q) holds exactly one
    // member of every TP group (one device per residue class).
    for (int p = 0; p < par.tpX; ++p) {
        for (int q = 0; q < par.tpY; ++q) {
            std::vector<DeviceId> ftd;
            ftd.reserve(
                static_cast<std::size_t>(strideRows_ * strideCols_));
            for (int i = 0; i < strideRows_; ++i)
                for (int j = 0; j < strideCols_; ++j)
                    ftd.push_back(mesh.deviceAt(p * strideRows_ + i,
                                                q * strideCols_ + j));
            ftds_.push_back(std::move(ftd));
        }
    }

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
