#include "mapping/her_mapping.hh"

#include "common/logging.hh"
#include "mapping/er_mapping.hh"
#include "mapping/ring_order.hh"

namespace moentwine {

HierarchicalErMapping::HierarchicalErMapping(const MeshTopology &mesh,
                                             ParallelismConfig par)
    : Mapping(mesh), mesh_(mesh), par_(par)
{
    const int wr = mesh.waferRows();
    const int wc = mesh.waferCols();
    if (wr % par.tpX != 0 || wc % par.tpY != 0) {
        fatal("HER-Mapping: TP shape " + par.label() +
              " does not divide the " + std::to_string(wr) + "x" +
              std::to_string(wc) + " wafer");
    }
    const int strideRows = wr / par.tpX;
    const int strideCols = wc / par.tpY;

    // Per-wafer ER placement: strided TP groups and block FTDs, offset
    // into each wafer tile of the global mesh.
    const auto cycle = gridCycle(par.tpX, par.tpY);
    for (int w = 0; w < mesh.numWafers(); ++w) {
        const auto devs = mesh.waferDevices(w);
        const Coord origin = mesh.coordOf(devs.front());
        for (int i = 0; i < strideRows; ++i) {
            for (int j = 0; j < strideCols; ++j) {
                std::vector<DeviceId> group;
                group.reserve(cycle.size());
                for (const auto &[s, t] : cycle) {
                    group.push_back(mesh.deviceAt(
                        origin.row + i + s * strideRows,
                        origin.col + j + t * strideCols));
                }
                tpGroups_.push_back(std::move(group));
            }
        }
        for (int p = 0; p < par.tpX; ++p) {
            for (int q = 0; q < par.tpY; ++q) {
                std::vector<DeviceId> ftd;
                ftd.reserve(
                    static_cast<std::size_t>(strideRows * strideCols));
                for (int i = 0; i < strideRows; ++i)
                    for (int j = 0; j < strideCols; ++j)
                        ftd.push_back(mesh.deviceAt(
                            origin.row + p * strideRows + i,
                            origin.col + q * strideCols + j));
                ftds_.push_back(std::move(ftd));
            }
        }
    }

    // Inter-wafer all-gather rings: the devices at each within-wafer
    // position across all wafers, in wafer order. The mirror tables
    // hold the same data flat, plus each device's position and wafer.
    const auto perWafer = static_cast<std::size_t>(mesh.devicesPerWafer());
    const auto wafers = static_cast<std::size_t>(mesh.numWafers());
    localOf_.resize(perWafer * wafers);
    waferOf_.resize(perWafer * wafers);
    mirror_.resize(perWafer * wafers);
    interRings_.assign(perWafer, std::vector<DeviceId>(wafers));
    for (std::size_t w = 0; w < wafers; ++w) {
        const auto devs = mesh.waferDevices(static_cast<int>(w));
        for (std::size_t local = 0; local < perWafer; ++local) {
            const auto d = static_cast<std::size_t>(devs[local]);
            localOf_[d] = static_cast<int>(local);
            waferOf_[d] = static_cast<int>(w);
            mirror_[local * wafers + w] = interRings_[local][w] = devs[local];
        }
    }

    finalize();
    assertFtdsHoldEachGroupOnce(strideRows * strideCols, "HER-Mapping");
}

double
HierarchicalErMapping::allReduceInto(const Topology &onTopo,
                                     double bytesPerGroup,
                                     bool withAllGather,
                                     CollectiveScratch &scratch) const
{
    if (!withAllGather || mesh_.numWafers() == 1) {
        // Single wafer degenerates to plain entwined-ring all-reduce.
        return Mapping::allReduceInto(onTopo, bytesPerGroup,
                                      withAllGather, scratch);
    }
    return hierarchicalAllReduceInto(onTopo, tpGroups_, interRings_,
                                     bytesPerGroup, scratch);
}

DeviceId
HierarchicalErMapping::sourceWithAllGather(int group, int rank,
                                           DeviceId expertDevice) const
{
    // After the inter-wafer all-gather, the shard is replicated on the
    // owner's mirror of every wafer; serve from the expert's wafer.
    const DeviceId owner = tpGroups_[static_cast<std::size_t>(group)]
                                    [static_cast<std::size_t>(rank)];
    return mirrorAt(localOf_[static_cast<std::size_t>(owner)],
                    waferOf_[static_cast<std::size_t>(expertDevice)]);
}

DeviceId
HierarchicalErMapping::mirrorOn(DeviceId d, int wafer) const
{
    MOE_ASSERT(d >= 0 && d < numDevices(), "mirrorOn: bad device");
    MOE_ASSERT(wafer >= 0 && wafer < mesh_.numWafers(),
               "mirrorOn: bad wafer");
    return mirrorAt(localOf_[static_cast<std::size_t>(d)], wafer);
}

} // namespace moentwine
