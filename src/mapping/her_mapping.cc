#include "mapping/her_mapping.hh"

#include "common/logging.hh"
#include "mapping/er_mapping.hh"

namespace moentwine {

HierarchicalErMapping::HierarchicalErMapping(const MeshTopology &mesh,
                                             ParallelismConfig par)
    : Mapping(mesh), mesh_(mesh)
{
    const int wr = mesh.waferRows();
    const int wc = mesh.waferCols();
    par.requireDivides(wr, wc, "HER-Mapping", "wafer");

    // Each wafer is ER-mapped from its top-left device. The devices at
    // each within-wafer position across all wafers, in wafer order,
    // form the inter-wafer all-gather rings; the mirror tables hold the
    // same data flat, plus each device's position and wafer.
    const auto perWafer = static_cast<std::size_t>(mesh.devicesPerWafer());
    const auto wafers = static_cast<std::size_t>(mesh.numWafers());
    localOf_.resize(perWafer * wafers);
    waferOf_.resize(perWafer * wafers);
    mirror_.resize(perWafer * wafers);
    interRings_.assign(perWafer, std::vector<DeviceId>(wafers));
    for (std::size_t w = 0; w < wafers; ++w) {
        const auto devs = mesh.waferDevices(static_cast<int>(w));
        appendErTile(mesh, mesh.coordOf(devs.front()), wr, wc, par,
                     tpGroups_, ftds_);
        for (std::size_t local = 0; local < perWafer; ++local) {
            const auto d = static_cast<std::size_t>(devs[local]);
            localOf_[d] = static_cast<int>(local);
            waferOf_[d] = static_cast<int>(w);
            mirror_[local * wafers + w] = interRings_[local][w] = devs[local];
        }
    }

    finalize();
    assertFtdsHoldEachGroupOnce((wr / par.tpX) * (wc / par.tpY),
                                "HER-Mapping");
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
