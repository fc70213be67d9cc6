#include "dispatch_reference.hh"

#include <tuple>

#include "common/logging.hh"
#include "mapping/baseline_mapping.hh"
#include "mapping/cluster_mapping.hh"
#include "mapping/er_mapping.hh"
#include "mapping/her_mapping.hh"
#include "topology/mesh.hh"
#include "topology/switch_cluster.hh"

namespace moentwine {
namespace reference {

namespace {

/** HER's mirror of @p d on @p wafer: same within-wafer coordinate. */
DeviceId
mirrorOn(const MeshTopology &mesh, DeviceId d, int wafer)
{
    const Coord c = mesh.coordOf(d);
    const int localRow = c.row % mesh.waferRows();
    const int localCol = c.col % mesh.waferCols();
    const int wgCols = mesh.spec().waferGridCols;
    return mesh.deviceAt(
        (wafer / wgCols) * mesh.waferRows() + localRow,
        (wafer % wgCols) * mesh.waferCols() + localCol);
}

/** A @p MappingT built with @p arg on an owned copy of @p topo. */
template <typename MappingT, typename TopologyT, typename Arg>
DispatchSystem
makeSystem(const std::string &label, TopologyT topo, Arg arg)
{
    auto owned = std::make_unique<TopologyT>(std::move(topo));
    auto mapping = std::make_unique<MappingT>(*owned, arg);
    return DispatchSystem{label, std::move(owned), std::move(mapping)};
}

} // namespace

DeviceId
nearestGroupMember(const Mapping &mapping, int group, DeviceId to,
                   bool confineToFtd)
{
    MOE_ASSERT(group >= 0 && group < mapping.dp(), "bad TP group index");
    const auto &members =
        mapping.tpGroups()[static_cast<std::size_t>(group)];
    const int targetFtd = mapping.ftdOf(to);
    if (confineToFtd) {
        for (const DeviceId m : members)
            if (mapping.ftdOf(m) == targetFtd)
                return m;
        // No group member in the destination's FTD; fall through to
        // nearest.
    }
    // Rank members by hop count; ties prefer the member sharing the
    // target's FTD, then the lower id.
    auto rank = [&](DeviceId m) {
        return std::tuple<int, int, DeviceId>(
            mapping.topology().hops(m, to),
            mapping.ftdOf(m) == targetFtd ? 0 : 1, m);
    };
    DeviceId best = members.front();
    auto bestRank = rank(best);
    for (const DeviceId m : members) {
        const auto r = rank(m);
        if (r < bestRank) {
            best = m;
            bestRank = r;
        }
    }
    return best;
}

DeviceId
dispatchSource(const Mapping &mapping, int group, int rank,
               DeviceId expertDevice, bool allGatherRetained)
{
    MOE_ASSERT(group >= 0 && group < mapping.dp(), "bad TP group index");
    const auto &members =
        mapping.tpGroups()[static_cast<std::size_t>(group)];
    MOE_ASSERT(rank >= 0 && static_cast<std::size_t>(rank) <
                   members.size(),
               "bad shard rank");
    const DeviceId owner = members[static_cast<std::size_t>(rank)];
    if (!allGatherRetained)
        return owner;
    if (const auto *her =
            dynamic_cast<const HierarchicalErMapping *>(&mapping)) {
        return mirrorOn(her->mesh(), owner,
                        her->mesh().waferOf(expertDevice));
    }
    const bool confine =
        dynamic_cast<const ErMapping *>(&mapping) != nullptr;
    return nearestGroupMember(mapping, group, expertDevice, confine);
}

std::vector<DispatchSystem>
dispatchSystems()
{
    const ParallelismConfig tp2x2{2, 2};
    std::vector<DispatchSystem> out;
    out.push_back(makeSystem<ErMapping>(
        "er_4x4_tp2x2", MeshTopology::singleWafer(4), tp2x2));
    out.push_back(makeSystem<ErMapping>(
        "er_8x8_tp2x2", MeshTopology::singleWafer(8), tp2x2));
    out.push_back(makeSystem<ErMapping>("er_8x8_tp4x2",
                                        MeshTopology::singleWafer(8),
                                        ParallelismConfig{4, 2}));
    out.push_back(makeSystem<BaselineMapping>(
        "baseline_4x4_tp2x2", MeshTopology::singleWafer(4), tp2x2));
    out.push_back(makeSystem<BaselineMapping>(
        "baseline_8x8_tp2x2", MeshTopology::singleWafer(8), tp2x2));
    out.push_back(makeSystem<BaselineMapping>(
        "baseline_2x8x8_tp2x2", MeshTopology::waferRow(2, 8), tp2x2));
    out.push_back(makeSystem<HierarchicalErMapping>(
        "her_2x8x8_tp2x2", MeshTopology::waferRow(2, 8), tp2x2));
    out.push_back(makeSystem<ClusterMapping>(
        "dgx2_tp4", SwitchClusterTopology::dgx(2), 4));
    out.push_back(makeSystem<ClusterMapping>(
        "dgx2_tp16", SwitchClusterTopology::dgx(2), 16));
    out.push_back(makeSystem<ClusterMapping>(
        "dgx3_tp6", SwitchClusterTopology::dgx(3), 6));
    out.push_back(makeSystem<ClusterMapping>(
        "nvl72_tp4", SwitchClusterTopology::nvl72(), 4));
    return out;
}

} // namespace reference
} // namespace moentwine
