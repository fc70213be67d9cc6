#include "mapping/mapping.hh"

#include "common/logging.hh"

namespace moentwine {

Mapping::Mapping(const Topology &topo)
    : topo_(topo), numDevices_(topo.numDevices())
{
}

void
Mapping::finalize()
{
    MOE_ASSERT(!tpGroups_.empty(), "mapping has no TP groups");
    MOE_ASSERT(!ftds_.empty(), "mapping has no FTDs");
    const auto n = static_cast<std::size_t>(numDevices());
    groupOf_.assign(n, -1);
    rankOf_.assign(n, -1);
    ftdIndexOf_.assign(n, -1);

    for (std::size_t g = 0; g < tpGroups_.size(); ++g) {
        for (std::size_t r = 0; r < tpGroups_[g].size(); ++r) {
            const DeviceId d = tpGroups_[g][r];
            MOE_ASSERT(d >= 0 && static_cast<std::size_t>(d) < n,
                       "TP group member out of range");
            MOE_ASSERT(groupOf_[static_cast<std::size_t>(d)] == -1,
                       "device appears in two TP groups");
            groupOf_[static_cast<std::size_t>(d)] = static_cast<int>(g);
            rankOf_[static_cast<std::size_t>(d)] = static_cast<int>(r);
        }
    }
    for (std::size_t f = 0; f < ftds_.size(); ++f) {
        for (const DeviceId d : ftds_[f]) {
            MOE_ASSERT(d >= 0 && static_cast<std::size_t>(d) < n,
                       "FTD member out of range");
            MOE_ASSERT(ftdIndexOf_[static_cast<std::size_t>(d)] == -1,
                       "device appears in two FTDs");
            ftdIndexOf_[static_cast<std::size_t>(d)] =
                static_cast<int>(f);
        }
    }
    for (std::size_t d = 0; d < n; ++d) {
        MOE_ASSERT(groupOf_[d] >= 0, "device missing from TP groups");
        MOE_ASSERT(ftdIndexOf_[d] >= 0, "device missing from FTDs");
    }
}

CollectiveTiming
Mapping::allReduce(double bytesPerGroup, bool withAllGather) const
{
    CollectiveScratch scratch(topo_);
    const double time =
        allReduceInto(bytesPerGroup, withAllGather, scratch);
    return CollectiveTiming{time, std::move(scratch.traffic)};
}

double
Mapping::allReduceInto(double bytesPerGroup, bool withAllGather,
                       CollectiveScratch &scratch) const
{
    return allReduceInto(topo_, bytesPerGroup, withAllGather, scratch);
}

double
Mapping::allReduceInto(const Topology &onTopo, double bytesPerGroup,
                       bool withAllGather,
                       CollectiveScratch &scratch) const
{
    return ringCollectiveInto(onTopo, tpGroups_, bytesPerGroup,
                              withAllGather ? RingOp::AllReduce
                                            : RingOp::ReduceScatter,
                              staggeredRings(), scratch);
}

double
Mapping::dispatchDedupFactor(DeviceId, DeviceId, int) const
{
    return 1.0;
}

void
Mapping::assertFtdsHoldEachGroupOnce(int groupsPerFtd,
                                     const std::string &who) const
{
    // seenIn[g]: the last FTD holding a member of group g.
    std::vector<int> seenIn(static_cast<std::size_t>(dp()), -1);
    for (std::size_t f = 0; f < ftds_.size(); ++f) {
        const int block = tpGroupOf(ftds_[f].front()) / groupsPerFtd;
        for (const DeviceId d : ftds_[f]) {
            const int g = tpGroupOf(d);
            auto &seen = seenIn[static_cast<std::size_t>(g)];
            MOE_ASSERT(ftds_[f].size() ==
                               static_cast<std::size_t>(groupsPerFtd) &&
                           g / groupsPerFtd == block &&
                           seen != static_cast<int>(f),
                       who + ": FTD " + std::to_string(f) +
                           " does not hold exactly one member of every "
                           "TP group");
            seen = static_cast<int>(f);
        }
    }
}

} // namespace moentwine
