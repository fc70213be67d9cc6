#include "balancer/placement.hh"

#include <algorithm>

#include "common/logging.hh"

namespace moentwine {

ExpertPlacement::ExpertPlacement(int numExperts, int numDevices,
                                 int shadowSlots)
    : numExperts_(numExperts),
      numDevices_(numDevices),
      shadowSlots_(shadowSlots)
{
    MOE_ASSERT(numExperts > 0, "placement needs at least one expert");
    MOE_ASSERT(numDevices > 0, "placement needs at least one device");
    MOE_ASSERT(shadowSlots >= 0, "negative shadow slot count");

    byDevice_.resize(static_cast<std::size_t>(numDevices));
    byExpert_.resize(static_cast<std::size_t>(numExperts));
    capacity_.resize(static_cast<std::size_t>(numDevices), 0);

    if (numExperts >= numDevices) {
        for (int e = 0; e < numExperts; ++e) {
            const DeviceId d = e % numDevices;
            byDevice_[static_cast<std::size_t>(d)].push_back(e);
            byExpert_[static_cast<std::size_t>(e)].push_back(d);
        }
    } else {
        for (DeviceId d = 0; d < numDevices; ++d) {
            const int e = d % numExperts;
            byDevice_[static_cast<std::size_t>(d)].push_back(e);
            byExpert_[static_cast<std::size_t>(e)].push_back(d);
        }
    }
    nativeByDevice_ = byDevice_;
    for (DeviceId d = 0; d < numDevices; ++d) {
        capacity_[static_cast<std::size_t>(d)] =
            static_cast<int>(byDevice_[static_cast<std::size_t>(d)]
                                 .size()) + shadowSlots;
    }
}

void
ExpertPlacement::addReplica(int expert, DeviceId d)
{
    MOE_ASSERT(expert >= 0 && expert < numExperts_,
               "addReplica: bad expert");
    MOE_ASSERT(d >= 0 && d < numDevices_, "addReplica: bad device");
    MOE_ASSERT(!hosts(d, expert), "device already hosts this expert");
    MOE_ASSERT(freeSlots(d) > 0, "no free shadow slot on device");
    if (tracksLoads()) {
        // The expert's per-replica share shrinks from L/n to L/(n+1):
        // existing replicas cool by the difference, the new host gains
        // the new share.
        const double load =
            trackedLoads_[static_cast<std::size_t>(expert)];
        const auto n = static_cast<double>(numReplicas(expert));
        const double newShare = load / (n + 1.0);
        for (const DeviceId r :
             byExpert_[static_cast<std::size_t>(expert)]) {
            heats_[static_cast<std::size_t>(r)] -=
                load / n - newShare;
            touchHeat(r);
        }
        heats_[static_cast<std::size_t>(d)] += newShare;
    }
    byDevice_[static_cast<std::size_t>(d)].push_back(expert);
    byExpert_[static_cast<std::size_t>(expert)].push_back(d);
    if (tracksLoads())
        touchHeat(d);
}

void
ExpertPlacement::removeReplica(int expert, DeviceId d)
{
    MOE_ASSERT(hosts(d, expert), "removeReplica: replica not present");
    MOE_ASSERT(numReplicas(expert) > 1,
               "cannot remove the last replica of an expert");
    MOE_ASSERT(!isNative(d, expert), "cannot remove a native replica");
    if (tracksLoads()) {
        // Inverse of addReplica: survivors warm from L/n to L/(n-1).
        const double load =
            trackedLoads_[static_cast<std::size_t>(expert)];
        const auto n = static_cast<double>(numReplicas(expert));
        const double oldShare = load / n;
        for (const DeviceId r :
             byExpert_[static_cast<std::size_t>(expert)]) {
            if (r != d) {
                heats_[static_cast<std::size_t>(r)] +=
                    load / (n - 1.0) - oldShare;
                touchHeat(r);
            }
        }
        heats_[static_cast<std::size_t>(d)] -= oldShare;
    }
    auto &experts = byDevice_[static_cast<std::size_t>(d)];
    experts.erase(std::find(experts.begin(), experts.end(), expert));
    auto &devices = byExpert_[static_cast<std::size_t>(expert)];
    devices.erase(std::find(devices.begin(), devices.end(), d));
    if (tracksLoads())
        touchHeat(d);
}

void
ExpertPlacement::resetToNative()
{
    byDevice_ = nativeByDevice_;
    for (auto &devices : byExpert_)
        devices.clear();
    for (DeviceId d = 0; d < numDevices_; ++d)
        for (const int e : byDevice_[static_cast<std::size_t>(d)])
            byExpert_[static_cast<std::size_t>(e)].push_back(d);
    if (tracksLoads())
        rebuildHeats();
}

bool
ExpertPlacement::deviceLost(DeviceId d) const
{
    MOE_ASSERT(d >= 0 && d < numDevices_, "deviceLost: bad device");
    return !lost_.empty() && lost_[static_cast<std::size_t>(d)] != 0;
}

std::vector<ExpertRehoming>
ExpertPlacement::markDeviceLost(DeviceId d)
{
    MOE_ASSERT(d >= 0 && d < numDevices_, "markDeviceLost: bad device");
    if (deviceLost(d))
        return {};
    if (lost_.empty())
        lost_.assign(static_cast<std::size_t>(numDevices_), 0);
    lost_[static_cast<std::size_t>(d)] = 1;

    // Drop every replica the dead device held; natives re-home below.
    for (const int e : byDevice_[static_cast<std::size_t>(d)]) {
        auto &devices = byExpert_[static_cast<std::size_t>(e)];
        devices.erase(std::find(devices.begin(), devices.end(), d));
    }
    byDevice_[static_cast<std::size_t>(d)].clear();
    capacity_[static_cast<std::size_t>(d)] = 0;

    std::vector<ExpertRehoming> rehomed;
    auto &natives = nativeByDevice_[static_cast<std::size_t>(d)];
    for (const int e : natives) {
        // Deterministic new native host: fewest hosted experts among
        // live non-holders, ties to the lowest device id.
        DeviceId target = -1;
        for (DeviceId c = 0; c < numDevices_; ++c) {
            if (lost_[static_cast<std::size_t>(c)] || hosts(c, e))
                continue;
            if (target < 0 ||
                byDevice_[static_cast<std::size_t>(c)].size() <
                    byDevice_[static_cast<std::size_t>(target)].size()) {
                target = c;
            }
        }
        if (target >= 0) {
            byDevice_[static_cast<std::size_t>(target)].push_back(e);
            byExpert_[static_cast<std::size_t>(e)].push_back(target);
        } else {
            // Every live device already replicates e: promote the
            // lowest-id live holder to native instead of duplicating.
            const auto &holders = byExpert_[static_cast<std::size_t>(e)];
            MOE_ASSERT(!holders.empty(),
                       "expert lost its last replica with the device");
            target = *std::min_element(holders.begin(), holders.end());
        }
        // Native assignments sit outside the shadow budget: grow the
        // target's capacity so its freeSlots() is unchanged (and
        // resetToNative() keeps balancer headroom intact). A holder
        // that is native for e already (E < D) needs neither.
        if (!isNative(target, e)) {
            nativeByDevice_[static_cast<std::size_t>(target)].push_back(e);
            capacity_[static_cast<std::size_t>(target)] += 1;
        }
        rehomed.push_back(ExpertRehoming{e, d, target});
    }
    natives.clear();
    if (tracksLoads())
        rebuildHeats();

    // Replica conservation, O(experts + devices + replicas) per loss:
    // every expert keeps a replica and none sits on a lost device.
    MOE_ASSERT(byDevice_[static_cast<std::size_t>(d)].empty(),
               "lost device still hosts experts");
    for (int e = 0; e < numExperts_; ++e) {
        const auto &holders = byExpert_[static_cast<std::size_t>(e)];
        MOE_ASSERT(!holders.empty(), "expert left without a replica");
        for (const DeviceId h : holders)
            MOE_ASSERT(!lost_[static_cast<std::size_t>(h)],
                       "replica left on a lost device");
    }
    return rehomed;
}

bool
ExpertPlacement::isNative(DeviceId d, int expert) const
{
    MOE_ASSERT(d >= 0 && d < numDevices_, "isNative: bad device");
    const auto &natives = nativeByDevice_[static_cast<std::size_t>(d)];
    return std::find(natives.begin(), natives.end(), expert) !=
           natives.end();
}

void
ExpertPlacement::setExpertLoads(const std::vector<double> &expertLoads)
{
    MOE_ASSERT(expertLoads.size() ==
                   static_cast<std::size_t>(numExperts_),
               "expert load vector width mismatch");
    trackedLoads_ = expertLoads;
    rebuildHeats();
}

void
ExpertPlacement::clearExpertLoads()
{
    trackedLoads_.clear();
    heats_.clear();
    hotTree_.clear();
    openTree_.clear();
}

void
ExpertPlacement::updateExpertLoad(int expert, double load)
{
    MOE_ASSERT(tracksLoads(), "updateExpertLoad without attached loads");
    MOE_ASSERT(expert >= 0 && expert < numExperts_,
               "updateExpertLoad: bad expert");
    double &tracked = trackedLoads_[static_cast<std::size_t>(expert)];
    const double perReplicaDelta =
        (load - tracked) / static_cast<double>(numReplicas(expert));
    for (const DeviceId r : byExpert_[static_cast<std::size_t>(expert)]) {
        heats_[static_cast<std::size_t>(r)] += perReplicaDelta;
        touchHeat(r);
    }
    tracked = load;
}

const std::vector<double> &
ExpertPlacement::heats() const
{
    MOE_ASSERT(tracksLoads(), "heats() without attached loads");
    return heats_;
}

DeviceId
ExpertPlacement::hottestDevice() const
{
    MOE_ASSERT(tracksLoads(), "hottestDevice() without attached loads");
    return hotTree_[1];
}

DeviceId
ExpertPlacement::coldestOpenDevice(int expert, DeviceId skip) const
{
    MOE_ASSERT(tracksLoads(), "coldestOpenDevice() without attached loads");
    return coldestOpenUnder(1, expert, skip);
}

DeviceId
ExpertPlacement::coldestOpenUnder(int node, int expert, DeviceId skip) const
{
    // A winner that qualifies is the subtree's answer; otherwise both
    // children are searched, so only the paths to excluded winners
    // (skip and the expert's holders) are ever expanded.
    const DeviceId w = openTree_[static_cast<std::size_t>(node)];
    if (w < 0 || (w != skip && !hosts(w, expert)))
        return w;
    if (node >= treeBase_)
        return -1;
    return colder(coldestOpenUnder(2 * node, expert, skip),
                  coldestOpenUnder(2 * node + 1, expert, skip));
}

DeviceId
ExpertPlacement::hotter(DeviceId a, DeviceId b) const
{
    if (a < 0 || b < 0)
        return a < 0 ? b : a;
    const double ha = heats_[static_cast<std::size_t>(a)];
    const double hb = heats_[static_cast<std::size_t>(b)];
    return hb > ha || (hb == ha && b < a) ? b : a;
}

DeviceId
ExpertPlacement::colder(DeviceId a, DeviceId b) const
{
    if (a < 0 || b < 0)
        return a < 0 ? b : a;
    const double ha = heats_[static_cast<std::size_t>(a)];
    const double hb = heats_[static_cast<std::size_t>(b)];
    return hb < ha || (hb == ha && b < a) ? b : a;
}

void
ExpertPlacement::touchHeat(DeviceId d)
{
    // Callers touch after every single-device change, so only d's path
    // can be stale. A node whose winners stay the same and are not d
    // feeds its ancestors exactly what it fed them before: stop there.
    auto i = static_cast<std::size_t>(treeBase_ + d);
    hotTree_[i] = d;
    openTree_[i] = freeSlots(d) > 0 ? d : -1;
    for (i /= 2; i >= 1; i /= 2) {
        const DeviceId hot = hotter(hotTree_[2 * i], hotTree_[2 * i + 1]);
        const DeviceId open =
            colder(openTree_[2 * i], openTree_[2 * i + 1]);
        if (hot == hotTree_[i] && open == openTree_[i] && hot != d &&
            open != d) {
            return;
        }
        hotTree_[i] = hot;
        openTree_[i] = open;
    }
}

void
ExpertPlacement::rebuildHeats()
{
    heats_.resize(static_cast<std::size_t>(numDevices_));
    for (DeviceId d = 0; d < numDevices_; ++d)
        heats_[static_cast<std::size_t>(d)] = heatOf(d, trackedLoads_);

    treeBase_ = 1;
    while (treeBase_ < numDevices_)
        treeBase_ *= 2;
    const auto leaves = static_cast<std::size_t>(treeBase_);
    hotTree_.assign(2 * leaves, -1);
    openTree_.assign(2 * leaves, -1);
    for (DeviceId d = 0; d < numDevices_; ++d) {
        hotTree_[leaves + static_cast<std::size_t>(d)] = d;
        if (freeSlots(d) > 0)
            openTree_[leaves + static_cast<std::size_t>(d)] = d;
    }
    for (std::size_t i = leaves - 1; i >= 1; --i) {
        hotTree_[i] = hotter(hotTree_[2 * i], hotTree_[2 * i + 1]);
        openTree_[i] = colder(openTree_[2 * i], openTree_[2 * i + 1]);
    }
}

double
ExpertPlacement::heatOf(DeviceId d, const std::vector<double> &loads) const
{
    double heat = 0.0;
    for (const int e : byDevice_[static_cast<std::size_t>(d)]) {
        heat += loads[static_cast<std::size_t>(e)] /
            static_cast<double>(numReplicas(e));
    }
    return heat;
}

std::vector<double>
ExpertPlacement::deviceHeats(const std::vector<double> &expertLoads) const
{
    MOE_ASSERT(expertLoads.size() ==
                   static_cast<std::size_t>(numExperts_),
               "expert load vector width mismatch");
    std::vector<double> heats(static_cast<std::size_t>(numDevices_), 0.0);
    for (DeviceId d = 0; d < numDevices_; ++d)
        heats[static_cast<std::size_t>(d)] = heatOf(d, expertLoads);
    return heats;
}

} // namespace moentwine
