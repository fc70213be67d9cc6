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
    byDevice_[static_cast<std::size_t>(d)].push_back(expert);
    byExpert_[static_cast<std::size_t>(expert)].push_back(d);
}

void
ExpertPlacement::removeReplica(int expert, DeviceId d)
{
    MOE_ASSERT(hosts(d, expert), "removeReplica: replica not present");
    MOE_ASSERT(numReplicas(expert) > 1,
               "cannot remove the last replica of an expert");
    MOE_ASSERT(!isNative(d, expert), "cannot remove a native replica");
    auto &experts = byDevice_[static_cast<std::size_t>(d)];
    experts.erase(std::find(experts.begin(), experts.end(), expert));
    auto &devices = byExpert_[static_cast<std::size_t>(expert)];
    devices.erase(std::find(devices.begin(), devices.end(), d));
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

} // namespace moentwine
