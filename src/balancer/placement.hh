/**
 * @file
 * Expert placement: which devices host which expert replicas.
 *
 * Every device owns its *native* experts (assigned round-robin at load
 * time) plus a fixed number of *shadow slots* that balancers fill with
 * replicas of popular experts (Fig. 7(a) of the paper). Tokens routed
 * to an expert are split evenly across its replicas, so a device's
 * heat is Σ Load_e / Num_e over the experts it hosts (Algorithm 1).
 *
 * While loads are attached (setExpertLoads()), two tournament trees
 * index the tracked heats for Algorithm 1's per-round queries. Both
 * break heat ties toward the lowest device id:
 *  - hottestDevice() reads the max tree in O(1) and returns exactly
 *    what std::max_element over heats() returns;
 *  - coldestOpenDevice() walks the min tree over devices with a free
 *    slot in O((1 + excluded) · log devices).
 * Every heat write updates its leaf in O(log devices); the trees only
 * index the heat doubles, they never recompute them.
 */

#ifndef MOENTWINE_BALANCER_PLACEMENT_HH
#define MOENTWINE_BALANCER_PLACEMENT_HH

#include <algorithm>
#include <vector>

#include "common/logging.hh"
#include "topology/topology.hh"

namespace moentwine {

/** One native re-assignment produced by ExpertPlacement::markDeviceLost. */
struct ExpertRehoming
{
    int expert;
    /** The lost device that natively hosted the expert. */
    DeviceId from;
    /** The live device now natively hosting it. */
    DeviceId to;
};

/**
 * Mutable expert→device replica assignment with shadow-slot capacity.
 */
class ExpertPlacement
{
  public:
    /**
     * Round-robin native placement.
     *
     * When experts ≥ devices, expert e lives natively on device
     * e mod D (multiple experts per device — the E/D > 1 regime).
     * When devices > experts, device d natively hosts expert d mod E,
     * so popular experts start with several replicas (E/D < 1).
     *
     * @param numExperts  Routed experts per layer.
     * @param numDevices  Devices participating in EP.
     * @param shadowSlots Extra replica slots per device.
     */
    ExpertPlacement(int numExperts, int numDevices, int shadowSlots);

    /** Number of routed experts. */
    int numExperts() const { return numExperts_; }

    /** Number of devices. */
    int numDevices() const { return numDevices_; }

    /** Shadow slots per device. */
    int shadowSlots() const { return shadowSlots_; }

    /** Expert ids hosted by a device (native + shadow). */
    const std::vector<int> &expertsOn(DeviceId d) const;

    /** Devices holding a replica of an expert. */
    const std::vector<DeviceId> &replicasOf(int expert) const;

    /** Replica count of an expert (Num_e in Algorithm 1). */
    int numReplicas(int expert) const;

    /** True when the device currently hosts the expert. */
    bool hosts(DeviceId d, int expert) const;

    /** Remaining shadow-slot capacity of a device. */
    int freeSlots(DeviceId d) const;

    /** Add a replica; panics when the device lacks a free slot. */
    void addReplica(int expert, DeviceId d);

    /**
     * Remove a shadow replica. Panics when removing the last replica
     * of an expert or a replica that does not exist.
     */
    void removeReplica(int expert, DeviceId d);

    /** Drop all shadow replicas, returning to the native placement. */
    void resetToNative();

    /** True when (d, expert) is a native (non-evictable) assignment. */
    bool isNative(DeviceId d, int expert) const;

    /**
     * Take a device out of service permanently (fault layer). Every
     * replica on it is dropped, its shadow capacity goes to zero (so
     * freeSlots() keeps balancers away), and each of its native
     * experts is re-homed deterministically: the new native host is
     * the live device hosting the fewest experts (ties to the lowest
     * id) that does not already hold a replica — or, when every live
     * device holds one, the lowest-id live replica is promoted to
     * native. The adjusted assignment IS the native placement from now
     * on: resetToNative() never resurrects a lost device. Idempotent.
     *
     * @return The native re-assignments, in expert order (empty on a
     *         repeat call). The engine charges recovery traffic for
     *         these.
     */
    std::vector<ExpertRehoming> markDeviceLost(DeviceId d);

    /** True once markDeviceLost(d) has run. */
    bool deviceLost(DeviceId d) const;

    /**
     * Device heats given per-expert loads: Heat_d = Σ Load_e / Num_e
     * over experts hosted by d. Recomputed from scratch in
     * O(devices × experts); hot callers should attach loads with
     * setExpertLoads() and read the incrementally maintained heats().
     */
    std::vector<double> deviceHeats(
        const std::vector<double> &expertLoads) const;

    /**
     * Attach per-expert loads and (re)build the tracked heat vector.
     * While loads are attached, every placement mutation (addReplica,
     * removeReplica, resetToNative) and every updateExpertLoad() call
     * maintains heats() and the trees incrementally in
     * O(replicas of the changed expert × log devices) — the Algorithm 1
     * inner loop no longer pays the O(devices × experts) recompute per
     * round.
     */
    void setExpertLoads(const std::vector<double> &expertLoads);

    /** Stop tracking loads (heats() becomes unavailable). */
    void clearExpertLoads();

    /** True while setExpertLoads() is in effect. */
    bool tracksLoads() const { return !trackedLoads_.empty(); }

    /**
     * Update one expert's tracked load in
     * O(replicas of that expert × log devices).
     */
    void updateExpertLoad(int expert, double load);

    /** Incrementally maintained heats for the attached loads. */
    const std::vector<double> &heats() const;

    /**
     * Device of maximum tracked heat, ties to the lowest id (the
     * std::max_element answer). O(1); needs attached loads.
     */
    DeviceId hottestDevice() const;

    /**
     * Device of minimum tracked heat, ties to the lowest id, among
     * devices with a free slot that are not @p skip and do not host
     * @p expert; -1 when there is none. Needs attached loads.
     */
    DeviceId coldestOpenDevice(int expert, DeviceId skip) const;

    /**
     * Per-device routed token counts for the given per-expert loads
     * (loads split evenly across replicas — identical to heats, kept
     * as an alias for intent-revealing call sites).
     */
    std::vector<double> deviceLoads(
        const std::vector<double> &expertLoads) const
    {
        return deviceHeats(expertLoads);
    }

  private:
    int numExperts_;
    int numDevices_;
    int shadowSlots_;
    /** Σ load / replicas over the experts hosted by @p d. */
    double heatOf(DeviceId d, const std::vector<double> &loads) const;
    /** Rebuild heats_ and both trees from the tracked loads. */
    void rebuildHeats();
    /**
     * Re-seat device @p d's leaf after its heat or slots changed; call
     * once per changed device, before changing the next.
     */
    void touchHeat(DeviceId d);
    /** Tree winners: the hotter / colder of two devices (-1 = none). */
    DeviceId hotter(DeviceId a, DeviceId b) const;
    DeviceId colder(DeviceId a, DeviceId b) const;
    /** coldestOpenDevice() below tree node @p node. */
    DeviceId coldestOpenUnder(int node, int expert, DeviceId skip) const;

    std::vector<std::vector<int>> byDevice_;
    std::vector<std::vector<DeviceId>> byExpert_;
    std::vector<int> capacity_;
    std::vector<std::vector<int>> nativeByDevice_;
    // Devices retired by markDeviceLost(); empty until faults strike.
    std::vector<char> lost_;
    // Attached per-expert loads and the incrementally maintained
    // per-device heats; both empty while no loads are attached.
    std::vector<double> trackedLoads_;
    std::vector<double> heats_;
    // Tournament trees over heats_, built with it: device d's leaf is
    // node treeBase_ + d, node i plays 2i against 2i + 1, and each node
    // holds its winning device (-1: none). hotTree_ is the max over all
    // devices; openTree_ the min over devices with a free slot.
    int treeBase_ = 0;
    std::vector<DeviceId> hotTree_;
    std::vector<DeviceId> openTree_;
};

// The accessors Algorithm 1 calls per device and round, inline.

inline const std::vector<int> &
ExpertPlacement::expertsOn(DeviceId d) const
{
    MOE_ASSERT(d >= 0 && d < numDevices_, "expertsOn: bad device");
    return byDevice_[static_cast<std::size_t>(d)];
}

inline const std::vector<DeviceId> &
ExpertPlacement::replicasOf(int expert) const
{
    MOE_ASSERT(expert >= 0 && expert < numExperts_,
               "replicasOf: bad expert");
    return byExpert_[static_cast<std::size_t>(expert)];
}

inline int
ExpertPlacement::numReplicas(int expert) const
{
    return static_cast<int>(replicasOf(expert).size());
}

inline bool
ExpertPlacement::hosts(DeviceId d, int expert) const
{
    const auto &experts = expertsOn(d);
    return std::find(experts.begin(), experts.end(), expert) !=
           experts.end();
}

inline int
ExpertPlacement::freeSlots(DeviceId d) const
{
    MOE_ASSERT(d >= 0 && d < numDevices_, "freeSlots: bad device");
    return capacity_[static_cast<std::size_t>(d)] -
           static_cast<int>(byDevice_[static_cast<std::size_t>(d)].size());
}

} // namespace moentwine

#endif // MOENTWINE_BALANCER_PLACEMENT_HH
