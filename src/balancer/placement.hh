/**
 * @file
 * Expert placement: which devices host which expert replicas.
 *
 * Every device owns its *native* experts (assigned round-robin at load
 * time) plus a fixed number of *shadow slots* that balancers fill with
 * replicas of popular experts (Fig. 7(a) of the paper). Tokens routed
 * to an expert are split evenly across its replicas.
 *
 * The placement knows nothing of loads: device heats (Algorithm 1's
 * Σ Load_e / Num_e) and the heat trees the planner queries belong to
 * the balancer module (balancer.hh: deviceHeats(), HeatIndex).
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

  private:
    int numExperts_;
    int numDevices_;
    int shadowSlots_;
    std::vector<std::vector<int>> byDevice_;
    std::vector<std::vector<DeviceId>> byExpert_;
    std::vector<int> capacity_;
    std::vector<std::vector<int>> nativeByDevice_;
    // Devices retired by markDeviceLost(); empty until faults strike.
    std::vector<char> lost_;
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
