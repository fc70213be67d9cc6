/**
 * @file
 * FaultInjector: applies a validated FaultPlan to a base topology at
 * iteration boundaries and exposes the resulting degraded state.
 *
 * The injector owns the FaultTopology overlay (built lazily on the
 * first link event; topology() serves the base until then) and the
 * per-device straggler/lost state. advanceTo(iteration) applies every
 * not-yet-applied event stamped <= iteration, in plan order, and is
 * idempotent. Its clock is the serving scheduler's iteration index:
 * ServeLoop, its one caller, advances it before admission. The engine
 * reacts to the resulting *state* (appliedEvents(), topologyEpoch(),
 * lostDevices()) in its next step() and never advances the plan.
 *
 * Device loss (NodeFail, or isolation by link failures) is monotone:
 * restored links return capacity, but a drained device stays lost.
 */

#ifndef MOENTWINE_FAULT_FAULT_INJECTOR_HH
#define MOENTWINE_FAULT_FAULT_INJECTOR_HH

#include <memory>
#include <vector>

#include "fault/fault_plan.hh"
#include "fault/fault_topology.hh"
#include "obs/stat_registry.hh"

namespace moentwine {

class FaultInjector
{
  public:
    /**
     * Validate @p plan against @p base (fatal on malformed plans) and
     * start with no events applied. @p base must outlive the injector.
     */
    FaultInjector(const Topology &base, FaultPlan plan);

    /** True for the no-fault fast path (consumers bypass entirely). */
    bool empty() const { return plan_.empty(); }

    /** The plan this injector applies. */
    const FaultPlan &plan() const { return plan_; }

    /** The pristine topology the overlay shadows. */
    const Topology &baseTopology() const { return *base_; }

    /**
     * The topology consumers should route over: the degraded overlay
     * once any link event has applied, the base before that.
     */
    const Topology &topology() const
    {
        return overlay_ ? static_cast<const Topology &>(*overlay_)
                        : *base_;
    }

    /**
     * Apply all unapplied events stamped <= @p iteration (in plan
     * order; link reroutes rebuild once per boundary, after the
     * boundary's last link event). Idempotent per iteration.
     * @return Number of events applied by THIS call.
     */
    int advanceTo(int iteration);

    /** Total events applied so far. */
    int appliedEvents() const { return static_cast<int>(nextEvent_); }

    /**
     * Bumped every time link state (and hence routing or bandwidth)
     * changes. Consumers compare against their last-seen value to know
     * when to retarget traffic accumulators onto topology().
     */
    int topologyEpoch() const { return topologyEpoch_; }

    /** Straggler compute-time multiplier of a device (1 = nominal). */
    double computeFactor(DeviceId d) const
    {
        return computeFactor_[static_cast<std::size_t>(d)];
    }

    /** Max straggler factor over live devices (lockstep TP bound). */
    double maxLiveComputeFactor() const;

    /** True once the device failed or was isolated (monotone). */
    bool deviceLost(DeviceId d) const
    {
        return lost_[static_cast<std::size_t>(d)] != 0;
    }

    /** Lost devices in the order they were lost (stable, append-only). */
    const std::vector<DeviceId> &lostDevices() const { return lostList_; }

    /** Devices not lost. */
    int liveDeviceCount() const
    {
        return base_->numDevices() - static_cast<int>(lostList_.size());
    }

    /** Live fraction of the fleet, in (0, 1]. */
    double liveFraction() const
    {
        return static_cast<double>(liveDeviceCount()) /
            static_cast<double>(base_->numDevices());
    }

    /** Reachability on the current topology (true fault-free). */
    bool reachable(DeviceId src, DeviceId dst) const
    {
        return overlay_ ? overlay_->reachable(src, dst) : true;
    }

    /**
     * Attach a stat registry (src/obs/): "fault.events_applied",
     * "fault.link_reroutes" (topology-epoch bumps) and
     * "fault.devices_lost" publish as events apply. Must be attached
     * before the first advanceTo(); null detaches. Publication never
     * changes fault state.
     */
    void attachStats(StatRegistry *stats);

  private:
    FaultTopology &ensureOverlay();
    void markLost(DeviceId d);

    const Topology *base_;
    FaultPlan plan_;
    std::size_t nextEvent_ = 0;
    int topologyEpoch_ = 0;
    std::unique_ptr<FaultTopology> overlay_;
    std::vector<double> computeFactor_;
    std::vector<char> lost_;
    std::vector<DeviceId> lostList_;

    // Observability (null = no-op path).
    StatRegistry *stats_ = nullptr;
    StatRegistry::Handle statEvents_;
    StatRegistry::Handle statReroutes_;
    StatRegistry::Handle statLost_;
};

} // namespace moentwine

#endif // MOENTWINE_FAULT_FAULT_INJECTOR_HH
