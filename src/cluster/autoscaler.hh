/**
 * @file
 * Autoscaler: reactive replica-count control against the offered load.
 *
 * The fleet evaluates the autoscaler on a fixed virtual-time cadence.
 * The control signal is the mean of the router's
 * ReplicaPressure::outstanding() (queued + running requests) over the
 * admitting replicas — the same per-replica load the router reads, and
 * the quantity a diurnal arrival curve modulates directly. Crossing the high watermark wakes the
 * lowest-id parked replica (charged a configurable cold-start delay
 * before it becomes routable); crossing the low watermark drains the
 * highest-id admitting replica (it stops receiving dispatches,
 * finishes its in-flight work, then parks). The lowest-id admitting
 * replicas are therefore the stable core of the fleet, and scale
 * decisions are a pure function of the load signal sequence —
 * deterministic like everything else in the simulator.
 *
 * One decision per evaluation: scaling moves one replica at a time,
 * which bounds oscillation without a separate cooldown knob (the
 * evaluation period is the cooldown).
 */

#ifndef MOENTWINE_CLUSTER_AUTOSCALER_HH
#define MOENTWINE_CLUSTER_AUTOSCALER_HH

namespace moentwine {

/** Autoscaler configuration. */
struct AutoscalerConfig
{
    /** Master switch; disabled keeps the replica set static. */
    bool enabled = false;
    /** Virtual seconds between control evaluations. */
    double evalPeriodSec = 0.25;
    /** Cold-start delay: virtual seconds between waking a parked
     *  replica and it becoming routable. */
    double spinUpDelaySec = 0.5;
    /** Wake a parked replica above this mean outstanding per
     *  admitting replica. */
    double scaleUpThreshold = 8.0;
    /** Drain an admitting replica below this mean outstanding per
     *  admitting replica. */
    double scaleDownThreshold = 2.0;
    /** Admitting replicas the scaler never drains below. */
    int minReplicas = 1;
};

/** One control decision. */
enum class ScaleDecision
{
    Hold, ///< load inside the deadband (or no replica to move)
    Up,   ///< wake the lowest-id parked replica
    Down, ///< drain the highest-id admitting replica
};

/**
 * The control law. The fleet owns the replica state machine; this
 * class owns only the evaluation schedule and the threshold logic.
 */
class Autoscaler
{
  public:
    explicit Autoscaler(const AutoscalerConfig &cfg);

    bool enabled() const { return cfg_.enabled; }

    /** Virtual time of the next evaluation (infinity when disabled). */
    double nextEval() const { return nextEval_; }

    /**
     * Evaluate the control law at nextEval() and advance the schedule
     * by one period.
     * @param avgOutstanding Mean outstanding (queued + running)
     *                       requests per admitting replica.
     * @param admitting      Replicas currently accepting dispatches
     *                       (Active; Starting and Draining excluded).
     * @param wakeable       Parked replicas available to wake.
     * @param starting       Replicas already spinning up (a pending
     *                       start satisfies the up-pressure, so the
     *                       scaler holds instead of waking another).
     */
    ScaleDecision evaluate(double avgOutstanding, int admitting,
                           int wakeable, int starting);

    const AutoscalerConfig &config() const { return cfg_; }

  private:
    AutoscalerConfig cfg_;
    double nextEval_;
};

} // namespace moentwine

#endif // MOENTWINE_CLUSTER_AUTOSCALER_HH
