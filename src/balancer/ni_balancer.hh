/**
 * @file
 * Non-invasive Balancer (NI-Balancer, Section V of the paper).
 *
 * NI-Balancer plans migrations with the topology-aware Algorithm 1 but
 * never executes them on the critical path. Each planned weight copy is
 * decomposed along its mesh route into alternating segments:
 *  - *local* segments (links whose endpoints share an FTD) drain during
 *    the attention phase, when all-reduce traffic leaves intra-FTD
 *    links cold;
 *  - *global* segments (links crossing FTDs) drain during the MoE
 *    phase, when all-to-all traffic is confined within FTDs and the
 *    inter-FTD links idle (Fig. 11).
 *
 * Every phase the engine reports the phase's traffic heatmap and time
 * window; pending migrations consume only each link's *idle* byte
 * budget (bandwidth × window − phase volume), shared first-come
 * first-served. Bytes progress store-and-forward through the segment
 * chain, and a migration activates its replica only once the final
 * segment has delivered all bytes — so balancing is slightly delayed
 * but costs zero iteration latency.
 *
 * Planning re-plans the live placement in place, draining reuses a
 * links-sized budget array reset through the links it touched, and a
 * newly enqueued migration takes over the buffers of a completed one,
 * so a steady-state step allocates nothing.
 */

#ifndef MOENTWINE_BALANCER_NI_BALANCER_HH
#define MOENTWINE_BALANCER_NI_BALANCER_HH

#include <string>
#include <vector>

#include "balancer/balancer.hh"
#include "balancer/placement.hh"
#include "mapping/mapping.hh"
#include "network/traffic.hh"

namespace moentwine {

/**
 * Hidden multi-step expert migration scheduler.
 */
class NiBalancer
{
  public:
    /**
     * @param mapping     Mapping providing FTD structure and topology.
     * @param expertBytes Weight bytes of one expert.
     */
    NiBalancer(const Mapping &mapping, double expertBytes);

    /** Balancer name for bench output. */
    std::string name() const { return "Non-invasive"; }

    /**
     * Re-plan the target placement (Algorithm 1) and enqueue the weight
     * copies as pending hidden migrations. The placement is updated
     * immediately for dropped stale replicas and for copies that need
     * no transfer; replicas requiring weight movement activate later,
     * as their transfers complete.
     *
     * @return Number of new migrations enqueued.
     */
    int plan(const std::vector<double> &expertLoads,
             ExpertPlacement &placement);

    /**
     * Drain local segments during an attention phase.
     *
     * @param traffic   All-reduce traffic of the phase.
     * @param window    Phase duration (seconds).
     * @param placement Placement to activate completed replicas in.
     * @return Migrations completed during this phase.
     */
    int advanceAttention(const PhaseTraffic &traffic, double window,
                         ExpertPlacement &placement);

    /** Drain global segments during a MoE phase. @sa advanceAttention */
    int advanceMoe(const PhaseTraffic &traffic, double window,
                   ExpertPlacement &placement);

    /** Migrations still in flight. */
    std::size_t pendingCount() const { return pending_.size(); }

    /** Total bytes moved invisibly so far. */
    double hiddenBytesMoved() const { return hiddenBytes_; }

  private:
    /** One contiguous run of same-class links along a migration route:
     *  the route's links [begin, end). */
    struct Segment
    {
        std::size_t begin;
        std::size_t end;
        bool local; ///< true: intra-FTD (attention window)
    };

    /** A migration in flight. */
    struct Pending
    {
        MigrationStep step;
        /** The route's links, in order. */
        std::vector<LinkId> links;
        std::vector<Segment> segments;
        /** Bytes delivered through the *end* of each segment. */
        std::vector<double> delivered;
    };

    /** Enqueue @p step, reusing a completed migration's buffers. */
    void enqueue(const MigrationStep &step);

    /** Decompose the route of @p p's step into alternating local/global
     *  segments, refilling @p p's links and segments. */
    void decompose(Pending &p) const;

    /** Shared draining logic for the two phase kinds. */
    int advance(const PhaseTraffic &traffic, double window, bool local,
                ExpertPlacement &placement);

    const Mapping &mapping_;
    double expertBytes_;
    TopologyAwareBalancer planner_;
    // Migrations in flight, in enqueue order: advance() shares link
    // budgets first come, first served.
    std::vector<Pending> pending_;
    // Completed migrations, kept for their buffers.
    std::vector<Pending> spare_;
    double hiddenBytes_ = 0.0;
    // Idle byte budget per link within one advance() (-1: not yet
    // read), and the links read so far, for resetting.
    std::vector<double> budget_;
    std::vector<LinkId> touched_;
};

} // namespace moentwine

#endif // MOENTWINE_BALANCER_NI_BALANCER_HH
