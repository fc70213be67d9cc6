/**
 * @file
 * Online arrival processes for the request-level serving simulator.
 *
 * Four stream shapes cover the serving transients the balancers are
 * evaluated against:
 *  - Poisson: memoryless arrivals at a constant offered rate;
 *  - Bursty: a two-state MMPP (Markov-modulated Poisson process) that
 *    alternates exponentially-dwelling burst and quiet phases;
 *  - Diurnal: a non-homogeneous Poisson process whose rate follows a
 *    raised sinusoid (the compressed day/night curve of production
 *    traffic), sampled by thinning;
 *  - Trace: deterministic replay of a recorded request list.
 *
 * Every generated request is tagged with a ScenarioKind drawn from a
 * uniform (optionally slowly rotating) scenario mixture, plus prompt
 * and output lengths from seeded log-normal distributions with
 * per-scenario scale factors (Coding prompts run long, Chat prompts
 * short, Math outputs long — the shape the paper's Fig. 12 scenario
 * study relies on).
 * Equal configurations generate byte-identical request streams.
 */

#ifndef MOENTWINE_SERVE_ARRIVAL_HH
#define MOENTWINE_SERVE_ARRIVAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "serve/request.hh"

namespace moentwine {

/** Shape of the request arrival stream. */
enum class ArrivalKind
{
    Poisson, ///< constant-rate memoryless arrivals
    Bursty,  ///< two-state MMPP on/off bursts
    Diurnal, ///< sinusoidally modulated rate curve
    Trace,   ///< deterministic trace replay
};

/** Human-readable arrival-kind name. */
std::string arrivalKindName(ArrivalKind kind);

/** One recorded request of a replayable trace (time-sorted). */
struct TraceRequest
{
    double time = 0.0;
    ScenarioKind scenario = ScenarioKind::Chat;
    int promptTokens = 0;
    int outputTokens = 0;
};

/** Arrival-process configuration. */
struct ArrivalConfig
{
    ArrivalKind kind = ArrivalKind::Poisson;
    /** Mean offered rate (requests/s); the MMPP and diurnal curves
     *  modulate around this value. */
    double ratePerSec = 100.0;

    /**
     * When positive, the scenario mixture rotates once per this many
     * seconds (raised-cosine weights, the Fig. 12 drift); zero keeps
     * the uniform mixture fixed. The MMPP and diurnal shapes and the
     * length distributions' sigmas and floors are fixed in arrival.cc.
     */
    double mixDriftPeriodSec = 0.0;

    // Log-normal length distributions, clamped into [floor, max]. The
    // means are scaled per scenario (see promptScale/outputScale).
    int promptMeanTokens = 256;
    int promptMaxTokens = 8192;
    int outputMeanTokens = 64;
    int outputMaxTokens = 2048;

    /** Recorded requests for ArrivalKind::Trace (must be time-sorted). */
    std::vector<TraceRequest> trace;

    /** Base seed; equal configs generate equal streams. */
    uint64_t seed = 42;
};

/**
 * Deterministic request-stream generator.
 */
class ArrivalProcess
{
  public:
    explicit ArrivalProcess(const ArrivalConfig &cfg);

    /**
     * Generate the first @p count requests of the stream, in arrival
     * order with dense ids. Trace replay returns at most the recorded
     * request count.
     */
    std::vector<ServeRequest> generate(int count) const;

    /** Scenario mixture weights (normalised) at time @p t. */
    std::vector<double> scenarioMixAt(double t) const;

    /** The configuration in use. */
    const ArrivalConfig &config() const { return cfg_; }

    /** Prompt-length scale factor of a scenario. */
    static double promptScale(ScenarioKind kind);

    /** Output-length scale factor of a scenario. */
    static double outputScale(ScenarioKind kind);

  private:
    ArrivalConfig cfg_;
};

} // namespace moentwine

#endif // MOENTWINE_SERVE_ARRIVAL_HH
