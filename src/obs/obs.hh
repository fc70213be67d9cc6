/**
 * @file
 * Umbrella header and attach-point vocabulary of the observability
 * layer (src/obs/): stat registry, sim-time trace sink, PMU
 * probe, and the ObsHooks bundle simulation layers accept.
 */

#ifndef MOENTWINE_OBS_OBS_HH
#define MOENTWINE_OBS_OBS_HH

#include "obs/hw_counters.hh"
#include "obs/stat_registry.hh"
#include "obs/trace.hh"

namespace moentwine {

/**
 * Optional observability attachments handed to the engine
 * (InferenceEngine::attachObs; ServeSimulator instead takes a sink via
 * setTrace() and publishes into its own stats()). Null members are the
 * compiled-in no-op path: every publish site guards with one pointer
 * test, observation never changes a simulation result, and a run
 * with both members null is byte-identical to one
 * on a build without the obs layer.
 */
struct ObsHooks
{
    /** Stats destination; null disables stat publication. */
    StatRegistry *stats = nullptr;
    /** Trace destination; null disables trace emission. */
    TraceSink *trace = nullptr;
};

} // namespace moentwine

#endif // MOENTWINE_OBS_OBS_HH
