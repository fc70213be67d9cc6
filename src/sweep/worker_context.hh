/**
 * @file
 * WorkerContext: per-worker state that persists across the sweep
 * cells one pool thread executes.
 *
 * The headline member is the engine pool: one reusable
 * InferenceEngine per platform (keyed on Mapping identity), handed
 * out by engine() after an InferenceEngine::reset() that makes it
 * bitwise indistinguishable from a freshly constructed engine. Cells
 * of the same (system, TP) slot that land on the same worker —
 * the common case, since workers own contiguous grid blocks and the
 * system axis is outer — re-seed the cached engine instead of paying
 * its construction (traffic matrices, routed-flow scratch, collective
 * buffers) again.
 *
 * A context never migrates between threads: the runner creates one
 * per worker, the worker alone touches it, and the runner reads the
 * counters back only after the pool joins. No member is synchronized.
 *
 * Cell functions that build their own state (the serving drivers
 * construct ServeSimulators) simply ignore the context.
 */

#ifndef MOENTWINE_SWEEP_WORKER_CONTEXT_HH
#define MOENTWINE_SWEEP_WORKER_CONTEXT_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/engine.hh"

namespace moentwine {

class WorkerContext
{
  public:
    WorkerContext() = default;
    WorkerContext(const WorkerContext &) = delete;
    WorkerContext &operator=(const WorkerContext &) = delete;

    /**
     * An engine for @p mapping under @p cfg, in exactly the state
     * InferenceEngine(mapping, cfg) would construct. A cached engine
     * for the same mapping is reset() and returned; on the first
     * sighting of the platform a new engine is built and cached. The
     * reference lives as long as the context; the next engine() call
     * for the same mapping resets it.
     */
    InferenceEngine &engine(const Mapping &mapping,
                            const EngineConfig &cfg);

    /** Engines handed out by resetting a cached one. */
    std::int64_t engineReuses() const { return engineReuses_; }

    /** Engines handed out by construction. */
    std::int64_t engineBuilds() const { return engineBuilds_; }

  private:
    struct PoolEntry
    {
        const Mapping *mapping = nullptr;
        std::unique_ptr<InferenceEngine> engine;
    };

    std::vector<PoolEntry> pool_;
    std::int64_t engineReuses_ = 0;
    std::int64_t engineBuilds_ = 0;
};

} // namespace moentwine

#endif // MOENTWINE_SWEEP_WORKER_CONTEXT_HH
