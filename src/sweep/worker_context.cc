#include "sweep/worker_context.hh"

namespace moentwine {

InferenceEngine &
WorkerContext::engine(const Mapping &mapping, const EngineConfig &cfg)
{
    for (PoolEntry &entry : pool_) {
        if (entry.mapping != &mapping)
            continue;
        ++engineReuses_;
        entry.engine->reset(cfg);
        return *entry.engine;
    }
    ++engineBuilds_;
    pool_.push_back(PoolEntry{
        &mapping, std::make_unique<InferenceEngine>(mapping, cfg)});
    return *pool_.back().engine;
}

} // namespace moentwine
