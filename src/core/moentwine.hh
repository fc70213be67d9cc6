/**
 * @file
 * MoEntwine umbrella header: single include for the public API, plus
 * the System factory that assembles a platform (topology + mapping)
 * from a compact configuration. Benches, examples, and downstream
 * users start here.
 *
 * Typical use:
 * @code
 *   SystemConfig sc;
 *   sc.platform = PlatformKind::WscEr;
 *   sc.meshN = 8;
 *   sc.tp = 16;
 *   System sys = System::make(sc);
 *
 *   EngineConfig ec;
 *   ec.model = deepseekV3();
 *   InferenceEngine engine(sys.mapping(), ec);
 *   auto stats = engine.run(100);
 * @endcode
 */

#ifndef MOENTWINE_CORE_MOENTWINE_HH
#define MOENTWINE_CORE_MOENTWINE_HH

#include <memory>
#include <string>

#include "balancer/balancer.hh"
#include "balancer/ni_balancer.hh"
#include "balancer/placement.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/units.hh"
#include "engine/comm_eval.hh"
#include "engine/engine.hh"
#include "engine/token_router.hh"
#include "mapping/baseline_mapping.hh"
#include "mapping/cluster_mapping.hh"
#include "mapping/er_mapping.hh"
#include "mapping/ftd.hh"
#include "mapping/her_mapping.hh"
#include "mapping/parallelism.hh"
#include "model/cost_model.hh"
#include "model/moe_config.hh"
#include "network/collectives.hh"
#include "network/traffic.hh"
#include "serve/serve.hh"
#include "topology/mesh.hh"
#include "topology/switch_cluster.hh"
#include "workload/workload.hh"

namespace moentwine {

/** Platform + mapping combination. */
enum class PlatformKind
{
    WscBaseline, ///< wafer mesh, contiguous-block TP mapping
    WscEr,       ///< wafer mesh, ER-Mapping
    WscHer,      ///< multi-wafer mesh, Hierarchical ER-Mapping
    DgxCluster,  ///< multi-node DGX baseline
    Nvl72,       ///< NVL72 supernode baseline
};

/** Compact system description. */
struct SystemConfig
{
    PlatformKind platform = PlatformKind::WscEr;
    /** Wafer mesh edge (wafer is meshN × meshN dies). */
    int meshN = 4;
    /** Number of wafers (arranged in a row). */
    int wafers = 1;
    /** Tensor-parallel degree. */
    int tp = 4;
    /** DGX node count (DgxCluster platform only). */
    int dgxNodes = 4;
};

/**
 * Owning bundle of a topology and the mapping placed on it.
 *
 * Topologies and mappings build all their state in their constructors
 * and hold no lazy caches, so a constructed System is deeply immutable
 * behind its const interface and safe to share across threads as
 * shared_ptr<const System> — the contract the sweep runner's worker
 * pool relies on.
 */
class System
{
  public:
    /** Build a system; fatal on inconsistent configuration. */
    static System make(const SystemConfig &cfg);

    /** The network topology. */
    const Topology &topology() const { return mapping_->topology(); }

    /** The parallelism mapping. */
    const Mapping &mapping() const { return *mapping_; }

    /** The mesh, when the platform is wafer-based (null otherwise). */
    const MeshTopology *mesh() const { return mesh_.get(); }

    /** Platform + mapping label for bench output. */
    std::string name() const;

    /** The configuration this system was built from. */
    const SystemConfig &config() const { return cfg_; }

  private:
    System() = default;

    SystemConfig cfg_;
    std::unique_ptr<MeshTopology> mesh_;
    std::unique_ptr<SwitchClusterTopology> cluster_;
    std::unique_ptr<Mapping> mapping_;
};

} // namespace moentwine

#endif // MOENTWINE_CORE_MOENTWINE_HH
