#include "core/moentwine.hh"

#include "common/logging.hh"

namespace moentwine {

System
System::make(const SystemConfig &cfg)
{
    System sys;
    sys.cfg_ = cfg;
    switch (cfg.platform) {
      case PlatformKind::WscBaseline: {
        sys.mesh_ = std::make_unique<MeshTopology>(
            MeshTopology::waferRow(cfg.wafers, cfg.meshN));
        const auto par = decomposeTp(cfg.tp, sys.mesh_->rows(),
                                     sys.mesh_->cols());
        sys.mapping_ =
            std::make_unique<BaselineMapping>(*sys.mesh_, par);
        break;
      }
      case PlatformKind::WscEr: {
        sys.mesh_ = std::make_unique<MeshTopology>(
            MeshTopology::waferRow(cfg.wafers, cfg.meshN));
        const auto par = decomposeTp(cfg.tp, sys.mesh_->rows(),
                                     sys.mesh_->cols());
        sys.mapping_ = std::make_unique<ErMapping>(*sys.mesh_, par);
        break;
      }
      case PlatformKind::WscHer: {
        sys.mesh_ = std::make_unique<MeshTopology>(
            MeshTopology::waferRow(cfg.wafers, cfg.meshN));
        const auto par = decomposeTp(cfg.tp, sys.mesh_->waferRows(),
                                     sys.mesh_->waferCols());
        sys.mapping_ =
            std::make_unique<HierarchicalErMapping>(*sys.mesh_, par);
        break;
      }
      case PlatformKind::DgxCluster: {
        sys.cluster_ = std::make_unique<SwitchClusterTopology>(
            SwitchClusterTopology::dgx(cfg.dgxNodes));
        sys.mapping_ =
            std::make_unique<ClusterMapping>(*sys.cluster_, cfg.tp);
        break;
      }
      case PlatformKind::Nvl72: {
        sys.cluster_ = std::make_unique<SwitchClusterTopology>(
            SwitchClusterTopology::nvl72());
        sys.mapping_ =
            std::make_unique<ClusterMapping>(*sys.cluster_, cfg.tp);
        break;
      }
    }
    MOE_ASSERT(sys.mapping_ != nullptr, "platform construction failed");
    // Traffic-accumulator policy is a pre-sharing configuration hook
    // on the mapping (the token router reads it per routeTokens call).
    sys.mapping_->setTrafficStorage(cfg.trafficStorage);
    return sys;
}

std::string
System::name() const
{
    return topology().name() + " / " + mapping_->name();
}

} // namespace moentwine
