/**
 * @file
 * Ablation bench for design choices beyond the paper's own figures:
 *
 *  1. time-staggered entwined rings vs naive (un-staggered) sharing —
 *     the scheduling trick of Fig. 8(d);
 *  2. DeepSpeed-MoE-style cross-node dedup on the DGX baseline — how
 *     much of the GPU baseline's strength comes from hierarchical
 *     all-to-all;
 *  3. PipeMoE pipeline depth — the micro-batch overlap factor;
 *  4. shadow-slot budget — balance quality vs HBM cost per device.
 */

#include <cstdio>

#include "core/moentwine.hh"
#include "flags.hh"

using namespace moentwine;

namespace {

void
ablateStagger()
{
    std::printf("-- [1] entwined-ring staggering (Qwen3, 6x6, TP=4) "
                "--\n");
    const MeshTopology mesh = MeshTopology::singleWafer(6);
    const ErMapping er(mesh, decomposeTp(4, 6, 6));
    const double bytes = 256 * qwen3().tokenBytes();
    Table t({"schedule", "all-reduce (us)"});
    const auto staggered = ringCollective(
        mesh, er.tpGroups(), bytes, RingOp::AllReduce, true);
    const auto naive = ringCollective(
        mesh, er.tpGroups(), bytes, RingOp::AllReduce, false);
    t.addRow({"time-staggered (Fig. 8d)",
              Table::num(staggered.time * 1e6, 1)});
    t.addRow({"naive sharing", Table::num(naive.time * 1e6, 1)});
    // Worst-case sharing: several rings over identical edges — the
    // regime the staggered schedule is designed for.
    const std::vector<DeviceId> ring{
        mesh.deviceAt(1, 0), mesh.deviceAt(1, 2), mesh.deviceAt(1, 4),
        mesh.deviceAt(1, 5), mesh.deviceAt(1, 3), mesh.deviceAt(1, 1)};
    const auto stag3 = ringCollective(mesh, {ring, ring, ring}, bytes,
                                      RingOp::AllReduce, true);
    const auto naive3 = ringCollective(mesh, {ring, ring, ring}, bytes,
                                       RingOp::AllReduce, false);
    t.addRow({"3x co-located rings, staggered",
              Table::num(stag3.time * 1e6, 1)});
    t.addRow({"3x co-located rings, naive",
              Table::num(naive3.time * 1e6, 1)});
    std::printf("%s\n", t.render().c_str());
}

void
ablateDedup()
{
    std::printf("-- [2] hierarchical-A2A dedup on the DGX baseline "
                "(DeepSeek-V3, 4 nodes) --\n");
    const auto dgx = SwitchClusterTopology::dgx(4);
    const ClusterMapping cm(dgx, 4);
    const MoEModelConfig model = deepseekV3();
    const ExpertPlacement p(model.expertsTotal, dgx.numDevices(), 0);
    std::vector<std::vector<int>> counts(
        std::size_t(cm.dp()),
        std::vector<int>(std::size_t(model.expertsTotal), 8));
    Table t({"baseline", "dispatch+combine (us)"});
    for (const auto &[label, topk] :
         std::vector<std::pair<const char *, int>>{
             {"naive all-to-all", 1},
             {"with cross-node dedup (k=8)", 8}}) {
        const auto routed =
            routeTokens(cm, p, counts, model.tokenBytes(), true, topk);
        const double time = allToAll(dgx, routed.dispatch).time +
            allToAll(dgx, routed.combine).time;
        t.addRow({label, Table::num(time * 1e6, 1)});
    }
    std::printf("%s\n", t.render().c_str());
}

void
ablatePipeline()
{
    std::printf("-- [3] PipeMoE pipeline depth (DeepSeek-V3, 8x8+ER) "
                "--\n");
    SystemConfig sc;
    sc.platform = PlatformKind::WscEr;
    sc.meshN = 8;
    sc.tp = 8;
    const System sys = System::make(sc);
    Table t({"stages", "layer time (us)"});
    for (const int stages : {1, 2, 4, 8, 16}) {
        EngineConfig ec;
        ec.model = deepseekV3();
        ec.pipelineStages = stages;
        ec.workload.mode = GatingMode::Balanced;
        InferenceEngine engine(sys.mapping(), ec);
        const auto s = engine.step();
        t.addRow({std::to_string(stages),
                  Table::num(s.layerTime(stages) * 1e6, 1)});
    }
    std::printf("%s\n", t.render().c_str());
}

void
ablateShadowSlots()
{
    std::printf("-- [4] shadow-slot budget (Qwen3, 4x4+ER, "
                "NI-Balancer) --\n");
    SystemConfig sc;
    sc.platform = PlatformKind::WscEr;
    sc.meshN = 4;
    sc.tp = 4;
    const System sys = System::make(sc);
    Table t({"shadow slots/device", "tail load max/avg",
             "extra HBM (MB/device)"});
    for (const int slots : {0, 1, 2, 4}) {
        EngineConfig ec;
        ec.model = qwen3();
        ec.shadowSlots = slots;
        ec.balancer = slots == 0 ? BalancerKind::None
                                 : BalancerKind::NonInvasive;
        ec.workload.mode = GatingMode::MixedScenario;
        ec.alpha = 0.5;
        InferenceEngine engine(sys.mapping(), ec);
        Summary ratio;
        const auto trace = engine.run(60);
        for (std::size_t i = 30; i < trace.size(); ++i)
            ratio.add(trace[i].loadMax / trace[i].loadAvg);
        t.addRow({std::to_string(slots), Table::num(ratio.mean(), 2),
                  Table::num(slots * qwen3().expertBytes / 1e6, 0)});
    }
    std::printf("%s\n", t.render().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    if (!benchflags::positionals(argc, argv).empty())
        fatal("ablation_design takes no positional arguments");
    std::printf("== Design-choice ablations ==\n\n");
    ablateStagger();
    ablateDedup();
    ablatePipeline();
    ablateShadowSlots();
    return 0;
}
