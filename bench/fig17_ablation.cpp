/**
 * @file
 * Fig. 17: ablation ladder comparing a multi-WSC system (4×(8×8),
 * 256 devices) against the NVL72 supernode for DeepSeek-V3 and Qwen3:
 *
 *   NVL72 → NVL72+Balance → WSC → +ER-Mapping → +HER-Mapping
 *   → +HER+Greedy → +HER+Topology-aware → +HER+Non-invasive.
 *
 * Expected shape: the raw WSC is throttled by mesh all-to-all; ER and
 * HER remove the communication bottleneck; invasive balancing adds
 * exposed migration that the topology-aware variant shrinks and the
 * NI-Balancer eliminates; the final configuration beats NVL72 on
 * per-device MoE latency (paper: ~39% average).
 *
 * The model × ladder-step grid runs on the SweepRunner pool
 * (`--jobs N`); the ladder is not a platform cartesian product, so the
 * driver prebuilds its five systems itself and shares each one
 * read-only across all workers and both models.
 */

#include <algorithm>
#include <cstdio>
#include <memory>

#include "core/moentwine.hh"
#include "sweep/sweep.hh"
#include "jobs.hh"
#include "sweep_output.hh"

using namespace moentwine;

namespace {

/** One rung of the ablation ladder. */
struct LadderStep
{
    const char *name;
    std::shared_ptr<const System> system;
    BalancerKind balancer;
    bool migrationViaDisk;
};

double
totalOf(const SweepResult &r)
{
    return std::max(r.metric("a2a_us"), r.metric("moe_us")) +
        r.metric("migration_us");
}

} // namespace

int
main(int argc, char **argv)
{
    if (!benchflags::positionals(argc, argv).empty())
        fatal("fig17_ablation takes no positional arguments");
    std::printf("== Fig. 17: multi-WSC system vs NVL72 supernode "
                "==\n\n");

    SystemConfig nvl;
    nvl.platform = PlatformKind::Nvl72;
    nvl.tp = 4;
    const auto nvlSys =
        std::make_shared<const System>(System::make(nvl));

    SystemConfig wsc;
    wsc.meshN = 8;
    wsc.wafers = 4;
    wsc.tp = 16;
    wsc.platform = PlatformKind::WscBaseline;
    const auto base = std::make_shared<const System>(System::make(wsc));
    wsc.platform = PlatformKind::WscEr;
    const auto er = std::make_shared<const System>(System::make(wsc));
    wsc.platform = PlatformKind::WscHer;
    const auto her = std::make_shared<const System>(System::make(wsc));

    // NVL72 hides migration behind dedicated NVMe channels; the WSC
    // rungs expose whatever their balancer migrates.
    const std::vector<LadderStep> ladder = {
        {"NVL72", nvlSys, BalancerKind::None, false},
        {"NVL72 + Balance", nvlSys, BalancerKind::Greedy, true},
        {"WSC", base, BalancerKind::None, false},
        {"WSC + ER-Mapping", er, BalancerKind::None, false},
        {"WSC + HER-Mapping", her, BalancerKind::None, false},
        {"WSC + HER + Greedy", her, BalancerKind::Greedy, false},
        {"WSC + HER + Topology", her, BalancerKind::TopologyAware, false},
        {"WSC + HER + Non-invasive", her, BalancerKind::NonInvasive,
         false},
    };

    SweepGrid grid;
    grid.models = {deepseekV3(), qwen3()};
    grid.params.resize(ladder.size());
    for (std::size_t s = 0; s < ladder.size(); ++s)
        grid.params[s] = static_cast<double>(s);

    const SweepRunner runner = benchjobs::makeRunner(argc, argv);
    const auto rows = runner.run(grid, [&](const SweepCell &cell) {
        const LadderStep &step = ladder[static_cast<std::size_t>(
            cell.point.parameter())];
        const MoEModelConfig &model = cell.point.modelConfig();

        EngineConfig ec;
        ec.model = model;
        ec.migrationViaDisk = step.migrationViaDisk;
        // Equal per-device routed-token load across platforms: with
        // tokens/group proportional to TP, every device sees
        // 32 x topk routed tokens regardless of the device count.
        ec.decodeTokensPerGroup = 32 * step.system->mapping().tp();
        ec.workload.mode = GatingMode::MixedScenario;
        ec.workload.mixPeriod = 60;
        ec.balancer = step.balancer;
        ec.alpha = 0.5;
        ec.beta = 5;
        InferenceEngine engine(step.system->mapping(), ec);

        Summary a2a;
        Summary moe;
        double migration = 0.0;
        const auto trace = engine.run(40);
        for (std::size_t i = 10; i < trace.size(); ++i) {
            a2a.add(trace[i].allToAll());
            moe.add(trace[i].moeTime);
            migration += trace[i].migrationOverhead;
        }

        SweepResult row;
        row.label = model.name + std::string(" | ") + step.name;
        row.add("a2a_us", a2a.mean() * 1e6);
        row.add("moe_us", moe.mean() * 1e6);
        row.add("migration_us",
                migration * 1e6 /
                    static_cast<double>(trace.size() - 10));
        return row;
    });

    for (std::size_t m = 0; m < grid.models.size(); ++m) {
        std::printf("-- %s --\n", grid.models[m].name.c_str());
        const double reference =
            totalOf(rows[grid.at(static_cast<int>(m), -1, -1, -1, -1,
                                 -1, 0)]);
        Table t({"configuration", "A2A (us)", "MoE comp (us)",
                 "migration (us)", "total (us)", "vs NVL72"});
        for (std::size_t s = 0; s < ladder.size(); ++s) {
            const SweepResult &r = rows[grid.at(
                static_cast<int>(m), -1, -1, -1, -1, -1,
                static_cast<int>(s))];
            t.addRow({ladder[s].name, Table::num(r.metric("a2a_us"), 1),
                      Table::num(r.metric("moe_us"), 1),
                      Table::num(r.metric("migration_us"), 2),
                      Table::num(totalOf(r), 1),
                      Table::pct(reference / totalOf(r) - 1.0)});
        }
        std::printf("%s\n", t.render().c_str());
    }
    benchout::writeSweepFiles("fig17_ablation", rows);
    return 0;
}
