/**
 * @file
 * Fig. 1(a): per-device MoE latency breakdown of DeepSeek-V3 across
 * platforms, with EP equal to the device count. Total latency is the
 * maximum of computation and communication (they overlap).
 *
 * Expected shape: beyond 4 DGX nodes the all-to-all overhead exceeds
 * computation; NVL72 (EP=72) improves on the 4-node DGX; the WSC with
 * MoEntwine (EP=256) delivers the best per-device latency.
 *
 * Runs on the SweepRunner platform grid (`--jobs N`, MOENTWINE_JOBS).
 */

#include <algorithm>
#include <cstdio>

#include "core/moentwine.hh"
#include "sweep/sweep.hh"
#include "jobs.hh"
#include "sweep_output.hh"

using namespace moentwine;

namespace {

/** Balancing setup a platform uses in this figure. */
struct PlatformPolicy
{
    BalancerKind balancer;
    bool migrationViaDisk;
};

/**
 * GPU platforms hide invasive migration behind local NVMe channels;
 * WSCs have no on-wafer disk, and the MoEntwine configuration runs the
 * NI-Balancer instead (Section III-C).
 */
PlatformPolicy
policyFor(const SystemConfig &sc)
{
    switch (sc.platform) {
      case PlatformKind::DgxCluster:
      case PlatformKind::Nvl72:
        return PlatformPolicy{BalancerKind::Greedy, true};
      case PlatformKind::WscBaseline:
      case PlatformKind::WscEr:
        return PlatformPolicy{BalancerKind::Greedy, false};
      case PlatformKind::WscHer:
        return PlatformPolicy{BalancerKind::NonInvasive, false};
    }
    return PlatformPolicy{BalancerKind::None, false};
}

std::string
labelFor(const SystemConfig &sc)
{
    switch (sc.platform) {
      case PlatformKind::DgxCluster:
        return std::to_string(sc.dgxNodes) + "-node DGX (E/D=" +
            Table::num(256.0 / (sc.dgxNodes * 8), 1) + ")";
      case PlatformKind::Nvl72:
        return "NVL72 (E/D=3.6)";
      case PlatformKind::WscBaseline:
        return "WSC " + std::to_string(sc.wafers) + "x(" +
            std::to_string(sc.meshN) + "x" + std::to_string(sc.meshN) +
            ") (E/D=1)";
      case PlatformKind::WscHer:
        return "WSC " + std::to_string(sc.wafers) + "x(" +
            std::to_string(sc.meshN) + "x" + std::to_string(sc.meshN) +
            ") + MoEntwine";
      case PlatformKind::WscEr:
        return "WSC + ER";
    }
    return "?";
}

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
        fatal("fig01_breakdown takes no positional arguments");
    std::printf("== Fig. 1(a): MoE latency breakdown per device "
                "(DeepSeek-V3) ==\n\n");

    SweepGrid grid;
    for (const int nodes : {1, 4, 9}) {
        SystemConfig sc;
        sc.platform = PlatformKind::DgxCluster;
        sc.dgxNodes = nodes;
        sc.tp = 4;
        grid.systems.push_back(sc);
    }
    {
        SystemConfig sc;
        sc.platform = PlatformKind::Nvl72;
        sc.tp = 4;
        grid.systems.push_back(sc);
    }
    {
        SystemConfig sc;
        sc.platform = PlatformKind::WscBaseline;
        sc.meshN = 8;
        sc.wafers = 4;
        sc.tp = 16;
        grid.systems.push_back(sc);
        sc.platform = PlatformKind::WscHer;
        grid.systems.push_back(sc);
    }

    const SweepRunner runner = benchjobs::makeRunner(argc, argv);
    const auto rows = runner.run(grid, [](const SweepCell &cell) {
        const SystemConfig sc = cell.point.systemConfig();
        const PlatformPolicy policy = policyFor(sc);

        EngineConfig ec;
        ec.model = deepseekV3();
        // Equal per-device routed-token load across platforms: with
        // tokens/group proportional to TP, every device sees
        // 32 x topk routed tokens regardless of the device count.
        ec.decodeTokensPerGroup = 32 * cell.system->mapping().tp();
        ec.workload.mode = GatingMode::MixedScenario;
        ec.balancer = policy.balancer;
        ec.migrationViaDisk = policy.migrationViaDisk;
        ec.alpha = 0.5;
        ec.beta = 5;
        InferenceEngine engine(cell.system->mapping(), ec);

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
        row.label = labelFor(sc);
        row.add("a2a_us", a2a.mean() * 1e6);
        row.add("moe_us", moe.mean() * 1e6);
        row.add("migration_us",
                migration * 1e6 /
                    static_cast<double>(trace.size() - 10));
        return row;
    });

    const double reference = totalOf(rows[1]); // 4-node DGX
    Table t({"platform", "all-to-all (us)", "MoE comp (us)",
             "migration (us)", "total (us)", "vs 4-node DGX"});
    for (const SweepResult &r : rows) {
        t.addRow({r.label, Table::num(r.metric("a2a_us"), 1),
                  Table::num(r.metric("moe_us"), 1),
                  Table::num(r.metric("migration_us"), 2),
                  Table::num(totalOf(r), 1),
                  Table::pct(reference / totalOf(r) - 1.0)});
    }
    std::printf("%s\n(total = max(computation, communication) + "
                "exposed migration)\n",
                t.render().c_str());
    benchout::writeSweepFiles("fig01_breakdown", rows);
    return 0;
}
