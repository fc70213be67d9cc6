/**
 * @file
 * Fig. 12: expert (device) load-ratio traces of Qwen3 with EP=8
 * across the Chat, Coding, Math, and Privacy scenarios over 2000
 * iterations.
 *
 * Expected shape: per-device load ratios fluctuate during a short
 * warm-up, then stabilise within each fixed scenario; the stable
 * ratios differ between scenarios, and peak device load runs well
 * above the average (the paper reports up to 2.9×).
 *
 * Runs one scenario per SweepRunner cell (`--jobs N`).
 */

#include <cstdio>

#include "core/moentwine.hh"
#include "sweep/sweep.hh"
#include "jobs.hh"
#include "sweep_output.hh"

using namespace moentwine;

namespace {

constexpr int kDevices = 8;
constexpr int kIters = 2000;
constexpr int kWindow = 200;

SweepResult
trace(ScenarioKind scenario)
{
    WorkloadConfig wc;
    wc.numExperts = qwen3().expertsTotal;
    wc.topK = qwen3().expertsActivated;
    wc.mode = GatingMode::SingleScenario;
    wc.scenario = scenario;
    WorkloadGenerator gen(wc);
    const ExpertPlacement placement(wc.numExperts, kDevices, 0);

    // EMA device-load ratios sampled over the run.
    std::vector<double> ema(kDevices, 0.0);
    Summary earlyDrift; // mean |Δratio| in the first window
    Summary lateDrift;  // ... and in the last window
    Summary peakRatio;
    for (int it = 0; it < kIters; ++it) {
        const auto counts = gen.sampleCounts(it, 0, 256, 1);
        const auto loads =
            WorkloadGenerator::expertLoads(counts, wc.numExperts);
        const auto heats = deviceHeats(placement, loads);
        const double mean = meanOf(heats);
        double drift = 0.0;
        for (int d = 0; d < kDevices; ++d) {
            const double ratio = heats[std::size_t(d)] / mean;
            drift += std::abs(ratio - ema[std::size_t(d)]);
            ema[std::size_t(d)] =
                0.1 * ratio + 0.9 * ema[std::size_t(d)];
        }
        if (it > 10 && it < kWindow)
            earlyDrift.add(drift / kDevices);
        if (it >= kIters - kWindow)
            lateDrift.add(drift / kDevices);
        peakRatio.add(maxOf(heats) / mean);
    }

    SweepResult row;
    row.label = scenarioName(scenario);
    for (int d = 0; d < kDevices; ++d)
        row.add("ratio_d" + std::to_string(d), ema[std::size_t(d)]);
    row.add("peak_mean", peakRatio.mean());
    row.add("peak_max", peakRatio.max());
    row.add("warmup_drift", earlyDrift.mean());
    row.add("stable_drift", lateDrift.mean());
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    if (!benchflags::positionals(argc, argv).empty())
        fatal("fig12_load_traces takes no positional arguments");
    std::printf("== Fig. 12: expert load traces, Qwen3 EP=8 ==\n\n");

    SweepGrid grid;
    for (std::size_t s = 0; s < allScenarios().size(); ++s)
        grid.params.push_back(static_cast<double>(s));

    const SweepRunner runner = benchjobs::makeRunner(argc, argv);
    const auto rows = runner.run(grid, [](const SweepCell &cell) {
        return trace(allScenarios()[static_cast<std::size_t>(
            cell.point.parameter())]);
    });

    for (const SweepResult &r : rows) {
        std::printf("-- %s --\n", r.label.c_str());
        std::printf("  stable device load ratios (device0..7): ");
        for (int d = 0; d < kDevices; ++d)
            std::printf("%.2f ",
                        r.metric("ratio_d" + std::to_string(d)));
        std::printf("\n  peak/avg load: mean %.2fx, max %.2fx\n",
                    r.metric("peak_mean"), r.metric("peak_max"));
        std::printf("  ratio drift per iter: warm-up %.4f -> stable "
                    "%.4f (%s)\n\n",
                    r.metric("warmup_drift"), r.metric("stable_drift"),
                    r.metric("stable_drift") < r.metric("warmup_drift")
                        ? "stabilised"
                        : "UNSTABLE");
    }
    benchout::writeSweepFiles("fig12_load_traces", rows);
    return 0;
}
