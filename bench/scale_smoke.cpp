/**
 * @file
 * Large-topology smoke at one of the two device counts its checks are
 * built for (default 1024; CI also runs 16384). One binary covers both
 * regimes so the scale path cannot silently regress:
 *
 *  - 1024 devices (4×(16×16), HER-Mapping): built through
 *    System::make and driven through a short engine sweep — serially
 *    and on the thread pool with byte-identical results (the TSan
 *    target).
 *
 *  - 16384 devices (4×(64×64), HER-Mapping, fine-grained experts —
 *    one per device): the sparse-traffic scale point. The Auto traffic
 *    policy must resolve to the sparse accumulator, a short engine run
 *    must complete with finite positive layer times (printed with
 *    %.17g), the sparse accumulator must undercut the analytic dense
 *    matrix by ≥ 10×, and peak RSS must stay under a pinned ceiling
 *    that the dense matrix would provably blow through (checked via
 *    VmHWM; skipped under sanitizers and off Linux).
 *
 * Both points build their system through System::make and print how
 * long that took, and both check sampled XY walks against their
 * defining properties. Neither routing nor dispatch stores anything per
 * device pair, so set-up is linear in the device count. Checks exit
 * non-zero on any failure.
 *
 * With `--trace <path>` the smoke's short engine run re-emits as a
 * sim-time Chrome trace (src/obs/trace.hh) — at 16k devices that is
 * the only tracer of the sparse-traffic engine path.
 *
 * Usage: scale_smoke [--jobs N] [--devices N] [--trace P]
 *        (--devices is 1024 or 16384)
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "core/moentwine.hh"
#include "obs/obs.hh"
#include "flags.hh"
#include "jobs.hh"
#include "sweep/sweep.hh"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MOE_UNDER_SANITIZER 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MOE_UNDER_SANITIZER 1
#endif

using namespace moentwine;

namespace {

/**
 * Peak resident set (VmHWM) in bytes, or 0 when unavailable (non-Linux
 * or unreadable /proc). Unused in sanitizer builds, which skip the RSS
 * ceiling.
 */
[[maybe_unused]] std::size_t
peakRssBytes()
{
#if defined(__linux__)
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0;
    char line[256];
    std::size_t kb = 0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (std::sscanf(line, "VmHWM: %zu kB", &kb) == 1)
            break;
    }
    std::fclose(f);
    return kb * 1024;
#else
    return 0;
#endif
}

/**
 * Sampled XY-walk properties: every walk is a connected chain of
 * Manhattan length that moves along the row (column first) before it
 * moves along the column. Returns the number of violating pairs.
 */
int
checkSampledWalks(const MeshTopology &mesh)
{
    int violations = 0;
    const auto &links = mesh.links();
    const int devices = mesh.numDevices();
    for (DeviceId s = 0; s < devices; s += 61) {
        for (DeviceId d = 0; d < devices; d += 67) {
            NodeId at = s;
            int hops = 0;
            bool columnPhase = false;
            bool ok = true;
            for (const LinkId l : mesh.walk(s, d)) {
                const Link &link = links[static_cast<std::size_t>(l)];
                const bool alongRow = mesh.coordOf(link.src).row ==
                    mesh.coordOf(link.dst).row;
                ok = ok && link.src == at && !(columnPhase && alongRow);
                columnPhase = columnPhase || !alongRow;
                at = link.dst;
                ++hops;
            }
            if (!ok || at != d || hops != mesh.manhattan(s, d))
                ++violations;
        }
    }
    return violations;
}

/**
 * Validate the --devices operand (already a positive integer, parsed
 * by benchflags::intFlag like --jobs) and return the meshN of the
 * four-wafer row it names. Only the two sizes the smoke's checks were
 * built for pass: 1024 (serial vs pool rows, the layer-sum golden) and
 * 16384 (the >= 10x accumulator-bytes check and the RSS ceiling are
 * calibrated there; 4096 is only ~8x, and the sparse accumulator stops
 * at 16384). fatal() on any other size.
 */
int
meshNFromDevices(int devices)
{
    if (devices == 1024)
        return 16;
    if (devices == 16384)
        return 64;
    fatal("--devices must be 4 x meshN^2 for a size this smoke's checks "
          "are built for: 1024 (meshN 16) or 16384 (meshN 64), got " +
          std::to_string(devices));
}

/**
 * Build the four-wafer HER-Mapping system of a scale point through
 * System::make and print the wall time that took.
 */
System
makeTimedHerSystem(int meshN)
{
    SystemConfig sc;
    sc.platform = PlatformKind::WscHer;
    sc.meshN = meshN;
    sc.wafers = 4;
    sc.tp = 4;
    const auto start = std::chrono::steady_clock::now();
    System sys = System::make(sc);
    const std::chrono::duration<double, std::milli> took =
        std::chrono::steady_clock::now() - start;
    std::printf("System::make: %.2f ms\n", took.count());
    return sys;
}

/** Write @p trace to @p path (no-op on an empty path). */
void
writeTraceIfRequested(const TraceSink &trace, const std::string &path)
{
    if (!path.empty() && trace.writeFile(path))
        std::printf("wrote %s\n", path.c_str());
}

/**
 * The 16k-class scale point: a HER system with fine-grained experts
 * (one per device), pinning the sparse accumulator's memory win and the
 * RSS ceiling.
 */
int
runSparseScalePoint(int devices, int meshN, const std::string &tracePath)
{
    std::printf("== scale smoke: %d-device multi-wafer mesh, sparse "
                "traffic accumulation ==\n",
                devices);

    const System sys = makeTimedHerSystem(meshN);
    const MeshTopology &mesh = *sys.mesh();
    const Mapping &her = sys.mapping();
    std::printf("system: %s, %d devices, %zu links\n", sys.name().c_str(),
                mesh.numDevices(), mesh.links().size());

    const int violations = checkSampledWalks(mesh);
    if (violations != 0) {
        std::fprintf(stderr,
                     "FAIL: %d sampled walks break the XY properties\n",
                     violations);
        return 1;
    }
    std::printf("sampled walks: OK\n");

    // Fine-grained expert regime: expert parallelism spans the whole
    // system, one routed expert per device. This is the wafer-scale
    // serving shape the sparse accumulator exists for — dispatch
    // touches O(dp · activated · tp) pairs, a vanishing fraction of
    // devices².
    EngineConfig ec;
    ec.model = qwen3();
    ec.model.expertsTotal = devices;
    ec.schedule = SchedulingMode::DecodeOnly;
    ec.decodeTokensPerGroup = 16;
    ec.workload.mode = GatingMode::MixedScenario;
    ec.balancer = BalancerKind::None;

    InferenceEngine engine(her, ec);
    TraceSink trace;
    if (!tracePath.empty()) {
        ObsHooks hooks;
        hooks.trace = &trace;
        engine.attachObs(hooks);
    }
    for (const auto &s : engine.run(2)) {
        const double layer = s.layerTime(ec.pipelineStages);
        std::printf("iteration: layer %.17g s\n", layer);
        if (!(layer > 0.0) || !std::isfinite(layer)) {
            std::fprintf(stderr, "FAIL: non-finite layer time\n");
            return 1;
        }
    }
    writeTraceIfRequested(trace, tracePath);

    // The memory win itself, measured on a standalone routed batch:
    // the sparse accumulator's retained footprint vs the dense matrix
    // it replaces (analytic — allocating it is exactly what this point
    // exists to avoid).
    WorkloadConfig wc = ec.workload;
    wc.numExperts = ec.model.expertsTotal;
    wc.topK = ec.model.expertsActivated;
    WorkloadGenerator gen(wc);
    const ExpertPlacement placement(ec.model.expertsTotal, devices,
                                    ec.shadowSlots);
    RoutedTraffic routed;
    routeTokens(her, placement,
                gen.sampleCounts(0, 0, ec.decodeTokensPerGroup, her.dp()),
                ec.model.tokenBytes(), ec.retainAllGather,
                ec.model.expertsActivated, routed, true);
    if (routed.pairBytes.activeKind() != TrafficStorageKind::Sparse) {
        std::fprintf(stderr,
                     "FAIL: the traffic accumulator did not select the "
                     "sparse storage at %d devices\n",
                     devices);
        return 1;
    }

    const double sparseBytes =
        static_cast<double>(routed.pairBytes.storageBytes());
    const double denseBytes = static_cast<double>(
        TrafficAccumulator::denseBytes(devices));
    const double ratio = denseBytes / sparseBytes;
    std::printf("traffic accumulator: %zu pairs occupied, sparse "
                "%.1f MB vs dense %.1f MB (%.1fx)\n",
                routed.pairBytes.occupancy(), sparseBytes / 1e6,
                denseBytes / 1e6, ratio);
    if (ratio < 10.0) {
        std::fprintf(stderr,
                     "FAIL: sparse accumulator only %.2fx smaller than "
                     "dense (need >= 10x)\n",
                     ratio);
        return 1;
    }

#if defined(__linux__) && !defined(MOE_UNDER_SANITIZER)
    // Pinned memory ceiling: the whole run — topology, mapping, engine
    // scratch, sparse accumulator — must fit under 1.25 GB (it peaks
    // near 0.8 GB; nothing in it is devices² any more), and swapping
    // the sparse accumulator for the dense matrix would provably not
    // (peak + the dense-minus-sparse delta exceeds the ceiling).
    // Skipped under sanitizers (shadow memory inflates RSS).
    const std::size_t peak = peakRssBytes();
    constexpr double kRssCeiling = 1.25e9;
    if (peak > 0) {
        std::printf("peak RSS: %.2f GB (ceiling %.2f GB)\n", peak / 1e9,
                    kRssCeiling / 1e9);
        if (static_cast<double>(peak) > kRssCeiling) {
            std::fprintf(stderr,
                         "FAIL: peak RSS %.2f GB over the %.2f GB "
                         "ceiling\n",
                         peak / 1e9, kRssCeiling / 1e9);
            return 1;
        }
        if (static_cast<double>(peak) + denseBytes - sparseBytes <=
            kRssCeiling) {
            std::fprintf(stderr,
                         "FAIL: dense matrix would also fit under the "
                         "ceiling — the ceiling no longer "
                         "discriminates\n");
            return 1;
        }
    }
#endif

    std::printf("scale smoke: PASS\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (!benchflags::positionals(argc, argv).empty())
        fatal("scale_smoke takes no positional arguments");
    const int devicesArg = benchflags::intFlag(argc, argv, "--devices");
    const int meshN = devicesArg == 0 ? 16 : meshNFromDevices(devicesArg);
    const std::string tracePath =
        benchflags::stringFlag(argc, argv, "--trace");
    const int devices = 4 * meshN * meshN;

    if (devices >= TrafficAccumulator::kSparseThreshold)
        return runSparseScalePoint(devices, meshN, tracePath);

    std::printf("== scale smoke: %d-device multi-wafer mesh ==\n",
                devices);

    const auto sys =
        std::make_shared<const System>(makeTimedHerSystem(meshN));

    const Topology &topo = sys->topology();
    std::printf("system: %s, %d devices, %zu links\n",
                sys->name().c_str(), topo.numDevices(),
                topo.links().size());
    if (topo.numDevices() < 1024) {
        std::fprintf(stderr, "FAIL: expected >= 1024 devices\n");
        return 1;
    }

    const int violations = checkSampledWalks(*sys->mesh());
    if (violations != 0) {
        std::fprintf(stderr,
                     "FAIL: %d sampled walks break the XY properties\n",
                     violations);
        return 1;
    }
    std::printf("sampled walks: OK\n");

    // Short engine run over a two-cell balancer sweep: exercises the
    // full dispatch/combine/collective path at scale, with the shared
    // const System read concurrently by the pool workers (the TSan
    // target of this smoke).
    SweepGrid grid;
    grid.balancers = {BalancerKind::None, BalancerKind::TopologyAware};
    const SweepRunner::CellFn cell = [&sys](const SweepCell &c) {
        EngineConfig ec;
        ec.model = qwen3();
        ec.schedule = SchedulingMode::DecodeOnly;
        ec.decodeTokensPerGroup = 64;
        ec.workload.mode = GatingMode::MixedScenario;
        ec.balancer = c.point.balancerKind();
        ec.beta = 2;
        InferenceEngine engine(sys->mapping(), ec);
        double layerSum = 0.0;
        for (const auto &s : engine.run(3))
            layerSum += s.layerTime(ec.pipelineStages);
        SweepResult row;
        row.label = "balancer" + std::to_string(c.point.index);
        row.add("layer_sum_s", layerSum);
        return row;
    };

    const SweepRunner serial(1);
    const auto serialRows = serial.run(grid, cell);
    const SweepRunner pool = benchjobs::makeRunner(argc, argv);
    const auto poolRows = pool.run(grid, cell);
    for (std::size_t i = 0; i < serialRows.size(); ++i) {
        const double layer = serialRows[i].metric("layer_sum_s");
        std::printf("cell %zu: layer_sum %.17g s\n", i, layer);
        if (!(layer > 0.0) || !std::isfinite(layer)) {
            std::fprintf(stderr, "FAIL: non-finite layer time\n");
            return 1;
        }
        if (layer != poolRows[i].metric("layer_sum_s")) {
            std::fprintf(stderr,
                         "FAIL: parallel row diverged from serial\n");
            return 1;
        }
    }
    std::printf("engine smoke (jobs=%d): OK\n", pool.jobs());

    if (!tracePath.empty()) {
        // Traced re-run of one smoke cell (untimed; outside the
        // serial-vs-pool comparison above, so it cannot perturb it).
        EngineConfig ec;
        ec.model = qwen3();
        ec.schedule = SchedulingMode::DecodeOnly;
        ec.decodeTokensPerGroup = 64;
        ec.workload.mode = GatingMode::MixedScenario;
        ec.balancer = BalancerKind::TopologyAware;
        ec.beta = 2;
        InferenceEngine engine(sys->mapping(), ec);
        TraceSink trace;
        ObsHooks hooks;
        hooks.trace = &trace;
        engine.attachObs(hooks);
        engine.run(3);
        writeTraceIfRequested(trace, tracePath);
    }

    std::printf("scale smoke: PASS\n");
    return 0;
}
