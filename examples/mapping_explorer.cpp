/**
 * @file
 * Mapping explorer: visualise how the baseline and ER mappings place
 * TP groups and FTDs on a wafer, print the FTD geometry statistics
 * (average hops, bounding-box area, intersections), and render the
 * traffic heatmaps of the attention all-reduce and the MoE all-to-all
 * — the complementary hot/cold link pattern NI-Balancer exploits
 * (Fig. 11 of the paper).
 *
 * Usage: mapping_explorer [meshN] [tp]   (defaults: 4 4)
 */

#include <cstdio>

#include "core/moentwine.hh"
#include "flags.hh"

using namespace moentwine;

namespace {

void
printLayout(const MeshTopology &mesh, const Mapping &mapping)
{
    std::printf("TP-group layout (G<group>): \n");
    for (int r = 0; r < mesh.rows(); ++r) {
        for (int c = 0; c < mesh.cols(); ++c)
            std::printf("G%-3d", mapping.tpGroupOf(mesh.deviceAt(r, c)));
        std::printf("\n");
    }
    std::printf("FTD layout (F<ftd>):\n");
    for (int r = 0; r < mesh.rows(); ++r) {
        for (int c = 0; c < mesh.cols(); ++c)
            std::printf("F%-3d", mapping.ftdOf(mesh.deviceAt(r, c)));
        std::printf("\n");
    }
}

void
explore(const MeshTopology &mesh, const Mapping &mapping)
{
    std::printf("==== %s ====\n", mapping.name().c_str());
    printLayout(mesh, mapping);

    Summary hops;
    Summary area;
    for (const auto &ftd : mapping.ftds()) {
        hops.add(ftdAverageHops(mesh, ftd));
        area.add(ftdBoundingBox(mesh, ftd).area());
    }
    std::printf("FTDs: %zu, avg intra-FTD hops %.2f, avg bounding area "
                "%.1f, intersecting pairs %d\n",
                mapping.ftds().size(), hops.mean(), area.mean(),
                countFtdIntersections(mesh, mapping.ftds()));

    const auto comm =
        evaluateCommunication(mapping, deepseekV3(), 256, true);
    std::printf("all-reduce %.1f us, all-to-all %.1f us\n\n",
                comm.allReduce * 1e6, comm.allToAll() * 1e6);

    std::printf("all-reduce traffic heatmap (0-9 per link):\n%s\n",
                comm.arTraffic.heatmapAscii(mesh).c_str());
    std::printf("all-to-all traffic heatmap:\n%s\n",
                comm.a2aTraffic.heatmapAscii(mesh).c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const int meshN =
        argc > 1 ? benchflags::positiveInt(argv[1], "meshN") : 4;
    const int tp = argc > 2 ? benchflags::positiveInt(argv[2], "tp") : 4;

    const MeshTopology mesh = MeshTopology::singleWafer(meshN);
    const auto par = decomposeTp(tp, mesh.rows(), mesh.cols());
    std::printf("mesh %dx%d, %s\n\n", meshN, meshN,
                par.label().c_str());

    const BaselineMapping baseline(mesh, par);
    explore(mesh, baseline);
    const ErMapping er(mesh, par);
    explore(mesh, er);
    return 0;
}
