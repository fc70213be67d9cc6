/**
 * @file
 * Fig. 11: traffic heatmaps of the attention all-reduce and the MoE
 * all-to-all under ER-Mapping, demonstrating the complementary
 * distribution of hot and cold links that NI-Balancer schedules hidden
 * migrations into:
 *   - during all-reduce, intra-FTD links are cold (hot links confined
 *     to ring-intersection / FTD-connection areas);
 *   - during all-to-all, traffic is confined within FTDs and every
 *     inter-FTD link is cold.
 *
 * Cases match Fig. 11(c): a 4×4 wafer with DP=8/TP=2 and a 6×6 wafer
 * with DP=9/TP=4, plus the canonical 4×4 DP=4/TP=4.
 *
 * The complementarity metrics run on the SweepRunner case grid
 * (`--jobs N`); the ASCII heatmaps render serially afterwards.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "core/moentwine.hh"
#include "sweep/sweep.hh"
#include "jobs.hh"
#include "sweep_output.hh"

using namespace moentwine;

namespace {

struct Case
{
    int meshN;
    int tp;
};

constexpr Case kCases[] = {
    {4, 4}, // canonical Fig. 11(a)/(b) case
    {4, 2}, // Fig. 11(c), 4x4 DP=8 TP=2
    {6, 4}, // Fig. 11(c), 6x6 DP=9 TP=4
};

/** Rendered AR/A2A heatmaps of one case (filled by the cell worker). */
struct Heatmaps
{
    std::string ar;
    std::string a2a;
};

/** Inter-FTD volume share (%) of each phase of one case; renders the
 *  case's heatmaps into @p maps as a side effect. */
SweepResult
complementarity(const Case &c, Heatmaps &maps)
{
    const MeshTopology mesh = MeshTopology::singleWafer(c.meshN);
    const auto par = decomposeTp(c.tp, c.meshN, c.meshN);
    const ErMapping er(mesh, par);
    const auto comm = evaluateCommunication(er, deepseekV3(), 256, true);
    maps.ar = comm.arTraffic.heatmapAscii(mesh);
    maps.a2a = comm.a2aTraffic.heatmapAscii(mesh);

    double arIntra = 0.0;
    double arInter = 0.0;
    double a2aIntra = 0.0;
    double a2aInter = 0.0;
    for (std::size_t l = 0; l < mesh.links().size(); ++l) {
        const Link &link = mesh.links()[l];
        const bool inter = er.ftdOf(link.src) != er.ftdOf(link.dst);
        const auto id = static_cast<LinkId>(l);
        (inter ? arInter : arIntra) += comm.arTraffic.linkVolume(id);
        (inter ? a2aInter : a2aIntra) += comm.a2aTraffic.linkVolume(id);
    }

    SweepResult row;
    row.label = std::to_string(c.meshN) + "x" +
        std::to_string(c.meshN) + " " + par.label() + " DP=" +
        std::to_string(er.dp());
    row.add("mesh_n", c.meshN);
    row.add("tp", c.tp);
    row.add("ar_inter_pct", 100.0 * arInter / (arInter + arIntra));
    row.add("a2a_inter_pct",
            100.0 * a2aInter / (a2aInter + a2aIntra + 1e-30));
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    if (!benchflags::positionals(argc, argv).empty())
        fatal("fig11_heatmaps takes no positional arguments");
    std::printf("== Fig. 11: complementary hot/cold link distribution "
                "under ER-Mapping ==\n\n");

    SweepGrid grid;
    grid.params = {0, 1, 2}; // case index

    // Each cell renders its heatmaps into its own slot; the serial
    // print loop below reads them without recomputing anything.
    std::vector<Heatmaps> maps(grid.cells());
    const SweepRunner runner = benchjobs::makeRunner(argc, argv);
    const auto rows = runner.run(grid, [&maps](const SweepCell &cell) {
        return complementarity(
            kCases[static_cast<int>(cell.point.parameter())],
            maps[cell.point.index]);
    });

    for (std::size_t i = 0; i < rows.size(); ++i) {
        std::printf("-- %s --\n", rows[i].label.c_str());
        std::printf("all-reduce traffic (hot = FTD connections):\n%s\n",
                    maps[i].ar.c_str());
        std::printf("all-to-all traffic (confined within FTDs):\n%s\n",
                    maps[i].a2a.c_str());
        std::printf("all-reduce volume:  %5.1f%% on inter-FTD links\n",
                    rows[i].metric("ar_inter_pct"));
        std::printf("all-to-all volume:  %5.1f%% on inter-FTD links "
                    "(complementary)\n\n",
                    rows[i].metric("a2a_inter_pct"));
    }
    benchout::writeSweepFiles("fig11_heatmaps", rows);
    return 0;
}
