/**
 * @file
 * Test-only reference of the dispatch-source rules, and the systems the
 * dispatch tests share.
 *
 * The reference is the rule as it stood before every mapping stated its
 * own O(1) closed form: a scan of the TP group ranking members by hop
 * count (ties prefer the destination's FTD, then the lower id), confined
 * to the destination's FTD on ER-Mapping, and HER-Mapping's coordinate
 * arithmetic for the owner's mirror on the expert's wafer. It is slow on
 * purpose (tp hop queries per call) and exists only so
 * dispatch_source_test can demand that each production rule names the
 * same device for every (group, rank, destination, all-gather) query.
 */

#ifndef MOENTWINE_TESTS_DISPATCH_REFERENCE_HH
#define MOENTWINE_TESTS_DISPATCH_REFERENCE_HH

#include <memory>
#include <string>
#include <vector>

#include "mapping/mapping.hh"
#include "topology/topology.hh"

namespace moentwine {
namespace reference {

/**
 * Nearest member of TP group @p group to device @p to: with
 * @p confineToFtd, the member inside @p to's FTD; otherwise (or when
 * the FTD holds none) the fewest hops away, ties preferring @p to's FTD,
 * then the lower id.
 */
DeviceId nearestGroupMember(const Mapping &mapping, int group,
                            DeviceId to, bool confineToFtd);

/**
 * Dispatch source of (group, rank) for @p expertDevice under the
 * pre-closed-form rules: the rank owner without the all-gather; with
 * it, the owner's mirror on the expert's wafer for HER-Mapping, the
 * FTD-confined nearest member for ER-Mapping, and the nearest member
 * for every other mapping.
 */
DeviceId dispatchSource(const Mapping &mapping, int group, int rank,
                        DeviceId expertDevice, bool allGatherRetained);

/** A topology and a mapping placed on it, owned together. */
struct DispatchSystem
{
    std::string label;
    std::unique_ptr<Topology> topology;
    std::unique_ptr<Mapping> mapping;
};

/**
 * The systems the dispatch digests and the differential test cover:
 * ER on 4×4 (2×2) and 8×8 (2×2 and 4×2); Baseline on 4×4, 8×8 and
 * waferRow(2, 8); HER on waferRow(2, 8); Cluster on dgx(2) at tp 4 and
 * tp 16 (a group spanning nodes), dgx(3) at tp 6 (groups straddling a
 * node boundary) and NVL72 at tp 4.
 */
std::vector<DispatchSystem> dispatchSystems();

} // namespace reference
} // namespace moentwine

#endif // MOENTWINE_TESTS_DISPATCH_REFERENCE_HH
