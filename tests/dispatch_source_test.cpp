/**
 * @file
 * Dispatch-source anchors. Every mapping names, for each (TP group,
 * shard rank, destination device, all-gather retained) query, the device
 * that supplies the token shard; these tests pin what it names:
 *  - pinned FNV-1a digests over every query on ER 4×4 and 8×8 (two TP
 *    shapes), Baseline 4×4, 8×8 and waferRow(2, 8), HER waferRow(2, 8),
 *    DGX(2) at tp 4 and tp 16, and NVL72 at tp 4 (DispatchDigest.*);
 *  - an exhaustive differential check of every query against the
 *    test-only nearest-member reference (dispatch_reference.hh), on
 *    those systems plus DGX(3) at tp 6;
 *  - dispatchSourceRankInvariant() holds wherever a mapping claims it;
 *  - dispatchPairsSingleSourced() holds wherever a mapping claims it
 *    (each remote (src, dst) pair has one (group, rank) feeder, which
 *    the token router's device walk relies on), and HER-Mapping with
 *    the all-gather does not claim it.
 *
 * The pinned constants were derived from the nearest-member scan the
 * closed-form rules replaced; they must never be regenerated to make a
 * dispatch change pass.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "digest.hh"
#include "dispatch_reference.hh"

using namespace moentwine;

namespace {

/**
 * Digest of every dispatch source of @p m: all-gather off then on,
 * groups, ranks and destinations in ascending order.
 */
std::uint64_t
dispatchDigest(const Mapping &m)
{
    std::uint64_t h = digest::kOffset;
    for (const bool ag : {false, true})
        for (int g = 0; g < m.dp(); ++g)
            for (int r = 0; r < m.tp(); ++r)
                for (DeviceId d = 0; d < m.numDevices(); ++d)
                    digest::mix(h, static_cast<std::uint64_t>(
                               m.dispatchSource(g, r, d, ag)));
    return h;
}

/** Digest of the dispatch system named @p label (0 if none). */
std::uint64_t
digestOf(const std::string &label)
{
    for (const auto &s : reference::dispatchSystems())
        if (s.label == label)
            return dispatchDigest(*s.mapping);
    ADD_FAILURE() << "no dispatch system " << label;
    return 0;
}

} // namespace

TEST(DispatchDigest, Er4x4)
{
    EXPECT_EQ(digestOf("er_4x4_tp2x2"), 0xa89c81c76812b325ULL);
}

TEST(DispatchDigest, Er8x8Tp2x2)
{
    EXPECT_EQ(digestOf("er_8x8_tp2x2"), 0x71c5e545ccca2325ULL);
}

TEST(DispatchDigest, Er8x8Tp4x2)
{
    EXPECT_EQ(digestOf("er_8x8_tp4x2"), 0x4a0cce69b4ca2325ULL);
}

TEST(DispatchDigest, Baseline4x4)
{
    EXPECT_EQ(digestOf("baseline_4x4_tp2x2"), 0xe6462a1145502b25ULL);
}

TEST(DispatchDigest, Baseline8x8)
{
    EXPECT_EQ(digestOf("baseline_8x8_tp2x2"), 0x9324861948dbe325ULL);
}

TEST(DispatchDigest, BaselineTwoWafer8x8)
{
    EXPECT_EQ(digestOf("baseline_2x8x8_tp2x2"), 0x85e319287ea12325ULL);
}

TEST(DispatchDigest, HerTwoWafer8x8)
{
    EXPECT_EQ(digestOf("her_2x8x8_tp2x2"), 0x0f4218e4b6822325ULL);
}

TEST(DispatchDigest, Dgx2Tp4)
{
    EXPECT_EQ(digestOf("dgx2_tp4"), 0x176f2e1e3f79eb25ULL);
}

TEST(DispatchDigest, Dgx2Tp16SpansNodes)
{
    EXPECT_EQ(digestOf("dgx2_tp16"), 0x82ade219f2c12b25ULL);
}

TEST(DispatchDigest, Nvl72Tp4)
{
    EXPECT_EQ(digestOf("nvl72_tp4"), 0x0da40bf564c69d25ULL);
}

TEST(DispatchReference, EveryQueryMatchesTheNearestMemberScan)
{
    for (const auto &s : reference::dispatchSystems()) {
        const Mapping &m = *s.mapping;
        int mismatches = 0;
        for (const bool ag : {false, true})
            for (int g = 0; g < m.dp(); ++g)
                for (int r = 0; r < m.tp(); ++r)
                    for (DeviceId d = 0; d < m.numDevices(); ++d)
                        if (m.dispatchSource(g, r, d, ag) !=
                            reference::dispatchSource(m, g, r, d, ag))
                            ++mismatches;
        EXPECT_EQ(mismatches, 0) << s.label;
    }
}

TEST(DispatchReference, RankInvariantClaimsHold)
{
    for (const auto &s : reference::dispatchSystems()) {
        const Mapping &m = *s.mapping;
        for (const bool ag : {false, true}) {
            if (!m.dispatchSourceRankInvariant(ag))
                continue;
            for (int g = 0; g < m.dp(); ++g)
                for (int r = 1; r < m.tp(); ++r)
                    for (DeviceId d = 0; d < m.numDevices(); ++d)
                        ASSERT_EQ(m.dispatchSource(g, r, d, ag),
                                  m.dispatchSource(g, 0, d, ag))
                            << s.label << " g" << g << " r" << r
                            << " d" << d;
        }
    }
}

// Where a mapping claims single-sourced pairs, the token router's
// device walk adds a (group, rank, device)'s bytes to the
// (source, device) pair once, pre-summed over the device's experts,
// which equals the per-expert adds bit for bit only if no other
// (group, rank) feeds the pair. Check the claim for every query; ranks
// collapse to rank 0 where the router collapses them, and a source
// equal to its destination carries no flow.
TEST(DispatchReference, SingleSourcedClaimsHold)
{
    std::size_t remotePairs = 0;
    for (const auto &s : reference::dispatchSystems()) {
        const Mapping &m = *s.mapping;
        for (const bool ag : {false, true}) {
            if (!m.dispatchPairsSingleSourced(ag))
                continue;
            const int ranks =
                m.dispatchSourceRankInvariant(ag) ? 1 : m.tp();
            std::map<std::pair<DeviceId, DeviceId>, std::pair<int, int>>
                feeder;
            int clashes = 0;
            for (int g = 0; g < m.dp(); ++g)
                for (int r = 0; r < ranks; ++r)
                    for (DeviceId d = 0; d < m.numDevices(); ++d) {
                        const DeviceId src = m.dispatchSource(g, r, d, ag);
                        if (src != d &&
                            !feeder.try_emplace({src, d}, g, r).second)
                            ++clashes;
                    }
            EXPECT_EQ(clashes, 0)
                << s.label << (ag ? " all-gather" : " owner-only");
            remotePairs += feeder.size();
        }
    }
    EXPECT_GT(remotePairs, 0u);
}

// HER-Mapping's mirrors are why the claim exists: with the all-gather
// a local position's mirror on a wafer serves that position's owner
// of every wafer, so it must not claim single-sourced pairs.
TEST(DispatchReference, HerMirrorsFeedPairsFromEveryWafer)
{
    for (const auto &s : reference::dispatchSystems()) {
        if (s.label.rfind("her_", 0) != 0)
            continue;
        const Mapping &m = *s.mapping;
        EXPECT_TRUE(m.dispatchPairsSingleSourced(false)) << s.label;
        EXPECT_FALSE(m.dispatchPairsSingleSourced(true)) << s.label;
        // Group 0's rank-0 owner and the same position's owner on the
        // last wafer share a mirror on every wafer.
        const DeviceId d = m.numDevices() - 1;
        int feeders = 0;
        for (int g = 0; g < m.dp(); ++g)
            for (int r = 0; r < m.tp(); ++r)
                feeders += m.dispatchSource(g, r, d, true) ==
                    m.dispatchSource(0, 0, d, true);
        EXPECT_GT(feeders, 1) << s.label;
    }
}
