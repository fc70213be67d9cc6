/**
 * @file
 * Occupancy-adaptive per-(src, dst) traffic accumulation for the token
 * router's flow aggregation.
 *
 * The MoE all-to-all touches O(dp · experts · replicas · tp) device
 * pairs — a vanishing fraction of devices² at wafer scale (a 16k-device
 * system has 268M pairs but dispatch reaches only a few hundred
 * thousand of them). The dense byte matrix that made 1k devices fast
 * therefore becomes the memory wall at 10k+ devices: devices² doubles
 * is ~2 GB per phase at 16k, allocated and cleared every iteration.
 *
 * TrafficAccumulator hides the storage choice behind one interface:
 *
 *  - Dense: a devices² double matrix (today's representation; O(1)
 *    add, O(devices²) memory and clear);
 *  - Sparse: an append-only buffer of (pair, bytes) entries compacted
 *    once, when forEachTiled() or occupancy() first needs sorted pairs,
 *    by a stable radix sort — add() is a sequential push (no hashing,
 *    no random cache-line touches), duplicates merge at that one
 *    compaction in arrival order, and memory is O(adds per iteration).
 *    Steady-state allocation-free once the buffers reach the
 *    workload's high-water mark. Systems of up to 16,384 devices.
 *
 * An accumulator picks Dense below kSparseThreshold devices and Sparse
 * at or above it; tests and BM_TrafficReduce construct one pinned to a
 * storage to compare the two on the same system. There is no point
 * query: the accumulated bytes are read only as the emitted flows.
 *
 * Both storages are bitwise equivalent: per-pair byte sums accumulate
 * in identical arrival order — the sparse merge is a left fold over
 * entries kept in arrival order by the *stable* sort, the same
 * double-addition sequence as dense's in-place `+=` — and
 * forEachTiled() emits the non-zero pairs of either storage in the
 * same deterministic tile-major order: (src-tile, dst-tile, src, dst)
 * with kTileDevices×kTileDevices tiles. The tiling is what blocks the
 * matrix→PhaseTraffic::addFlow reduction for cache locality: flows of
 * one (src, dst) block walk neighbouring routes, so they touch a small
 * set of link volumes instead of striding the whole mesh. Systems with
 * at most kTileDevices devices fit in a single tile, so their emission
 * order is plain row-major — identical to the historical dense scan.
 */

#ifndef MOENTWINE_NETWORK_TRAFFIC_ACCUM_HH
#define MOENTWINE_NETWORK_TRAFFIC_ACCUM_HH

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "topology/graph.hh"

namespace moentwine {

/**
 * Per-(src, dst) accumulator storage. Both kinds produce bitwise
 * identical flow lists; they trade the dense matrix's O(devices²)
 * memory and clear against the sparse path's per-emission radix
 * compaction of the appended entries.
 */
enum class TrafficStorageKind
{
    /** Explicit devices×devices byte matrix. */
    Dense,
    /** Append buffer of touched (src, dst) pairs, sorted at emission. */
    Sparse,
};

/**
 * Per-(src, dst) byte accumulator over a TrafficStorageKind chosen by
 * device count (or pinned at construction).
 *
 * Lifecycle per iteration: reset() (keeps capacity), add() for every
 * logical transfer, forEachTiled() to materialise flows. All three are
 * allocation-free in steady state under both storages; the sparse path
 * allocates only while growing toward the workload's high-water
 * occupancy.
 */
class TrafficAccumulator
{
  public:
    /**
     * Storage cutover: systems at or above this many devices use the
     * sparse accumulator. Below it the dense matrix is at most
     * ~128 MB and its branch-free add/clear wins; at or above it the
     * matrix's devices² growth (2.1 GB at 16k devices) dominates RSS
     * while MoE dispatch still touches only O(dp · experts · tp) pairs.
     */
    static constexpr int kSparseThreshold = 4096;

    /**
     * Edge length of the (src, dst) emission tiles. 64×64 pairs cover
     * a 32 KB dense block and keep the link volumes touched by one
     * tile's route walks resident. Also the compatibility knob:
     * systems with <= kTileDevices devices emit in plain row-major
     * order, bit-identical to the pre-tiling scan.
     */
    static constexpr int kTileDevices = 64;

    /** Storage chosen by device count at each reset(). */
    TrafficAccumulator() = default;

    /** Accumulator pinned to @p kind whatever the device count. */
    explicit TrafficAccumulator(TrafficStorageKind kind) : pinned_(kind) {}

    /** Heap bytes the dense matrix needs for @p devices (analytic). */
    static std::size_t denseBytes(int devices)
    {
        return static_cast<std::size_t>(devices) *
            static_cast<std::size_t>(devices) * sizeof(double);
    }

    /**
     * Clear and re-shape for a system of @p devices, choosing the
     * storage by device count unless pinned. Buffers keep their
     * capacity, so repeated resets at a fixed size allocate nothing
     * (dense) or nothing once the buffers reached the workload's
     * high-water entry count (sparse). The sparse storage asserts
     * @p devices <= 16384.
     */
    void reset(int devices);

    /** Accumulate @p bytes onto the (src, dst) pair. */
    void add(DeviceId src, DeviceId dst, double bytes)
    {
        if (active_ == TrafficStorageKind::Dense) {
            dense_[static_cast<std::size_t>(src) *
                       static_cast<std::size_t>(devices_) +
                   static_cast<std::size_t>(dst)] += bytes;
            return;
        }
        entries_.emplace_back(tileOrderKey(src, dst), bytes);
        sorted_ = false;
    }

    /**
     * Number of distinct pairs holding a positive byte sum (sparse:
     * compacts, then counts, O(entries); dense: counted by scan,
     * O(devices²)).
     */
    std::size_t occupancy();

    /** The storage in use since the last reset(). */
    TrafficStorageKind activeKind() const { return active_; }

    /** Device count of the last reset(). */
    int devices() const { return devices_; }

    /** Heap footprint of the accumulator (all retained buffers). */
    std::size_t storageBytes() const;

    /**
     * Emit every pair with positive bytes as fn(src, dst, bytes), in
     * tile-major order — (src / kTileDevices, dst / kTileDevices, src,
     * dst) lexicographic — identically under both storages. The dense
     * path scans the matrix in blocked order; the sparse path compacts
     * its append buffer into the same order (stable LSD radix passes
     * over reused scratch vectors plus an arrival-order duplicate
     * merge: O(entries), no steady-state allocation).
     */
    template <typename Fn>
    void forEachTiled(Fn &&fn)
    {
        if (devices_ <= 0)
            return;
        if (active_ == TrafficStorageKind::Dense) {
            const int T = kTileDevices;
            for (int st = 0; st < devices_; st += T) {
                const int sEnd = std::min(st + T, devices_);
                for (int dt = 0; dt < devices_; dt += T) {
                    const int dEnd = std::min(dt + T, devices_);
                    for (int s = st; s < sEnd; ++s) {
                        const double *row = dense_.data() +
                            static_cast<std::size_t>(s) *
                                static_cast<std::size_t>(devices_);
                        for (int d = dt; d < dEnd; ++d) {
                            if (row[d] > 0.0)
                                fn(static_cast<DeviceId>(s),
                                   static_cast<DeviceId>(d), row[d]);
                        }
                    }
                }
            }
            return;
        }
        compact();
        for (const Entry &e : entries_) {
            if (e.second <= 0.0)
                continue;
            DeviceId s, d;
            unpackTileOrderKey(e.first, s, d);
            fn(s, d, e.second);
        }
    }

  private:
    /**
     * Pack a pair so plain ascending order equals tile-major order:
     * [src-tile : tileBits_][dst-tile : tileBits_][src-in-tile : 6]
     * [dst-in-tile : 6] (kTileDevices = 64 fixes the 6-bit fields;
     * tileBits_ is sized to the device count at reset(), at most 8).
     * Keeping the two tile fields adjacent lets the radix sort cover
     * both in one counting pass.
     */
    std::uint64_t tileOrderKey(DeviceId src, DeviceId dst) const
    {
        const auto s = static_cast<std::uint64_t>(
            static_cast<std::uint32_t>(src));
        const auto d = static_cast<std::uint64_t>(
            static_cast<std::uint32_t>(dst));
        return ((s >> 6) << (12 + tileBits_)) | ((d >> 6) << 12) |
            ((s & 63u) << 6) | (d & 63u);
    }

    void unpackTileOrderKey(std::uint64_t key, DeviceId &src,
                            DeviceId &dst) const
    {
        const std::uint64_t tileMask = (std::uint64_t{1} << tileBits_) - 1;
        src = static_cast<DeviceId>(((key >> (12 + tileBits_)) << 6) |
                                    ((key >> 6) & 63u));
        dst = static_cast<DeviceId>((((key >> 12) & tileMask) << 6) |
                                    (key & 63u));
    }

    using Entry = std::pair<std::uint64_t, double>;

    /**
     * Sort the append buffer once per iteration: stable-radix-sort the
     * entries by tile-order key (LSD counting passes: the in-tile
     * digit, then both tile fields) and left-fold duplicate keys in
     * arrival order. A no-op once sorted. O(entries), allocation-free
     * at steady state.
     */
    void compact();

    /** One stable counting pass on digit (key >> shift) & (buckets-1). */
    void radixPass(const Entry *src, Entry *dst, std::size_t n,
                   unsigned shift, std::size_t buckets);

    int devices_ = 0;
    std::optional<TrafficStorageKind> pinned_;
    TrafficStorageKind active_ = TrafficStorageKind::Dense;

    // Dense storage: row-major src × devices + dst byte matrix.
    std::vector<double> dense_;

    // Sparse storage: append buffer of (tile-order key, bytes) entries
    // plus the radix ping-pong scratch and digit histogram. sorted_
    // holds from compact() to the next add().
    std::vector<Entry> entries_;
    std::vector<Entry> scratch_;
    std::vector<std::uint32_t> hist_;
    bool sorted_ = false;
    unsigned tileBits_ = 0;
};

} // namespace moentwine

#endif // MOENTWINE_NETWORK_TRAFFIC_ACCUM_HH
