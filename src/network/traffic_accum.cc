#include "network/traffic_accum.hh"

namespace moentwine {

void TrafficAccumulator::reset(int devices)
{
    MOE_ASSERT(devices >= 0, "traffic accumulator device count negative");
    devices_ = devices;
    active_ = pinned_.value_or(devices >= kSparseThreshold
                                   ? TrafficStorageKind::Sparse
                                   : TrafficStorageKind::Dense);
    if (active_ == TrafficStorageKind::Dense) {
        const std::size_t cells = static_cast<std::size_t>(devices) *
            static_cast<std::size_t>(devices);
        if (dense_.size() != cells)
            dense_.assign(cells, 0.0);
        else
            std::fill(dense_.begin(), dense_.end(), 0.0);
        return;
    }
    const std::size_t numTiles =
        (static_cast<std::size_t>(devices) + kTileDevices - 1) /
        kTileDevices;
    tileBits_ = 0;
    while ((std::size_t{1} << tileBits_) < numTiles)
        ++tileBits_;
    // The radix histogram covers the in-tile digit (12 bits) and the
    // combined two-tile digit (2·tileBits bits); 8 tile bits = 256
    // tiles of 64 = 16384 devices.
    MOE_ASSERT(tileBits_ <= 8,
               "sparse traffic accumulation supports up to 16384 devices");
    const std::size_t histSize = std::size_t{1}
        << std::max<unsigned>(12, 2 * tileBits_);
    if (hist_.size() < histSize)
        hist_.assign(histSize, 0u);
    entries_.clear();
    sorted_ = true;
}

void TrafficAccumulator::compact()
{
    if (sorted_)
        return;
    const std::size_t n = entries_.size();
    scratch_.resize(n);
    // Stable LSD counting passes over the tile-order key: the in-tile
    // digit (12 bits), then both tile fields in one pass. Duplicate
    // keys stay in arrival order throughout.
    radixPass(entries_.data(), scratch_.data(), n, 0,
              std::size_t{1} << 12);
    const Entry *sorted = scratch_.data();
    if (tileBits_ > 0) {
        radixPass(scratch_.data(), entries_.data(), n, 12,
                  std::size_t{1} << (2 * tileBits_));
        sorted = entries_.data();
    }
    // Left-fold duplicates in arrival order: the same double-addition
    // sequence the dense matrix's in-place `+=` performs, so per-pair
    // sums stay bit-identical across storages. Writing back into
    // entries_ is safe even when it is the sorted buffer itself — the
    // write index never passes the read index.
    std::size_t out = 0;
    for (std::size_t i = 0; i < n;) {
        const std::uint64_t key = sorted[i].first;
        double sum = sorted[i].second;
        for (++i; i < n && sorted[i].first == key; ++i)
            sum += sorted[i].second;
        entries_[out++] = Entry(key, sum);
    }
    entries_.resize(out);
    sorted_ = true;
}

void TrafficAccumulator::radixPass(const Entry *src, Entry *dst,
                                   std::size_t n, unsigned shift,
                                   std::size_t buckets)
{
    std::fill(hist_.begin(),
              hist_.begin() + static_cast<std::ptrdiff_t>(buckets), 0u);
    const std::uint64_t mask = buckets - 1;
    for (std::size_t i = 0; i < n; ++i)
        ++hist_[(src[i].first >> shift) & mask];
    std::uint32_t base = 0;
    for (std::size_t b = 0; b < buckets; ++b) {
        const std::uint32_t count = hist_[b];
        hist_[b] = base;
        base += count;
    }
    for (std::size_t i = 0; i < n; ++i)
        dst[hist_[(src[i].first >> shift) & mask]++] = src[i];
}

std::size_t TrafficAccumulator::occupancy()
{
    if (active_ == TrafficStorageKind::Sparse) {
        compact();
        std::size_t n = 0;
        for (const Entry &e : entries_) {
            if (e.second > 0.0)
                ++n;
        }
        return n;
    }
    std::size_t n = 0;
    for (const double v : dense_) {
        if (v > 0.0)
            ++n;
    }
    return n;
}

std::size_t TrafficAccumulator::storageBytes() const
{
    return dense_.capacity() * sizeof(double) +
        (entries_.capacity() + scratch_.capacity()) * sizeof(Entry) +
        hist_.capacity() * sizeof(std::uint32_t);
}

} // namespace moentwine
