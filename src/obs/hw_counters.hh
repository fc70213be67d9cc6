/**
 * @file
 * HwCounters: a minimal perf_event_open wrapper for the sweep worker
 * loops — cycles, instructions, last-level cache misses, and dTLB read
 * misses around a timed region, so performance numbers can say *why*
 * a change is faster (fewer misses vs fewer instructions), not just
 * that wall-clock moved.
 *
 * Graceful degradation is the contract: on non-Linux builds, in
 * containers/CI where perf_event_open is denied
 * (kernel.perf_event_paranoid, seccomp), or on PMU-less VMs,
 * available() is false and stop() returns all-zero values — callers
 * never branch on platform, and the JSON they emit simply carries
 * zeros with "hw_available": false. Individual counters that fail to
 * open (e.g. no dTLB event on an exotic PMU) read zero while the
 * rest stay live.
 *
 * The four events are opened as one group (cycles leads) so they are
 * scheduled together and the derived IPC is consistent. Counts cover
 * user-space only (exclude_kernel, exclude_hv) on the calling
 * thread.
 */

#ifndef MOENTWINE_OBS_HW_COUNTERS_HH
#define MOENTWINE_OBS_HW_COUNTERS_HH

#include <cstdint>

namespace moentwine {

/** One measured region's counter totals (zeros when unavailable). */
struct HwCounterValues
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t dtlbMisses = 0;
    /** False when the PMU could not be opened (values are zeros). */
    bool available = false;

    /** Instructions per cycle; 0 when cycles is 0. */
    double ipc() const
    {
        return cycles > 0
            ? static_cast<double>(instructions) /
                static_cast<double>(cycles)
            : 0.0;
    }
};

class HwCounters
{
  public:
    /** Open the counter group; available() reports the outcome. */
    HwCounters();
    ~HwCounters();

    HwCounters(const HwCounters &) = delete;
    HwCounters &operator=(const HwCounters &) = delete;

    /** True when the PMU group opened and counts will be real. */
    bool available() const { return fds_[0] >= 0; }

    /** Reset and enable the group (no-op when unavailable). */
    void start();

    /** Disable the group and read totals (zeros when unavailable). */
    HwCounterValues stop();

  private:
    static constexpr int kEvents = 4;
    int fds_[kEvents] = {-1, -1, -1, -1};
};

} // namespace moentwine

#endif // MOENTWINE_OBS_HW_COUNTERS_HH
