/**
 * @file
 * HwCounters: a probe for whether this process may read the PMU
 * through perf_event_open. perfbench prints its answer as
 * `hw.available`, so a run records whether `perf stat` style counts
 * could have been taken on its host.
 *
 * The probe opens one disabled user-space cycles counter on the
 * calling thread and holds it until destruction. On non-Linux builds,
 * in containers/CI where perf_event_open is denied
 * (kernel.perf_event_paranoid, seccomp), or on PMU-less VMs,
 * available() is false.
 */

#ifndef MOENTWINE_OBS_HW_COUNTERS_HH
#define MOENTWINE_OBS_HW_COUNTERS_HH

namespace moentwine {

class HwCounters
{
  public:
    /** Open the cycles counter; available() reports the outcome. */
    HwCounters();
    ~HwCounters();

    HwCounters(const HwCounters &) = delete;
    HwCounters &operator=(const HwCounters &) = delete;

    /** True when the cycles counter opened. */
    bool available() const { return fd_ >= 0; }

  private:
    int fd_ = -1;
};

} // namespace moentwine

#endif // MOENTWINE_OBS_HW_COUNTERS_HH
