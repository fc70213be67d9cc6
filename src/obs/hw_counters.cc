#include "obs/hw_counters.hh"

#if defined(__linux__)
#include <cstring>
#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace moentwine {

#if defined(__linux__)

HwCounters::HwCounters()
{
    // Fails with EPERM/EACCES in locked-down containers and ENOENT on
    // PMU-less VMs.
    perf_event_attr attr;
    std::memset(&attr, 0, sizeof(attr));
    attr.size = sizeof(attr);
    attr.type = PERF_TYPE_HARDWARE;
    attr.config = PERF_COUNT_HW_CPU_CYCLES;
    attr.disabled = 1;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    fd_ = static_cast<int>(syscall(SYS_perf_event_open, &attr, 0, -1, -1, 0));
}

HwCounters::~HwCounters()
{
    if (fd_ >= 0)
        close(fd_);
}

#else // !__linux__

HwCounters::HwCounters() = default;
HwCounters::~HwCounters() = default;

#endif

} // namespace moentwine
