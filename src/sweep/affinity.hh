/**
 * @file
 * Core-affinity and NUMA placement helpers for the sweep worker pool.
 *
 * The playbook is the classic locality-first one: pin each worker
 * thread to one core so its working set stays in that core's private
 * caches, and — on multi-socket boxes — build per-NUMA-node copies of
 * the hot read-only tables (the System's topology links, dispatch memos
 * and expert placements) on a thread already pinned to that node, so
 * first-touch places every page node-locally.
 *
 * Graceful degradation is the contract, mirroring obs/hw_counters.hh:
 * on non-Linux builds, in containers that mask the sysfs node
 * directories, or when pthread_setaffinity_np is refused by the
 * runtime, the helpers report one node / failed pin and callers fall
 * back to the unpinned single-copy behaviour. Affinity and NUMA
 * replication are placement-only mechanisms: they may never change a
 * simulated result (the sweep determinism contract in
 * sweep_runner.hh), only where the bytes producing it live.
 */

#ifndef MOENTWINE_SWEEP_AFFINITY_HH
#define MOENTWINE_SWEEP_AFFINITY_HH

#include <vector>

namespace moentwine {
namespace affinity {

/**
 * Number of CPUs usable by this process (affinity-mask aware on
 * Linux, hardware_concurrency otherwise); always >= 1.
 */
int cpuCount();

/**
 * CPU ids this process may run on, ascending. Workers are pinned
 * round-robin over this list — never to a raw index that a container
 * cpuset might exclude. Falls back to {0, 1, ..., cpuCount()-1} when
 * the mask cannot be read.
 */
std::vector<int> allowedCpus();

/**
 * Number of online NUMA nodes, from /sys/devices/system/node; 1 on
 * single-socket boxes, non-Linux builds, and when sysfs is masked.
 */
int numaNodeCount();

/**
 * NUMA node of @p cpu, parsed from the node cpulist files; 0 when
 * unknown (single-node fallback). Stable across calls.
 */
int nodeOfCpu(int cpu);

/**
 * Pin the calling thread to @p cpu via pthread_setaffinity_np.
 * Returns false (and leaves the thread free-running) when the
 * platform lacks the call or the kernel refuses it — e.g. @p cpu is
 * outside the container's cpuset on a 1-core box.
 */
bool pinSelfToCpu(int cpu);

} // namespace affinity
} // namespace moentwine

#endif // MOENTWINE_SWEEP_AFFINITY_HH
