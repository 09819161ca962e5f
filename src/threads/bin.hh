/**
 * @file
 * The scheduling bin (paper Section 3.2): carries a search key (the
 * block coordinates, plus its cached hash for the open-addressing
 * table) and two links — the chain of thread groups scheduled into
 * the bin, and the ready-list link used for run-time traversal.
 */

#ifndef LSCHED_THREADS_BIN_HH
#define LSCHED_THREADS_BIN_HH

#include <cstdint>

#include "threads/hints.hh"
#include "threads/thread_group.hh"

namespace lsched::threads
{

/** Super-bin id of bins placed by a non-hierarchical policy. */
constexpr std::uint32_t kNoSuperBin = 0xffffffffu;

/** One bin of the scheduling space. */
struct Bin
{
    /** Search key: block coordinates in the scheduling space. */
    BlockCoords coords{};

    /** Stable allocation index, used as the bin's trace identity. */
    std::uint32_t id = 0;

    /**
     * Second-level placement group (TopologyPlacement): bins of
     * one super-bin are toured contiguously and handed to a parallel
     * worker as a unit. kNoSuperBin under flat placements.
     */
    std::uint32_t superBin = kNoSuperBin;

    /** Cached hash of coords (avoids re-mixing on probe and rehash). */
    std::uint64_t hashVal = 0;

    /** Link 1: chain of thread groups, in fork order. */
    ThreadGroup *groupsHead = nullptr;
    ThreadGroup *groupsTail = nullptr;

    /** Link 2: next bin on the ready list (allocation order). */
    Bin *readyNext = nullptr;

    /** Threads currently scheduled in this bin. */
    std::uint64_t threadCount = 0;

    /**
     * Streaming intake: how many times this bin has been sealed this
     * stream (each seal detaches the group chain and re-opens the
     * bin for new forks), and total threads admitted across epochs.
     * threadCount is then the current epoch's count.
     */
    std::uint32_t streamEpoch = 0;
    std::uint64_t streamTotalThreads = 0;

    /** True while the bin is linked on the ready list. */
    bool onReadyList = false;

    /**
     * Append a thread spec, chaining a fresh group from @p pool when
     * the tail group is full (the paper's th_fork). A failed group
     * allocation leaves the bin unchanged.
     */
    void
    push(GroupPool &pool, ThreadFn fn, void *arg1, void *arg2)
    {
        ThreadGroup *group = groupsTail;
        if (!group || group->full()) {
            group = pool.allocate();
            if (groupsTail)
                groupsTail->next = group;
            else
                groupsHead = group;
            groupsTail = group;
        }
        group->push(fn, arg1, arg2);
        ++threadCount;
    }

    /** Detach all thread groups (they go back to the pool). */
    void
    clearGroups()
    {
        groupsHead = nullptr;
        groupsTail = nullptr;
        threadCount = 0;
    }
};

} // namespace lsched::threads

#endif // LSCHED_THREADS_BIN_HH
