/**
 * @file
 * Thread groups: chunked storage for thread specifications.
 *
 * Grouping threads in fixed-capacity arrays amortizes management cost
 * (paper Section 3.2): forking is usually a pointer bump into the
 * current group. Group objects come from slab-backed storage — one
 * allocation covers kSlabGroups descriptors and their spec arrays —
 * and recycle through an intrusive free list between runs, so steady
 * state forking performs no allocation and a cold burst performs two
 * per slab rather than two per group.
 */

#ifndef LSCHED_THREADS_THREAD_GROUP_HH
#define LSCHED_THREADS_THREAD_GROUP_HH

#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "support/failpoint.hh"
#include "support/panic.hh"
#include "threads/thread.hh"

namespace lsched::threads
{

/** A chunk of thread specifications chained within one bin. */
struct ThreadGroup
{
    /** Chunk storage; points into the owning pool's slab. */
    ThreadSpec *specs = nullptr;
    /** Capacity of specs. */
    std::uint32_t capacity = 0;
    /** Number of live specs. */
    std::uint32_t count = 0;
    /** Next group in the same bin (fork order). */
    ThreadGroup *next = nullptr;

    /** True when no further spec fits. */
    bool full() const { return count == capacity; }

    /** Append a spec; the group must not be full. */
    void
    push(ThreadFn fn, void *arg1, void *arg2)
    {
        specs[count++] = {fn, arg1, arg2};
    }
};

/**
 * Allocator/recycler for ThreadGroups. Fresh groups are carved from
 * slabs (stable addresses, two allocations per kSlabGroups groups);
 * recycled groups come off an intrusive free list in constant time.
 */
class GroupPool
{
  public:
    /** Groups carved per slab allocation. */
    static constexpr std::uint32_t kSlabGroups = 16;

    /** @param capacity threads per group (> 0). */
    explicit GroupPool(std::uint32_t capacity)
        : capacity_(capacity)
    {
        LSCHED_ASSERT(capacity_ > 0, "group capacity must be positive");
    }

    /** Obtain an empty group (recycled when possible). */
    ThreadGroup *
    allocate()
    {
        ThreadGroup *g;
        if (free_) {
            g = free_;
            free_ = g->next;
        } else {
            g = carve();
        }
        g->count = 0;
        g->next = nullptr;
        return g;
    }

    /** Return a whole bin chain of groups to the free list. */
    void
    recycleChain(ThreadGroup *head)
    {
        while (head) {
            ThreadGroup *next = head->next;
            head->count = 0;
            head->next = free_;
            free_ = head;
            head = next;
        }
    }

    /** Threads per group. */
    std::uint32_t capacity() const { return capacity_; }

    /** Groups ever handed out (capacity planning statistic). */
    std::size_t allocatedGroups() const { return handedOut_; }

    /** Slab allocations performed (each covers kSlabGroups groups). */
    std::size_t slabCount() const { return slabs_.size(); }

  private:
    /** One slab: group descriptors plus their shared spec storage. */
    struct Slab
    {
        std::unique_ptr<ThreadGroup[]> groups;
        std::unique_ptr<ThreadSpec[]> specs;
    };

    /** Hand out the next never-used group, growing by a slab. */
    ThreadGroup *
    carve()
    {
        if (slabUsed_ == kSlabGroups) {
            // Fail point standing in for a real out-of-memory from the
            // slab allocations below.
            if (LSCHED_FAILPOINT_HIT("grouppool.allocate"))
                throw std::bad_alloc();
            Slab slab;
            slab.groups = std::make_unique<ThreadGroup[]>(kSlabGroups);
            slab.specs = std::make_unique<ThreadSpec[]>(
                static_cast<std::size_t>(kSlabGroups) * capacity_);
            slabs_.push_back(std::move(slab));
            slabUsed_ = 0;
        }
        Slab &slab = slabs_.back();
        ThreadGroup *g = &slab.groups[slabUsed_];
        g->specs = slab.specs.get() +
                   static_cast<std::size_t>(slabUsed_) * capacity_;
        g->capacity = capacity_;
        ++slabUsed_;
        ++handedOut_;
        return g;
    }

    std::uint32_t capacity_;
    /** Groups carved from the current (last) slab; == kSlabGroups
     *  forces a new slab on the next carve. */
    std::uint32_t slabUsed_ = kSlabGroups;
    std::vector<Slab> slabs_;
    ThreadGroup *free_ = nullptr;
    std::size_t handedOut_ = 0;
};

} // namespace lsched::threads

#endif // LSCHED_THREADS_THREAD_GROUP_HH
