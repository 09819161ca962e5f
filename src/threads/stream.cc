/**
 * @file
 * StreamSession implementation: per-producer intake, seal/epoch
 * hand-off, ticket backpressure, and the drain loops. See stream.hh
 * and DESIGN.md §16 for the design.
 */

#include "threads/stream.hh"

#include <algorithm>
#include <chrono>
#include <string>
#include <tuple>

#include "support/error.hh"
#include "support/panic.hh"
#include "support/prng.hh"
#include "threads/bin_exec.hh"
#include "threads/sched_obs.hh"
#include "threads/scheduler.hh"

namespace lsched::threads
{

namespace
{

/** Backpressure backoff: first wait, doubling per no-progress round. */
constexpr std::uint64_t kBackoffBaseUs = 500;
/** Backoff ceiling, so a long stall still polls for liveness. */
constexpr std::uint64_t kBackoffCapUs = 50'000;
/** Governor tick when no deadline sets the epoch length. */
constexpr std::uint32_t kGovernorTickMillis = 20;
/** Warn every this many no-progress rounds when retries are ∞. */
constexpr unsigned kStallWarnPeriod = 32;

/**
 * True while this producer thread is draining a sealed bin inline
 * (backpressure help or queue-full relief). Nested forks from the
 * user threads it runs bypass the maxPending bound — blocking would
 * deadlock the one thread doing the draining.
 */
thread_local bool t_inInlineDrain = false;

struct InlineDrainScope
{
    InlineDrainScope() { t_inInlineDrain = true; }
    ~InlineDrainScope() { t_inInlineDrain = false; }
};

/** Source of StreamSession serials (0 is never handed out). */
std::atomic<std::uint64_t> g_nextSerial{1};

/** This OS thread's producer in the session it forked into last. */
struct ProducerCache
{
    std::uint64_t serial = 0;
    detail::StreamProducer *producer = nullptr;
};

thread_local ProducerCache t_producer;

using detail::StreamProducer;

} // namespace

StreamSession::StreamSession(const SchedulerConfig &config,
                             PlacementPolicy &placement,
                             WorkerPool *pool, unsigned drainWorkers,
                             detail::RecoveryStats *recovery,
                             OverloadGovernor *governor)
    : dims_(config.dims),
      sealThreshold_(config.streamSealThreshold),
      maxPending_(config.streamMaxPending),
      deadlineMillis_(config.deadlineMillis),
      admitRetries_(config.streamAdmitRetries),
      placement_(placement),
      placementStateless_(placement.stateless()),
      placementAdaptive_(placement.kind() == PlacementKind::Adaptive),
      buckets_(config.hashBuckets),
      groupCapacity_(config.groupCapacity),
      serial_(g_nextSerial.fetch_add(1, std::memory_order_relaxed)),
      fault_(config.onError, &faults_),
      pool_(pool),
      recovery_(recovery),
      governor_(governor)
{
    fault_.recovery = recovery_;
    if (deadlineMillis_ > 0)
        fault_.cancel = &cancel_;
    if (pool_) {
        job_.body = &StreamSession::drainMain;
        job_.ctx = this;
        job_.workers = std::max(1u, drainWorkers);
        pool_->beginStream(job_);
        helpersRunning_ = true;
    }
    if (deadlineMillis_ > 0 || (governor_ && governor_->enabled()) ||
        placementAdaptive_)
        monitor_ = std::thread(&StreamSession::monitorMain, this);
}

StreamSession::~StreamSession()
{
    try {
        finish();
    } catch (...) {
        // Teardown without a streamEnd(): there is nobody left to
        // rethrow a final inline-drain fault to.
    }
    StreamProducer *p = producers_.load(std::memory_order_acquire);
    while (p) {
        StreamProducer *next = p->next;
        delete p;
        p = next;
    }
}

StreamProducer &
StreamSession::producer()
{
    if (t_producer.serial == serial_)
        return *t_producer.producer;
    // Slow path, once per OS thread per session (or on every switch
    // for a thread that alternates between sessions): only this
    // thread creates a producer owned by it, so the walk cannot race
    // a duplicate insert.
    const std::thread::id self = std::this_thread::get_id();
    StreamProducer *p = producers_.load(std::memory_order_acquire);
    while (p && p->owner != self)
        p = p->next;
    if (!p) {
        const std::uint32_t index =
            producerCount_.fetch_add(1, std::memory_order_relaxed);
        // Disjoint id spaces per producer (and away from the batch
        // table's 0-based ids) keep trace/fault bin ids unambiguous
        // for the first 255 producers.
        const std::uint32_t idBase = (index % 255u + 1u) << 24;
        p = new StreamProducer(dims_, buckets_, idBase, groupCapacity_,
                               self);
        p->next = producers_.load(std::memory_order_relaxed);
        while (!producers_.compare_exchange_weak(
            p->next, p, std::memory_order_release,
            std::memory_order_relaxed))
            ;
    }
    t_producer = {serial_, p};
    return *p;
}

void
StreamSession::notePending()
{
    const std::uint64_t now =
        pending_.fetch_add(1, std::memory_order_relaxed) + 1;
    std::uint64_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak &&
           !peak_.compare_exchange_weak(peak, now,
                                        std::memory_order_relaxed))
        ;
}

void
StreamSession::admitThread(StreamProducer &self)
{
    // Every admission takes a ticket, bypass or not: bypassed
    // admissions then count against the gate arithmetic, so gated
    // producers automatically absorb any overshoot they caused.
    const std::uint64_t ticket =
        tickets_.fetch_add(1, std::memory_order_relaxed);
    if (!maxPending_ || t_inInlineDrain) {
        notePending();
        return;
    }
    bool held = false;
    unsigned noProgress = 0;
    std::uint64_t waitUs = kBackoffBaseUs;
    Prng jitter(0x5bd1e995u +
                jitterSeed_.fetch_add(1, std::memory_order_relaxed));
    for (;;) {
        if (fault_.stopRequested()) {
            // Stopping: drainers are discarding, so holding producers
            // at the gate could wait on progress that never comes.
            break;
        }
        // The gate: this ticket fits under the bound once the drain
        // has retired enough threads. Tickets pass in FIFO order and
        // the admitted-unretired backlog can never exceed the bound.
        if (ticket < retiredThreads_.load(std::memory_order_acquire) +
                         maxPending_)
            break;
        if (!held) {
            // One backpressure event per held admission, in the
            // session counter and the registry alike.
            held = true;
            bpWaits_.fetch_add(1, std::memory_order_relaxed);
            LSCHED_TRACE_EVENT(obs::EventType::Backpressure,
                               pending_.load(std::memory_order_relaxed),
                               maxPending_);
            if (obs::metricsOn())
                detail::schedInstruments().streamBackpressure->add();
        }
        // First choice: help. An inline drain or a force-seal is
        // forward progress this producer made itself.
        if (tryHelp(self)) {
            noProgress = 0;
            waitUs = kBackoffBaseUs;
            continue;
        }
        if (degraded_.load(std::memory_order_relaxed)) {
            // Load shedding: a degraded session never blocks its
            // producers — admission overshoots the bound (soft) and
            // the governor's force-seals keep the drain fed.
            break;
        }
        // The backlog is entirely in flight on the drain workers: back
        // off with a timed, jittered exponential sleep instead of the
        // historic unbounded condvar wait, so a wedged pool surfaces
        // as a diagnosable timeout rather than a hang — and no lock is
        // shared between producers.
        const std::uint64_t retiredBefore =
            retiredThreads_.load(std::memory_order_relaxed);
        const std::uint64_t sleepUs =
            waitUs / 2 + jitter.nextBelow(waitUs / 2 + 1);
        std::this_thread::sleep_for(
            std::chrono::microseconds(sleepUs));
        if (retiredThreads_.load(std::memory_order_relaxed) !=
            retiredBefore) {
            // The drain moved; reset the retry budget and the backoff.
            noProgress = 0;
            waitUs = kBackoffBaseUs;
            continue;
        }
        ++noProgress;
        if (recovery_) {
            recovery_->admissionRetries.fetch_add(
                1, std::memory_order_relaxed);
        }
        if (obs::metricsOn())
            detail::schedInstruments().recoverAdmissionRetries->add();
        if (admitRetries_ && noProgress >= admitRetries_) {
            if (recovery_) {
                recovery_->admissionTimeouts.fetch_add(
                    1, std::memory_order_relaxed);
            }
            if (obs::metricsOn()) {
                detail::schedInstruments()
                    .recoverAdmissionTimeouts->add();
            }
            const std::uint64_t cur =
                pending_.load(std::memory_order_relaxed);
            LSCHED_TRACE_EVENT(obs::EventType::AdmissionTimeout, cur,
                               maxPending_, noProgress);
            // The ticket this admission took never retires on its
            // own; refund it so the gate stays consistent.
            retiredThreads_.fetch_add(1, std::memory_order_release);
            throw AdmissionTimeout(lsched::detail::concatMessage(
                "stream admission timed out after ", noProgress,
                " no-progress backoff round(s): ", cur,
                " thread(s) pending at bound ", maxPending_));
        }
        if (!admitRetries_ && noProgress % kStallWarnPeriod == 0) {
            LSCHED_WARN("stream admission stalled: ", noProgress,
                        " no-progress wait(s) at bound ", maxPending_,
                        " (streamAdmitRetries == 0 retries forever)");
        }
        waitUs = std::min(waitUs * 2, kBackoffCapUs);
    }
    notePending();
}

bool
StreamSession::tryHelp(StreamProducer &self)
{
    // Become the drain: one sealed bin run inline frees at least one
    // admission slot without waiting on anyone.
    detail::SealedBin item;
    if (queue_.tryPop(item)) {
        inlineDrains_.fetch_add(1, std::memory_order_relaxed);
        if (obs::metricsOn())
            detail::schedInstruments().streamInline->add();
        InlineDrainScope inDrain;
        drainOne(item, 0);
        return true;
    }
    // Nothing sealed yet: the backlog is sitting in open bins. Seal
    // one so the drain (pool or our next pass) has work.
    return forceSealOne(self);
}

detail::SealedBin
StreamSession::seal(StreamProducer &owner, Bin &bin)
{
    detail::SealedBin item;
    item.binId = bin.id;
    item.epoch = ++bin.streamEpoch;
    item.superBin = bin.superBin;
    item.threads = bin.threadCount;
    item.groups = bin.groupsHead;
    item.owner = &owner;
    bin.clearGroups();
    return item;
}

std::vector<detail::SealedBin>
StreamSession::sealAll(StreamProducer &owner)
{
    std::vector<detail::SealedBin> items;
    std::lock_guard<std::mutex> lock(owner.mutex);
    for (Bin &bin : owner.table.bins()) {
        if (bin.threadCount)
            items.push_back(seal(owner, bin));
    }
    return items;
}

void
StreamSession::enqueue(const detail::SealedBin &item)
{
    seals_.fetch_add(1, std::memory_order_relaxed);
    LSCHED_TRACE_EVENT(obs::EventType::StreamSeal, item.binId,
                       item.epoch, item.threads);
    if (obs::metricsOn())
        detail::schedInstruments().streamSeals->add();
    while (!queue_.tryPush(item)) {
        // Ring full: relieve it ourselves instead of spinning — in
        // the inline-only mode (no pool) nobody else ever would.
        detail::SealedBin victim;
        if (!queue_.tryPop(victim))
            continue; // racing consumers made room already
        try {
            if (fault_.stopRequested()) {
                discard(victim);
            } else {
                InlineDrainScope inDrain;
                drainOne(victim, 0);
            }
        } catch (...) {
            // Abort unwinding: retire our own chain too so the
            // backlog accounting stays sane.
            discard(item);
            throw;
        }
    }
}

bool
StreamSession::forceSealOne(StreamProducer &self)
{
    // Own bins first (an uncontended lock), then every other
    // producer's: an idle producer never seals its own open bins, and
    // its backlog must still reach the drain.
    const auto sealFrom = [&](StreamProducer &owner) {
        detail::SealedBin item;
        {
            std::lock_guard<std::mutex> lock(owner.mutex);
            for (Bin &bin : owner.table.bins()) {
                if (bin.threadCount) {
                    item = seal(owner, bin);
                    break;
                }
            }
        }
        if (!item.groups)
            return false;
        enqueue(item);
        return true;
    };
    if (sealFrom(self))
        return true;
    for (StreamProducer *p = producers_.load(std::memory_order_acquire);
         p; p = p->next) {
        if (p != &self && sealFrom(*p))
            return true;
    }
    return false;
}

void
StreamSession::fork(ThreadFn fn, void *arg1, void *arg2,
                    std::span<const Hint> hints)
{
    LSCHED_ASSERT(fn != nullptr, "fork of a null thread function");
    StreamProducer &self = producer();
    admitThread(self);

    PlacementDecision where;
    bool created = false;
    std::uint32_t binId = 0;
    detail::SealedBin sealed;
    try {
        if (placementStateless_) {
            where = placement_.place(hints);
        } else {
            std::lock_guard<std::mutex> lock(placementMutex_);
            where = placement_.place(hints);
        }

        std::lock_guard<std::mutex> lock(self.mutex);
        Bin *bin;
        std::tie(bin, created) = self.table.findOrCreate(where.coords);
        if (created)
            bin->superBin = where.superBin;
        bin->push(self.groups, fn, arg1, arg2);
        ++bin->streamTotalThreads;
        self.forked.store(self.forked.load(std::memory_order_relaxed) + 1,
                          std::memory_order_relaxed);
        binId = bin->id;
        if (sealThreshold_ && bin->threadCount >= sealThreshold_)
            sealed = seal(self, *bin);
    } catch (...) {
        // The admission slot was reserved up front; hand it back so an
        // allocation failure cannot wedge the gate or the backlog.
        pending_.fetch_sub(1, std::memory_order_relaxed);
        retiredThreads_.fetch_add(1, std::memory_order_release);
        throw;
    }

    if (obs::anyOn()) [[unlikely]] {
        if (obs::metricsOn()) {
            const detail::SchedInstruments &ins =
                detail::schedInstruments();
            ins.forked->add();
            ins.streamForked->add();
            if (created)
                ins.binsCreated->add();
        }
        if (created) {
            LSCHED_TRACE_EVENT(obs::EventType::BinCreate, binId,
                               where.coords[0], where.coords[1]);
        }
        LSCHED_TRACE_EVENT(obs::EventType::ThreadFork, binId,
                           where.coords[0], where.coords[1]);
    }
    if (sealed.groups)
        enqueue(sealed);
}

void
StreamSession::drainOne(const detail::SealedBin &item, unsigned worker)
{
    detail::GroupCursor cursor(item.groups);
    std::uint64_t done = 0;
    try {
        done = detail::executeBin(item.binId, item.threads, fault_,
                                  worker, cursor, item.superBin,
                                  item.epoch);
    } catch (...) {
        // ErrorPolicy::Abort: still retire the chain so the backlog
        // accounting (and any producer backed off on it) stays sane
        // while the exception unwinds.
        retire(item);
        throw;
    }
    executed_.fetch_add(done, std::memory_order_relaxed);
    retire(item);
}

void
StreamSession::discard(const detail::SealedBin &item)
{
    if (fault_.cancelRequested() && item.threads > 0) {
        // Cancellation (not a StopTour fault) dropped this chain:
        // account it like any cancelled bin.
        detail::noteCancelledBin(fault_, item.binId, 0, item.threads);
    }
    retire(item);
}

void
StreamSession::retire(const detail::SealedBin &item)
{
    {
        std::lock_guard<std::mutex> lock(item.owner->mutex);
        item.owner->groups.recycleChain(item.groups);
    }
    retired_.fetch_add(1, std::memory_order_relaxed);
    pending_.fetch_sub(item.threads, std::memory_order_relaxed);
    // The release pairs with the gate's acquire.
    retiredThreads_.fetch_add(item.threads, std::memory_order_release);
}

void
StreamSession::drainMain(unsigned worker, void *ctx)
{
    auto *self = static_cast<StreamSession *>(ctx);
    if (obs::traceOn()) {
        obs::TraceSession::global().setLaneName(
            "stream drain " + std::to_string(worker));
    }
    obs::profileWorkerAttach(worker);
    // Same marker as tour workers: fork() from a user thread running
    // on a drain helper is the unsupported (fatal) case; producers
    // fork from their own threads.
    detail::ParallelWorkerScope inWorker;
    detail::SealedBin item;
    while (self->queue_.waitPop(item)) {
        if (self->fault_.stopRequested())
            self->discard(item);
        else
            self->drainOne(item, worker);
    }
}

void
StreamSession::monitorMain()
{
    if (obs::traceOn())
        obs::TraceSession::global().setLaneName("stream monitor");
    const auto tick = std::chrono::milliseconds(
        deadlineMillis_ > 0 ? deadlineMillis_ : kGovernorTickMillis);
    std::uint64_t lastRetired = retired_.load(std::memory_order_relaxed);
    bool sawBacklog = false;
    std::unique_lock<std::mutex> lock(monMutex_);
    while (!monCv_.wait_for(lock, tick, [&] { return monDone_; })) {
        const std::uint64_t pend =
            pending_.load(std::memory_order_relaxed);
        const std::uint64_t ret =
            retired_.load(std::memory_order_relaxed);
        if (deadlineMillis_ > 0 && !cancel_.requested()) {
            if (sawBacklog && pend > 0 && ret == lastRetired) {
                // A standing backlog retired nothing for a whole
                // deadline period: the epoch is wedged. Cancel
                // cooperatively; drains discard, backed-off producers
                // notice through stopRequested() within one backoff.
                LSCHED_WARN("stream deadline: backlog of ", pend,
                            " thread(s) made no progress for ",
                            deadlineMillis_,
                            " ms; cancelling the stream");
                LSCHED_TRACE_EVENT(
                    obs::EventType::DeadlineExpire, deadlineMillis_,
                    static_cast<std::uint64_t>(CancelReason::Deadline),
                    pend);
                if (recovery_) {
                    recovery_->deadlines.fetch_add(
                        1, std::memory_order_relaxed);
                }
                if (obs::metricsOn())
                    detail::schedInstruments().recoverDeadlines->add();
                cancel_.request(CancelReason::Deadline);
            }
            sawBacklog = pend > 0;
        }
        lastRetired = ret;
        if (governor_ && governor_->enabled()) {
            const bool overloaded =
                cancel_.requested() ||
                (maxPending_ > 0 && pend >= maxPending_);
            const RecoveryState state = governor_->observe(overloaded);
            const bool nowDegraded =
                state == RecoveryState::Degraded;
            if (nowDegraded &&
                !degraded_.load(std::memory_order_relaxed)) {
                // Backed-off producers poll degraded_ each round, so
                // the flag alone unblocks them within one backoff.
                degraded_.store(true, std::memory_order_relaxed);
                shedLoad();
            } else if (!nowDegraded &&
                       degraded_.load(std::memory_order_relaxed)) {
                degraded_.store(false, std::memory_order_relaxed);
            }
        }
        if (placementAdaptive_) {
            // Stream epoch tick: a safe retune boundary. The adaptive
            // placement serializes against concurrent producers on its
            // own internal mutex; already-placed bins keep their
            // coordinates, so only subsequent forks land in the new
            // geometry.
            placement_.maybeRetune();
        }
    }
}

void
StreamSession::stopMonitor()
{
    if (!monitor_.joinable())
        return;
    {
        std::lock_guard<std::mutex> lock(monMutex_);
        monDone_ = true;
    }
    monCv_.notify_one();
    monitor_.join();
}

void
StreamSession::shedLoad()
{
    std::uint64_t shedBins = 0;
    for (StreamProducer *p = producers_.load(std::memory_order_acquire);
         p; p = p->next) {
        for (const detail::SealedBin &item : sealAll(*p)) {
            enqueue(item);
            ++shedBins;
        }
    }
    if (recovery_)
        recovery_->loadSheds.fetch_add(1, std::memory_order_relaxed);
    if (obs::metricsOn())
        detail::schedInstruments().recoverLoadSheds->add();
    LSCHED_WARN("stream overload: degraded; force-sealed ", shedBins,
                " open bin(s) for the drain");
    LSCHED_TRACE_EVENT(obs::EventType::LoadShed, shedBins,
                       pending_.load(std::memory_order_relaxed),
                       maxPending_);
}

void
StreamSession::finish()
{
    if (finished_)
        return;
    finished_ = true;
    // The monitor must stop before the tail drain: finish()'s own
    // sealing and draining would otherwise read as one more wedged
    // (or overloaded) epoch.
    stopMonitor();

    // Producers have stopped (the owner's contract): seal every open
    // chain so the tail of the stream drains like any other epoch.
    for (StreamProducer *p = producers_.load(std::memory_order_acquire);
         p; p = p->next) {
        for (const detail::SealedBin &item : sealAll(*p))
            enqueue(item);
    }

    queue_.finish();
    if (helpersRunning_) {
        pool_->endStream();
        helpersRunning_ = false;
    }
    // Inline-only mode (no pool): the caller drains the whole tail as
    // worker 0. With helpers the queue is already empty — they only
    // exit waitPop once it is.
    detail::SealedBin item;
    while (queue_.tryPop(item)) {
        if (fault_.stopRequested())
            discard(item);
        else
            drainOne(item, 0);
    }

    // One report per bin: producers that forked into the same
    // coordinates each own a bin there, so merge them.
    for (StreamProducer *p = producers_.load(std::memory_order_acquire);
         p; p = p->next) {
        std::lock_guard<std::mutex> lock(p->mutex);
        for (const Bin &bin : p->table.bins()) {
            if (bin.streamTotalThreads) {
                bins_.push_back(
                    {bin.coords, bin.streamEpoch, bin.streamTotalThreads});
            }
        }
    }
    std::sort(bins_.begin(), bins_.end(),
              [](const StreamBinReport &a, const StreamBinReport &b) {
                  return a.coords < b.coords;
              });
    std::size_t kept = 0;
    for (const StreamBinReport &r : bins_) {
        if (kept && bins_[kept - 1].coords == r.coords) {
            bins_[kept - 1].epochs += r.epochs;
            bins_[kept - 1].threads += r.threads;
        } else {
            bins_[kept++] = r;
        }
    }
    bins_.resize(kept);
}

StreamStats
StreamSession::stats() const
{
    StreamStats s;
    for (StreamProducer *p = producers_.load(std::memory_order_acquire);
         p; p = p->next)
        s.forked += p->forked.load(std::memory_order_relaxed);
    s.executed = executed_.load(std::memory_order_relaxed);
    s.seals = seals_.load(std::memory_order_relaxed);
    s.backpressureWaits = bpWaits_.load(std::memory_order_relaxed);
    s.inlineDrains = inlineDrains_.load(std::memory_order_relaxed);
    s.backlog = pending_.load(std::memory_order_relaxed);
    s.peakBacklog = peak_.load(std::memory_order_relaxed);
    return s;
}

} // namespace lsched::threads
