/**
 * @file
 * Host benchmark of the locality scheduler: wall seconds per operation
 * of three workloads, every output checked, and a traced mode that
 * splits an operation by scheduler layer. README.md in this directory
 * gives the workloads, the metrics, and which layer metric should move
 * which end-to-end metric.
 *
 *   hostbench --workload <matmul|spmv|spmv_stream> --seed <n>
 *             --seconds <s> --trace <0|1> [--workers <n>]
 *   hostbench --self-test
 *
 * The last line of standard output is one JSON object with the keys
 * correct, attempted, failed and metrics.
 */

#include <malloc.h>
#include <sys/mman.h>
#include <sys/personality.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "check.hh"
#include "perfcount/perf_counters.hh"
#include "support/prng.hh"
#include "threads/scheduler.hh"
#include "workloads/matmul.hh"
#include "workloads/spmv.hh"

namespace
{

using namespace lsched;
using hostbench::CheckResult;
using hostbench::Reference;
using threads::Hint;
using threads::LocalityScheduler;
using threads::ThreadFn;
using workloads::Matrix;
using workloads::NativeModel;

using Clock = std::chrono::steady_clock;

// Sizes and scheduler shape. The 2 MiB per-core L2 is the paper's
// tuning target and this host's L2; both inputs pass it, and the
// sparse matrix also passes a 105 MiB LLC.
constexpr std::uint64_t kL2Bytes = 2ull << 20;
constexpr std::size_t kL1Bytes = 32 << 10;
constexpr std::size_t kMatmulN = 1024;
constexpr std::size_t kSpmvRows = 1 << 20;
constexpr std::size_t kSpmvNnz = 16;
constexpr unsigned kStreamProducers = 2;
constexpr unsigned kStreamDrainers = 1;
/** Stream knobs: seal bins often enough that the drain overlaps the
 *  producers, and bound the backlog so the ticket gate engages. */
constexpr std::uint64_t kStreamSeal = 1024;
constexpr std::uint64_t kStreamMaxPending = 1 << 16;
/** Set-ups per untraced run; setup_s is their median. */
constexpr int kSetups = 3;
/** Untraced runs time at least this many operations. */
constexpr int kMinOps = 5;
/** Traced operations stamp one thread in this many. */
constexpr std::uint64_t kSampleEvery = 64;
/** Bins whose bodies the traced run replays to time them. */
constexpr std::size_t kReplayBins = 8;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/** Nearest-rank quantile of @p v, q in [0, 1]. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank ? rank - 1 : 0)];
}

/** A field of /proc/self/status in KiB (VmRSS, VmHWM), 0 if absent. */
double
procStatusKiB(const char *field)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    const std::size_t len = std::strlen(field);
    while (std::getline(in, line)) {
        if (line.compare(0, len, field) == 0 && line.size() > len &&
            line[len] == ':')
            return std::strtod(line.c_str() + len + 1, nullptr);
    }
    return 0.0;
}

/** One cache level's size in bytes from sysfs, 0 when unknown. */
std::uint64_t
hostCacheBytes(int level)
{
    for (int idx = 0; idx < 8; ++idx) {
        const std::string base = "/sys/devices/system/cpu/cpu0/cache/"
                                 "index" +
                                 std::to_string(idx) + "/";
        std::ifstream lv(base + "level"), ty(base + "type"),
            sz(base + "size");
        int l = 0;
        std::string type, size;
        if (!(lv >> l) || !(ty >> type) || !(sz >> size))
            continue;
        if (l != level || type == "Instruction")
            continue;
        std::uint64_t bytes = std::strtoull(size.c_str(), nullptr, 10);
        if (size.back() == 'K')
            bytes <<= 10;
        else if (size.back() == 'M')
            bytes <<= 20;
        return bytes;
    }
    return 0;
}

/**
 * Hints are addresses, so where an input lands relative to the block
 * size decides the bin boundaries. Run with address-space
 * randomisation off for this process only (what setarch -R does), so
 * every run of the same binary lays its inputs out alike. Returns
 * whether randomisation is off; on failure the run goes on with it.
 */
bool
fixAddressLayout(char **argv)
{
    const int current = personality(0xffffffff);
    if (current == -1)
        return false;
    if (current & ADDR_NO_RANDOMIZE)
        return true;
    if (personality(static_cast<unsigned long>(current) |
                    ADDR_NO_RANDOMIZE) == -1)
        return false;
    execv("/proc/self/exe", argv);
    personality(static_cast<unsigned long>(current));
    return false;
}

/** End of the mapping that holds @p p, from /proc/self/maps; 0 if
 *  not found. */
std::uintptr_t
mappingEnd(const void *p)
{
    const auto a = reinterpret_cast<std::uintptr_t>(p);
    std::ifstream maps("/proc/self/maps");
    std::string line;
    while (std::getline(maps, line)) {
        char *dash = nullptr;
        const std::uintptr_t lo = std::strtoull(line.c_str(), &dash, 16);
        if (*dash != '-')
            continue;
        const std::uintptr_t hi = std::strtoull(dash + 1, nullptr, 16);
        if (lo <= a && a < hi)
            return hi;
    }
    return 0;
}

const void *
storage(const std::unique_ptr<Matrix> &m)
{
    return m->data();
}

const void *
storage(const std::vector<double> &v)
{
    return v.data();
}

/**
 * Build a hinted input whose storage starts on a @p block boundary,
 * so the bins its hints make are the same in every run. Large
 * allocations are fresh mappings, and the kernel places a new one at
 * the top of the highest free gap that fits it. A probe shows where
 * the input would land; reserving the top of the probe's gap, as much
 * as the probe's offset within its block, moves the real one down onto
 * the boundary. The traced run reports the offset that resulted.
 */
template <class Make>
auto
placeOnBlock(std::uint64_t block, Make make)
{
    auto probe = make();
    const std::uint64_t page = static_cast<std::uint64_t>(getpagesize());
    const std::uint64_t off =
        threads::hintOf(storage(probe)) % block / page * page;
    const std::uintptr_t top = mappingEnd(storage(probe));
    {
        auto gone = std::move(probe);
    }
    void *pad = off && top ? mmap(reinterpret_cast<void *>(top - off), off,
                                  PROT_NONE,
                                  MAP_PRIVATE | MAP_ANONYMOUS |
                                      MAP_NORESERVE,
                                  -1, 0)
                           : MAP_FAILED;
    auto placed = make();
    if (pad != MAP_FAILED)
        munmap(pad, off);
    return placed;
}

/** Offset of @p p within its @p block, in KiB. */
double
offsetKiB(const void *p, std::uint64_t block)
{
    return static_cast<double>(threads::hintOf(p) % block) / 1024.0;
}

// ---------------------------------------------------------------------
// Sampling probe: a traced operation forks one thread in kSampleEvery
// through sampledBody, which stamps when it started and which worker
// ran it. The stamps give per-worker shares and admission latency;
// they are not used for body time, because the clock reads serialise
// the core and a stamped body loses the overlap with its neighbours
// (a stamped spmv row read 2x the mean time per row of a whole run).

/** One sampled thread: the body's own argument and its timestamps. */
struct Sample
{
    void *arg = nullptr;
    std::int64_t forkNs = 0;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    unsigned worker = 0;
};

std::atomic<std::uint64_t> g_probeGeneration{1};
std::atomic<unsigned> g_probeWorkers{0};

/** Dense index of the calling OS thread within the current traced
 *  operation (resetProbe() starts a new numbering). */
unsigned
probeWorker()
{
    thread_local std::uint64_t generation = 0;
    thread_local unsigned index = 0;
    const std::uint64_t g =
        g_probeGeneration.load(std::memory_order_relaxed);
    if (generation != g) {
        generation = g;
        index = g_probeWorkers.fetch_add(1, std::memory_order_relaxed);
    }
    return index;
}

void
resetProbe()
{
    g_probeWorkers.store(0, std::memory_order_relaxed);
    g_probeGeneration.fetch_add(1, std::memory_order_relaxed);
}

template <ThreadFn Body>
void
sampledBody(void *ctx, void *sample_p)
{
    auto *s = static_cast<Sample *>(sample_p);
    s->worker = probeWorker();
    s->startNs = nowNs();
    Body(ctx, s->arg);
    s->endNs = nowNs();
}

void
noopThread(void *, void *)
{
}

/** Injected faults, for the checker's self-test only. */
enum class Fault
{
    None,
    /** One output moved past its tolerance after the operation. */
    Perturb,
    /** One thread never forked, so its output stays NaN. */
    SkipThread,
    /** The executed count handed to the check is one short. */
    ShortCount,
};

/** Per-layer figures of one traced operation. */
struct Layers
{
    double total = 0;
    // Batch path.
    double prep = 0;
    double fork = 0;
    double run = 0;
    std::uint64_t bins = 0;
    double threadsPerBin = 0;
    // Stream path.
    double produceNsPerThread = 0;
    double end = 0;
    std::vector<double> admitUs;
    threads::StreamStats stream;
    // Both.
    unsigned workers = 1;
    double bodyNs = 0;
    double imbalance = 1;
    double overheadNsPerThread = 0;
    threads::WorkerPoolStats pool;
    double rssGrowthBytes = 0;
};

/** Outcome of one operation. */
struct Outcome
{
    double seconds = 0;
    CheckResult check;
};

/** Per-worker shares and admission latency from one operation's
 *  samples. */
void
summariseSamples(const std::vector<Sample> &samples, bool stream,
                 Layers &l)
{
    std::vector<double> busy;
    for (const Sample &s : samples) {
        if (!s.endNs)
            continue;
        const double ns = static_cast<double>(s.endNs - s.startNs);
        if (busy.size() <= s.worker)
            busy.resize(s.worker + 1, 0.0);
        busy[s.worker] += ns;
        if (stream)
            l.admitUs.push_back(
                static_cast<double>(s.startNs - s.forkNs) / 1e3);
    }
    // Batch tours count every worker asked for, idle or not; a stream
    // counts the threads that ran bodies (drainers and producers
    // draining inline).
    const std::size_t workers =
        stream ? busy.size() : std::max<std::size_t>(l.workers, 1);
    busy.resize(std::max(busy.size(), workers), 0.0);
    const double mean =
        std::accumulate(busy.begin(), busy.end(), 0.0) /
        static_cast<double>(workers);
    l.imbalance =
        mean > 0 ? *std::max_element(busy.begin(), busy.end()) / mean
                 : 1.0;
}

/** Resident set size now, in bytes. */
double
rssBytes()
{
    return procStatusKiB("VmRSS") * 1024.0;
}

// ---------------------------------------------------------------------
// Workload inputs. A kernel owns its inputs, output, reference and
// scheduler, and enumerates its threads in the order the library's
// matmulThreaded()/spmvThreaded() fork them, with the same hints and
// bodies.

/** C = A B, one dot-product thread per entry (paper Section 2.1). */
struct MatmulKernel
{
    static constexpr ThreadFn kBody =
        &workloads::dotProductThread<NativeModel>;

    std::size_t n = kMatmulN;
    NativeModel model;
    std::unique_ptr<Matrix> a, b, at, back, c;
    workloads::DotProductCtx<NativeModel> ctx{};
    std::unique_ptr<LocalityScheduler> sched;
    Reference ref;

    static threads::SchedulerConfig
    config()
    {
        threads::SchedulerConfig cfg;
        cfg.dims = 2;
        cfg.cacheBytes = kL2Bytes;
        cfg.blockBytes = kL2Bytes / 2;
        cfg.streamSealThreshold = kStreamSeal;
        cfg.streamMaxPending = kStreamMaxPending;
        return cfg;
    }

    void
    release()
    {
        sched.reset();
        a.reset();
        b.reset();
        at.reset();
        back.reset();
        c.reset();
    }

    void
    setup(std::uint64_t seed)
    {
        const std::uint64_t block = config().effectiveBlockBytes();
        const auto make = [&] { return std::make_unique<Matrix>(n, n); };
        at = placeOnBlock(block, make);
        b = placeOnBlock(block, make);
        a = std::make_unique<Matrix>(n, n);
        back = std::make_unique<Matrix>(n, n);
        c = std::make_unique<Matrix>(n, n);
        workloads::randomize(*a, seed);
        workloads::randomize(*b, seed ^ 0x9e3779b97f4a7c15ull);
        ctx = {at.get(), b.get(), c.get(), &model};
        sched = std::make_unique<LocalityScheduler>(config());
    }

    /** Long double dot products over A's rows, on every CPU. */
    void
    computeReference()
    {
        std::vector<double> rowsA(n * n);
        for (std::size_t k = 0; k < n; ++k)
            for (std::size_t i = 0; i < n; ++i)
                rowsA[i * n + k] = (*a)(i, k);
        ref.value.assign(n * n, 0.0);
        ref.tol.assign(n * n, 0.0);
        const auto columns = [&](std::size_t j0, std::size_t j1) {
            for (std::size_t j = j0; j < j1; ++j) {
                const double *bc = b->col(j);
                for (std::size_t i = 0; i < n; i += 4) {
                    const double *r[4];
                    for (int q = 0; q < 4; ++q)
                        r[q] = &rowsA[std::min(i + q, n - 1) * n];
                    long double s[4] = {0, 0, 0, 0};
                    double t[4] = {0, 0, 0, 0};
                    for (std::size_t k = 0; k < n; ++k) {
                        const long double bk = bc[k];
                        const double abk = std::fabs(bc[k]);
                        for (int q = 0; q < 4; ++q) {
                            s[q] += r[q][k] * bk;
                            t[q] += std::fabs(r[q][k]) * abk;
                        }
                    }
                    for (std::size_t q = 0; q < 4 && i + q < n; ++q) {
                        ref.value[j * n + i + q] =
                            static_cast<double>(s[q]);
                        ref.tol[j * n + i + q] =
                            hostbench::dotTolerance(n, t[q]);
                    }
                }
            }
        };
        parallelFor(n, columns);
    }

    static void
    parallelFor(std::size_t count,
                const std::function<void(std::size_t, std::size_t)> &f)
    {
        const unsigned cpus =
            std::max(1u, std::thread::hardware_concurrency());
        std::vector<std::thread> pool;
        const std::size_t chunk = (count + cpus - 1) / cpus;
        for (unsigned t = 1; t < cpus && t * chunk < count; ++t)
            pool.emplace_back(f, t * chunk,
                              std::min(count, (t + 1) * chunk));
        f(0, std::min(count, chunk));
        for (std::thread &th : pool)
            th.join();
    }

    std::size_t rows() const { return n; }
    std::uint64_t threadCount() const { return n * n; }
    std::span<double> out() { return {c->data(), n * n}; }
    void *bodyCtx() { return &ctx; }

    /** Visit the threads of rows [lo, hi): f(index, arg, h0, h1). */
    template <class F>
    void
    forRows(std::size_t lo, std::size_t hi, F &&f) const
    {
        for (std::size_t i = lo; i < hi; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                f(i * n + j, reinterpret_cast<void *>((i << 32) | j),
                  threads::hintOf(at->col(i)),
                  threads::hintOf(b->col(j)));
            }
        }
    }

    /** Transpose A before the fork (the first of the two transposes
     *  the paper's timings charge). */
    void prepBefore() { workloads::transpose(*a, *at, model); }
    /** The restoring transpose after the run. */
    void prepAfter() { workloads::transpose(*at, *back, model); }

    /** Offsets of the hinted inputs within their blocks. */
    std::pair<double, double>
    hintOffsetsKiB() const
    {
        const std::uint64_t block = config().effectiveBlockBytes();
        return {offsetKiB(at->data(), block), offsetKiB(b->data(), block)};
    }

    /** Untiled interchanged and tiled transposed baselines. */
    std::pair<double, double>
    baselines()
    {
        Matrix scratch(n, n);
        auto t0 = Clock::now();
        workloads::matmulInterchanged(*a, *b, scratch, model);
        const double untiled = secondsSince(t0);
        t0 = Clock::now();
        workloads::matmulTiledTransposed(*a, *b, scratch, model,
                                         kL1Bytes, kL2Bytes);
        return {untiled, secondsSince(t0)};
    }
};

/** y = A x over a shuffled banded-random CSR matrix, one thread per
 *  row hinted with the x entry at its band centre. */
struct SpmvKernel
{
    static constexpr ThreadFn kBody =
        &workloads::spmvRowThread<NativeModel>;

    std::size_t nrows = kSpmvRows;
    NativeModel model;
    std::vector<double> x, y;
    workloads::CsrMatrix m;
    workloads::SpmvCtx<NativeModel> ctx{};
    std::unique_ptr<LocalityScheduler> sched;
    Reference ref;

    static threads::SchedulerConfig
    config()
    {
        threads::SchedulerConfig cfg;
        cfg.dims = 1;
        cfg.cacheBytes = kL2Bytes;
        cfg.streamSealThreshold = kStreamSeal;
        cfg.streamMaxPending = kStreamMaxPending;
        return cfg;
    }

    void
    release()
    {
        sched.reset();
        m = {};
        std::vector<double>().swap(x);
        std::vector<double>().swap(y);
    }

    void
    setup(std::uint64_t seed)
    {
        x = placeOnBlock(config().effectiveBlockBytes(), [&] {
            return std::vector<double>(nrows);
        });
        y.resize(nrows);
        Prng prng(seed ^ 0x5851f42d4c957f2dull);
        for (double &v : x)
            v = prng.nextDouble(-1.0, 1.0);
        workloads::SpmvConfig cfg;
        cfg.rows = nrows;
        cfg.cols = nrows;
        cfg.rowNnz = kSpmvNnz;
        cfg.seed = seed;
        m = workloads::makeBandedRandom(cfg);
        ctx = {&m, &x, &y, &model};
        sched = std::make_unique<LocalityScheduler>(config());
    }

    void
    computeReference()
    {
        ref.value.assign(m.rows, 0.0);
        ref.tol.assign(m.rows, 0.0);
        for (std::size_t r = 0; r < m.rows; ++r) {
            long double s = 0;
            double t = 0;
            for (std::uint32_t k = m.rowPtr[r]; k < m.rowPtr[r + 1]; ++k) {
                s += static_cast<long double>(m.values[k]) * x[m.colIdx[k]];
                t += std::fabs(m.values[k]) * std::fabs(x[m.colIdx[k]]);
            }
            ref.value[r] = static_cast<double>(s);
            ref.tol[r] =
                hostbench::dotTolerance(m.rowPtr[r + 1] - m.rowPtr[r], t);
        }
    }

    std::size_t rows() const { return nrows; }
    std::uint64_t threadCount() const { return nrows; }
    std::span<double> out() { return {y.data(), y.size()}; }
    void *bodyCtx() { return &ctx; }

    template <class F>
    void
    forRows(std::size_t lo, std::size_t hi, F &&f) const
    {
        for (std::size_t row = lo; row < hi; ++row) {
            f(row, reinterpret_cast<void *>(row),
              threads::hintOf(&x[m.bandCentre[row]]), Hint{0});
        }
    }

    void prepBefore() {}
    void prepAfter() {}

    std::pair<double, double>
    hintOffsetsKiB() const
    {
        return {offsetKiB(x.data(), config().effectiveBlockBytes()), 0.0};
    }

    /** Natural storage order, and rows visited in band-centre order
     *  (the order a programmer who sorted the rows would get). */
    std::pair<double, double>
    baselines()
    {
        std::vector<double> scratch(m.rows);
        auto t0 = Clock::now();
        workloads::spmvNatural(m, x, scratch, model);
        const double untiled = secondsSince(t0);
        std::vector<std::uint32_t> order(m.rows);
        std::iota(order.begin(), order.end(), 0u);
        std::stable_sort(order.begin(), order.end(),
                         [&](std::uint32_t p, std::uint32_t q) {
                             return m.bandCentre[p] < m.bandCentre[q];
                         });
        t0 = Clock::now();
        for (const std::uint32_t r : order)
            workloads::spmv_detail::computeRow(m, x, scratch, r, model);
        return {untiled, secondsSince(t0)};
    }
};

// ---------------------------------------------------------------------
// Operations.

/** Fork one thread, through the probe when it is a sampled one. */
template <class K, bool Traced>
inline void
forkOne(LocalityScheduler &s, K &k, std::uint64_t idx, void *arg,
        Hint h0, Hint h1, std::vector<Sample> *samples, bool stamp)
{
    if constexpr (Traced) {
        if (idx % kSampleEvery == 0) {
            Sample &smp = (*samples)[idx / kSampleEvery];
            smp.arg = arg;
            if (stamp)
                smp.forkNs = nowNs();
            s.fork(&sampledBody<K::kBody>, k.bodyCtx(), &smp, h0, h1);
            return;
        }
    }
    s.fork(K::kBody, k.bodyCtx(), arg, h0, h1);
}

/** Apply the post-operation faults and check. */
template <class K>
CheckResult
finishCheck(K &k, Fault fault, std::uint64_t executed,
            std::uint64_t forked)
{
    std::span<double> out = k.out();
    if (fault == Fault::Perturb)
        out[out.size() / 2] +=
            4 * std::max(k.ref.tol[out.size() / 2],
                         std::numeric_limits<double>::min());
    if (fault == Fault::ShortCount)
        --executed;
    return hostbench::checkOutput(out, k.ref, executed, forked);
}

/**
 * Batch operation, the shape of matmulThreaded()/spmvThreaded():
 * prepare, fork every thread, run them (runParallel on @p workers
 * pool workers when more than one, else run()), restore.
 */
template <class K, bool Traced>
Outcome
batchOp(K &k, unsigned workers, Fault fault, Layers *l)
{
    std::fill(k.out().begin(), k.out().end(),
              std::numeric_limits<double>::quiet_NaN());
    LocalityScheduler &s = *k.sched;
    const std::uint64_t skip =
        fault == Fault::SkipThread ? k.threadCount() / 3 : ~0ull;
    std::vector<Sample> samples;
    threads::WorkerPoolStats pool0;
    double rss0 = 0;
    if constexpr (Traced) {
        samples.resize(k.threadCount() / kSampleEvery + 1);
        resetProbe();
        pool0 = s.workerPoolStats();
        rss0 = rssBytes();
    }
    Outcome o;
    std::uint64_t executed = 0;
    const auto t0 = Clock::now();
    try {
        k.prepBefore();
        const auto t1 = Clock::now();
        k.forRows(0, k.rows(),
                  [&](std::uint64_t idx, void *arg, Hint h0, Hint h1) {
                      if (idx != skip)
                          forkOne<K, Traced>(s, k, idx, arg, h0, h1,
                                             &samples, false);
                  });
        const auto t2 = Clock::now();
        if constexpr (Traced) {
            l->rssGrowthBytes = rssBytes() - rss0;
            const threads::SchedulerStats st = s.stats();
            l->bins = st.bins;
            l->threadsPerBin = st.threadsPerBin.mean();
        }
        const auto t3 = Clock::now();
        executed = workers > 1 ? s.runParallel(workers) : s.run();
        const auto t4 = Clock::now();
        k.prepAfter();
        const auto t5 = Clock::now();
        const auto sec = [](Clock::time_point p, Clock::time_point q) {
            return std::chrono::duration<double>(q - p).count();
        };
        o.seconds = sec(t0, t5);
        if constexpr (Traced) {
            l->total = o.seconds;
            l->prep = sec(t0, t1) + sec(t4, t5);
            l->fork = sec(t1, t2);
            l->run = sec(t3, t4);
            l->workers = std::max(workers, 1u);
            summariseSamples(samples, false, *l);
            threads::WorkerPoolStats p = s.workerPoolStats();
            l->pool.steals = p.steals - pool0.steals;
            l->pool.parks = p.parks - pool0.parks;
        }
    } catch (const std::exception &e) {
        o.check = {false, std::string("threw: ") + e.what()};
        return o;
    }
    o.check = finishCheck(k, fault,
                          executed, k.threadCount() - (skip != ~0ull));
    return o;
}

/**
 * Stream operation: kStreamProducers OS threads (the caller is
 * producer 0) fork halves of the rows into a stream session drained by
 * kStreamDrainers pool workers; streamEnd() drains the tail.
 */
template <class K, bool Traced>
Outcome
streamOp(K &k, Fault fault, Layers *l)
{
    std::fill(k.out().begin(), k.out().end(),
              std::numeric_limits<double>::quiet_NaN());
    LocalityScheduler &s = *k.sched;
    const std::uint64_t skip =
        fault == Fault::SkipThread ? k.threadCount() / 3 : ~0ull;
    std::vector<Sample> samples;
    threads::WorkerPoolStats pool0;
    threads::StreamStats stream0;
    if constexpr (Traced) {
        samples.resize(k.threadCount() / kSampleEvery + 1);
        resetProbe();
        pool0 = s.workerPoolStats();
        stream0 = s.streamStats();
    }
    std::vector<double> loopSeconds(kStreamProducers, 0.0);
    std::vector<std::uint64_t> forks(kStreamProducers, 0);
    std::vector<std::exception_ptr> errors(kStreamProducers);
    const auto produce = [&](unsigned p) {
        try {
            const std::size_t lo = k.rows() * p / kStreamProducers;
            const std::size_t hi = k.rows() * (p + 1) / kStreamProducers;
            const auto t = Clock::now();
            std::uint64_t n = 0;
            k.forRows(lo, hi,
                      [&](std::uint64_t idx, void *arg, Hint h0, Hint h1) {
                          if (idx == skip)
                              return;
                          forkOne<K, Traced>(s, k, idx, arg, h0, h1,
                                             &samples, true);
                          ++n;
                      });
            loopSeconds[p] = secondsSince(t);
            forks[p] = n;
        } catch (...) {
            errors[p] = std::current_exception();
        }
    };

    Outcome o;
    std::uint64_t executed = 0;
    const auto t0 = Clock::now();
    try {
        s.streamBegin(kStreamDrainers);
        {
            std::vector<std::thread> others;
            for (unsigned p = 1; p < kStreamProducers; ++p)
                others.emplace_back(produce, p);
            produce(0);
            for (std::thread &t : others)
                t.join();
        }
        const auto t1 = Clock::now();
        executed = s.streamEnd();
        const double endSeconds = secondsSince(t1);
        o.seconds = secondsSince(t0);
        for (const std::exception_ptr &e : errors)
            if (e)
                std::rethrow_exception(e);
        if constexpr (Traced) {
            l->total = o.seconds;
            l->end = endSeconds;
            double perThread = 0;
            for (unsigned p = 0; p < kStreamProducers; ++p)
                perThread += forks[p] ? loopSeconds[p] * 1e9 /
                                            static_cast<double>(forks[p])
                                      : 0.0;
            l->produceNsPerThread = perThread / kStreamProducers;
            summariseSamples(samples, true, *l);
            threads::WorkerPoolStats p = s.workerPoolStats();
            l->pool.steals = p.steals - pool0.steals;
            l->pool.parks = p.parks - pool0.parks;
            const threads::StreamStats st = s.streamStats();
            l->stream.seals = st.seals - stream0.seals;
            l->stream.backpressureWaits =
                st.backpressureWaits - stream0.backpressureWaits;
            l->stream.inlineDrains = st.inlineDrains - stream0.inlineDrains;
            l->stream.peakBacklog = st.peakBacklog;
        }
    } catch (const std::exception &e) {
        if (s.streaming()) {
            try {
                s.streamEnd();
            } catch (...) {
            }
        }
        o.check = {false, std::string("threw: ") + e.what()};
        return o;
    }
    o.check = finishCheck(k, fault,
                          executed, k.threadCount() - (skip != ~0ull));
    return o;
}

/**
 * Threads of a few whole bins, bin after bin in tour (creation) order
 * and in fork order within a bin, as run() executes them. Calling
 * their bodies directly times the body alone with the locality the
 * schedule gives it; a run's time less that is the scheduler's own.
 */
template <class K>
std::vector<void *>
replayBins(K &k)
{
    const unsigned dims = K::config().dims;
    std::map<threads::BlockCoords, std::size_t> binOf;
    std::vector<std::vector<void *>> bins;
    k.forRows(0, k.rows(),
              [&](std::uint64_t, void *arg, Hint h0, Hint h1) {
                  const Hint hs[2] = {h0, h1};
                  const auto [it, fresh] = binOf.try_emplace(
                      k.sched->coordsFor(std::span<const Hint>(hs, dims)),
                      bins.size());
                  if (fresh)
                      bins.emplace_back();
                  bins[it->second].push_back(arg);
              });
    const std::size_t stride =
        std::max<std::size_t>(1, bins.size() / kReplayBins);
    std::vector<void *> chosen;
    for (std::size_t b = 0; b < bins.size(); b += stride)
        chosen.insert(chosen.end(), bins[b].begin(), bins[b].end());
    return chosen;
}

/** Mean body nanoseconds over one replay of @p args. */
template <class K>
double
replayBodyNs(K &k, const std::vector<void *> &args)
{
    const auto t0 = Clock::now();
    for (void *arg : args)
        K::kBody(k.bodyCtx(), arg);
    return secondsSince(t0) * 1e9 / static_cast<double>(args.size());
}

// ---------------------------------------------------------------------
// Runs.

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    unsigned workers = 2;
    bool selfTest = false;
};

/** Metrics of one run, printed in insertion order. */
struct Report
{
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    void
    record(const Outcome &o)
    {
        ++attempted;
        if (!o.check.ok) {
            ++failed;
            std::printf("operation %llu FAILED: %s\n",
                        static_cast<unsigned long long>(attempted),
                        o.check.why.c_str());
        }
    }

    void
    print() const
    {
        std::printf("{\"correct\": %s, \"attempted\": %llu, "
                    "\"failed\": %llu, \"metrics\": {",
                    failed == 0 ? "true" : "false",
                    static_cast<unsigned long long>(attempted),
                    static_cast<unsigned long long>(failed));
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", metrics[i].name.c_str(),
                        std::isfinite(metrics[i].value) ? metrics[i].value
                                                         : 0.0,
                        metrics[i].unit.c_str());
        }
        std::printf("}}\n");
    }
};

/** A kernel, the path its operations take, and their pool. */
template <class K>
struct Workload
{
    K kernel;
    bool stream = false;
    /** Pool workers of a batch run; 1 runs serially. */
    unsigned workers = 1;

    /** Inputs, scheduler, and the pool its operations use. */
    void
    setup(std::uint64_t seed)
    {
        kernel.setup(seed);
        LocalityScheduler &s = *kernel.sched;
        if (stream) {
            s.streamBegin(kStreamDrainers);
            s.streamEnd();
        } else if (workers > 1) {
            // Hinted like the first real thread, so it adds no bin.
            kernel.forRows(0, 1, [&](std::uint64_t idx, void *, Hint h0,
                                     Hint h1) {
                if (idx == 0)
                    s.fork(&noopThread, nullptr, nullptr, h0, h1);
            });
            s.runParallel(workers);
        }
    }

    template <bool Traced>
    Outcome
    op(Fault fault = Fault::None, Layers *l = nullptr)
    {
        return stream ? streamOp<K, Traced>(kernel, fault, l)
                      : batchOp<K, Traced>(kernel, workers, fault, l);
    }

    /** The other path on the same inputs (traced side measurement). */
    template <bool Traced>
    Outcome
    otherOp(Layers *l)
    {
        return stream ? batchOp<K, Traced>(kernel, 1, Fault::None, l)
                      : streamOp<K, Traced>(kernel, Fault::None, l);
    }
};

void
printHost(bool layoutFixed)
{
    std::printf("host: %u cpus, L2 %llu KiB per core, LLC %llu KiB, "
                "PMU counters %s, address randomisation %s\n",
                std::thread::hardware_concurrency(),
                static_cast<unsigned long long>(hostCacheBytes(2) >> 10),
                static_cast<unsigned long long>(hostCacheBytes(3) >> 10),
                perfcount::countersAvailable() ? "available"
                                               : "unavailable",
                layoutFixed ? "off for this process" : "ON");
}

/** Untraced run: end-to-end metrics. */
template <class K>
void
runUntraced(Workload<K> &w, const Options &opt, Report &rep)
{
    std::vector<double> setups;
    for (int r = 0; r < kSetups; ++r) {
        w.kernel.release();
        const auto t0 = Clock::now();
        w.setup(opt.seed);
        setups.push_back(secondsSince(t0));
    }
    w.kernel.computeReference();
    // One warm-up operation lets lazy allocation in the scheduler
    // finish; it is checked and counted but not timed.
    rep.record(w.template op<false>());
    // Failed operations count in the report but not in op_s.
    std::vector<double> times;
    const auto start = Clock::now();
    for (int ops = 0; ops < kMinOps || secondsSince(start) < opt.seconds;
         ++ops) {
        const Outcome o = w.template op<false>();
        rep.record(o);
        if (o.check.ok)
            times.push_back(o.seconds);
    }
    if (times.empty())
        times.push_back(std::numeric_limits<double>::quiet_NaN());
    std::printf("%s: %zu timed operations, op_s median %.4f, quartiles "
                "%.4f %.4f, min %.4f, max %.4f; set-ups %.3f %.3f %.3f s\n",
                opt.workload.c_str(), times.size(), median(times),
                quantile(times, 0.25), quantile(times, 0.75),
                *std::min_element(times.begin(), times.end()),
                *std::max_element(times.begin(), times.end()), setups[0],
                setups[1], setups[2]);
    rep.add("op_s", median(times), "s");
    rep.add("setup_s", median(setups), "s");
    rep.add("peak_rss_mib", procStatusKiB("VmHWM") / 1024.0, "MiB");
}

/** Medians over traced operations of each Layers field. */
template <class F>
double
medianOf(const std::vector<Layers> &ls, F f)
{
    std::vector<double> v;
    for (const Layers &l : ls)
        v.push_back(f(l));
    return median(v);
}

/** Traced run: per-layer metrics. */
template <class K>
void
runTraced(Workload<K> &w, const Options &opt, Report &rep)
{
    w.setup(opt.seed);
    w.kernel.computeReference();
    const std::vector<void *> replay = replayBins(w.kernel);
    const double threads = static_cast<double>(w.kernel.threadCount());
    // Body time by replay; for a batch operation, the rest of the run
    // summed over its workers is the scheduler's overhead.
    const auto addBody = [&](Layers &l, bool batch) {
        l.bodyNs = replayBodyNs(w.kernel, replay);
        if (batch)
            l.overheadNsPerThread =
                l.run * l.workers * 1e9 / threads - l.bodyNs;
    };

    // The first fork loop of the process gives the fork path's memory
    // growth; for the stream workload that is the batch side run.
    Layers first;
    Layers batchSide, streamSide;
    if (w.stream) {
        rep.record(w.template otherOp<true>(&first));
        rep.record(w.template otherOp<true>(&batchSide));
        addBody(batchSide, true);
    } else {
        rep.record(w.template op<true>(Fault::None, &first));
    }

    std::vector<double> untraced;
    std::vector<Layers> traced;
    const auto start = Clock::now();
    while (traced.size() < 3 || secondsSince(start) < opt.seconds) {
        const Outcome u = w.template op<false>();
        rep.record(u);
        untraced.push_back(u.seconds);
        Layers l;
        rep.record(w.template op<true>(Fault::None, &l));
        addBody(l, !w.stream);
        traced.push_back(std::move(l));
    }
    if (!w.stream) {
        // The first stream session starts the drain helper; time the
        // second.
        Layers warm;
        rep.record(w.template otherOp<true>(&warm));
        rep.record(w.template otherOp<true>(&streamSide));
    }

    const double opS = median(untraced);
    const double tracedOpS = medianOf(traced, [](const Layers &l) {
        return l.total;
    });
    // Layers of the batch path, from the main operations or the side
    // run, and of the stream path likewise.
    std::vector<Layers> batchLs = w.stream ? std::vector<Layers>{batchSide}
                                           : traced;
    std::vector<Layers> streamLs =
        w.stream ? traced : std::vector<Layers>{streamSide};
    const auto bm = [&](auto f) { return medianOf(batchLs, f); };
    const auto sm = [&](auto f) { return medianOf(streamLs, f); };
    const auto mm = [&](auto f) { return medianOf(traced, f); };

    const auto [off0, off1] = w.kernel.hintOffsetsKiB();
    const auto [untiledS, tiledS] = w.kernel.baselines();
    const double prep = bm([](const Layers &l) { return l.prep; });
    const double fork = bm([](const Layers &l) { return l.fork; });
    const double run = bm([](const Layers &l) { return l.run; });
    std::vector<double> admit;
    for (const Layers &l : streamLs)
        admit.insert(admit.end(), l.admitUs.begin(), l.admitUs.end());

    double layerSum = 0;
    if (w.stream) {
        const double produce = mm([](const Layers &l) {
            return l.total - l.end;
        });
        const double end = mm([](const Layers &l) { return l.end; });
        layerSum = produce + end;
        std::printf("accounting %s: op_s %.4f (traced %.4f) vs layers "
                    "%.4f = begin+produce+join %.4f + stream end %.4f; "
                    "residual %+.4f s (%.1f%%)\n",
                    opt.workload.c_str(), opS, tracedOpS, layerSum,
                    produce, end, opS - layerSum,
                    100.0 * (opS - layerSum) / opS);
    } else {
        layerSum = prep + fork + run;
        const double body = mm([](const Layers &l) { return l.bodyNs; });
        const double overhead = mm([](const Layers &l) {
            return l.overheadNsPerThread;
        });
        std::printf("accounting %s: op_s %.4f (traced %.4f) vs layers "
                    "%.4f = prep %.4f + fork %.4f + run %.4f; residual "
                    "%+.4f s (%.1f%%); run x %u worker(s) per thread: "
                    "body %.1f ns + overhead %.1f ns\n",
                    opt.workload.c_str(), opS, tracedOpS, layerSum, prep,
                    fork, run, opS - layerSum,
                    100.0 * (opS - layerSum) / opS, w.workers, body,
                    overhead);
    }
    std::printf("layout: hinted inputs at %.0f KiB and %.0f KiB into "
                "their blocks; %llu bins\n",
                off0, off1,
                static_cast<unsigned long long>(
                    bm([](const Layers &l) {
                        return static_cast<double>(l.bins);
                    })));

    rep.add("threads.fork.ns_per_thread", fork * 1e9 / threads, "ns");
    rep.add("threads.fork.bytes_per_thread",
            first.rssGrowthBytes / threads, "B");
    rep.add("threads.bins", bm([](const Layers &l) {
                return static_cast<double>(l.bins);
            }),
            "count");
    rep.add("threads.threads_per_bin.mean",
            bm([](const Layers &l) { return l.threadsPerBin; }), "count");
    rep.add("threads.hint0_offset_kib", off0, "KiB");
    rep.add("threads.hint1_offset_kib", off1, "KiB");
    rep.add("threads.run.s", run, "s");
    rep.add("threads.run.overhead_ns_per_thread",
            bm([](const Layers &l) { return l.overheadNsPerThread; }),
            "ns");
    rep.add("threads.pool.imbalance",
            mm([](const Layers &l) { return l.imbalance; }), "ratio");
    rep.add("threads.pool.steals", mm([](const Layers &l) {
                return static_cast<double>(l.pool.steals);
            }),
            "count");
    rep.add("threads.pool.parks", mm([](const Layers &l) {
                return static_cast<double>(l.pool.parks);
            }),
            "count");
    rep.add("threads.stream.produce_ns_per_thread",
            sm([](const Layers &l) { return l.produceNsPerThread; }), "ns");
    rep.add("threads.stream.end_s", sm([](const Layers &l) {
                return l.end;
            }),
            "s");
    rep.add("threads.stream.admit_to_run_us.p50", quantile(admit, 0.5),
            "us");
    rep.add("threads.stream.admit_to_run_us.p99", quantile(admit, 0.99),
            "us");
    rep.add("threads.stream.seals", sm([](const Layers &l) {
                return static_cast<double>(l.stream.seals);
            }),
            "count");
    rep.add("threads.stream.backpressure_waits", sm([](const Layers &l) {
                return static_cast<double>(l.stream.backpressureWaits);
            }),
            "count");
    rep.add("threads.stream.inline_drains", sm([](const Layers &l) {
                return static_cast<double>(l.stream.inlineDrains);
            }),
            "count");
    rep.add("threads.stream.peak_backlog", sm([](const Layers &l) {
                return static_cast<double>(l.stream.peakBacklog);
            }),
            "count");
    rep.add("workloads.body.ns_per_thread",
            mm([](const Layers &l) { return l.bodyNs; }), "ns");
    rep.add("workloads.prep_s", prep, "s");
    rep.add("workloads.untiled_s", untiledS, "s");
    rep.add("workloads.tiled_s", tiledS, "s");
    rep.add("trace.op_s", tracedOpS, "s");
    rep.add("trace.overhead_s", tracedOpS - opS, "s");
    rep.add("trace.layer_sum_s", layerSum, "s");
    rep.add("trace.residual_share", std::fabs(opS - layerSum) / opS,
            "ratio");
}

template <class K>
void
runWorkload(Workload<K> &w, const Options &opt, Report &rep)
{
    if (opt.trace)
        runTraced(w, opt, rep);
    else
        runUntraced(w, opt, rep);
}

/**
 * The checker's own test: on small inputs, a clean operation of every
 * workload must pass and each injected fault must be reported as a
 * failed operation.
 */
int
selfTest()
{
    int bad = 0;
    const auto expect = [&](const char *what, Fault f, const Outcome &o) {
        const bool want = f == Fault::None;
        const bool good = o.check.ok == want;
        bad += !good;
        std::printf("self-test %-12s %-11s -> %s (%s)%s\n", what,
                    f == Fault::None         ? "clean"
                    : f == Fault::Perturb    ? "perturbed"
                    : f == Fault::SkipThread ? "unwritten"
                                             : "short count",
                    o.check.ok ? "passed" : "failed",
                    o.check.ok ? "-" : o.check.why.c_str(),
                    good ? "" : "  <-- WRONG");
    };
    const Fault faults[] = {Fault::None, Fault::Perturb, Fault::SkipThread,
                            Fault::ShortCount};
    Workload<MatmulKernel> mm;
    mm.kernel.n = 64;
    mm.workers = 2;
    mm.setup(7);
    mm.kernel.computeReference();
    for (const Fault f : faults)
        expect("matmul", f, mm.op<false>(f));
    for (const bool stream : {false, true}) {
        Workload<SpmvKernel> sp;
        sp.kernel.nrows = 4096;
        sp.stream = stream;
        sp.setup(7);
        sp.kernel.computeReference();
        for (const Fault f : faults)
            expect(stream ? "spmv_stream" : "spmv", f, sp.op<false>(f));
    }
    std::printf("self-test: %s\n", bad ? "FAILED" : "ok");
    return bad ? 1 : 0;
}

bool
parseOptions(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--self-test") {
            o.selfTest = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
        } else if (a == "--trace") {
            o.trace = std::strtol(v.c_str(), &end, 10) != 0;
        } else if (a == "--workers") {
            o.workers =
                static_cast<unsigned>(std::strtoul(v.c_str(), &end, 10));
        } else {
            return false;
        }
        if (end && *end)
            return false;
    }
    return o.selfTest ||
           ((o.workload == "matmul" || o.workload == "spmv" ||
             o.workload == "spmv_stream") &&
            o.seconds > 0 && o.workers >= 1);
}

} // namespace

int
main(int argc, char **argv)
{
    const bool layoutFixed = fixAddressLayout(argv);
    // A fixed threshold keeps every large allocation on mmap, so
    // repeated set-ups place their inputs alike (glibc otherwise moves
    // the threshold after the first large free).
    mallopt(M_MMAP_THRESHOLD, 128 * 1024);

    Options opt;
    if (!parseOptions(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: hostbench --workload "
                     "<matmul|spmv|spmv_stream> --seed <n> --seconds <s> "
                     "--trace <0|1> [--workers <n>]\n"
                     "       hostbench --self-test\n");
        return 2;
    }
    if (opt.selfTest)
        return selfTest();

    printHost(layoutFixed);
    std::printf("workload %s, seed %llu, %.0f s, trace %d\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    std::fflush(stdout);
    Report rep;
    try {
        if (opt.workload == "matmul") {
            Workload<MatmulKernel> w;
            w.workers = opt.workers;
            runWorkload(w, opt, rep);
        } else {
            Workload<SpmvKernel> w;
            w.stream = opt.workload == "spmv_stream";
            runWorkload(w, opt, rep);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "hostbench: %s\n", e.what());
        return 1;
    }
    rep.print();
    return 0;
}
