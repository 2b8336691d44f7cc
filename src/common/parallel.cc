#include "common/parallel.hh"

#include <pthread.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace qcc {

namespace {

uint64_t
nowNs()
{
    return uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

unsigned
parallelThreads()
{
    static const unsigned n = [] {
        if (const char *env = std::getenv("QCC_THREADS")) {
            long v = std::strtol(env, nullptr, 10);
            if (v >= 1)
                return unsigned(v);
        }
        unsigned hw = std::thread::hardware_concurrency();
        return hw ? hw : 1u;
    }();
    return n;
}

namespace {

thread_local unsigned tlsLaneCap = 0;

} // namespace

unsigned
parallelLanes()
{
    unsigned lanes = parallelThreads();
    if (tlsLaneCap && tlsLaneCap < lanes)
        lanes = tlsLaneCap;
    return lanes;
}

ParallelWidthCap::ParallelWidthCap(unsigned lanes)
    : previous(tlsLaneCap)
{
    if (lanes)
        tlsLaneCap = lanes;
}

ParallelWidthCap::~ParallelWidthCap()
{
    tlsLaneCap = previous;
}

BoundedExecutor::BoundedExecutor(unsigned width)
    : concurrency(width ? width : parallelThreads())
{
}

void
BoundedExecutor::run(size_t n_tasks,
                     const std::function<void(size_t)> &task) const
{
    if (n_tasks == 0)
        return;
    const unsigned width =
        unsigned(std::min<size_t>(concurrency, n_tasks));
    if (width <= 1) {
        for (size_t i = 0; i < n_tasks; ++i)
            task(i);
        return;
    }
    std::atomic<size_t> next{0};
    auto worker = [&] {
        for (;;) {
            const size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n_tasks)
                return;
            TraceSpan span("executor.task");
            span.arg("task", i);
            task(i);
        }
    };
    std::vector<std::thread> threads;
    threads.reserve(width - 1);
    for (unsigned t = 0; t + 1 < width; ++t)
        threads.emplace_back(worker);
    worker(); // the caller is the width-th lane
    for (auto &t : threads)
        t.join();
}

namespace detail {

namespace {

thread_local bool insideJob = false;

/**
 * Set in the child of a fork() made after the pool started (a
 * gtest death test, say): the child inherits the pool object but
 * none of its worker threads, so its sweeps must run inline.
 */
std::atomic<bool> forkedFromPool{false};

/**
 * Persistent pool of parallelThreads() - 1 workers plus the calling
 * thread. One job runs at a time; workers claim chunk indices from a
 * shared atomic counter, so uneven chunks load-balance naturally.
 */
class ThreadPool
{
  public:
    static ThreadPool &
    instance()
    {
        // Deliberately immortal, like the metrics registry: a child
        // forked without exec (a gtest death test) inherits this
        // object but none of its workers, and its condition
        // variables still count the parent's waiters, so notifying
        // or destroying them in the child's exit() blocks forever.
        // Idle workers simply end with the process.
        static ThreadPool *pool = new ThreadPool(parallelThreads());
        return *pool;
    }

    void
    run(size_t n_chunks, const std::function<void(size_t)> &fn,
        unsigned max_lanes)
    {
        // Per-job accounting, not per-chunk: two histogram records
        // per pool job, invisible next to the kernel work a job
        // represents. queue_wait_us (recorded by the workers) is
        // the ROADMAP contention probe — how long a submitted job
        // sat before each worker actually got onto it.
        static MetricCounter &jobs = metricCounter("parallel.pool_jobs");
        static MetricHistogram &jobUs =
            metricHistogram("parallel.job_us");
        std::unique_lock<std::mutex> jobLock(jobMutex);
        const uint64_t t0 = nowNs();
        {
            std::lock_guard<std::mutex> lk(mtx);
            job = &fn;
            nextChunk.store(0, std::memory_order_relaxed);
            totalChunks = n_chunks;
            pendingChunks.store(n_chunks, std::memory_order_relaxed);
            // The caller is always one lane; workers claim the rest.
            laneBudget.store(max_lanes > 0 ? max_lanes - 1 : 0,
                             std::memory_order_relaxed);
            ++generation;
        }
        submitNs.store(t0, std::memory_order_relaxed);
        cv.notify_all();
        work();
        // Wait for chunks claimed by workers but not yet finished.
        std::unique_lock<std::mutex> lk(mtx);
        doneCv.wait(lk, [&] {
            return pendingChunks.load(std::memory_order_acquire) == 0;
        });
        job = nullptr;
        jobs.add();
        jobUs.record((nowNs() - t0) / 1000);
    }

  private:
    explicit ThreadPool(unsigned n_threads)
    {
        pthread_atfork(nullptr, nullptr, [] {
            forkedFromPool.store(true, std::memory_order_relaxed);
        });
        for (unsigned i = 0; i + 1 < n_threads; ++i)
            std::thread([this] { workerLoop(); }).detach();
    }

    void
    work()
    {
        for (;;) {
            size_t ci = nextChunk.fetch_add(1, std::memory_order_relaxed);
            if (ci >= totalChunks)
                return;
            (*job)(ci);
            if (pendingChunks.fetch_sub(1, std::memory_order_acq_rel) ==
                1) {
                std::lock_guard<std::mutex> lk(mtx);
                doneCv.notify_all();
            }
        }
    }

    /**
     * Claim one of the job's worker lanes; false sends this worker
     * back to sleep, leaving the job to the caller and the lanes
     * that did win. Capped jobs (ParallelWidthCap) budget fewer
     * lanes than there are workers.
     */
    bool
    acquireLane()
    {
        unsigned v = laneBudget.load(std::memory_order_relaxed);
        while (v > 0)
            if (laneBudget.compare_exchange_weak(
                    v, v - 1, std::memory_order_acquire,
                    std::memory_order_relaxed))
                return true;
        return false;
    }

    void
    workerLoop()
    {
        static MetricHistogram &queueWaitUs =
            metricHistogram("parallel.queue_wait_us");
        insideJob = true; // nested sweeps inside a chunk stay serial
        uint64_t seen = 0;
        for (;;) {
            {
                std::unique_lock<std::mutex> lk(mtx);
                cv.wait(lk, [&] { return generation != seen; });
                seen = generation;
            }
            if (acquireLane()) {
                // Submission-to-lane latency: wakeup plus any time
                // lost to contention on the pool. One record per
                // lane win, before the chunk work starts.
                const uint64_t submitted =
                    submitNs.load(std::memory_order_relaxed);
                const uint64_t now = nowNs();
                queueWaitUs.record(
                    now > submitted ? (now - submitted) / 1000 : 0);
                work();
            }
        }
    }

    std::mutex jobMutex; ///< serializes run() callers
    std::mutex mtx;
    std::condition_variable cv, doneCv;
    const std::function<void(size_t)> *job = nullptr;
    std::atomic<size_t> nextChunk{0};
    std::atomic<size_t> pendingChunks{0};
    std::atomic<unsigned> laneBudget{0};
    std::atomic<uint64_t> submitNs{0};
    size_t totalChunks = 0;
    uint64_t generation = 0;
};

} // namespace

void
poolRun(size_t n_chunks, const std::function<void(size_t)> &chunk_fn)
{
    if (n_chunks == 0)
        return;
    // Nested parallelism (a chunk spawning chunks) runs serially: the
    // pool executes one job at a time and re-entering would deadlock.
    // A lane budget of 1 also runs inline — chunk for chunk, so the
    // results match the pooled execution bit for bit — which lets
    // width-capped sweep jobs proceed without ever touching (or
    // waiting on) the shared pool.
    // A forked child has no pool workers: it runs inline too.
    const unsigned lanes = parallelLanes();
    if (insideJob || lanes <= 1 || n_chunks == 1 ||
        forkedFromPool.load(std::memory_order_relaxed)) {
        static MetricCounter &inlineJobs =
            metricCounter("parallel.inline_jobs");
        inlineJobs.add();
        for (size_t ci = 0; ci < n_chunks; ++ci)
            chunk_fn(ci);
        return;
    }
    insideJob = true;
    ThreadPool::instance().run(n_chunks, chunk_fn, lanes);
    insideJob = false;
}

} // namespace detail

} // namespace qcc
