#include "sweep/sweep_runner.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>

#include "common/binio.hh"
#include "common/logging.hh"
#include "compiler/cache.hh"
#include "obs/trace.hh"
#include "store/problem_store.hh"

namespace qcc {

namespace {

using clock_type = std::chrono::steady_clock;

double
millisSince(clock_type::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               clock_type::now() - t0)
        .count();
}

} // namespace

unsigned
sweepWidth(const SweepRunnerOptions &options, const SweepSpec &spec)
{
    unsigned width = options.concurrency ? options.concurrency
                     : spec.concurrency  ? spec.concurrency
                                         : parallelThreads();
    const size_t jobs = std::max<size_t>(spec.jobCount(), 1);
    return unsigned(std::clamp<size_t>(width, 1, jobs));
}

JobAttempt
runJobAttempt(const ExperimentSpec &spec)
{
    JobAttempt out;
    try {
        out.result = Experiment(spec).run();
        out.status = JobStatus::Done;
    } catch (const SpecError &e) {
        out.error = e.what();
        out.fastFail = true;
    } catch (const RegistryError &e) {
        out.error = e.what();
        out.fastFail = true;
    } catch (const JsonError &e) {
        out.error = e.what();
        out.fastFail = true;
    } catch (const std::exception &e) {
        out.error = e.what();
    }
    return out;
}

JobAttempt
ThreadExecutor::attempt(const ExperimentSpec &spec,
                        const JobBudget &budget)
{
    const auto t0 = clock_type::now();
    JobAttempt out = runJobAttempt(spec);
    if (out.status == JobStatus::Done && budget.timeoutMs > 0.0 &&
        millisSince(t0) > budget.timeoutMs) {
        // Soft budget: the run finished, but past its allotment —
        // keep the result for inspection, drop it from the
        // summaries.
        out.status = JobStatus::TimedOut;
        out.timeoutKind = TimeoutKind::Soft;
    }
    return out;
}

SweepRunner::SweepRunner(SweepRunnerOptions options,
                         JobExecutor &exec)
    : opts(std::move(options)), executor(exec)
{
}

ResultStore
SweepRunner::run(const SweepSpec &spec)
{
    // Expansion and adoption throw before any job runs.
    const std::vector<ExperimentSpec> jobs = spec.expand();
    ResultStore store(spec.name, spec.emitTimings);
    store.reset(jobs);
    adoptedJobs = adoptPrior(spec.name, store);
    completedJobs = adoptedJobs;
    written.clear();

    const unsigned width = sweepWidth(opts, spec);
    JobBudget budget;
    budget.timeoutMs = opts.jobTimeoutMs >= 0.0 ? opts.jobTimeoutMs
                                                : spec.jobTimeoutMs;
    // The oversubscription fix: at width N, each job's data-parallel
    // sweeps get parallelThreads()/N pool lanes instead of all of
    // them.
    if (opts.capJobWidth && width > 1)
        budget.jobWidth = std::max(1u, parallelThreads() / width);
    const int retries =
        opts.retries >= 0 ? opts.retries : spec.retries;

    BoundedExecutor(width).run(jobs.size(), [&](size_t i) {
        runJob(i, store, budget, 1 + std::max(0, retries));
    });

    if (opts.writeThrough)
        written = store.write();
    return store;
}

size_t
SweepRunner::adoptPrior(const std::string &name, ResultStore &store)
{
    std::string path = opts.resumeFrom;
    if (path.empty()) {
        if (!opts.resume)
            return 0;
        path = qccJsonPath("SWEEP_" + name + ".json");
        if (path.empty() || !std::filesystem::exists(path))
            return 0; // no prior run: a fresh sweep
    }
    std::string doc;
    if (!readFileBytes(path, doc))
        throw SweepError("(resume)", "cannot read " + path);
    size_t n = 0;
    try {
        n = store.adoptCompleted(doc);
    } catch (const JsonError &e) {
        throw SweepError("(resume)", "unparseable resume document " +
                                         path + ": " + e.what());
    }
    if (n)
        inform("sweep: resumed " + std::to_string(n) + " of " +
               std::to_string(store.size()) + " jobs from " + path);
    return n;
}

void
SweepRunner::runJob(size_t index, ResultStore &store,
                    const JobBudget &budget, int max_attempts)
{
    // A non-Pending slot was adopted from a resume document — the
    // whole point is to never re-run it.
    if (store.jobs()[index].status != JobStatus::Pending)
        return;

    SweepJobRecord rec;
    rec.index = index;
    rec.spec = store.jobs()[index].spec;
    rec.specHash = store.jobs()[index].specHash;

    TraceSpan span(executor.jobSpanName());
    span.arg("job", index);
    span.arg("molecule", rec.spec.molecule);

    if (cancelToken.cancelled()) {
        rec.status = JobStatus::Skipped;
    } else {
        store.markRunning(index);
        if (opts.coldCompileCache)
            globalCircuitCache().clear();
        if (opts.coldProblemCache)
            globalProblemStore().clearMemory();
        const ParallelWidthCap laneCap(budget.jobWidth);

        const auto t0 = clock_type::now();
        for (int attempt = 1; attempt <= max_attempts; ++attempt) {
            JobAttempt a = executor.attempt(rec.spec, budget);
            rec.attempts = attempt;
            rec.status = a.status;
            rec.timeoutKind = a.timeoutKind;
            rec.error = std::move(a.error);
            rec.result = std::move(a.result);
            // Done and timed-out jobs are final: a job over its
            // budget once is over it again.
            if (rec.status != JobStatus::Failed || a.fastFail)
                break;
        }
        rec.wallMillis = millisSince(t0);
    }

    span.arg("status", jobStatusName(rec.status));
    span.arg("attempts", rec.attempts);
    landRecord(std::move(rec), store);
}

void
SweepRunner::landRecord(SweepJobRecord rec, ResultStore &store)
{
    const size_t index = rec.index;
    // Record + write-through + progress under one lock: callbacks
    // see a monotonically growing completed count and never
    // interleave, and the on-disk aggregate always reflects a
    // consistent prefix of completed work (the resume source).
    std::lock_guard<std::mutex> lock(progressMutex);
    store.record(std::move(rec));
    ++completedJobs;
    if (opts.writeThrough)
        store.write();
    if (opts.progress) {
        SweepProgress p;
        p.completed = completedJobs;
        p.total = store.size();
        p.last = &store.jobs()[index];
        opts.progress(p);
    }
}

} // namespace qcc
