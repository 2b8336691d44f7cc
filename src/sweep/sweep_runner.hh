/**
 * @file
 * SweepRunner — the one sweep scheduler. It expands a SweepSpec to
 * an ordered job list and owns all sweep policy: width resolution,
 * resume adoption, the retry loop with fast-fail, the per-job lane
 * cap, record landing, write-through, progress and cancellation.
 * How one attempt of one job executes sits behind the JobExecutor
 * seam, with two implementations: ThreadExecutor (here; in-thread,
 * soft timeout, shared in-process caches) and sweepd::ForkExecutor
 * (a forked worker per attempt; hard timeout, crash isolation).
 * SweepEngine (sweep_engine.hh) and sweepd::SweepdService
 * (sweepd/service.hh) pair a runner with one executor each.
 */

#ifndef QCC_SWEEP_SWEEP_RUNNER_HH
#define QCC_SWEEP_SWEEP_RUNNER_HH

#include <functional>
#include <mutex>
#include <string>

#include "common/parallel.hh"
#include "sweep/result_store.hh"
#include "sweep/sweep_spec.hh"

namespace qcc {

/** Snapshot handed to the progress callback after each job. */
struct SweepProgress
{
    size_t completed = 0; ///< jobs no longer pending/running
    size_t total = 0;
    /** The record that just landed (valid during the callback). */
    const SweepJobRecord *last = nullptr;
};

/**
 * Called after every job record lands, serialized under one lock
 * (callbacks never interleave). The callback may cancel the sweep
 * (SweepEngine::requestCancel / SweepRunner::requestCancel).
 */
using SweepProgressFn = std::function<void(const SweepProgress &)>;

/** Runner knobs (overrides of the spec's own hints). */
struct SweepRunnerOptions
{
    /** Job width; 0 defers to the spec, then QCC_THREADS. */
    unsigned concurrency = 0;

    /** Per-attempt budget in ms; < 0 defers to the spec, 0 = none. */
    double jobTimeoutMs = -1.0;

    /** Extra attempts after retryable failures; < 0 defers. */
    int retries = -1;

    /**
     * Clear the global CircuitCache / MolecularProblemStore memo
     * before every job (the bench's cold baseline; in-thread at
     * concurrency 1 only). The disk tier is untouched.
     */
    bool coldCompileCache = false;
    bool coldProblemCache = false;

    /**
     * Cap each job to parallelThreads() / width pool lanes (a
     * ParallelWidthCap; results stay bit-identical).
     */
    bool capJobWidth = true;

    /**
     * Resume: adopt done jobs whose spec_hash still matches from
     * `resumeFrom`, or, when that is "" and `resume` is set, from
     * SWEEP_<name>.json (QCC_JSON convention) if it exists. A named
     * document that is missing, or any document that does not
     * parse, throws SweepError before any job runs.
     */
    bool resume = false;
    std::string resumeFrom;

    /** Rewrite SWEEP_<name>.json after every record and at the end. */
    bool writeThrough = false;

    SweepProgressFn progress;
};

/**
 * Resolved job width for `spec`: the option, then the spec, then
 * parallelThreads(), clamped to [1, job count].
 */
unsigned sweepWidth(const SweepRunnerOptions &options,
                    const SweepSpec &spec);

/** What one attempt may spend. */
struct JobBudget
{
    double timeoutMs = 0.0; ///< 0 = no deadline
    unsigned jobWidth = 0;  ///< ParallelWidthCap lanes, 0 = uncapped
};

/** The outcome of one attempt of one job. */
struct JobAttempt
{
    /** Done, Failed or TimedOut. */
    JobStatus status = JobStatus::Failed;
    TimeoutKind timeoutKind = TimeoutKind::None;
    /** Failed, and no retry can fix it (a typo'd key). */
    bool fastFail = false;
    std::string error;
    /** Valid when Done, or TimedOut with a soft kind. */
    ExperimentResult result;
};

/**
 * Experiment(spec).run() on the calling thread, with
 * SpecError/RegistryError/JsonError as fast-fail and any other
 * exception as retryable. Both substrates run jobs through this.
 */
JobAttempt runJobAttempt(const ExperimentSpec &spec);

/** The execution seam: run one attempt of one job. */
class JobExecutor
{
  public:
    virtual ~JobExecutor() = default;

    /** Trace span around each job ("sweep.job", "sweepd.job"). */
    virtual const char *jobSpanName() const = 0;

    /** Called concurrently from the runner's job lanes. */
    virtual JobAttempt attempt(const ExperimentSpec &spec,
                               const JobBudget &budget) = 0;
};

/** In-thread substrate with the soft timeout. */
class ThreadExecutor final : public JobExecutor
{
  public:
    const char *jobSpanName() const override { return "sweep.job"; }
    JobAttempt attempt(const ExperimentSpec &spec,
                       const JobBudget &budget) override;
};

/** The scheduler (see file comment). */
class SweepRunner
{
  public:
    SweepRunner(SweepRunnerOptions options, JobExecutor &executor);

    /**
     * Run every job, blocking; one record per job, in job order.
     * Throws SweepError/SpecError on a malformed spec or resume
     * document before any job runs; job failures are recorded.
     */
    ResultStore run(const SweepSpec &spec);

    /** Cooperative cancel: unclaimed jobs become Skipped. */
    void requestCancel() { cancelToken.requestCancel(); }

    bool cancelled() const { return cancelToken.cancelled(); }

    /** Jobs adopted from a resume document by the last run(). */
    size_t adopted() const { return adoptedJobs; }

    /** Final write-through path of the last run() ("" if none). */
    const std::string &writtenPath() const { return written; }

  private:
    size_t adoptPrior(const std::string &name, ResultStore &store);
    void runJob(size_t index, ResultStore &store,
                const JobBudget &budget, int max_attempts);
    void landRecord(SweepJobRecord rec, ResultStore &store);

    SweepRunnerOptions opts;
    JobExecutor &executor;
    CancellationToken cancelToken;
    std::mutex progressMutex;
    size_t completedJobs = 0;
    size_t adoptedJobs = 0;
    std::string written;
};

} // namespace qcc

#endif // QCC_SWEEP_SWEEP_RUNNER_HH
