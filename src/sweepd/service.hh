/**
 * @file
 * The process-per-job substrate (qcc_sweepd, `qcc_sweep --isolate
 * process`). ForkExecutor runs every attempt in a forked worker
 * (worker.hh) over a framed pipe protocol (protocol.hh): a worker
 * past its budget is SIGKILLed and recorded TimedOut "hard", and a
 * crashing job (SIGSEGV, abort) costs one Failed record. Each
 * request frame carries a WorkerConfig with the service's effective
 * store, trace, log and lane settings, so `--store-dir`/`--no-store`
 * and setStoreDir()/setStoreEnabled() reach every worker; with a
 * store configured, the disk tier is a shared cross-process cache.
 *
 * SweepdService is the front door: a SweepRunner over a
 * ForkExecutor, with resume and write-through on by default, so a
 * killed service leaves SWEEP_<name>.json behind and resubmitting
 * re-runs only what is missing (docs/sweepd.md).
 */

#ifndef QCC_SWEEPD_SERVICE_HH
#define QCC_SWEEPD_SERVICE_HH

#include <string>

#include "sweep/sweep_runner.hh"
#include "sweepd/protocol.hh"

namespace qcc {
namespace sweepd {

/** Service knobs: the runner's, plus the worker binary. */
struct SweepdOptions : SweepRunnerOptions
{
    SweepdOptions()
    {
        resume = true;
        writeThrough = true;
    }

    /**
     * Binary to exec for workers (invoked as `<path> --worker`);
     * usually the service's own executable (selfExecutablePath).
     */
    std::string workerPath;
};

/** Outcome counters for one submit(). */
struct SweepdRunStats
{
    size_t jobs = 0;    ///< expanded job count
    size_t resumed = 0; ///< adopted from the prior document
    size_t ran = 0;     ///< executed in a worker this run
    std::string writtenPath; ///< final aggregate path ("" if disabled)
};

/** One attempt = one forked worker (see file comment). */
class ForkExecutor final : public JobExecutor
{
  public:
    /**
     * Snapshot the calling process's effective settings into the
     * WorkerConfig every request will carry.
     */
    explicit ForkExecutor(std::string worker_path);

    const char *jobSpanName() const override { return "sweepd.job"; }

    JobAttempt attempt(const ExperimentSpec &spec,
                       const JobBudget &budget) override;

  private:
    std::string workerPath;
    WorkerConfig config;
};

/** Process-per-job front door onto SweepRunner. */
class SweepdService
{
  public:
    explicit SweepdService(SweepdOptions options);

    /**
     * Run one sweep to completion (SweepRunner::run); `stats`
     * (optional) receives the outcome counters.
     */
    ResultStore submit(const SweepSpec &spec,
                       SweepdRunStats *stats = nullptr);

    /** Resolved worker-pool width for `spec` (sweepWidth). */
    unsigned concurrency(const SweepSpec &spec) const
    {
        return sweepWidth(opts, spec);
    }

  private:
    SweepdOptions opts;
};

/**
 * Absolute path of the running executable (/proc/self/exe), falling
 * back to `argv0` when the proc link is unavailable.
 */
std::string selfExecutablePath(const char *argv0);

} // namespace sweepd
} // namespace qcc

#endif // QCC_SWEEPD_SERVICE_HH
