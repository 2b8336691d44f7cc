/**
 * @file
 * SweepEngine — the in-thread front door onto SweepRunner
 * (sweep_runner.hh): one spec, one ThreadExecutor. Jobs run on a
 * bounded set of threads through the ordinary Experiment facade and
 * share the process-wide CircuitCache, MolecularProblemStore, and
 * gradient BufferPool (all mutex-guarded), which is the engine's
 * throughput lever: repeated compilations of the same program across
 * jobs rebind angles on the memoized structure instead of
 * re-routing, and jobs racing on the same chemistry share a single
 * integrals/HF build (bench_sweep measures the cold-vs-shared gap).
 * The per-job timeout is soft; the process-per-job front door is
 * sweepd::SweepdService.
 *
 * The in-thread defaults add no per-job cost: no write-through, no
 * implicit resume, no subprocess.
 */

#ifndef QCC_SWEEP_SWEEP_ENGINE_HH
#define QCC_SWEEP_SWEEP_ENGINE_HH

#include "sweep/sweep_runner.hh"

namespace qcc {

/** Engine knobs: the runner's, with its defaults. */
using SweepEngineOptions = SweepRunnerOptions;

/** A validated, runnable in-thread sweep. */
class SweepEngine
{
  public:
    explicit SweepEngine(SweepSpec spec,
                         SweepEngineOptions options = {})
        : sweepSpec(std::move(spec)), opts(std::move(options)),
          runner(opts, executor)
    {
    }

    const SweepSpec &spec() const { return sweepSpec; }

    /** Resolved job width (sweepWidth). */
    unsigned concurrency() const { return sweepWidth(opts, sweepSpec); }

    /** Run every job; see SweepRunner::run. */
    ResultStore run() { return runner.run(sweepSpec); }

    /** Cooperative cancel: unclaimed jobs become Skipped. */
    void requestCancel() { runner.requestCancel(); }

    bool cancelled() const { return runner.cancelled(); }

    /** Jobs adopted from a resume document by the last run(). */
    size_t adopted() const { return runner.adopted(); }

  private:
    SweepSpec sweepSpec;
    SweepEngineOptions opts;
    ThreadExecutor executor;
    SweepRunner runner;
};

} // namespace qcc

#endif // QCC_SWEEP_SWEEP_ENGINE_HH
