/**
 * @file
 * qcc_sweep — run SweepSpec files end to end. One JSON document
 * names a whole study (axes over molecules, bonds, compression,
 * groupings, seeds, ...); the aggregate lands in SWEEP_<name>.json —
 * per-job records plus best-energy/curve/settings summaries. Shipped
 * specs under examples/specs/ reproduce Fig. 10 and Table I/II.
 *
 *   qcc_sweep specs/lih_curve.json --concurrency 4
 *   qcc_sweep specs/table1_full.json --estimate
 *   qcc_sweep specs/big.json --isolate process --timeout-ms 60000
 *
 * `--isolate thread` runs jobs in-process over the shared caches
 * (soft timeout); `--isolate process` forks one worker per job
 * (`<this binary> --worker`; hard timeout, crash isolation).
 * --estimate forces kind "estimate" onto every job (costing without
 * a simulator). qcc_sweepd is this same main built with service
 * defaults — process isolation, resume from SWEEP_<name>.json,
 * write-through after every job — so a killed service resumes where
 * it left off (docs/sweepd.md):
 *
 *   qcc_sweepd specs/ci_smoke.json
 *   qcc_sweepd --serve < job_paths.txt
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "store/store.hh"
#include "sweep/sweep_engine.hh"
#include "sweepd/service.hh"
#include "sweepd/worker.hh"

#ifndef QCC_SWEEP_SERVICE_DEFAULTS
#define QCC_SWEEP_SERVICE_DEFAULTS 0
#endif

using namespace qcc;

namespace {

constexpr bool kServiceDefaults = QCC_SWEEP_SERVICE_DEFAULTS;

/** Parsed command line. */
struct Cli
{
    sweepd::SweepdOptions opts; ///< runner knobs + worker binary
    bool process = kServiceDefaults;
    bool estimate = false;
    bool list = false;
    bool quiet = false;
    bool serve = false;
    std::vector<std::string> specPaths;
};

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [<spec.json> ...] [options]\n"
        "       %s --serve [options]   then read spec paths from "
        "stdin, one per line\n"
        "  --isolate MODE    thread: jobs share this process "
        "(soft timeout);\n"
        "                    process: one forked worker per job "
        "(hard timeout,\n"
        "                    crash isolation). Default: %s\n"
        "  --concurrency N   job width (default: spec, then "
        "QCC_THREADS)\n"
        "  --timeout-ms X    per-job budget (default: the spec's "
        "timeout_ms)\n"
        "  --retries N       extra attempts after retryable "
        "failures\n"
        "  --no-resume       ignore an existing SWEEP_<name>.json "
        "(qcc_sweepd resumes\n"
        "                    from it by default)\n"
        "  --no-width-cap    don't split QCC_THREADS across "
        "concurrent jobs\n"
        "  --cold-cache      clear the compile cache before every "
        "job\n"
        "  --store-dir DIR   persistent store root (overrides "
        "QCC_STORE_DIR)\n"
        "  --no-store        disable the persistent store\n"
        "  --estimate        force kind \"estimate\" onto every job "
        "(simulation-free costing)\n"
        "  --list            print the expanded job list and exit\n"
        "  --quiet           suppress per-job progress lines\n"
        "\nThe aggregate is written as SWEEP_<name>.json and the "
        "counters as\nMETRICS_<name>.json under the QCC_JSON "
        "convention, falling back to\nthe current directory.\n",
        argv0, argv0, kServiceDefaults ? "process" : "thread");
    return 2;
}

void
printProgress(const SweepProgress &p)
{
    const SweepJobRecord &r = *p.last;
    std::printf("[%zu/%zu] #%-3zu %-5s bond %-5.2f  %-9s", p.completed,
                p.total, r.index, r.spec.molecule.c_str(),
                r.effectiveSpec().bond, jobStatusName(r.status));
    if (r.finished())
        std::printf("  E = %+.6f Ha", r.result.energy());
    if (!r.error.empty())
        std::printf("  (%s)", r.error.c_str());
    std::printf("\n");
    std::fflush(stdout);
}

/** One table per kind, each with the columns that matter for it. */
void
printTables(const ResultStore &store)
{
    bool header = false;
    for (const auto &rec : store.jobs()) {
        if (rec.status != JobStatus::Done ||
            rec.effectiveSpec().kind != "vqe")
            continue;
        if (!header) {
            std::printf("\n%-4s %-5s %-8s %14s %14s %14s\n", "job",
                        "mol", "bond(A)", "HF", "VQE", "FCI");
            header = true;
        }
        std::printf("%-4zu %-5s %-8.2f %14.6f %14.6f ", rec.index,
                    rec.spec.molecule.c_str(),
                    rec.effectiveSpec().bond, rec.result.hartreeFock,
                    rec.result.energy());
        if (rec.result.haveFci)
            std::printf("%14.6f\n", rec.result.fci);
        else
            std::printf("%14s\n", "-");
    }

    header = false;
    for (const auto &rec : store.jobs()) {
        if (rec.status != JobStatus::Done ||
            rec.effectiveSpec().kind != "evolve")
            continue;
        const TimeEvolutionResult &ev = rec.result.evolution;
        if (!header) {
            std::printf("\n%-4s %-5s %8s %6s %6s %14s %12s\n", "job",
                        "mol", "t(Ha^-1)", "steps", "order", "<H>(t)",
                        "fidelity");
            header = true;
        }
        std::printf("%-4zu %-5s %8.3f %6d %6d %14.6f ", rec.index,
                    rec.spec.molecule.c_str(), ev.time, ev.steps,
                    ev.order, ev.finalEnergy);
        if (ev.haveFidelity)
            std::printf("%12.9f\n", ev.fidelity);
        else
            std::printf("%12s\n", "-");
    }

    header = false;
    for (const auto &rec : store.jobs()) {
        if (rec.status != JobStatus::Done ||
            rec.effectiveSpec().kind != "estimate")
            continue;
        const EstimateResult &es = rec.result.estimate;
        if (!header) {
            std::printf("\n%-4s %-5s %-9s %6s %8s %8s %8s %7s %12s\n",
                        "job", "mol", "grouping", "qubits", "settings",
                        "gates", "cnots", "depth", "shot budget");
            header = true;
        }
        std::printf("%-4zu %-5s %-9s %6u %8zu %8zu %8zu %7zu %12llu\n",
                    rec.index, rec.spec.molecule.c_str(),
                    rec.effectiveSpec().grouping.c_str(), es.qubits,
                    es.measurementSettings, es.gates, es.cnots,
                    es.depth, (unsigned long long)es.shotBudget);
    }
}

/** Print a written document's path (skipped when "" = not written). */
void
printWritten(const std::string &path)
{
    if (!path.empty())
        std::printf("wrote %s\n", path.c_str());
}

/** Run one spec file; 0 when no job failed. */
int
runSpec(const Cli &cli, const std::string &path)
{
    SweepSpec spec;
    std::vector<ExperimentSpec> jobs;
    try {
        spec = SweepSpec::fromFile(path);
        if (cli.estimate) {
            // Re-cost the same study without touching the spec
            // file; the suffixed name keeps the aggregate from
            // clobbering a real run's SWEEP_<name>.json.
            spec.name += "_estimate";
            spec.base.kind = "estimate";
            for (ExperimentSpec &job : spec.explicitJobs)
                job.kind = "estimate";
        }
        jobs = spec.expand();
    } catch (const std::exception &e) {
        error(std::string("qcc_sweep: ") + e.what());
        return 1;
    }

    std::printf("sweep '%s': %zu jobs", spec.name.c_str(), jobs.size());
    for (size_t a = 0; a < spec.axes.size(); ++a)
        std::printf("%s%s x %zu", a ? ", " : " (",
                    spec.axes[a].field.c_str(),
                    spec.axes[a].values.size());
    std::printf("%s\n", spec.axes.empty() ? "" : ")");

    if (cli.list) {
        for (size_t i = 0; i < jobs.size(); ++i)
            std::printf("  #%-3zu %-5s bond %-5.2f comp %-4.2f %s/%s\n",
                        i, jobs[i].molecule.c_str(), jobs[i].bond,
                        jobs[i].compression, jobs[i].mode.c_str(),
                        jobs[i].optimizer.c_str());
        return 0;
    }

    // Telemetry is per spec: each submission (including each line in
    // serve mode) gets its own TRACE_EVENTS/METRICS documents.
    clearTrace();
    resetMetrics();

    std::printf("running at concurrency %u, isolate %s%s...\n\n",
                sweepWidth(cli.opts, spec),
                cli.process ? "process" : "thread",
                cli.opts.coldCompileCache ? ", cold compile cache"
                                          : "");
    std::fflush(stdout);

    ResultStore store("", false);
    size_t resumed = 0;
    try {
        if (cli.process) {
            sweepd::SweepdRunStats stats;
            store = sweepd::SweepdService(cli.opts).submit(spec, &stats);
            resumed = stats.resumed;
        } else {
            SweepEngine engine(
                spec, static_cast<const SweepEngineOptions &>(cli.opts));
            store = engine.run();
            resumed = engine.adopted();
        }
    } catch (const std::exception &e) {
        error(std::string("qcc_sweep: ") + e.what());
        return 1;
    }

    std::printf("\n'%s': %zu done (%zu resumed), %zu failed, %zu timed "
                "out, %zu skipped\n",
                spec.name.c_str(), store.countWithStatus(JobStatus::Done),
                resumed, store.countWithStatus(JobStatus::Failed),
                store.countWithStatus(JobStatus::TimedOut),
                store.countWithStatus(JobStatus::Skipped));
    printTables(store);

    // The documents land under QCC_JSON; unset, the CLI still
    // delivers them to the current directory.
    const auto outputPath = [&store](const char *prefix) {
        const std::string file = prefix + store.name() + ".json";
        const std::string path = qccJsonPath(file);
        return path.empty() ? file : path;
    };
    std::printf("\n");
    printWritten(store.writeTo(outputPath("SWEEP_")));

    if (storeEnabled()) {
        // Registry counters: under --isolate process they are the
        // sums the workers shipped back.
        const StoreStats ss = storeStats();
        std::printf("persistent store (%s): circuits %zu hit / %zu "
                    "written / %zu bad; problems %zu memo + %zu disk "
                    "hit / %zu built / %zu written\n",
                    storeDir().c_str(), ss.circuitDiskHits,
                    ss.circuitDiskWrites, ss.circuitBadEntries,
                    ss.problemMemHits, ss.problemDiskHits,
                    ss.problemBuilds, ss.problemDiskWrites);
    }

    // A trace only when QCC_TRACE is on; the counters whenever the
    // registry is enabled, next to the SWEEP document.
    printWritten(writeTraceJson(store.name()));
    printWritten(writeMetricsJson(outputPath("METRICS_")));
    std::fflush(stdout);
    return store.countWithStatus(JobStatus::Failed) == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    // Worker mode first: nothing else (flag parsing, store setup)
    // may touch the frame channel before the handoff.
    if (argc > 1 && std::strcmp(argv[1], sweepd::kWorkerFlag) == 0)
        return sweepd::workerMain();

    setVerbose(kServiceDefaults);

    Cli cli;
    cli.opts.resume = kServiceDefaults;
    cli.opts.writeThrough = kServiceDefaults;
    cli.opts.workerPath = sweepd::selfExecutablePath(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        if (arg == "--isolate" && hasValue) {
            const std::string mode = argv[++i];
            if (mode != "thread" && mode != "process")
                return usage(argv[0]);
            cli.process = mode == "process";
        } else if (arg == "--concurrency" && hasValue) {
            cli.opts.concurrency = unsigned(std::atoi(argv[++i]));
        } else if (arg == "--timeout-ms" && hasValue) {
            cli.opts.jobTimeoutMs = std::atof(argv[++i]);
        } else if (arg == "--retries" && hasValue) {
            cli.opts.retries = std::atoi(argv[++i]);
        } else if (arg == "--no-resume") {
            cli.opts.resume = false;
        } else if (arg == "--no-width-cap") {
            cli.opts.capJobWidth = false;
        } else if (arg == "--cold-cache") {
            cli.opts.coldCompileCache = true;
        } else if (arg == "--store-dir" && hasValue) {
            setStoreDir(argv[++i]);
        } else if (arg == "--no-store") {
            setStoreEnabled(false);
        } else if (arg == "--estimate") {
            cli.estimate = true;
        } else if (arg == "--list") {
            cli.list = true;
        } else if (arg == "--serve") {
            cli.serve = true;
        } else if (arg == "--quiet") {
            cli.quiet = true;
        } else if (!arg.empty() && arg[0] == '-') {
            return usage(argv[0]);
        } else {
            cli.specPaths.push_back(arg);
        }
    }
    if (cli.specPaths.empty() && !cli.serve)
        return usage(argv[0]);
    if (!cli.quiet)
        cli.opts.progress = printProgress;

    int rc = 0;
    for (const auto &path : cli.specPaths)
        rc |= runSpec(cli, path);

    if (cli.serve) {
        // Server loop: one spec path per line until EOF. Each
        // submission runs to completion before the next is read —
        // concurrency lives inside a sweep, not across sweeps.
        std::printf("serving (one spec path per line; EOF stops)\n");
        std::fflush(stdout);
        char line[4096];
        while (std::fgets(line, sizeof(line), stdin)) {
            std::string path = line;
            while (!path.empty() &&
                   (path.back() == '\n' || path.back() == '\r' ||
                    path.back() == ' '))
                path.pop_back();
            if (path.empty() || path[0] == '#')
                continue;
            rc |= runSpec(cli, path);
        }
    }
    return rc;
}
