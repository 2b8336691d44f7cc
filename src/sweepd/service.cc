#include "sweepd/service.hh"

#include <cstdio>

#include <unistd.h>

#include "common/subprocess.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "store/store.hh"
#include "sweepd/worker.hh"

namespace qcc {
namespace sweepd {

ForkExecutor::ForkExecutor(std::string worker_path)
    : workerPath(std::move(worker_path))
{
    config.storeDir = storeDir();
    config.storeEnabled = storeEnabled();
    config.trace = traceEnabled();
    config.logLevel = logLevel();
    // A worker killed mid-write must not take the service with it.
    ignoreSigpipe();
}

JobAttempt
ForkExecutor::attempt(const ExperimentSpec &spec,
                      const JobBudget &budget)
{
    JobAttempt out;
    JobRequest request{spec, config};
    request.config->jobWidth = budget.jobWidth;

    ChildProcess child = spawnChildProcess(
        {workerPath, std::string(kWorkerFlag)});
    if (child.pid < 0) {
        out.error = "cannot spawn worker: " + workerPath;
        out.fastFail = true; // fork/pipe failure is not per-job
        return out;
    }

    const bool wrote =
        writeFrame(child.stdinFd, encodeJobRequest(request));
    closeFd(child.stdinFd);
    if (!wrote) {
        killProcess(child.pid);
        const ExitStatus es = reapProcess(child.pid);
        closeFd(child.stdoutFd);
        out.error = "worker rejected the job request (" +
                    es.describe() + ")";
        return out; // the worker died at startup; retryable
    }

    std::string payload;
    const FrameStatus fs =
        readFrame(child.stdoutFd, payload, budget.timeoutMs);
    if (fs == FrameStatus::Timeout) {
        // The hard deadline: kill the worker and reap the corpse.
        killProcess(child.pid);
        const ExitStatus es = reapProcess(child.pid);
        closeFd(child.stdoutFd);
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "hard timeout after %.6g ms; worker killed (%s)",
                      budget.timeoutMs, es.describe().c_str());
        out.status = JobStatus::TimedOut;
        out.timeoutKind = TimeoutKind::Hard;
        out.error = buf;
        return out;
    }
    closeFd(child.stdoutFd);
    const ExitStatus es = reapProcess(child.pid);

    if (fs != FrameStatus::Ok) {
        // Eof/Corrupt/IoError: the worker died before delivering a
        // reply — the crash-isolation path.
        out.error = std::string("worker died before replying (") +
                    frameStatusName(fs) + ", " + es.describe() + ")";
        return out;
    }
    WorkerReply reply;
    if (!decodeReply(payload, reply)) {
        out.error = "unparseable worker reply (" + es.describe() + ")";
        return out;
    }
    if (!reply.done) {
        out.error = reply.error;
        out.fastFail = reply.fastFail;
        return out;
    }

    // Fold the worker telemetry into the service: its span buffer
    // joins this process's timeline (the events carry the worker
    // pid) and its counters add into the registry, where
    // storeStats(), CircuitCache::stats() and METRICS_*.json read
    // them.
    if (reply.trace.isArray())
        adoptTraceEventsDom(reply.trace);
    if (reply.metrics.isObject())
        mergeMetricsDom(reply.metrics);
    out.status = JobStatus::Done;
    out.result = std::move(reply.result);
    return out;
}

SweepdService::SweepdService(SweepdOptions options)
    : opts(std::move(options))
{
}

ResultStore
SweepdService::submit(const SweepSpec &spec, SweepdRunStats *stats)
{
    TraceSpan span("sweepd.submit");
    span.arg("jobs", spec.jobCount());
    span.arg("width", concurrency(spec));
    ForkExecutor executor(opts.workerPath);
    SweepRunner runner(opts, executor);
    ResultStore store = runner.run(spec);
    if (stats) {
        stats->jobs = store.size();
        stats->resumed = runner.adopted();
        stats->ran = stats->jobs - stats->resumed;
        stats->writtenPath = runner.writtenPath();
    }
    return store;
}

std::string
selfExecutablePath(const char *argv0)
{
    char buf[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
    return argv0 ? argv0 : "";
}

} // namespace sweepd
} // namespace qcc
