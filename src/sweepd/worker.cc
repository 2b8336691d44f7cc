#include "sweepd/worker.hh"

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>

#include <unistd.h>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/subprocess.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "store/store.hh"
#include "sweep/sweep_runner.hh"
#include "sweepd/protocol.hh"

namespace qcc {
namespace sweepd {

const char *const kWorkerFlag = "--worker";

namespace {

/** True when `name` is set and parses to exactly `seed`. */
bool
seedHookMatches(const char *name, uint64_t seed)
{
    const char *env = std::getenv(name);
    if (!env || !*env)
        return false;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    return end && *end == '\0' && v == seed;
}

/** Decode, configure, run; the reply document for `payload`. */
std::string
runRequest(const std::string &payload)
{
    JobRequest request;
    try {
        request = decodeJobRequest(payload);
    } catch (const std::exception &e) {
        // Malformed bytes cannot succeed on retry.
        return encodeFailedReply(e.what(), /*fast_fail=*/true);
    }

    // The parent's effective settings, not the inherited
    // environment's, govern the run.
    unsigned jobWidth = 0;
    if (const auto &c = request.config) {
        setStoreDir(c->storeDir);
        setStoreEnabled(c->storeEnabled);
        setTraceEnabled(c->trace);
        setLogLevel(c->logLevel);
        jobWidth = c->jobWidth;
    }
    const ParallelWidthCap laneCap(jobWidth);

    // Fault-injection hooks for the crash/timeout tests: keyed on
    // the job's seed so one spec in a sweep misbehaves while its
    // siblings run normally.
    if (seedHookMatches("QCC_SWEEPD_TEST_CRASH_SEED", request.spec.seed))
        std::abort();
    if (seedHookMatches("QCC_SWEEPD_TEST_SLEEP_SEED", request.spec.seed))
        std::this_thread::sleep_for(std::chrono::seconds(30));

    const JobAttempt attempt = runJobAttempt(request.spec);
    if (attempt.status != JobStatus::Done)
        return encodeFailedReply(attempt.error, attempt.fastFail);

    // Telemetry riders: the worker's span buffer (only when tracing
    // is on — the events carry this process's pid, so the service's
    // merged timeline separates workers) and its metrics snapshot
    // (always: it is the only way the worker's cache and store
    // counts reach the service).
    std::string traceDoc;
    if (traceEnabled() && traceEventCount())
        traceDoc = traceEventsArrayJson();
    return encodeDoneReply(attempt.result, traceDoc, metricsJson());
}

} // namespace

int
workerMain()
{
    ignoreSigpipe();

    // Keep the frame channel private: save the real stdout, then
    // point fd 1 at stderr so stray prints can't corrupt frames.
    const int replyFd = ::dup(STDOUT_FILENO);
    if (replyFd < 0)
        return 3;
    ::dup2(STDERR_FILENO, STDOUT_FILENO);

    std::string payload;
    if (readFrame(STDIN_FILENO, payload, /*timeout_ms=*/0.0) !=
        FrameStatus::Ok)
        return 3;
    return writeFrame(replyFd, runRequest(payload)) ? 0 : 3;
}

} // namespace sweepd
} // namespace qcc
