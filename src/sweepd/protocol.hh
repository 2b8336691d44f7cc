/**
 * @file
 * sweepd wire protocol — the JSON messages framed over the
 * parent/worker pipes (common/subprocess supplies the framing:
 * magic + length + payload + FNV-1a checksum). One exchange per
 * worker process:
 *
 *   parent -> worker (stdin):  {"spec": { ...ExperimentSpec... },
 *                               "config": { ...WorkerConfig... }}
 *   worker -> parent (stdout): {"status": "done",
 *                               "result": { ...ExperimentResult... },
 *                               "trace": [ ...span events... ],
 *                               "metrics": { ...registry... }}
 *                         or:  {"status": "failed",
 *                               "fast_fail": true|false,
 *                               "error": "..."}
 *
 * The result document is ExperimentResult::json() with the trace
 * dropped and timings kept; the parent rehydrates it with
 * ExperimentResult::fromJsonDom, so a record that travelled through
 * a worker re-serializes byte-for-byte identically to one computed
 * in-process (the concurrency-1-vs-N identity the ResultStore
 * promises). `fast_fail` marks spec/registry errors — failures a
 * retry cannot fix. `metrics` carries the worker's registry
 * snapshot, cache and store counters included, so cross-process
 * disk-tier sharing is observable (tests assert a warm-store worker
 * reports zero compile misses); `trace` is present only when the
 * worker traced.
 *
 * `config` carries the service's effective process settings, so a
 * worker runs under exactly the store, trace, log and lane settings
 * its parent resolved — flags and API calls included — instead of
 * whatever the environment it inherited says.
 */

#ifndef QCC_SWEEPD_PROTOCOL_HH
#define QCC_SWEEPD_PROTOCOL_HH

#include <optional>
#include <string>

#include "api/experiment.hh"
#include "api/spec.hh"
#include "common/json.hh"
#include "common/logging.hh"

namespace qcc {
namespace sweepd {

/** The parent's effective settings, applied by the worker. */
struct WorkerConfig
{
    std::string storeDir;      ///< storeDir() ("" = no store)
    bool storeEnabled = false; ///< storeEnabled()
    bool trace = false;        ///< traceEnabled()
    LogLevel logLevel = LogLevel::Info;
    unsigned jobWidth = 0;     ///< ParallelWidthCap lanes, 0 = none
};

/** One job, parent -> worker. */
struct JobRequest
{
    ExperimentSpec spec;
    /** Absent: the worker keeps its own (environment) settings. */
    std::optional<WorkerConfig> config = std::nullopt;
};

/** Decoded worker -> parent reply. */
struct WorkerReply
{
    bool done = false;     ///< status == "done"
    bool fastFail = false; ///< failed: spec/registry error, no retry
    std::string error;     ///< failed: diagnostic
    ExperimentResult result; ///< valid when done
    /**
     * Optional telemetry riders: `trace` is the worker's Chrome
     * trace-event array (obs/trace traceEventsArrayJson, present
     * only when the worker ran with QCC_TRACE on), `metrics` its
     * metrics-registry snapshot (obs/metrics metricsJson). A worker
     * starts with cold in-process caches, so its counters measure
     * the persistent tier's cross-process value directly. The
     * service adopts the first into its own trace buffers and
     * merges the second into its registry, which is what turns a
     * process-per-job sweep into one timeline and one set of
     * counters.
     */
    JsonValue trace;
    JsonValue metrics;
};

/** Serialize a job request payload. */
std::string encodeJobRequest(const JobRequest &request);

/**
 * Parse a job request payload, validating every member (the bytes
 * are untrusted); throws JsonError/SpecError, which the worker
 * reports back as a fast-fail.
 */
JobRequest decodeJobRequest(const std::string &payload);

/**
 * Serialize a done reply (result without its optimizer trace).
 * `trace_events` is a Chrome trace-event array document ("" = omit
 * the member) and `metrics` a metricsJson() document ("" = omit).
 */
std::string encodeDoneReply(const ExperimentResult &result,
                            const std::string &trace_events = "",
                            const std::string &metrics = "");

/** Serialize a failed reply. */
std::string encodeFailedReply(const std::string &error,
                              bool fast_fail);

/**
 * Parse a worker reply; false when the payload is not a
 * well-formed reply document (the parent records a failed job
 * naming the corruption rather than crashing).
 */
bool decodeReply(const std::string &payload, WorkerReply &out);

} // namespace sweepd
} // namespace qcc

#endif // QCC_SWEEPD_PROTOCOL_HH
