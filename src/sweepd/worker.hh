/**
 * @file
 * sweepd worker entry point — the `--worker` mode of the qcc_sweepd
 * binary (and of test binaries that self-exec). A worker is one
 * job's whole process: it reads a single framed JobRequest from
 * stdin, applies the request's WorkerConfig (the parent's store,
 * trace, log and lane settings), runs the job through the same
 * runJobAttempt the in-thread substrate uses, writes
 * a single framed reply to (the original) stdout, and exits. Crash
 * isolation and the hard timeout both fall out of the process
 * boundary: a SIGSEGV/abort or a kill-at-deadline takes down only
 * this process, and the parent reads the outcome off waitpid.
 *
 * The worker re-points fd 1 at fd 2 immediately after saving the
 * real stdout, so any stray print inside the experiment stack lands
 * on stderr instead of corrupting the frame stream.
 *
 * Test hooks (hermetic fault injection, active only when set):
 *   QCC_SWEEPD_TEST_CRASH_SEED=<n>  abort() when a job's seed == n
 *   QCC_SWEEPD_TEST_SLEEP_SEED=<n>  sleep ~30 s when a job's seed == n
 */

#ifndef QCC_SWEEPD_WORKER_HH
#define QCC_SWEEPD_WORKER_HH

namespace qcc {
namespace sweepd {

/** Argv flag selecting worker mode ("--worker"). */
extern const char *const kWorkerFlag;

/**
 * Run one job from stdin to stdout (framed; see protocol.hh).
 * Returns the process exit code: 0 when a reply was delivered
 * (including a failed-job reply), nonzero when the protocol itself
 * broke down (unreadable request, dead pipe).
 */
int workerMain();

} // namespace sweepd
} // namespace qcc

#endif // QCC_SWEEPD_WORKER_HH
