/**
 * @file
 * sweepd (process-per-job sweep runner) tests: pipe framing round
 * trips, one-job worker exchanges, crash isolation (an abort()ing
 * worker records one failed job and the service survives), the hard
 * timeout (a sleeping worker is killed and reaped within
 * tolerance), resume (re-submitting after a partial run re-runs
 * only the missing jobs and reproduces the uninterrupted document
 * byte for byte), and cross-process persistent-store sharing (a
 * second worker process serves chemistry and compilation from the
 * disk tier with zero rebuilds).
 *
 * The test binary doubles as the worker executable: when invoked
 * with --worker it behaves exactly like `qcc_sweepd --worker`
 * (fault-injection hooks included), so every test is hermetic.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include <unistd.h>

#include "common/logging.hh"
#include "common/subprocess.hh"
#include "store/store.hh"
#include "sweep/sweep_engine.hh"
#include "sweepd/protocol.hh"
#include "sweepd/service.hh"
#include "sweepd/worker.hh"

using namespace qcc;

namespace {

struct VerboseSilencer
{
    VerboseSilencer() { setVerbose(false); }
} silencer;

/** Scoped scratch directory, deleted on exit. */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
    {
        static std::atomic<int> seq{0};
        path_ = (std::filesystem::temp_directory_path() /
                 ("qcc_sweepd_" + tag + "_" +
                  std::to_string(::getpid()) + "_" +
                  std::to_string(seq++)))
                    .string();
        std::filesystem::create_directories(path_);
    }

    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** Scoped environment variable (restores the prior value). */
class EnvGuard
{
  public:
    EnvGuard(std::string name, const std::string &value)
        : name_(std::move(name))
    {
        if (const char *old = std::getenv(name_.c_str())) {
            had_ = true;
            old_ = old;
        }
        ::setenv(name_.c_str(), value.c_str(), 1);
    }

    ~EnvGuard()
    {
        if (had_)
            ::setenv(name_.c_str(), old_.c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }

  private:
    std::string name_;
    std::string old_;
    bool had_ = false;
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(bool(in)) << "cannot read " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** This test binary, invokable as `<self> --worker`. */
std::string
selfPath()
{
    return sweepd::selfExecutablePath(nullptr);
}

/** Cheap stochastic H2 sweep over 4 seeds, deterministic bytes. */
SweepSpec
smallSweep()
{
    return SweepSpec::fromJson(R"({
      "name": "sweepd_unit",
      "base": {
        "molecule": "H2", "bond": 0.74, "mode": "sampled",
        "optimizer": "spsa", "spsa_iter": 8, "shots": 1024,
        "reference": false
      },
      "axes": { "seed": [11, 12, 13, 14] },
      "concurrency": 2,
      "emit_timings": false
    })");
}

sweepd::SweepdOptions
serviceOptions()
{
    sweepd::SweepdOptions opts;
    opts.workerPath = selfPath();
    return opts;
}

/** Run one spec through a worker process directly (no service). */
sweepd::WorkerReply
runWorkerJob(const ExperimentSpec &spec)
{
    sweepd::WorkerReply reply;
    ChildProcess child = spawnChildProcess(
        {selfPath(), std::string(sweepd::kWorkerFlag)}, {});
    EXPECT_GT(child.pid, 0);
    if (child.pid <= 0)
        return reply;
    EXPECT_TRUE(writeFrame(
        child.stdinFd,
        sweepd::encodeJobRequest(sweepd::JobRequest{spec})));
    closeFd(child.stdinFd);
    std::string payload;
    const FrameStatus fs =
        readFrame(child.stdoutFd, payload, 120000.0);
    closeFd(child.stdoutFd);
    const ExitStatus es = reapProcess(child.pid);
    EXPECT_EQ(fs, FrameStatus::Ok) << frameStatusName(fs);
    EXPECT_TRUE(es.ok()) << es.describe();
    if (fs == FrameStatus::Ok) {
        EXPECT_TRUE(sweepd::decodeReply(payload, reply));
    }
    return reply;
}

} // namespace

// ---------------------------------------------------------------
// framing

TEST(SweepdFraming, RoundTripsPayloadsThroughAPipe)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const std::string payload = "{\"hello\": \"world\"}";
    ASSERT_TRUE(writeFrame(fds[1], payload));
    std::string back;
    EXPECT_EQ(readFrame(fds[0], back, 1000.0), FrameStatus::Ok);
    EXPECT_EQ(back, payload);

    // An empty payload frames fine too.
    ASSERT_TRUE(writeFrame(fds[1], ""));
    EXPECT_EQ(readFrame(fds[0], back, 1000.0), FrameStatus::Ok);
    EXPECT_EQ(back, "");

    ::close(fds[1]);
    // Writer gone: the reader sees a clean EOF, not a hang.
    EXPECT_EQ(readFrame(fds[0], back, 1000.0), FrameStatus::Eof);
    ::close(fds[0]);
}

TEST(SweepdFraming, RejectsCorruptStreams)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    // Stray text where a frame header should be.
    const char junk[] = "this is not a frame header at all";
    ASSERT_EQ(::write(fds[1], junk, sizeof(junk) - 1),
              ssize_t(sizeof(junk) - 1));
    ::close(fds[1]);
    std::string back;
    EXPECT_EQ(readFrame(fds[0], back, 1000.0),
              FrameStatus::Corrupt);
    ::close(fds[0]);
}

TEST(SweepdFraming, TimesOutOnASilentPeer)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    std::string back;
    EXPECT_EQ(readFrame(fds[0], back, 50.0), FrameStatus::Timeout);
    ::close(fds[0]);
    ::close(fds[1]);
}

// ---------------------------------------------------------------
// one worker process

TEST(SweepdWorker, RunsOneJobAndReturnsItsResult)
{
    ExperimentSpec spec;
    spec.molecule = "H2";
    spec.bond = 0.74;
    spec.mode = "sampled";
    spec.optimizer = "spsa";
    spec.spsaIter = 8;
    spec.shots = 1024;
    spec.seed = 7;
    spec.reference = false;

    const sweepd::WorkerReply reply = runWorkerJob(spec);
    ASSERT_TRUE(reply.done) << reply.error;
    EXPECT_EQ(reply.result.spec.molecule, "H2");
    EXPECT_LT(reply.result.energy(), 0.0); // bound H2
    EXPECT_GT(reply.result.shots, 0u);
}

TEST(SweepdWorker, ReportsASpecErrorAsFastFail)
{
    ExperimentSpec spec;
    spec.molecule = "unobtainium";
    const sweepd::WorkerReply reply = runWorkerJob(spec);
    EXPECT_FALSE(reply.done);
    EXPECT_TRUE(reply.fastFail);
    EXPECT_NE(reply.error.find("unobtainium"), std::string::npos);
}

// ---------------------------------------------------------------
// crash isolation

TEST(SweepdService, AWorkerCrashRecordsOneFailedJobAndTheSweepFinishes)
{
    TempDir json("crash");
    EnvGuard jsonEnv("QCC_JSON", json.path());
    // Seed 13 calls abort() inside the worker.
    EnvGuard crash("QCC_SWEEPD_TEST_CRASH_SEED", "13");

    sweepd::SweepdService service(serviceOptions());
    sweepd::SweepdRunStats stats;
    ResultStore store = service.submit(smallSweep(), &stats);

    EXPECT_EQ(store.countWithStatus(JobStatus::Done), 3u);
    ASSERT_EQ(store.countWithStatus(JobStatus::Failed), 1u);
    const SweepJobRecord &failed = store.jobs()[2]; // seed 13
    EXPECT_EQ(failed.status, JobStatus::Failed);
    EXPECT_NE(failed.error.find("signal 6"), std::string::npos)
        << failed.error;
}

// ---------------------------------------------------------------
// hard timeout

TEST(SweepdService, HardTimeoutKillsAndReapsTheWorker)
{
    TempDir json("timeout");
    EnvGuard jsonEnv("QCC_JSON", json.path());
    // Seed 12 sleeps ~30 s in the worker; the budget is 500 ms.
    EnvGuard sleeper("QCC_SWEEPD_TEST_SLEEP_SEED", "12");

    SweepSpec spec = SweepSpec::fromJson(R"({
      "name": "sweepd_timeout",
      "base": {
        "molecule": "H2", "bond": 0.74, "mode": "sampled",
        "optimizer": "spsa", "spsa_iter": 8, "shots": 1024,
        "reference": false
      },
      "axes": { "seed": [11, 12] },
      "emit_timings": false
    })");

    sweepd::SweepdOptions opts = serviceOptions();
    opts.jobTimeoutMs = 500.0;

    sweepd::SweepdService service(opts);
    ResultStore store = service.submit(spec);

    EXPECT_EQ(store.countWithStatus(JobStatus::Done), 1u);
    ASSERT_EQ(store.countWithStatus(JobStatus::TimedOut), 1u);
    const SweepJobRecord &killed = store.jobs()[1]; // seed 12
    EXPECT_EQ(killed.status, JobStatus::TimedOut);
    EXPECT_EQ(killed.timeoutKind, TimeoutKind::Hard);
    EXPECT_FALSE(killed.finished()); // no result to read
    // Killed and reaped at the deadline, not after the 30 s sleep.
    EXPECT_LT(killed.wallMillis, 10000.0);
    EXPECT_NE(killed.error.find("hard timeout"), std::string::npos)
        << killed.error;
    // The aggregate names the kind, distinguishing it from the
    // in-process engine's soft variant.
    EXPECT_NE(store.json().find("\"timeout_kind\": \"hard\""),
              std::string::npos);
}

// ---------------------------------------------------------------
// resume

TEST(SweepdService, ResumeReRunsOnlyMissingJobsAndReproducesBytes)
{
    // Uninterrupted baseline.
    TempDir cleanDir("resume_clean");
    std::string cleanDoc;
    {
        EnvGuard jsonEnv("QCC_JSON", cleanDir.path());
        sweepd::SweepdService service(serviceOptions());
        sweepd::SweepdRunStats stats;
        service.submit(smallSweep(), &stats);
        EXPECT_EQ(stats.resumed, 0u);
        EXPECT_EQ(stats.ran, 4u);
        cleanDoc = slurp(cleanDir.path() +
                         "/SWEEP_sweepd_unit.json");
    }

    // Interrupted run: one job crashes, three complete; the
    // write-through aggregate is left behind as the resume source.
    TempDir dir("resume");
    EnvGuard jsonEnv("QCC_JSON", dir.path());
    {
        EnvGuard crash("QCC_SWEEPD_TEST_CRASH_SEED", "13");
        sweepd::SweepdService service(serviceOptions());
        ResultStore store = service.submit(smallSweep());
        EXPECT_EQ(store.countWithStatus(JobStatus::Done), 3u);
    }

    // Resubmit: the three completed jobs are adopted (zero
    // re-runs), only the crashed one executes, and the final
    // document is byte-identical to the uninterrupted run.
    sweepd::SweepdService service(serviceOptions());
    sweepd::SweepdRunStats stats;
    ResultStore store = service.submit(smallSweep(), &stats);
    EXPECT_EQ(stats.resumed, 3u);
    EXPECT_EQ(stats.ran, 1u);
    EXPECT_EQ(store.countWithStatus(JobStatus::Done), 4u);
    EXPECT_EQ(slurp(dir.path() + "/SWEEP_sweepd_unit.json"),
              cleanDoc);
}

TEST(SweepdService, ResumeIgnoresRecordsWhoseSpecChanged)
{
    TempDir dir("resume_hash");
    EnvGuard jsonEnv("QCC_JSON", dir.path());
    {
        sweepd::SweepdService service(serviceOptions());
        service.submit(smallSweep());
    }

    // Same name, different axis values: every spec_hash changes, so
    // nothing may be adopted.
    SweepSpec changed = smallSweep();
    changed.axes[0].values.clear();
    for (uint64_t s : {21, 22, 23, 24}) {
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        v.number = double(s);
        v.text = std::to_string(s);
        changed.axes[0].values.push_back(v);
    }

    sweepd::SweepdService service(serviceOptions());
    sweepd::SweepdRunStats stats;
    service.submit(changed, &stats);
    EXPECT_EQ(stats.resumed, 0u);
    EXPECT_EQ(stats.ran, 4u);
}

// ---------------------------------------------------------------
// cross-process store sharing

/** Counter `name` of a metricsJson() document (0 when absent). */
uint64_t
counterIn(const JsonValue &metrics, const char *name)
{
    uint64_t n = 0;
    if (const JsonValue *counters = metrics.find("counters"))
        if (const JsonValue *v = counters->find(name))
            v->asUint64(n);
    return n;
}

TEST(SweepdWorker, SecondWorkerServesEverythingFromTheSharedStore)
{
    TempDir storeRoot("store");
    EnvGuard storeEnv("QCC_STORE_DIR",
                      storeRoot.path() + "/tier");
    EnvGuard storeOn("QCC_STORE", "1");

    ExperimentSpec spec;
    spec.molecule = "H2";
    spec.bond = 0.74;
    spec.mode = "sampled";
    spec.optimizer = "spsa";
    spec.spsaIter = 8;
    spec.shots = 1024;
    spec.seed = 7;
    spec.reference = false;
    spec.pipeline = "mtr";
    spec.architecture = "xtree5";

    // Cold store: the first worker builds the chemistry and
    // compiles fresh.
    const sweepd::WorkerReply first = runWorkerJob(spec);
    ASSERT_TRUE(first.done) << first.error;
    EXPECT_EQ(counterIn(first.metrics, "store.problem.builds"), 1u);
    EXPECT_EQ(counterIn(first.metrics, "store.problem.disk_hits"), 0u);
    EXPECT_GT(counterIn(first.metrics, "compile.cache.misses"), 0u);

    // Warm store, brand-new process: chemistry comes off disk and
    // every compile is a hit — zero rebuilds anywhere.
    const sweepd::WorkerReply second = runWorkerJob(spec);
    ASSERT_TRUE(second.done) << second.error;
    EXPECT_EQ(counterIn(second.metrics, "store.problem.builds"), 0u);
    EXPECT_GT(counterIn(second.metrics, "store.problem.disk_hits"), 0u);
    EXPECT_EQ(counterIn(second.metrics, "compile.cache.misses"), 0u);
    EXPECT_GT(counterIn(second.metrics, "store.circuit.disk_hits"), 0u);

    // Same inputs, same bytes: process isolation and the shared
    // tier change wall time, never results.
    ExperimentResult::JsonOptions jo;
    jo.timings = false;
    jo.trace = false;
    EXPECT_EQ(first.result.json(jo), second.result.json(jo));
}

// ---------------------------------------------------------------
// worker settings travel in the request frame

/** Send one raw request payload to a worker; its decoded reply. */
sweepd::WorkerReply
exchangeWithWorker(const std::string &payload)
{
    sweepd::WorkerReply reply;
    ChildProcess child = spawnChildProcess(
        {selfPath(), std::string(sweepd::kWorkerFlag)});
    EXPECT_GT(child.pid, 0);
    if (child.pid <= 0)
        return reply;
    EXPECT_TRUE(writeFrame(child.stdinFd, payload));
    closeFd(child.stdinFd);
    std::string back;
    const FrameStatus fs = readFrame(child.stdoutFd, back, 120000.0);
    closeFd(child.stdoutFd);
    reapProcess(child.pid);
    EXPECT_EQ(fs, FrameStatus::Ok) << frameStatusName(fs);
    EXPECT_TRUE(sweepd::decodeReply(back, reply));
    return reply;
}

/** Options for a run that neither resumes nor writes through. */
sweepd::SweepdOptions
plainServiceOptions()
{
    sweepd::SweepdOptions opts = serviceOptions();
    opts.resume = false;
    opts.writeThrough = false;
    return opts;
}

TEST(SweepdProtocol, WorkerConfigRoundTripsAndIsValidated)
{
    ExperimentSpec spec;
    spec.molecule = "H2";
    sweepd::WorkerConfig config;
    config.storeDir = "/tmp/a \"quoted\" dir";
    config.storeEnabled = true;
    config.trace = true;
    config.logLevel = LogLevel::Debug;
    config.jobWidth = 3;
    const std::string payload =
        sweepd::encodeJobRequest(sweepd::JobRequest{spec, config});
    const sweepd::JobRequest back = sweepd::decodeJobRequest(payload);
    ASSERT_TRUE(back.config.has_value());
    EXPECT_EQ(back.config->storeDir, config.storeDir);
    EXPECT_TRUE(back.config->storeEnabled);
    EXPECT_TRUE(back.config->trace);
    EXPECT_EQ(back.config->logLevel, LogLevel::Debug);
    EXPECT_EQ(back.config->jobWidth, 3u);
    // No config member: the worker keeps its own settings.
    EXPECT_FALSE(sweepd::decodeJobRequest(
                     sweepd::encodeJobRequest(sweepd::JobRequest{spec}))
                     .config.has_value());

    // Untrusted bytes: every malformed member is a SpecError.
    const std::string good = R"("store_dir": "", "store": false, )"
                             R"("trace": false, "log": "info", )";
    for (const std::string &config : {
             std::string("[]"),
             "{" + good + R"("job_width": -1})",
             "{" + good + R"("job_width": 1e12})",
             "{" + good + R"("job_width": "2"})",
             "{" + good + R"("job_width": 1, "extra": 0})",
             "{" + good + R"("store": true})",
             std::string(R"({"store_dir": 7, "store": false, )"
                         R"("trace": false, "log": "info", )"
                         R"("job_width": 1})"),
             std::string(R"({"store_dir": "", "store": false, )"
                         R"("trace": false, "log": "loud", )"
                         R"("job_width": 1})"),
         }) {
        const std::string bad =
            R"({"spec": {"molecule": "H2"}, "config": )" + config + "}";
        EXPECT_THROW(sweepd::decodeJobRequest(bad), SpecError) << config;
    }

    // ...which a worker answers with a fast-fail reply, not a crash.
    const sweepd::WorkerReply reply = exchangeWithWorker(
        R"({"spec": {"molecule": "H2"}, "config": {"store": 1}})");
    EXPECT_FALSE(reply.done);
    EXPECT_TRUE(reply.fastFail);
    EXPECT_NE(reply.error.find("config"), std::string::npos)
        << reply.error;
}

// Must run before StoreDirSetThroughTheApiReachesEveryWorker:
// setStoreDir() has no way back to reading QCC_STORE_DIR.
TEST(SweepdService, NoStoreSetThroughTheApiReachesEveryWorker)
{
    TempDir tier("nostore_tier");
    EnvGuard storeEnv("QCC_STORE_DIR", tier.path());
    EnvGuard storeOn("QCC_STORE", "1");
    ASSERT_EQ(storeDir(), tier.path());

    // The environment names a store; the API turns it off. Workers
    // must follow the API, not the environment they inherit. The
    // counts are the workers' own, merged into this registry.
    setStoreEnabled(false);
    const StoreStats before = storeStats();
    ResultStore store = sweepd::SweepdService(plainServiceOptions())
                            .submit(smallSweep());
    const StoreStats after = storeStats();
    setStoreEnabled(true);

    EXPECT_EQ(store.countWithStatus(JobStatus::Done), 4u);
    EXPECT_EQ(after.circuitDiskHits - before.circuitDiskHits, 0u);
    EXPECT_EQ(after.problemDiskHits - before.problemDiskHits, 0u);
    // One build per cold worker.
    EXPECT_EQ(after.problemBuilds - before.problemBuilds, 4u);
    // Nothing was written through to the disabled tier.
    EXPECT_TRUE(std::filesystem::is_empty(tier.path()));
}

TEST(SweepdService, StoreDirSetThroughTheApiReachesEveryWorker)
{
    EnvGuard storeEnv("QCC_STORE_DIR", "");
    ::unsetenv("QCC_STORE_DIR"); // the guard restores any prior value
    EnvGuard storeOn("QCC_STORE", "1");
    TempDir tier("flag_tier");

    // The store is configured only through the API, the way
    // `qcc_sweepd --store-dir` configures it.
    setStoreDir(tier.path());
    sweepd::SweepdService service(plainServiceOptions());
    const StoreStats s0 = storeStats();
    service.submit(smallSweep());
    const StoreStats s1 = storeStats();
    service.submit(smallSweep());
    const StoreStats s2 = storeStats();
    setStoreDir("");

    // Cold: each worker either builds its chemistry or reads back
    // what a sibling already wrote.
    EXPECT_GT(s1.problemBuilds - s0.problemBuilds, 0u);
    EXPECT_EQ((s1.problemBuilds - s0.problemBuilds) +
                  (s1.problemDiskHits - s0.problemDiskHits),
              4u);
    // Warm: every worker reads its chemistry back from the tier.
    EXPECT_EQ(s2.problemBuilds - s1.problemBuilds, 0u);
    EXPECT_EQ(s2.problemDiskHits - s1.problemDiskHits, 4u);
}

// ---------------------------------------------------------------
// one runner, two substrates

/** Cheap simulation-free two-job sweep. */
SweepSpec
estimateSweep()
{
    return SweepSpec::fromJson(R"({
      "name": "sweepd_contract",
      "base": {"molecule": "H2", "bond": 0.74, "kind": "estimate"},
      "axes": {"grouping": ["greedy", "graph-coloring"]},
      "emit_timings": false
    })");
}

/**
 * Run `spec` in-thread or in forked workers with the same runner
 * options; returns the adopted count, `ran` the jobs executed.
 */
size_t
runOnSubstrate(bool process, const SweepSpec &spec,
               SweepRunnerOptions opts, size_t &ran)
{
    ran = 0;
    opts.progress = [&ran](const SweepProgress &) { ++ran; };
    if (!process) {
        SweepEngine engine(spec, opts);
        engine.run();
        return engine.adopted();
    }
    sweepd::SweepdOptions service = serviceOptions();
    static_cast<SweepRunnerOptions &>(service) = opts;
    sweepd::SweepdRunStats stats;
    sweepd::SweepdService(service).submit(spec, &stats);
    return stats.resumed;
}

TEST(SweepSubstrates, OneResumeContractOnBoth)
{
    for (const bool process : {false, true}) {
        SCOPED_TRACE(process ? "process" : "thread");
        TempDir dir("contract");
        EnvGuard jsonEnv("QCC_JSON", dir.path());
        size_t ran = 0;

        // A named document that is missing, or that does not parse,
        // throws before any job runs.
        SweepRunnerOptions named;
        named.resumeFrom = dir.path() + "/missing.json";
        EXPECT_THROW(runOnSubstrate(process, estimateSweep(), named, ran),
                     SweepError);
        EXPECT_EQ(ran, 0u);
        named.resumeFrom = dir.path() + "/truncated.json";
        std::ofstream(named.resumeFrom) << "{\"jobs\": [";
        EXPECT_THROW(runOnSubstrate(process, estimateSweep(), named, ran),
                     SweepError);
        EXPECT_EQ(ran, 0u);

        // An absent default document is a fresh run; write-through
        // leaves one behind, and the next run adopts every job.
        SweepRunnerOptions byDefault;
        byDefault.resume = true;
        byDefault.writeThrough = true;
        EXPECT_EQ(runOnSubstrate(process, estimateSweep(), byDefault, ran),
                  0u);
        EXPECT_EQ(ran, 2u);
        EXPECT_EQ(runOnSubstrate(process, estimateSweep(), byDefault, ran),
                  2u);
        EXPECT_EQ(ran, 0u);

        // A default document that exists but does not parse is the
        // same error as a named one.
        std::ofstream(dir.path() + "/SWEEP_sweepd_contract.json")
            << "{\"jobs\": [";
        EXPECT_THROW(runOnSubstrate(process, estimateSweep(), byDefault, ran),
                     SweepError);
        EXPECT_EQ(ran, 0u);
    }
}

TEST(SweepSubstrates, ThreadAndProcessGiveIdenticalDocuments)
{
    // Four jobs, eight lanes asked for: both substrates clamp the
    // width to the job count.
    SweepEngineOptions threadOpts;
    threadOpts.concurrency = 8;
    sweepd::SweepdOptions processOpts = plainServiceOptions();
    processOpts.concurrency = 8;

    SweepEngine engine(smallSweep(), threadOpts);
    sweepd::SweepdService service(processOpts);
    EXPECT_EQ(engine.concurrency(), 4u);
    EXPECT_EQ(service.concurrency(smallSweep()), 4u);

    // emit_timings is off, so the documents are a pure function of
    // the spec and the seed, whichever substrate ran the jobs.
    const ResultStore inThread = engine.run();
    const ResultStore inProcess = service.submit(smallSweep());
    EXPECT_EQ(inThread.countWithStatus(JobStatus::Done), 4u);
    EXPECT_EQ(inThread.json(), inProcess.json());
}

// ---------------------------------------------------------------

int
main(int argc, char **argv)
{
    // Worker mode: this binary is its own worker executable, so the
    // process tests are hermetic (no dependency on build layout).
    if (argc > 1 &&
        std::strcmp(argv[1], sweepd::kWorkerFlag) == 0)
        return sweepd::workerMain();
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
