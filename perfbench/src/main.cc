/**
 * @file
 * qcc_perfbench: the repository benchmark.
 *
 *   qcc_perfbench --workload <vqe_uccsd|costing_table2|sweepd_mix>
 *                 --seed N --seconds S --trace 0|1
 *                 [--out DIR] [--golden FILE]
 *                 [--git-sha SHA] [--source-digest HEX]
 *   qcc_perfbench --selftest [--out DIR]
 *   qcc_perfbench --record --golden FILE   (rewrite the golden file)
 *
 * A run times the workload's set-up several times, then repeats
 * untraced passes over its seeded jobs for about S seconds. With
 * --trace 0 it reports the end-to-end metrics; with --trace 1 it
 * alternates untraced passes with traced, layer-by-layer passes and
 * reports the per-layer metrics. Every pass checks its outputs. The
 * last line of standard output is one JSON object:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 * A result document stamped with the host and build fingerprint is
 * written to DIR, and traced runs also write a Chrome trace there
 * (open it in Perfetto).
 *
 * The benchmark binary doubles as the sweepd worker (`--worker`).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/simd.hh"
#include "store/store.hh"
#include "sweepd/service.hh"
#include "sweepd/worker.hh"

#include "perfbench.hh"

#ifndef QCC_PERFBENCH_BUILD_TYPE
#define QCC_PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

/** Set-up repetitions per run; setup_s is their median (the first
 *  also pays one-time process costs such as the STO-nG fits). */
constexpr int kSetupReps = 5;

/** Host-probe slices after each set-up, before the first untraced
 *  pass and after each one. */
constexpr int kProbesPerStep = 5;

/**
 * The host-probe time (ms) end-to-end timings are scaled to: about
 * what the probe read on the 4-vCPU host the benchmark was tuned on
 * while that host was quiet. Only the ratio to it matters; changing
 * it rescales every timing of every run alike.
 */
constexpr double kProbeReferenceMs = 12.0;

/** The seed the golden values were recorded at. */
constexpr uint64_t kDefaultSeed = 1;

struct Options
{
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".bench_out";
    std::string goldenPath;
    std::string gitSha = "unknown";
    std::string sourceDigest = "unknown";
    bool selftest = false;
    bool record = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "qcc_perfbench: %s\n"
                 "usage: qcc_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--out DIR] [--golden FILE]\n"
                 "       qcc_perfbench --selftest [--out DIR]\n"
                 "       qcc_perfbench --record --golden FILE\n",
                 why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + a);
            return argv[++i];
        };
        try {
            if (a == "--workload")
                o.workload = value();
            else if (a == "--seed")
                o.seed = std::stoull(value());
            else if (a == "--seconds")
                o.seconds = std::stod(value());
            else if (a == "--trace")
                o.trace = std::stoi(value()) != 0;
            else if (a == "--out")
                o.outDir = value();
            else if (a == "--golden")
                o.goldenPath = value();
            else if (a == "--git-sha")
                o.gitSha = value();
            else if (a == "--source-digest")
                o.sourceDigest = value();
            else if (a == "--selftest")
                o.selftest = true;
            else if (a == "--record")
                o.record = true;
            else
                usage("unknown argument " + a);
        } catch (const std::logic_error &) {
            usage("bad value for " + a);
        }
    }
    if (!o.selftest && !o.record &&
        std::find(workloadNames().begin(), workloadNames().end(),
                  o.workload) == workloadNames().end())
        usage("unknown workload '" + o.workload + "'");
    return o;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

std::string
fnv1aHex(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)h);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    out += qcc::jsonEscape(s);
    out += '"';
    return out;
}

std::string
fingerprintJson(const Options &o)
{
    struct utsname u = {};
    ::uname(&u);
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\"nproc\": %u, \"pool_threads\": %u, \"simd\": %s, "
        "\"build_type\": %s, \"compiler\": %s, \"machine\": %s, "
        "\"kernel\": %s, \"git_sha\": %s, \"source_digest\": %s}",
        std::thread::hardware_concurrency(), qcc::parallelThreads(),
        jsonString(qcc::kern::simdName()).c_str(),
        jsonString(QCC_PERFBENCH_BUILD_TYPE).c_str(),
        jsonString(__VERSION__).c_str(), jsonString(u.machine).c_str(),
        jsonString(std::string(u.sysname) + " " + u.release).c_str(),
        jsonString(o.gitSha).c_str(), jsonString(o.sourceDigest).c_str());
    return buf;
}

// ------------------------------------------------------------------
// Counter deltas from the metrics registry.
// ------------------------------------------------------------------

const std::vector<std::string> &
trackedCounters()
{
    static const std::vector<std::string> names = {
        "store.problem.builds",      "store.problem.disk_hits",
        "store.circuit.disk_hits",   "store.problem.disk_writes",
        "store.circuit.disk_writes", "compile.cache.hits",
        "compile.cache.misses",      "parallel.pool_jobs",
        "parallel.inline_jobs",
    };
    return names;
}

struct CounterSnapshot
{
    std::map<std::string, uint64_t> counters;
    qcc::MetricHistogram::Snapshot queueWait;

    static CounterSnapshot
    take()
    {
        CounterSnapshot s;
        for (const std::string &n : trackedCounters())
            s.counters[n] = qcc::metricCounter(n).value();
        s.queueWait =
            qcc::metricHistogram("parallel.queue_wait_us").snapshot();
        return s;
    }
};

// ------------------------------------------------------------------
// One run of one workload.
// ------------------------------------------------------------------

struct RunOutcome
{
    std::vector<double> setupMs;
    // Host-probe slices after each set-up, and around the untraced
    // passes (before the first and after each one).
    std::vector<double> setupProbeMs;
    std::vector<double> passProbeMs;
    std::vector<PassResult> passes;       ///< untraced
    std::vector<PassResult> tracedPasses; ///< layer by layer
    LayerReport layers;
    std::vector<std::string> checkFailures; ///< run-level checks
    size_t checksMade = 0;
    size_t failedJobs = 0;
    size_t jobs = 0;
    std::string traceEvents; ///< every traced event, one array body
    // Self time by layer over the traced passes, and the job total.
    std::map<std::string, double> layerSelfUs;
    double apiSelfUs = 0.0;
    double jobRootUs = 0.0;
    /** parallel.queue_wait_us recorded during the traced passes. */
    qcc::MetricHistogram::Snapshot queueWait;

    size_t attempted() const { return jobs + checksMade; }
    size_t failed() const { return failedJobs + checkFailures.size(); }
};

/**
 * Mark jobs whose outputs are not among the reference pass's. Passes
 * over the same inputs may run the jobs in different orders.
 */
void
compareRecords(const PassResult &ref, PassResult &pass, const char *what)
{
    std::vector<std::string> expected;
    for (const JobOutcome &j : ref.jobs)
        expected.push_back(j.record);
    std::sort(expected.begin(), expected.end());
    for (JobOutcome &j : pass.jobs)
        if (j.failure.empty() &&
            !std::binary_search(expected.begin(), expected.end(),
                                j.record))
            j.failure = std::string(what) + ": " + j.record;
}

void
countJobs(const PassResult &pass, RunOutcome &out)
{
    out.jobs += pass.jobs.size();
    for (const JobOutcome &j : pass.jobs)
        if (!j.failure.empty())
            ++out.failedJobs;
}

/**
 * Fold one traced pass's spans into the outcome: library-span
 * samples, self time by layer, and the pass-level consistency
 * checks (balanced events, nothing dropped, the root span's length
 * against the benchmark's own clock).
 */
void
absorbSpans(const std::string &events, double pass_wall_ms,
            RunOutcome &out)
{
    const SpanSet set = summarizeSpans(qcc::JsonValue::parse(events));
    const long long self = (long long)::getpid();

    const Span *root = nullptr;
    double rootSelfSumUs = 0.0;
    for (const Span &s : set.spans) {
        if (s.name == "bench.pass" && s.pid == self)
            root = &s;
        if (s.pid == self && root && s.tid == root->tid)
            rootSelfSumUs += s.selfUs;
    }
    out.checksMade += 2;
    if (!set.balanced || qcc::traceDroppedCount() != 0 || !root) {
        out.checkFailures.push_back(
            "trace: unbalanced, dropped or missing events in a traced "
            "pass");
        out.checkFailures.push_back("trace: pass wall not checked");
        return;
    }
    // Self times on the driving thread add up to the root span, and
    // the root span matches the wall time the benchmark measured.
    const double wallUs = 1000.0 * pass_wall_ms;
    if (std::fabs(rootSelfSumUs - root->durUs) > 1.0 + 1e-6 * wallUs ||
        std::fabs(root->durUs - wallUs) > 1000.0 + 0.005 * wallUs)
        out.checkFailures.push_back(
            "trace: span self times do not add up to the pass wall");

    std::vector<double> &pipelineMs =
        out.layers.perCallMs["compile.pipeline_ms"];
    std::vector<double> &gradientMs =
        out.layers.perCallMs["vqe.gradient_ms"];
    std::vector<double> &sampleMs = out.layers.perCallMs["sim.sample_ms"];
    double sweepdJobUs = 0.0, workerRootUs = 0.0;
    size_t sweepdJobs = 0;
    // The layer split covers job time only: job roots, what they
    // enclose on their thread, and the workers' spans. Scheduling and
    // join waits around the jobs stay out of it.
    std::vector<bool> inJob(set.spans.size());
    for (size_t i = 0; i < set.spans.size(); ++i) {
        const Span &s = set.spans[i];
        inJob[i] = s.name == "bench.job" || s.name == "sweepd.job" ||
                   s.pid != self || (s.parent >= 0 && inJob[size_t(s.parent)]);
    }
    for (size_t i = 0; i < set.spans.size(); ++i) {
        const Span &s = set.spans[i];
        const std::string layer = layerOf(s.name);
        const bool topGradient =
            layer == "vqe" && s.name.rfind("gradient.", 0) == 0 &&
            (s.parent < 0 ||
             set.spans[size_t(s.parent)].name.rfind("gradient.", 0) != 0);
        if (s.name == "compile.pipeline")
            pipelineMs.push_back(s.durUs / 1000.0);
        if (topGradient)
            gradientMs.push_back(s.durUs / 1000.0);
        if (s.name == "sample.measure")
            sampleMs.push_back(s.selfUs / 1000.0);
        if (s.name == "bench.job" || s.name == "sweepd.job")
            out.jobRootUs += s.durUs;
        if (s.name == "sweepd.job") {
            sweepdJobUs += s.durUs;
            ++sweepdJobs;
        }
        // A worker's root spans ran inside one of the service's
        // sweepd.job spans: take them out of that layer's self time.
        if (s.pid != self && s.parent < 0)
            workerRootUs += s.durUs;
        if (!inJob[i])
            continue;
        out.layerSelfUs[layer] += s.selfUs;
        if (layer == "api")
            out.apiSelfUs += s.selfUs;
    }
    out.layerSelfUs["sweepd"] -= workerRootUs;
    if (sweepdJobs)
        out.layers.perCallMs["sweepd.job_overhead_ms"].push_back(
            (sweepdJobUs - workerRootUs) / 1000.0 / double(sweepdJobs));
}

/** Collect the buffered events and start a fresh buffer. */
std::string
takeTraceEvents()
{
    std::string events = qcc::traceEventsArrayJson();
    qcc::clearTrace();
    return events;
}

void
appendEvents(std::string &all, const std::string &array)
{
    // Strip the brackets and splice the bodies into one array.
    const size_t lo = array.find('[');
    const size_t hi = array.rfind(']');
    if (lo == std::string::npos || hi == std::string::npos || hi <= lo + 1)
        return;
    std::string body = array.substr(lo + 1, hi - lo - 1);
    if (body.find('{') == std::string::npos)
        return;
    if (!all.empty())
        all += ",";
    all += body;
}

PassResult
tracedPass(Workload &w, size_t index, RunOutcome &out)
{
    const CounterSnapshot before = CounterSnapshot::take();
    qcc::clearTrace();
    qcc::setTraceEnabled(true);
    PassResult pass;
    const auto t0 = clock_type::now();
    {
        qcc::TraceSpan root("bench.pass");
        root.arg("workload", w.name());
        pass = w.runTracedPass(index, out.layers);
    }
    const double wallMs = millisSince(t0);
    qcc::setTraceEnabled(false);
    const CounterSnapshot after = CounterSnapshot::take();

    const std::string events = takeTraceEvents();
    absorbSpans(events, wallMs, out);
    appendEvents(out.traceEvents, events);

    for (const std::string &n : trackedCounters())
        out.layers.passCounts[n] +=
            double(after.counters.at(n) - before.counters.at(n));
    for (size_t b = 0; b < qcc::MetricHistogram::kBuckets; ++b) {
        const uint64_t n =
            after.queueWait.buckets[b] - before.queueWait.buckets[b];
        out.queueWait.buckets[b] += n;
        out.queueWait.count += n;
    }
    ++out.layers.tracedPasses;
    pass.wallMs = wallMs;
    return pass;
}

void
probeHost(std::vector<double> &samples)
{
    for (int k = 0; k < kProbesPerStep; ++k)
        samples.push_back(hostProbeMs());
}

RunOutcome
runWorkload(Workload &w, double seconds, bool trace, int setup_reps)
{
    RunOutcome out;
    for (int r = 0; r < setup_reps; ++r) {
        const auto t0 = clock_type::now();
        w.setUp();
        out.setupMs.push_back(millisSince(t0));
        probeHost(out.setupProbeMs);
    }
    probeHost(out.passProbeMs);

    // Whole passes while the next one would end within half a pass
    // of the budget, so a run measures about `seconds` on average.
    const double budgetMs = 1000.0 * seconds;
    const auto start = clock_type::now();
    for (;;) {
        const auto t0 = clock_type::now();
        const size_t index = out.passes.size();
        out.passes.push_back(w.runPass(index));
        probeHost(out.passProbeMs);
        if (trace)
            out.tracedPasses.push_back(tracedPass(w, index, out));
        const double stepMs = millisSince(t0);
        if (millisSince(start) + 0.5 * stepMs > budgetMs)
            break;
    }

    if (trace) {
        qcc::clearTrace();
        qcc::setTraceEnabled(true);
        w.runProbes(out.layers);
        qcc::setTraceEnabled(false);
        appendEvents(out.traceEvents, takeTraceEvents());
        ++out.checksMade;
        const std::vector<std::string> &pf = out.layers.probeFailures;
        if (!pf.empty())
            out.checkFailures.push_back(
                pf.front() + " (" + std::to_string(pf.size()) +
                " probe failures)");
    }

    // Outputs must repeat bit for bit: across untraced passes over
    // the same inputs, and between the facade and the layer-by-layer
    // traced pass over the same inputs.
    for (size_t i = 1; i < out.passes.size(); ++i)
        for (size_t k = 0; k < i; ++k)
            if (out.passes[k].inputsId == out.passes[i].inputsId) {
                compareRecords(out.passes[k], out.passes[i],
                               "output differs between passes");
                break;
            }
    for (size_t i = 0; i < out.tracedPasses.size(); ++i)
        compareRecords(out.passes[i], out.tracedPasses[i],
                       "traced output differs from untraced");
    for (const PassResult &p : out.passes)
        countJobs(p, out);
    for (const PassResult &p : out.tracedPasses)
        countJobs(p, out);
    return out;
}

// ------------------------------------------------------------------
// Metrics.
// ------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

long
selfPeakRssKb()
{
    struct rusage ru = {};
    ::getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

struct TailInfo
{
    double level = 0.0;
    size_t samples = 0;
    size_t beyond = 0;
};

/**
 * How much faster the host ran the probe than the reference while
 * `probe_ms` was sampled: timings taken at the same time are
 * multiplied by it (rates divided), which takes out most of the drift
 * of a shared host's speed between runs.
 */
double
hostScale(const std::vector<double> &probe_ms)
{
    const double probe = median(probe_ms);
    return probe > 0.0 ? kProbeReferenceMs / probe : 1.0;
}

/** Scale factors for the set-up and for the passes. */
struct HostScales
{
    double setup = 1.0;
    double passes = 1.0;
};

/** The end-to-end metrics with timings scaled by `scales` (all 1
 *  gives them as the clock read them). */
std::vector<Metric>
endToEndMetrics(const Workload &w, const RunOutcome &out,
                const HostScales &scales, TailInfo &tail)
{
    const double scale = scales.passes;
    // Throughput is the median over passes, so a burst of load from
    // outside the benchmark moves one pass, not the run.
    std::vector<double> jobMs, passRate;
    for (const PassResult &p : out.passes) {
        passRate.push_back(1000.0 * double(p.jobs.size()) / p.wallMs);
        for (const JobOutcome &j : p.jobs)
            jobMs.push_back(j.ms);
    }
    tail.level = w.tailLevel();
    tail.samples = jobMs.size();
    const double tailMs = percentile(jobMs, tail.level);
    tail.beyond = size_t(
        std::count_if(jobMs.begin(), jobMs.end(),
                      [&](double v) { return v > tailMs; }));
    const double failedFrac =
        double(out.failed()) / double(std::max<size_t>(1, out.attempted()));
    const double rssKb =
        double(std::max(selfPeakRssKb(), w.workerPeakRssKb()));
    return {
        {"setup_s", scales.setup * median(out.setupMs) / 1000.0, "s"},
        {"jobs_per_s", median(passRate) / scale, "1/s"},
        {"job_p50_ms", scale * median(jobMs), "ms"},
        {"job_tail_ms", scale * tailMs, "ms"},
        {"ok_frac", 1.0 - failedFrac, "frac"},
        {"peak_rss_mb", rssKb / 1024.0, "MB"},
    };
}

std::vector<Metric>
perLayerMetrics(const Workload &w, const RunOutcome &out)
{
    const LayerReport &l = out.layers;
    const double passes = double(std::max<size_t>(1, l.tracedPasses));
    auto perCall = [&](const char *name) {
        const auto it = l.perCallMs.find(name);
        return it == l.perCallMs.end() ? 0.0 : median(it->second);
    };
    auto perPass = [&](const char *name) {
        const auto it = l.passCounts.find(name);
        return it == l.passCounts.end() ? 0.0 : it->second / passes;
    };
    const double misses = perPass("compile.cache.misses");
    const double evals = perPass("vqe.evals");
    double vqeRunMs = 0.0;
    if (const auto it = l.perCallMs.find("vqe.run_ms");
        it != l.perCallMs.end())
        for (double v : it->second)
            vqeRunMs += v;
    vqeRunMs /= passes;

    std::vector<double> untraced, traced;
    for (const PassResult &p : out.passes)
        untraced.push_back(p.wallMs);
    for (const PassResult &p : out.tracedPasses)
        traced.push_back(p.wallMs);
    const double overheadPct =
        100.0 * (median(traced) / median(untraced) - 1.0);

    double totalSelfUs = 0.0;
    for (const auto &kv : out.layerSelfUs)
        totalSelfUs += kv.second;

    std::vector<Metric> m = {
        {"chem.problem_build_ms", perCall("chem.problem_build_ms"), "ms"},
        {"store.problem_builds", perPass("store.problem.builds"), "count"},
        {"store.problem_disk_hits", perPass("store.problem.disk_hits"),
         "count"},
        {"store.circuit_disk_hits", perPass("store.circuit.disk_hits"),
         "count"},
        {"store.disk_writes",
         perPass("store.problem.disk_writes") +
             perPass("store.circuit.disk_writes"),
         "count"},
        {"store.bytes_written", perPass("store.bytes_written"), "B"},
        {"ansatz.compress_ms", perCall("ansatz.compress_ms"), "ms"},
        {"pauli.group_ms", perCall("pauli.group_ms"), "ms"},
        {"compile.pipeline_ms", perCall("compile.pipeline_ms"), "ms"},
        {"compile.cache_misses", misses, "count"},
        {"compile.cache_hits", perPass("compile.cache.hits"), "count"},
        {"compile.misses_per_program",
         misses / double(std::max<size_t>(1, w.distinctPrograms())),
         "ratio"},
        {"estimate.resources_ms", perCall("estimate.resources_ms"), "ms"},
        {"sim.ansatz_apply_ms", perCall("sim.ansatz_apply_ms"), "ms"},
        {"sim.energy_eval_ms", perCall("sim.energy_eval_ms"), "ms"},
        {"sim.sample_ms", perCall("sim.sample_ms"), "ms"},
        {"sim.dm_energy_ms", perCall("sim.dm_energy_ms"), "ms"},
        {"vqe.run_ms", perCall("vqe.run_ms"), "ms"},
        {"vqe.gradient_ms", perCall("vqe.gradient_ms"), "ms"},
        {"vqe.evals", evals, "count"},
        {"vqe.iterations", perPass("vqe.iterations"), "count"},
        {"vqe.evals_per_s", vqeRunMs > 0 ? 1000.0 * evals / vqeRunMs : 0.0,
         "1/s"},
        {"parallel.queue_wait_us_p95", out.queueWait.quantile(0.95), "us"},
        {"parallel.pool_jobs", perPass("parallel.pool_jobs"), "count"},
        {"parallel.inline_jobs", perPass("parallel.inline_jobs"), "count"},
        {"sweepd.job_overhead_ms", perCall("sweepd.job_overhead_ms"), "ms"},
        {"sweepd.worker_build_ms", perCall("sweepd.worker_build_ms"), "ms"},
        {"api.unattributed_frac",
         out.jobRootUs > 0 ? out.apiSelfUs / out.jobRootUs : 0.0, "frac"},
        {"obs.trace_overhead_pct", overheadPct, "%"},
    };
    for (const std::string &layer : reportedLayers()) {
        const auto it = out.layerSelfUs.find(layer);
        const double us = it == out.layerSelfUs.end() ? 0.0 : it->second;
        m.push_back({"self_frac." + layer,
                     totalSelfUs > 0 ? us / totalSelfUs : 0.0, "frac"});
    }
    return m;
}

std::string
metricsJson(const std::vector<Metric> &metrics, const char *sep)
{
    std::string out = "{";
    char buf[64];
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
        out += (i ? std::string(",") + sep : std::string()) +
               jsonString(metrics[i].name) + ": {\"value\": " + buf +
               ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    }
    return out + "}";
}

std::string
numbersJson(const std::vector<double> &v)
{
    std::string out = "[";
    char buf[32];
    for (size_t i = 0; i < v.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%s%.6g", i ? ", " : "", v[i]);
        out += buf;
    }
    return out + "]";
}

/** Failures of the run, jobs first, one line each. */
std::vector<std::string>
failureLines(const RunOutcome &out)
{
    std::vector<std::string> lines = out.checkFailures;
    for (const auto *set : {&out.passes, &out.tracedPasses})
        for (const PassResult &p : *set)
            for (const JobOutcome &j : p.jobs)
                if (!j.failure.empty())
                    lines.push_back(j.failure);
    return lines;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream f(path, std::ios::binary);
    f << text;
    if (!f)
        qcc::warn("perfbench: cannot write " + path);
}

int
runMain(const Options &o)
{
    qcc::JsonValue golden;
    WorkloadConfig cfg;
    cfg.seed = o.seed;
    cfg.outDir = o.outDir;
    cfg.workerPath = qcc::sweepd::selfExecutablePath(nullptr);
    if (o.seed == kDefaultSeed && !o.goldenPath.empty()) {
        golden = qcc::JsonValue::parse(slurp(o.goldenPath));
        cfg.golden = &golden;
    }
    std::unique_ptr<Workload> w = makeWorkload(o.workload, cfg);
    const std::string inputsDigest = fnv1aHex(w->inputsText());
    const std::string fingerprint = fingerprintJson(o);
    std::printf("perfbench %s seed=%llu seconds=%g trace=%d inputs=%s\n",
                w->name(), (unsigned long long)o.seed, o.seconds,
                int(o.trace), inputsDigest.c_str());
    std::printf("fingerprint: %s\n", fingerprint.c_str());
    std::fflush(stdout);

    const RunOutcome out = runWorkload(*w, o.seconds, o.trace, kSetupReps);

    TailInfo tail;
    const HostScales scales{hostScale(out.setupProbeMs),
                            hostScale(out.passProbeMs)};
    const std::vector<Metric> e2e = endToEndMetrics(*w, out, scales, tail);
    const std::vector<Metric> e2eClock =
        endToEndMetrics(*w, out, HostScales{}, tail);
    std::vector<Metric> layers;
    if (o.trace)
        layers = perLayerMetrics(*w, out);
    const std::vector<Metric> &reported = o.trace ? layers : e2e;

    const std::vector<std::string> failures = failureLines(out);
    const bool correct = failures.empty();

    std::vector<double> passMs;
    for (const PassResult &p : out.passes)
        passMs.push_back(p.wallMs);
    std::vector<double> tracedMs;
    for (const PassResult &p : out.tracedPasses)
        tracedMs.push_back(p.wallMs);
    std::string failuresJson = "[";
    for (size_t i = 0; i < failures.size(); ++i)
        failuresJson += (i ? ", " : "") + jsonString(failures[i]);
    failuresJson += "]";
    char probeBuf[320];
    std::snprintf(probeBuf, sizeof(probeBuf),
                  "{\"reference_ms\": %g, \"setup_median_ms\": %.6g, "
                  "\"setup_samples\": %zu, \"setup_scale\": %.6g, "
                  "\"pass_median_ms\": %.6g, \"pass_samples\": %zu, "
                  "\"pass_scale\": %.6g}",
                  kProbeReferenceMs, median(out.setupProbeMs),
                  out.setupProbeMs.size(), scales.setup,
                  median(out.passProbeMs), out.passProbeMs.size(),
                  scales.passes);
    char tailBuf[160];
    std::snprintf(tailBuf, sizeof(tailBuf),
                  "{\"percentile\": %g, \"samples\": %zu, "
                  "\"beyond\": %zu}",
                  tail.level, tail.samples, tail.beyond);

    std::filesystem::create_directories(o.outDir);
    const std::string stem = o.outDir + "/" + w->name() + "_seed" +
                             std::to_string(o.seed) + "_trace" +
                             std::to_string(int(o.trace));
    writeFile(
        stem + ".json",
        "{\"workload\": " + jsonString(w->name()) +
            ",\n\"seed\": " + std::to_string(o.seed) +
            ",\n\"seconds\": " + std::to_string(o.seconds) +
            ",\n\"trace\": " + (o.trace ? "true" : "false") +
            ",\n\"fingerprint\": " + fingerprint +
            ",\n\"inputs_digest\": " + jsonString(inputsDigest) +
            ",\n\"inputs\": " + w->inputsText() +
            ",\n\"setup_ms\": " + numbersJson(out.setupMs) +
            ",\n\"pass_ms\": " + numbersJson(passMs) +
            ",\n\"traced_pass_ms\": " + numbersJson(tracedMs) +
            ",\n\"job_tail\": " + tailBuf +
            ",\n\"attempted\": " + std::to_string(out.attempted()) +
            ",\n\"failed\": " + std::to_string(out.failed()) +
            ",\n\"failures\": " + failuresJson +
            ",\n\"host_probe\": " + probeBuf +
            ",\n\"end_to_end\": " + metricsJson(e2e, "\n  ") +
            ",\n\"end_to_end_clock\": " +
            metricsJson(e2eClock, "\n  ") +
            (o.trace ? ",\n\"per_layer\": " + metricsJson(layers, "\n  ")
                     : std::string()) +
            "}\n");
    if (o.trace)
        writeFile(stem + ".trace.json",
                  "{\"traceEvents\": [" + out.traceEvents + "]}\n");

    for (const Metric &m : reported)
        std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    if (!o.trace) {
        std::printf("  timings scaled by %.4g (set-up) and %.4g (passes): "
                    "host probe %.4g and %.4g ms against %g ms\n",
                    scales.setup, scales.passes,
                    median(out.setupProbeMs), median(out.passProbeMs),
                    kProbeReferenceMs);
        std::printf("  job_tail_ms is p%g over %zu jobs (%zu beyond)\n",
                    tail.level, tail.samples, tail.beyond);
        std::printf("  failed_frac %.6g (%zu of %zu)\n",
                    double(out.failed()) /
                        double(std::max<size_t>(1, out.attempted())),
                    out.failed(), out.attempted());
    }
    for (const std::string &f : failures)
        std::printf("  FAILED: %s\n", f.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false", out.attempted(), out.failed(),
                metricsJson(reported, " ").c_str());
    std::fflush(stdout);
    return 0;
}

/**
 * Tiny versions of every workload: each runs to completion, the same
 * seed gives identical inputs and outputs, and another seed gives
 * other inputs.
 */
int
selftestMain(const Options &o)
{
    bool ok = true;
    WorkloadConfig cfg;
    cfg.scale = Scale::Tiny;
    cfg.outDir = o.outDir;
    cfg.workerPath = qcc::sweepd::selfExecutablePath(nullptr);
    std::filesystem::create_directories(o.outDir);
    for (const std::string &name : workloadNames()) {
        std::vector<std::string> inputs, records;
        std::vector<std::string> problems;
        for (uint64_t seed : {7ULL, 7ULL, 8ULL}) {
            cfg.seed = seed;
            std::unique_ptr<Workload> w = makeWorkload(name, cfg);
            const RunOutcome out = runWorkload(*w, 0.0, true, 1);
            inputs.push_back(w->inputsText());
            std::string rec;
            for (const JobOutcome &j : out.passes.front().jobs)
                rec += j.record + "\n";
            records.push_back(rec);
            for (const std::string &f : failureLines(out))
                problems.push_back(f);
            if (out.passes.front().jobs.empty())
                problems.push_back("no jobs ran");
        }
        if (inputs[0] != inputs[1] || records[0] != records[1])
            problems.push_back("same seed, different inputs or outputs");
        if (inputs[0] == inputs[2])
            problems.push_back("another seed gave the same inputs");
        std::printf("selftest %-16s %s\n", name.c_str(),
                    problems.empty() ? "ok" : "FAILED");
        for (const std::string &p : problems)
            std::printf("  %s\n", p.c_str());
        ok = ok && problems.empty();
    }
    return ok ? 0 : 1;
}

/** Rewrite the golden file from the default seed's outputs. */
int
recordMain(const Options &o)
{
    if (o.goldenPath.empty())
        usage("--record needs --golden FILE");
    WorkloadConfig cfg;
    cfg.seed = kDefaultSeed;
    cfg.outDir = o.outDir;
    cfg.workerPath = qcc::sweepd::selfExecutablePath(nullptr);
    std::filesystem::create_directories(o.outDir);
    std::string doc = "{\"seed\": " + std::to_string(kDefaultSeed);
    for (const std::string &name : {std::string("vqe_uccsd"),
                                    std::string("costing_table2")}) {
        std::unique_ptr<Workload> w = makeWorkload(name, cfg);
        w->setUp();
        w->runPass(0);
        doc += ",\n\"" + name + "\": " + w->goldenJson();
    }
    writeFile(o.goldenPath, doc + "}\n");
    std::printf("recorded %s\n", o.goldenPath.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Worker mode first: the sweepd service execs this binary.
    if (argc > 1 && std::strcmp(argv[1], qcc::sweepd::kWorkerFlag) == 0)
        return qcc::sweepd::workerMain();

    // Two pool lanes on every host, set before the pool first sizes
    // itself and inherited by the sweepd workers: the workloads keep
    // two cores busy, which leaves the rest of a small shared host to
    // the system, and a run measures the same work on any host. A
    // QCC_THREADS already set wins when the binary is run by hand;
    // run.py drops it.
    ::setenv("QCC_THREADS", "2", 0);

    const Options o = parseArgs(argc, argv);
    qcc::setVerbose(false);
    // The benchmark chooses every store setting itself.
    qcc::setStoreDir("");
    try {
        if (o.selftest)
            return selftestMain(o);
        if (o.record)
            return recordMain(o);
        return runMain(o);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "qcc_perfbench: %s\n", e.what());
        return 1;
    }
}
