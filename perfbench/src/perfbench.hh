/**
 * @file
 * Shared pieces of the repository benchmark (qcc_perfbench):
 * the seeded input generator, the per-pass record every workload
 * returns, the per-layer accumulator the traced passes fill, the
 * span-tree summary computed from the program's own trace buffer,
 * and the Workload interface the three workloads implement.
 *
 * The benchmark only calls the library's public API. Layer spans are
 * opened here, around those calls; the spans the library already
 * emits (gradient.*, sample.measure, compile.*, sweepd.job and the
 * workers' adopted spans) are read back unchanged.
 */

#ifndef QCC_PERFBENCH_PERFBENCH_HH
#define QCC_PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hh"
#include "obs/trace.hh"

namespace perfbench {

using clock_type = std::chrono::steady_clock;

double millisSince(clock_type::time_point t0);

/**
 * Host-speed probe: milliseconds one fixed slice of the benchmark's
 * own floating-point work (rotations of a 12-qubit state vector)
 * takes right now. The code is the benchmark's, not the program's,
 * so a change to the program cannot move it; what moves it is how
 * fast the host runs a busy thread at the moment.
 */
double hostProbeMs();

/** Deterministic input generator (splitmix64); same seed, same draws
 *  on every platform, unlike the <random> distributions. */
class SeedRng
{
  public:
    explicit SeedRng(uint64_t seed) : state(seed) {}

    uint64_t next();

    /** Uniform in [lo, hi). */
    double uniform(double lo, double hi);

    /** Fisher-Yates shuffle driven by next(). */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[next() % i]);
    }

  private:
    uint64_t state;
};

/**
 * A bond length for a catalog molecule: uniform within 10% of its
 * equilibrium, clipped to the catalog's sweep range. Stretched
 * geometries are left out on purpose: there the SCF can run to its
 * iteration cap, and a run's cost would swing with the seed.
 */
double drawBond(SeedRng &rng, const std::string &molecule);

/** One job of one pass, as the benchmark saw it. */
struct JobOutcome
{
    double ms = 0.0;     ///< job latency
    std::string record;  ///< bit-exact canonical outputs
    std::string failure; ///< empty when the job and its checks passed
};

/** One pass over a workload's generated jobs. */
struct PassResult
{
    /** Passes with equal ids ran the same inputs. */
    size_t inputsId = 0;
    double wallMs = 0.0;
    std::vector<JobOutcome> jobs;
};

/**
 * Per-layer samples gathered over the traced passes and probes:
 * per-call times (reported as their median) and per-pass counts
 * (summed here, divided by the traced pass count on output).
 */
struct LayerReport
{
    std::map<std::string, std::vector<double>> perCallMs;
    std::map<std::string, double> passCounts;
    size_t tracedPasses = 0;
    std::vector<std::string> probeFailures; ///< probe checks that failed
};

/**
 * Run f() inside a benchmark span named `span`; when `samples` is
 * given, append the call's wall time (ms) to it.
 */
template <typename F>
auto
inSpan(const char *span, std::vector<double> *samples, F &&f)
{
    const auto t0 = clock_type::now();
    qcc::TraceSpan s(span);
    auto result = f();
    if (samples)
        samples->push_back(millisSince(t0));
    return result;
}

/** A closed span recovered from the trace buffer. */
struct Span
{
    std::string name;
    long long pid = 0;
    long long tid = 0;
    double startUs = 0.0;
    double durUs = 0.0;
    double selfUs = 0.0; ///< duration not covered by same-thread children
    int parent = -1;     ///< index of the enclosing span on its thread
};

/**
 * Every span of a trace-event array, paired B/E per (pid, tid).
 * `balanced` is false when an event has no partner.
 */
struct SpanSet
{
    std::vector<Span> spans;
    bool balanced = true;
};

SpanSet summarizeSpans(const qcc::JsonValue &events);

/** Layer a span belongs to ("compile.route" -> "compile"). */
std::string layerOf(const std::string &span_name);

/** The layers the self-time split reports, in output order. */
const std::vector<std::string> &reportedLayers();

/** Median; 0 for an empty sample. */
double median(std::vector<double> v);

/** Nearest-rank percentile (level in (0, 100]); 0 when empty. */
double percentile(std::vector<double> v, double level);

/** Bytes under a directory tree (0 when absent). */
uint64_t directoryBytes(const std::string &dir);

/** Remove and recreate a directory. */
void resetDirectory(const std::string &dir);

/** Size of a workload; tiny runs are the self-test's. */
enum class Scale
{
    Full,
    Tiny,
};

/** Construction inputs shared by every workload. */
struct WorkloadConfig
{
    uint64_t seed = 1;
    Scale scale = Scale::Full;
    std::string outDir;     ///< writable scratch under the checkout
    std::string workerPath; ///< this binary, for sweepd workers
    /** Values recorded from the reference commit at the default
     *  seed; null when this run is not at the default seed. */
    const qcc::JsonValue *golden = nullptr;
};

class Workload
{
  public:
    Workload() = default;
    virtual ~Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    virtual const char *name() const = 0;

    /** Canonical text of the generated inputs. */
    virtual std::string inputsText() const = 0;

    /** One complete set-up; the benchmark times and repeats it. */
    virtual void setUp() = 0;

    /**
     * Untraced pass number `index` through the program's own entry
     * points. Workloads whose inputs change from pass to pass draw
     * them from the seed and the index.
     */
    virtual PassResult runPass(size_t index) = 0;

    /**
     * The same jobs with tracing on. In-process workloads drive the
     * facade's public calls one by one inside benchmark spans;
     * layer samples the spans cannot give are added to `layers`.
     */
    virtual PassResult runTracedPass(size_t index,
                                     LayerReport &layers) = 0;

    /** Per-layer probes after the traced passes (tracing on). */
    virtual void runProbes(LayerReport &layers) = 0;

    /** Programs a pass compiles, for compile.misses_per_program. */
    virtual size_t distinctPrograms() const = 0;

    /** Percentile reported as job_tail_ms (100 = the maximum). */
    virtual double tailLevel() const = 0;

    /** Largest worker RSS seen (kB); 0 for in-process workloads. */
    virtual long workerPeakRssKb() const { return 0; }

    /** This workload's entry for the golden file, from the last
     *  untraced pass; empty for workloads with nothing recorded. */
    virtual std::string goldenJson() const { return "[]"; }
};

std::unique_ptr<Workload> makeVqeUccsd(const WorkloadConfig &config);
std::unique_ptr<Workload> makeCostingTable2(const WorkloadConfig &config);
std::unique_ptr<Workload> makeSweepdMix(const WorkloadConfig &config);

/** The workload names, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const WorkloadConfig &config);

} // namespace perfbench

#endif // QCC_PERFBENCH_PERFBENCH_HH
