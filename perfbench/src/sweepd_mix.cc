/**
 * @file
 * Workload sweepd_mix: many short jobs through the process-per-job
 * service (SweepdService, one forked worker per job) at concurrency
 * 2: H2 at four geometries and LiH at six, each {sampled, noisy},
 * SPSA. The
 * persistent store is warmed in set-up and configured the way
 * `qcc_sweepd --store-dir` configures it (setStoreDir in the
 * submitting process), so the passes measure fork/exec, framed IPC,
 * per-worker chemistry, shot sampling, the density-matrix backend and
 * whatever the workers read back from the store.
 */

#include <algorithm>
#include <cstdio>

#include <sys/resource.h>

#include "api/experiment.hh"
#include "compiler/cache.hh"
#include "store/problem_store.hh"
#include "store/store.hh"
#include "sweepd/service.hh"
#include "vqe/driver.hh"

#include "perfbench.hh"

namespace perfbench {

namespace {

using namespace qcc;

constexpr unsigned kConcurrency = 2;

class SweepdMix final : public Workload
{
  public:
    explicit SweepdMix(const WorkloadConfig &config)
        : cfg(config), storeRoot(config.outDir + "/store_sweepd")
    {
        SeedRng rng(cfg.seed);
        // Job latency has three classes: H2 (about 0.1 s), LiH sampled
        // (0.3 s) and LiH noisy (0.5 s). Eight H2 jobs of twenty put
        // the median inside the LiH-sampled class and the p95 inside
        // the LiH-noisy one; with as many H2 jobs as LiH jobs the
        // median would fall in the gap between two classes and jump
        // with every slow or fast job.
        const bool tiny = cfg.scale == Scale::Tiny;
        const std::pair<const char *, int> geometries[] = {
            {"H2", tiny ? 1 : 4}, {"LiH", tiny ? 1 : 6}};
        for (const auto &[m, count] : geometries)
            for (int r = 0; r < count; ++r) {
                // Each replica has its own geometry, shared by both
                // modes, so a run averages over several problems.
                const double bond = drawBond(rng, m);
                for (const char *mode : {"sampled", "noisy"}) {
                    ExperimentSpec spec;
                    spec.molecule = m;
                    spec.bond = bond;
                    spec.mode = mode;
                    spec.optimizer = "spsa";
                    spec.spsaIter = 20;
                    spec.shots = 4096;
                    spec.seed = 1 + rng.next() % 0xffffffffULL;
                    spec.reference = false;
                    spec.pipeline = "mtr";
                    spec.architecture = "xtree17";
                    sweep.explicitJobs.push_back(spec);
                }
            }
        rng.shuffle(sweep.explicitJobs);
        sweep.name = "perfbench_sweepd_mix";
        sweep.concurrency = kConcurrency;
    }

    const char *name() const override { return "sweepd_mix"; }

    std::string
    inputsText() const override
    {
        return sweep.json();
    }

    /**
     * Warm the persistent store with every problem and compiled
     * circuit the jobs need, set it the way `--store-dir` does, and
     * run one short job so the worker binary is paged in.
     */
    void
    setUp() override
    {
        globalCircuitCache().clear();
        globalProblemStore().clearMemory();
        resetDirectory(storeRoot);
        setStoreDir(storeRoot);
        setStoreEnabled(true);
        for (const ExperimentSpec &spec : distinctProblems()) {
            const MolecularProblem prob = globalProblemStore().get(
                benchmarkMolecule(spec.molecule), spec.bond,
                spec.basisNg);
            const Ansatz ansatz = buildUccsd(prob.nSpatial, prob.nElectrons);
            const Device dev = makeDevice(spec.architecture);
            CompilerPipeline(*dev.tree,
                             pipelinePresetRegistry().get(spec.pipeline)())
                .compile(ansatz, std::vector<double>(ansatz.nParams, 0.0));
        }
        // A fixed, short job, so the warm-up costs the same at every
        // seed.
        SweepSpec first = sweep;
        first.explicitJobs.clear();
        for (const ExperimentSpec &spec : sweep.explicitJobs)
            if (first.explicitJobs.empty() && spec.molecule == "H2" &&
                spec.mode == "sampled")
                first.explicitJobs.push_back(spec);
        submit(first);
    }

    PassResult
    runPass(size_t index) override
    {
        return submit(passSweep(index));
    }

    PassResult
    runTracedPass(size_t index, LayerReport &layers) override
    {
        std::vector<ExperimentResult> results;
        const uint64_t bytesBefore = directoryBytes(storeRoot);
        PassResult pass = submit(passSweep(index), &results);
        layers.passCounts["store.bytes_written"] +=
            double(directoryBytes(storeRoot)) - double(bytesBefore);
        for (const ExperimentResult &r : results) {
            layers.perCallMs["sweepd.worker_build_ms"].push_back(
                r.buildMillis);
            layers.perCallMs["vqe.run_ms"].push_back(r.vqeMillis);
            layers.passCounts["vqe.evals"] += r.vqe.evals;
            layers.passCounts["vqe.iterations"] += r.vqe.iterations;
        }
        return pass;
    }

    void
    runProbes(LayerReport &layers) override
    {
        // The density-matrix backend alone: noisy energies of a LiH
        // UCCSD state at the origin.
        for (const ExperimentSpec &spec : distinctProblems()) {
            if (spec.molecule != "LiH")
                continue;
            const MolecularProblem prob = globalProblemStore().get(
                benchmarkMolecule(spec.molecule), spec.bond,
                spec.basisNg);
            const Ansatz ansatz = buildUccsd(prob.nSpatial, prob.nElectrons);
            VqeDriverOptions opts;
            opts.noise.cnotDepolarizing = spec.cnotError;
            VqeDriver driver(
                prob.hamiltonian, ansatz, opts,
                makeEstimationStrategy(
                    "noisy", EstimationConfig{&prob.hamiltonian,
                                              opts.noise, opts.sampling,
                                              {}}));
            const std::vector<double> origin(ansatz.nParams, 0.0);
            for (int rep = 0; rep < 5; ++rep)
                inSpan("sim.dm_energy",
                       &layers.perCallMs["sim.dm_energy_ms"],
                       [&] { return driver.energy(origin); });
            break;
        }
        // Cold chemistry, as each worker pays it today.
        setStoreEnabled(false);
        for (const ExperimentSpec &spec : distinctProblems()) {
            globalProblemStore().clearMemory();
            inSpan("chem.problem_build",
                   &layers.perCallMs["chem.problem_build_ms"], [&] {
                       return globalProblemStore().get(
                           benchmarkMolecule(spec.molecule), spec.bond,
                           spec.basisNg);
                   });
        }
        setStoreEnabled(true);
    }

    /** The UCCSD structure depends on the molecule, not the bond. */
    size_t distinctPrograms() const override { return 2; }

    double tailLevel() const override { return 95.0; }

    long workerPeakRssKb() const override { return workerRssKb; }

  private:
    /**
     * The jobs of pass `index` in an order drawn from the seed and
     * the index: the pass ends when its slowest job does, so a run
     * averages over orders instead of riding on one.
     */
    SweepSpec
    passSweep(size_t index) const
    {
        SweepSpec out = sweep;
        SeedRng rng(cfg.seed + 0x632be59bd9b4e019ULL * (index + 1));
        rng.shuffle(out.explicitJobs);
        return out;
    }

    /** One spec per distinct (molecule, bond), in job order. */
    std::vector<ExperimentSpec>
    distinctProblems() const
    {
        std::vector<ExperimentSpec> out;
        for (const ExperimentSpec &spec : sweep.explicitJobs) {
            bool seen = false;
            for (const ExperimentSpec &o : out)
                seen |= o.molecule == spec.molecule && o.bond == spec.bond;
            if (!seen)
                out.push_back(spec);
        }
        return out;
    }

    PassResult
    submit(const SweepSpec &spec,
           std::vector<ExperimentResult> *results = nullptr)
    {
        sweepd::SweepdOptions opts;
        opts.workerPath = cfg.workerPath;
        opts.concurrency = kConcurrency;
        opts.resume = false;
        opts.writeThrough = false;
        sweepd::SweepdService service(opts);
        const auto t0 = clock_type::now();
        const ResultStore store = service.submit(spec);
        PassResult pass;
        pass.wallMs = millisSince(t0);

        struct rusage ru = {};
        if (::getrusage(RUSAGE_CHILDREN, &ru) == 0)
            workerRssKb = std::max(workerRssKb, long(ru.ru_maxrss));

        for (const SweepJobRecord &rec : store.jobs()) {
            JobOutcome out;
            out.ms = rec.wallMillis;
            char buf[256];
            std::snprintf(buf, sizeof(buf),
                          "%s %s seed=%llu E=%a iters=%d evals=%d "
                          "shots=%llu cnots=%zu swaps=%zu",
                          rec.spec.molecule.c_str(), rec.spec.mode.c_str(),
                          (unsigned long long)rec.spec.seed,
                          rec.result.energy(), rec.result.vqe.iterations,
                          rec.result.vqe.evals,
                          (unsigned long long)rec.result.shots,
                          rec.result.compiled.cnots,
                          rec.result.compiled.swaps);
            out.record = buf;
            if (rec.status != JobStatus::Done)
                out.failure = rec.spec.molecule + " " + rec.spec.mode +
                              ": job " + jobStatusName(rec.status) +
                              ": " + rec.error;
            if (results)
                results->push_back(rec.result);
            pass.jobs.push_back(std::move(out));
        }
        return pass;
    }

    WorkloadConfig cfg;
    std::string storeRoot;
    SweepSpec sweep;
    long workerRssKb = 0;
};

} // namespace

std::unique_ptr<Workload>
makeSweepdMix(const WorkloadConfig &config)
{
    return std::make_unique<SweepdMix>(config);
}

} // namespace perfbench
