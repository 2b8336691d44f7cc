/**
 * @file
 * Workload costing_table2: the paper's Table II sweep (nine
 * molecules x five compression ratios, Merge-to-Root on the 17-qubit
 * X-tree) forced to kind "estimate", run through SweepEngine at
 * concurrency 2. No simulator is touched: the passes measure
 * chemistry, compression, grouping, the compiler, its cache and the
 * persistent store's write side. Every pass starts from empty
 * in-memory caches and an empty store directory.
 */

#include <cstdio>
#include <set>

#include "api/experiment.hh"
#include "ansatz/compression.hh"
#include "common/parallel.hh"
#include "compiler/cache.hh"
#include "store/problem_store.hh"
#include "store/store.hh"
#include "sweep/sweep_engine.hh"

#include "perfbench.hh"

namespace perfbench {

namespace {

using namespace qcc;

constexpr unsigned kConcurrency = 2;

/** Structural identity of a program: what a compile depends on. */
std::string
programKey(const Ansatz &a)
{
    std::string key = std::to_string(a.nQubits) + ":" +
                      std::to_string(a.hfMask);
    char buf[96];
    for (const PauliRotation &r : a.rotations) {
        std::snprintf(buf, sizeof(buf), "|%u,%a,%llx,%llx", r.param,
                      r.coeff, (unsigned long long)r.string.xMask(),
                      (unsigned long long)r.string.zMask());
        key += buf;
    }
    return key;
}

class CostingTable2 final : public Workload
{
  public:
    explicit CostingTable2(const WorkloadConfig &config)
        : cfg(config), storeRoot(config.outDir + "/store_costing")
    {
    }

    const char *name() const override { return "costing_table2"; }

    std::string
    inputsText() const override
    {
        return passSpec(0).json();
    }

    /** Inputs, plus one warm-up pass that fills the process's lazy
     *  tables (the STO-nG fits, allocator arenas, the pool). */
    void
    setUp() override
    {
        runPass(0);
    }

    PassResult
    runPass(size_t index) override
    {
        const SweepSpec sweep = passSpec(index);
        startCold();
        SweepEngineOptions opts;
        opts.concurrency = kConcurrency;
        const auto t0 = clock_type::now();
        const ResultStore store = SweepEngine(sweep, opts).run();
        PassResult pass;
        pass.inputsId = index;
        pass.wallMs = millisSince(t0);
        lastCounts.clear();
        for (const SweepJobRecord &rec : store.jobs()) {
            JobOutcome out;
            out.ms = rec.wallMillis;
            out.record = record(rec.spec, rec.result.hartreeFock,
                                rec.result.estimate);
            out.failure = rec.status == JobStatus::Done
                              ? check(rec.spec, rec.result.estimate,
                                      index == 0)
                              : rec.spec.molecule + ": job " +
                                    jobStatusName(rec.status) + ": " +
                                    rec.error;
            lastCounts.push_back(rec.result.estimate);
            pass.jobs.push_back(std::move(out));
        }
        return pass;
    }

    PassResult
    runTracedPass(size_t index, LayerReport &layers) override
    {
        const std::vector<ExperimentSpec> jobs =
            passSpec(index).explicitJobs;
        startCold();
        PassResult pass;
        pass.inputsId = index;
        pass.jobs.resize(jobs.size());
        // Per-job sample vectors: the lanes must not share one.
        std::vector<LayerReport> perJob(jobs.size());
        programKeys.assign(jobs.size(), std::string());
        const auto t0 = clock_type::now();
        // SweepEngine's schedule: a bounded executor, each job capped
        // to its share of the pool's lanes.
        BoundedExecutor executor(kConcurrency);
        executor.run(jobs.size(), [&](size_t i) {
            const ParallelWidthCap cap(
                std::max(1u, parallelThreads() / kConcurrency));
            const auto tj = clock_type::now();
            pass.jobs[i] =
                tracedJob(jobs[i], perJob[i], index == 0, programKeys[i]);
            pass.jobs[i].ms = millisSince(tj);
        });
        pass.wallMs = millisSince(t0);
        programs = std::set<std::string>(programKeys.begin(),
                                         programKeys.end());
        layers.passCounts["store.bytes_written"] +=
            double(directoryBytes(storeRoot));
        for (const LayerReport &r : perJob)
            for (const auto &kv : r.perCallMs)
                layers.perCallMs[kv.first].insert(
                    layers.perCallMs[kv.first].end(), kv.second.begin(),
                    kv.second.end());
        return pass;
    }

    void
    runProbes(LayerReport &layers) override
    {
        // Cold chemistry, one build per molecule of the first pass,
        // store off.
        const std::vector<ExperimentSpec> jobs = passSpec(0).explicitJobs;
        setStoreEnabled(false);
        for (size_t i = 0; i < jobs.size(); ++i) {
            const ExperimentSpec &spec = jobs[i];
            bool seen = false;
            for (size_t k = 0; k < i; ++k)
                seen |= jobs[k].molecule == spec.molecule;
            if (seen)
                continue;
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

    /** Distinct programs of the last traced pass: ratios that keep
     *  the same parameters share one. */
    size_t distinctPrograms() const override { return programs.size(); }

    double tailLevel() const override { return 95.0; }

    std::string
    goldenJson() const override
    {
        const SweepSpec sweep = passSpec(0);
        std::string out = "[";
        char buf[256];
        for (size_t i = 0; i < lastCounts.size(); ++i) {
            const EstimateResult &e = lastCounts[i];
            std::snprintf(
                buf, sizeof(buf),
                "%s{\"molecule\": \"%s\", \"compression\": %.17g, "
                "\"qubits\": %u, \"settings\": %zu, \"cnots\": %zu, "
                "\"swaps\": %zu}",
                i ? ",\n  " : "",
                sweep.explicitJobs[i].molecule.c_str(),
                sweep.explicitJobs[i].compression, e.qubits,
                e.measurementSettings, e.cnots, e.swaps);
            out += buf;
        }
        return out + "]";
    }

  private:
    /**
     * The sweep of pass `index`: every molecule at its own bond
     * length, all five ratios, in a seeded order. Each pass draws
     * afresh from the seed, so a run averages over many geometries
     * and job orders instead of riding on one draw.
     */
    SweepSpec
    passSpec(size_t index) const
    {
        SeedRng rng(cfg.seed + 0x632be59bd9b4e019ULL * index);
        const bool tiny = cfg.scale == Scale::Tiny;
        const std::vector<double> ratios =
            tiny ? std::vector<double>{0.3, 0.7}
                 : std::vector<double>{0.1, 0.3, 0.5, 0.7, 0.9};
        SweepSpec sweep;
        sweep.name = "perfbench_costing_table2";
        sweep.concurrency = kConcurrency;
        sweep.emitTimings = false;
        for (const BenchmarkMolecule &entry : benchmarkMolecules()) {
            if (tiny && sweep.explicitJobs.size() == 3 * ratios.size())
                break;
            const double bond = drawBond(rng, entry.name);
            for (double ratio : ratios) {
                ExperimentSpec spec;
                spec.kind = "estimate";
                spec.molecule = entry.name;
                spec.bond = bond;
                spec.compression = ratio;
                spec.pipeline = "mtr";
                spec.architecture = "xtree17";
                spec.maxIter = 20;
                spec.reference = false;
                sweep.explicitJobs.push_back(spec);
            }
        }
        rng.shuffle(sweep.explicitJobs);
        return sweep;
    }

    /** Empty in-memory caches and an empty persistent store. */
    void
    startCold()
    {
        globalCircuitCache().clear();
        globalProblemStore().clearMemory();
        resetDirectory(storeRoot);
        setStoreDir(storeRoot);
        setStoreEnabled(true);
    }

    /** The facade's estimate kind, call for call, inside layer
     *  spans. */
    JobOutcome
    tracedJob(const ExperimentSpec &job, LayerReport &layers,
              bool golden, std::string &program_key)
    {
        TraceSpan jobSpan("bench.job");
        const Experiment experiment(job);
        const ExperimentSpec &spec = experiment.spec();
        const BenchmarkMolecule &entry = benchmarkMolecule(spec.molecule);

        MolecularProblem prob = inSpan("chem.problem_get", nullptr, [&] {
            return globalProblemStore().get(entry, spec.bond,
                                            spec.basisNg);
        });
        const GroupingFn &grouping = groupingRegistry().get(spec.grouping);
        Ansatz full = inSpan("ansatz.build_uccsd", nullptr, [&] {
            return buildUccsd(prob.nSpatial, prob.nElectrons);
        });
        Ansatz program =
            spec.compression < 1.0
                ? inSpan("ansatz.compress",
                         &layers.perCallMs["ansatz.compress_ms"],
                         [&] {
                             return compressAnsatz(full, prob.hamiltonian,
                                                   spec.compression)
                                 .ansatz;
                         })
                : std::move(full);

        program_key = programKey(program);

        std::vector<double> &groupMs = layers.perCallMs["pauli.group_ms"];
        EstimateRequest req;
        req.hamiltonian = &prob.hamiltonian;
        req.program = &program;
        req.grouping = [&](const PauliSum &h) {
            return inSpan("pauli.group", &groupMs,
                          [&] { return grouping(h); });
        };
        req.shotsPerEstimate =
            spec.shots > 0 ? spec.shots : SamplingOptions{}.shots;
        req.iterations = spec.maxIter;
        const Device dev = makeDevice(spec.architecture);
        const CompilerPipeline pipe(
            *dev.tree, pipelinePresetRegistry().get(spec.pipeline)());
        req.pipeline = &pipe;
        const EstimateResult est = inSpan(
            "estimate.resources",
            &layers.perCallMs["estimate.resources_ms"],
            [&] { return estimateResources(req); });

        JobOutcome out;
        out.record = record(job, prob.hartreeFockEnergy, est);
        out.failure = check(job, est, golden);
        return out;
    }

    static std::string
    record(const ExperimentSpec &spec, double hf, const EstimateResult &e)
    {
        char buf[320];
        std::snprintf(buf, sizeof(buf),
                      "%s bond=%.17g ratio=%.17g hf=%a qubits=%u "
                      "params=%u strings=%zu terms=%zu settings=%zu "
                      "gates=%zu cnots=%zu depth=%zu swaps=%zu",
                      spec.molecule.c_str(), spec.bond, spec.compression,
                      hf, e.qubits, e.parameters, e.pauliStrings,
                      e.hamiltonianTerms, e.measurementSettings, e.gates,
                      e.cnots, e.depth, e.swaps);
        return buf;
    }

    /** The recorded counts at the default seed, matched exactly. */
    std::string
    check(const ExperimentSpec &spec, const EstimateResult &e,
          bool golden) const
    {
        if (!e.present)
            return spec.molecule + ": no estimate in the result";
        if (!cfg.golden || !golden)
            return {};
        const JsonValue *entries = cfg.golden->find(name());
        if (!entries)
            return "no recorded counts for costing_table2";
        for (const JsonValue &g : entries->items) {
            const JsonValue *m = g.find("molecule");
            const JsonValue *r = g.find("compression");
            if (!m || !r || m->text != spec.molecule ||
                r->number != spec.compression)
                continue;
            auto same = [&](const char *key, double v) {
                const JsonValue *x = g.find(key);
                return x && x->number == v;
            };
            return same("qubits", e.qubits) &&
                           same("settings",
                                double(e.measurementSettings)) &&
                           same("cnots", double(e.cnots)) &&
                           same("swaps", double(e.swaps))
                       ? std::string()
                       : spec.molecule +
                             ": counts differ from the recorded values";
        }
        return spec.molecule + ": no recorded counts";
    }

    WorkloadConfig cfg;
    std::string storeRoot;
    std::vector<EstimateResult> lastCounts; ///< last untraced pass
    std::vector<std::string> programKeys;   ///< per job, last traced pass
    std::set<std::string> programs;
};

} // namespace

std::unique_ptr<Workload>
makeCostingTable2(const WorkloadConfig &config)
{
    return std::make_unique<CostingTable2>(config);
}

} // namespace perfbench
