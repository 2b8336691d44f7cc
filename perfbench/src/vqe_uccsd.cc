/**
 * @file
 * Workload vqe_uccsd: ideal-mode L-BFGS VQE with parameter-shift
 * gradients on the full UCCSD ansatz of BeH2 and H2O (12 qubits, 92
 * parameters), one job at a time so the simulator has the whole
 * two-lane pool, each job followed by the MtR compile onto the
 * 17-qubit X-tree.
 * Chemistry and the Lanczos references are built in set-up, so the
 * passes measure the simulator and the optimizer.
 */

#include <cmath>
#include <cstdio>

#include "api/experiment.hh"
#include "compiler/cache.hh"
#include "obs/trace.hh"
#include "sim/lanczos.hh"
#include "store/problem_store.hh"
#include "store/store.hh"
#include "vqe/expectation_engine.hh"
#include "vqe/vqe.hh"

#include "perfbench.hh"

namespace perfbench {

namespace {

using namespace qcc;

/** L-BFGS outer iterations per job: one step, two full gradients. */
constexpr int kMaxIter = 1;

struct Job
{
    ExperimentSpec spec;
};

struct Reference
{
    double hartreeFock = 0.0;
    double fci = 0.0;
};

/** A converged job, kept for the simulator probes. */
struct Converged
{
    PauliSum hamiltonian;
    Ansatz ansatz;
    std::vector<double> params;
    std::string grouping;
    double energy = 0.0;
};

class VqeUccsd final : public Workload
{
  public:
    explicit VqeUccsd(const WorkloadConfig &config) : cfg(config)
    {
        SeedRng rng(cfg.seed);
        const std::vector<std::string> molecules =
            cfg.scale == Scale::Tiny
                ? std::vector<std::string>{"H2", "LiH"}
                : std::vector<std::string>{"BeH2", "H2O"};
        for (const std::string &m : molecules) {
            Job job;
            job.spec.molecule = m;
            job.spec.bond = drawBond(rng, m);
            job.spec.mode = "ideal";
            job.spec.optimizer = "lbfgs";
            job.spec.maxIter = kMaxIter;
            job.spec.reference = false; // built in set-up instead
            job.spec.pipeline = "mtr";
            job.spec.architecture = "xtree17";
            job.spec.seed = 1 + rng.next() % 0xffffffffULL;
            jobs.push_back(job);
        }
        rng.shuffle(jobs);
    }

    const char *name() const override { return "vqe_uccsd"; }

    std::string
    inputsText() const override
    {
        std::string out;
        for (const Job &j : jobs) {
            out += out.empty() ? "[" : ",";
            out += j.spec.json();
        }
        return out + "]";
    }

    void
    setUp() override
    {
        setStoreDir(""); // no persistent store: chemistry is set-up
        globalProblemStore().clearMemory();
        refs.clear();
        for (const Job &j : jobs) {
            const MolecularProblem prob = globalProblemStore().get(
                benchmarkMolecule(j.spec.molecule), j.spec.bond,
                j.spec.basisNg);
            refs[j.spec.molecule] = Reference{
                prob.hartreeFockEnergy,
                lanczosGroundEnergy(prob.hamiltonian)};
        }
    }

    PassResult
    runPass(size_t) override
    {
        globalCircuitCache().clear();
        PassResult pass;
        lastEnergies.clear();
        const auto t0 = clock_type::now();
        for (const Job &j : jobs) {
            const auto tj = clock_type::now();
            const ExperimentResult r = Experiment(j.spec).run();
            JobOutcome out;
            out.ms = millisSince(tj);
            out.record = record(j, r.vqe, r.compiled.gates,
                                r.compiled.cnots, r.compiled.depth,
                                r.compiled.swaps);
            out.failure = check(j, r.energy());
            lastEnergies.push_back(r.energy());
            pass.jobs.push_back(std::move(out));
        }
        pass.wallMs = millisSince(t0);
        return pass;
    }

    PassResult
    runTracedPass(size_t, LayerReport &layers) override
    {
        globalCircuitCache().clear();
        converged.clear();
        PassResult pass;
        const auto t0 = clock_type::now();
        for (const Job &j : jobs) {
            const auto tj = clock_type::now();
            JobOutcome out = tracedJob(j, layers);
            out.ms = millisSince(tj);
            pass.jobs.push_back(std::move(out));
        }
        pass.wallMs = millisSince(t0);
        return pass;
    }

    void
    runProbes(LayerReport &layers) override
    {
        // The simulator at each job's converged parameters: state
        // preparation, then the grouped expectation of that state,
        // which must reproduce the optimizer's final energy.
        for (const Converged &c : converged) {
            const ExpectationEngine engine(
                c.hamiltonian, groupingRegistry().get(c.grouping));
            for (int rep = 0; rep < 3; ++rep) {
                const Statevector psi =
                    inSpan("sim.ansatz_apply",
                           &layers.perCallMs["sim.ansatz_apply_ms"],
                           [&] {
                               return prepareAnsatzState(c.ansatz,
                                                         c.params);
                           });
                const double e = inSpan(
                    "sim.energy_eval",
                    &layers.perCallMs["sim.energy_eval_ms"],
                    [&] { return engine.energy(psi); });
                if (std::fabs(e - c.energy) > 1e-9)
                    layers.probeFailures.push_back(
                        "vqe_uccsd: grouped energy at the converged "
                        "parameters differs from the VQE energy");
            }
        }
        // Cold chemistry for the same problems.
        for (const Job &j : jobs) {
            globalProblemStore().clearMemory();
            inSpan("chem.problem_build",
                   &layers.perCallMs["chem.problem_build_ms"], [&] {
                       return globalProblemStore().get(
                           benchmarkMolecule(j.spec.molecule),
                           j.spec.bond, j.spec.basisNg);
                   });
        }
    }

    size_t distinctPrograms() const override { return jobs.size(); }

    /** Four to six jobs a run: too few for a percentile. */
    double tailLevel() const override { return 100.0; }

    std::string
    goldenJson() const override
    {
        std::string out = "[";
        char buf[256];
        for (size_t i = 0; i < jobs.size() && i < lastEnergies.size();
             ++i) {
            std::snprintf(buf, sizeof(buf),
                          "%s{\"molecule\": \"%s\", \"bond\": %.17g, "
                          "\"energy\": %.17g}",
                          i ? ", " : "",
                          jobs[i].spec.molecule.c_str(),
                          jobs[i].spec.bond, lastEnergies[i]);
            out += buf;
        }
        return out + "]";
    }

  private:
    /** The facade's vqe kind, call for call, inside layer spans. */
    JobOutcome
    tracedJob(const Job &j, LayerReport &layers)
    {
        TraceSpan jobSpan("bench.job");
        const Experiment experiment(j.spec);
        const ExperimentSpec &spec = experiment.spec();
        const BenchmarkMolecule &entry =
            benchmarkMolecule(spec.molecule);

        MolecularProblem prob = inSpan("chem.problem_get", nullptr, [&] {
            return globalProblemStore().get(entry, spec.bond,
                                            spec.basisNg);
        });
        Ansatz ansatz = inSpan("ansatz.build_uccsd", nullptr, [&] {
            return buildUccsd(prob.nSpatial, prob.nElectrons);
        });
        const GroupingFn &grouping =
            groupingRegistry().get(spec.grouping);
        inSpan("pauli.group", &layers.perCallMs["pauli.group_ms"],
               [&] { return grouping(prob.hamiltonian).size(); });

        VqeDriverOptions opts;
        opts.optimizer = optimizerRegistry().get(spec.optimizer)();
        opts.noise.cnotDepolarizing = spec.cnotError;
        opts.noise.singleQubitDepolarizing = spec.singleQubitError;
        if (spec.shots > 0)
            opts.sampling.shots = spec.shots;
        opts.sampling.grouping = grouping;
        opts.maxIter = spec.maxIter;
        opts.spsaIter = spec.spsaIter;
        if (spec.seed != 0)
            opts.seed = spec.seed;
        auto driver = inSpan("vqe.setup", nullptr, [&] {
            return std::make_unique<VqeDriver>(
                prob.hamiltonian, ansatz, opts,
                makeEstimationStrategy(
                    spec.mode,
                    EstimationConfig{&prob.hamiltonian, opts.noise,
                                     opts.sampling, grouping}));
        });
        const VqeResult res =
            inSpan("vqe.run", &layers.perCallMs["vqe.run_ms"],
                   [&] { return driver->run(); });
        layers.passCounts["vqe.evals"] += res.evals;
        layers.passCounts["vqe.iterations"] += res.iterations;

        const CompileResult compiled = inSpan("compile.phase", nullptr, [&] {
            const Device dev = makeDevice(spec.architecture);
            return CompilerPipeline(
                       *dev.tree,
                       pipelinePresetRegistry().get(spec.pipeline)())
                .compile(ansatz, res.params);
        });

        converged.push_back(Converged{prob.hamiltonian, ansatz,
                                      res.params, spec.grouping,
                                      res.energy});
        JobOutcome out;
        out.record = record(j, res, compiled.circuit.totalGates(),
                            compiled.circuit.cnotCount(),
                            compiled.circuit.depth(),
                            compiled.swapCount);
        out.failure = check(j, res.energy);
        return out;
    }

    static std::string
    record(const Job &j, const VqeResult &v, size_t gates,
           size_t cnots, size_t depth, size_t swaps)
    {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s bond=%.17g E=%a iters=%d evals=%d gates=%zu "
                      "cnots=%zu depth=%zu swaps=%zu",
                      j.spec.molecule.c_str(), j.spec.bond, v.energy,
                      v.iterations, v.evals, gates, cnots, depth, swaps);
        return buf;
    }

    /** Variational bracket, then the recorded energy at the default
     *  seed. */
    std::string
    check(const Job &j, double energy) const
    {
        const Reference &ref = refs.at(j.spec.molecule);
        if (!(energy >= ref.fci - 1e-8 && energy <= ref.hartreeFock + 1e-8))
            return j.spec.molecule + ": energy outside [FCI, HF]";
        if (!cfg.golden)
            return {};
        const JsonValue *entries = cfg.golden->find(name());
        if (!entries)
            return "no recorded energies for vqe_uccsd";
        for (const JsonValue &e : entries->items) {
            const JsonValue *m = e.find("molecule");
            const JsonValue *g = e.find("energy");
            if (m && g && m->text == j.spec.molecule)
                return std::fabs(energy - g->number) <= 1e-8
                           ? std::string()
                           : j.spec.molecule +
                                 ": energy differs from the recorded "
                                 "value";
        }
        return j.spec.molecule + ": no recorded energy";
    }

    WorkloadConfig cfg;
    std::vector<Job> jobs;
    std::map<std::string, Reference> refs;
    std::vector<double> lastEnergies; ///< last untraced pass
    std::vector<Converged> converged; ///< last traced pass
};

} // namespace

std::unique_ptr<Workload>
makeVqeUccsd(const WorkloadConfig &config)
{
    return std::make_unique<VqeUccsd>(config);
}

} // namespace perfbench
