/**
 * @file
 * Gradient-engine study: serial (per-evaluation full replay) vs
 * batched (prefix-shared / pair-differenced, thread-pool fan-out)
 * parameter-shift gradients on LiH, in all three evaluation modes;
 * the adjoint sweep the ideal mode actually runs against the batched
 * shift rule (ms and max |delta g|); and analytic vs sampled
 * gradient quality at a sweep of shot budgets; and the split of one
 * adjoint gradient on the 12-qubit BeH2 and H2O ansatze (forward
 * replay, H psi, backward sweep, and the whole gradient replayed vs
 * started from a prepared state). Headline numbers land
 * in BENCH_gradient.json under QCC_JSON. The batched-vs-serial ratio
 * on the gate-level noisy mode is algorithmic (pair-difference
 * suffix sweeps), so it holds even on one core; the statevector
 * modes additionally scale with QCC_THREADS, drawing their per-task
 * scratch states from the common/parallel buffer pool. The adjoint
 * ratio is algorithmic too: O(R) rotations against O(R^2).
 * QCC_FULL=1 adds a 14-qubit NH3 row for both comparisons.
 *
 * The program is also a correctness check: it exits with status 1
 * when an adjoint gradient differs from the batched shift rule by
 * more than 1e-10 (the bound test_gradient pins), or when the
 * gradient started from a prepared state is not bit-identical to the
 * replaying one.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "ansatz/compression.hh"
#include "ansatz/uccsd.hh"
#include "api/registries.hh"
#include "chem/molecules.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "ferm/hamiltonian.hh"
#include "sim/backend.hh"
#include "sim/kernels.hh"
#include "sim/noise_model.hh"
#include "vqe/expectation_engine.hh"
#include "vqe/gradient.hh"

#include "bench_util.hh"

using namespace qcc;

namespace {

using clock_type = std::chrono::steady_clock;

double
millisSince(clock_type::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               clock_type::now() - t0)
        .count();
}

double
maxAbsDiff(const std::vector<double> &a, const std::vector<double> &b)
{
    double m = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        m = std::max(m, std::fabs(a[i] - b[i]));
    return m;
}

/** Largest adjoint-vs-shift |delta g| the check accepts. */
constexpr double kAdjointTolerance = 1e-10;

/** Mean wall time of `reps` calls of fn, in ms, after one warm-up. */
template <typename Fn>
double
meanMs(int reps, Fn &&fn)
{
    fn();
    const auto t0 = clock_type::now();
    for (int r = 0; r < reps; ++r)
        fn();
    return millisSince(t0) / reps;
}

/**
 * adjoint_split row for one catalog molecule at its equilibrium
 * bond: the three parts of gradientAdjoint timed one by one (forward
 * replay as SimBackend::applyAnsatz runs it, H psi with the real
 * coefficient parts, and the backward sweep of one kern::adjointStep
 * per rotation), then the whole gradient replayed and started from
 * the prepared state. Returns false when the two gradients differ in
 * any bit.
 */
bool
adjointSplitRow(qccbench::JsonReport &json, const std::string &name,
                int reps)
{
    const BenchmarkMolecule &entry = benchmarkMolecule(name);
    const MolecularProblem prob =
        buildMolecularProblem(entry, entry.equilibriumBond);
    const Ansatz ansatz = buildUccsd(prob.nSpatial, prob.nElectrons);
    std::vector<double> params(ansatz.nParams);
    for (size_t i = 0; i < params.size(); ++i)
        params[i] = 0.05 * double(i % 7 + 1);
    const ParameterShiftEngine engine(prob.hamiltonian, ansatz);

    StatevectorBackend backend(ansatz.nQubits);
    const double forwardMs =
        meanMs(reps, [&] { backend.applyAnsatz(ansatz, params); });
    const Statevector &psi = backend.state();

    std::vector<cplx> hpsi(psi.dim());
    const double hpsiMs = meanMs(reps, [&] {
        std::fill(hpsi.begin(), hpsi.end(), cplx(0.0));
        for (const PauliTerm &t : prob.hamiltonian.terms())
            psi.accumulatePauli(t.coeff.real(), t.string, hpsi);
    });

    // The backward sweep on copies of (H psi, psi); the copies are
    // made outside the timed part.
    std::vector<cplx> lam, chi;
    double backwardMs = 0.0;
    for (int r = 0; r <= reps; ++r) {
        lam = hpsi;
        chi = psi.amplitudes();
        const auto t0 = clock_type::now();
        for (size_t j = ansatz.rotations.size(); j-- > 0;) {
            const PauliRotation &rot = ansatz.rotations[j];
            if (rot.string.isIdentity())
                continue;
            kern::adjointStep(lam.data(), chi.data(), lam.size(),
                              rot.string.xMask(), rot.string.zMask(),
                              -params[rot.param] * rot.coeff);
        }
        if (r > 0) // the first pass warms up
            backwardMs += millisSince(t0) / reps;
    }

    std::vector<double> replayed, reused;
    const double replayedMs = meanMs(
        reps, [&] { replayed = engine.gradientAdjoint(params); });
    const double reusedMs = meanMs(
        reps, [&] { reused = engine.gradientAdjoint(params, &psi); });
    const bool bitwise = replayed == reused;

    std::printf("%-5s n=%-2u R=%-4zu T=%-4zu %9.3f %8.3f %9.3f "
                "%9.3f %8.3f  %s\n",
                name.c_str(), ansatz.nQubits, ansatz.rotations.size(),
                prob.hamiltonian.numTerms(), forwardMs, hpsiMs,
                backwardMs, replayedMs, reusedMs,
                bitwise ? "yes" : "NO");
    json.row("adjoint_split_" + name,
             {{"qubits", double(ansatz.nQubits)},
              {"rotations", double(ansatz.rotations.size())},
              {"terms", double(prob.hamiltonian.numTerms())},
              {"forward_ms", forwardMs},
              {"hpsi_ms", hpsiMs},
              {"backward_ms", backwardMs},
              {"replayed_ms", replayedMs},
              {"reused_ms", reusedMs},
              {"reuse_bitwise", bitwise ? 1.0 : 0.0}});
    if (!bitwise)
        std::printf("  FAIL %s: the gradient from the prepared state "
                    "differs from the replayed one\n",
                    name.c_str());
    return bitwise;
}

} // namespace

int
main()
{
    setVerbose(false);
    qccbench::banner("Gradient engine: serial vs batched "
                     "parameter shift (LiH)");
    qccbench::JsonReport json("gradient");

    const auto &entry = benchmarkMolecule("LiH");
    MolecularProblem prob = buildMolecularProblem(entry, 1.6);
    Ansatz ansatz = buildUccsd(prob.nSpatial, prob.nElectrons);
    std::vector<double> params(ansatz.nParams);
    for (size_t i = 0; i < params.size(); ++i)
        params[i] = 0.05 * double(i + 1);

    const int reps = qccbench::fullMode() ? 10 : 3;
    ExpectationEngine ee(prob.hamiltonian);
    NoiseModel noise = NoiseModel::paperDefault();
    SamplingOptions sampling;

    ParameterShiftEngine batched(prob.hamiltonian, ansatz);
    GradientOptions serialOpts;
    serialOpts.batched = false;
    ParameterShiftEngine serial(prob.hamiltonian, ansatz,
                                serialOpts);

    std::printf("molecule LiH: %u qubits, %u params, %zu shifted "
                "evaluations per gradient, %u threads\n\n",
                ansatz.nQubits, ansatz.nParams,
                batched.numShiftedEvaluations(), parallelThreads());
    std::printf("%-10s %12s %12s %9s\n", "mode", "serial ms",
                "batched ms", "speedup");

    // Serial baseline: the generic engine path with batching off —
    // every shifted energy is an independent full replay, exactly
    // what a driver evaluating one energy at a time would do.
    // Batched: prefix-shared (statevector) or pair-differenced
    // (density-matrix) sweeps fanned over the pool.
    auto timeRow = [&](const char *mode, auto serialFn,
                       auto batchedFn) {
        serialFn(); // warm caches and the thread pool
        auto t0 = clock_type::now();
        for (int r = 0; r < reps; ++r)
            serialFn();
        const double serialMs = millisSince(t0) / reps;
        batchedFn();
        t0 = clock_type::now();
        for (int r = 0; r < reps; ++r)
            batchedFn();
        const double batchedMs = millisSince(t0) / reps;
        const double speedup = serialMs / batchedMs;
        std::printf("%-10s %12.3f %12.3f %8.2fx\n", mode, serialMs,
                    batchedMs, speedup);
        json.row(mode, {{"serial_ms", serialMs},
                        {"batched_ms", batchedMs},
                        {"speedup", speedup}});
    };

    // Backends come from the registry (no direct construction): the
    // same factories an ExperimentSpec's backend keys resolve to.
    const BackendFactoryFn &makeSv =
        backendRegistry().get("statevector");
    const BackendFactoryFn &makeDm =
        backendRegistry().get("density_matrix");
    auto svMake = [&] { return makeSv({ansatz.nQubits, {}}); };
    auto svEnergy = [&](SimBackend &b, size_t) {
        return ee.energy(b);
    };
    auto svEstimate = [&](const Statevector &psi, size_t) {
        return ee.energy(psi);
    };
    timeRow(
        "ideal",
        [&] { serial.gradient(params, svMake, svEnergy); },
        [&] { batched.gradientStatevector(params, svEstimate); });


    auto dmMake = [&] { return makeDm({ansatz.nQubits, noise}); };
    auto dmEnergy = [&](SimBackend &b, size_t) {
        return b.expectation(prob.hamiltonian);
    };
    timeRow(
        "noisy",
        [&] { serial.gradient(params, dmMake, dmEnergy); },
        [&] { batched.gradientNoisy(params, noise); });

    SamplingEngine samplerEngine(prob.hamiltonian, sampling);
    const uint64_t gradSeed = deriveSeed(0x6772); // "gr"
    auto sampledEnergy = [&](SimBackend &b, size_t task) {
        Rng rng(deriveStream(gradSeed, task));
        return samplerEngine.measure(b, rng).energy;
    };
    auto sampledEstimate = [&](const Statevector &psi, size_t task) {
        Rng rng(deriveStream(gradSeed, task));
        return samplerEngine.measure(psi, rng).energy;
    };
    timeRow(
        "sampled",
        [&] { serial.gradient(params, svMake, sampledEnergy); },
        [&] {
            batched.gradientStatevector(params, sampledEstimate);
        });

    // Ideal mode's own route: one adjoint backward sweep against the
    // batched shift rule it replaced.
    bool ok = true;
    auto adjointRow = [&](const std::string &name,
                          const ParameterShiftEngine &engine,
                          const std::vector<double> &x,
                          const StateEstimator &estimate, int n) {
        std::vector<double> shift =
            engine.gradientStatevector(x, estimate);
        std::vector<double> adjoint = engine.gradientAdjoint(x);
        auto t0 = clock_type::now();
        for (int r = 0; r < n; ++r)
            shift = engine.gradientStatevector(x, estimate);
        const double shiftMs = millisSince(t0) / n;
        t0 = clock_type::now();
        for (int r = 0; r < n; ++r)
            adjoint = engine.gradientAdjoint(x);
        const double adjointMs = millisSince(t0) / n;
        const double dg = maxAbsDiff(adjoint, shift);
        std::printf("%-18s %12.3f %12.3f %8.1fx %10.1e\n",
                    name.c_str(), shiftMs, adjointMs,
                    shiftMs / adjointMs, dg);
        json.row(name, {{"batched_shift_ms", shiftMs},
                        {"adjoint_ms", adjointMs},
                        {"speedup", shiftMs / adjointMs},
                        {"max_abs_dg", dg}});
        if (!(dg <= kAdjointTolerance)) {
            std::printf("  FAIL %s: adjoint and shift-rule gradients "
                        "differ by more than %.0e\n",
                        name.c_str(), kAdjointTolerance);
            ok = false;
        }
    };
    auto adjointHeader = [] {
        std::printf("%-18s %12s %12s %9s %10s\n", "ideal route",
                    "shift ms", "adjoint ms", "speedup", "max|dg|");
    };
    qccbench::rule();
    adjointHeader();
    adjointRow("ideal_adjoint", batched, params, svEstimate, reps);

    // Where one adjoint gradient spends its time, on the ansatze the
    // vqe_uccsd benchmark workload runs.
    qccbench::rule();
    std::printf("adjoint split (ms per gradient)\n");
    std::printf("%-5s %-17s %9s %8s %9s %9s %8s  %s\n", "mol", "",
                "forward", "H psi", "backward", "replayed", "reused",
                "bitwise");
    for (const char *mol : {"BeH2", "H2O"})
        ok = adjointSplitRow(json, mol, qccbench::fullMode() ? 50 : 10) &&
             ok;

    // Gradient quality: sampled estimates against the exact
    // (adjoint) gradient as the shot budget grows.
    qccbench::rule();
    std::printf("analytic vs sampled gradient (max |delta| over "
                "components)\n");
    std::vector<double> exact = batched.gradientAdjoint(params);
    const std::vector<uint64_t> budgets =
        qccbench::fullMode()
            ? std::vector<uint64_t>{1024, 8192, 65536, 262144}
            : std::vector<uint64_t>{1024, 8192, 65536};
    for (uint64_t shots : budgets) {
        SamplingOptions so;
        so.shots = shots;
        SamplingEngine se(prob.hamiltonian, so);
        auto est = [&](const Statevector &psi, size_t task) {
            Rng rng(deriveStream(deriveSeed(shots), task));
            return se.measure(psi, rng).energy;
        };
        std::vector<double> g =
            batched.gradientStatevector(params, est);
        const double err = maxAbsDiff(g, exact);
        std::printf("  shots=%-8llu max_err=%.3e\n",
                    (unsigned long long)shots, err);
        json.row("sampled_shots_" + std::to_string(shots),
                 {{"shots", double(shots)}, {"max_err", err}});
    }

    // Full mode: a 14-qubit row (NH3, 20%-compressed UCCSD) where
    // the buffer-pooled per-task statevectors and the thread fan-out
    // actually have 2^14 amplitudes to chew on. One rep per variant:
    // the serial baseline replays every prefix from scratch.
    if (qccbench::fullMode()) {
        qccbench::rule();
        std::printf("QCC_FULL: 14-qubit gradient (NH3, 20%% "
                    "compressed)\n");
        const auto &bigEntry = benchmarkMolecule("NH3");
        MolecularProblem big = buildMolecularProblem(
            bigEntry, bigEntry.equilibriumBond);
        Ansatz bigFull =
            buildUccsd(big.nSpatial, big.nElectrons);
        Ansatz bigAnsatz =
            compressAnsatz(bigFull, big.hamiltonian, 0.2).ansatz;
        std::vector<double> bigParams(bigAnsatz.nParams);
        for (size_t i = 0; i < bigParams.size(); ++i)
            bigParams[i] = 0.05 * double(i + 1);
        ExpectationEngine bigEe(big.hamiltonian);
        ParameterShiftEngine bigBatched(big.hamiltonian, bigAnsatz);
        ParameterShiftEngine bigSerial(big.hamiltonian, bigAnsatz,
                                       serialOpts);
        auto bigEstimate = [&](const Statevector &psi, size_t) {
            return bigEe.energy(psi);
        };
        auto bigMake = [&] {
            return makeSv({bigAnsatz.nQubits, {}});
        };
        auto bigEnergy = [&](SimBackend &b, size_t) {
            return bigEe.energy(b);
        };
        std::printf("%u qubits, %u params, %zu shifted evaluations "
                    "per gradient\n",
                    bigAnsatz.nQubits, bigAnsatz.nParams,
                    bigBatched.numShiftedEvaluations());
        auto t0 = clock_type::now();
        bigSerial.gradient(bigParams, bigMake, bigEnergy);
        const double serialMs = millisSince(t0);
        t0 = clock_type::now();
        bigBatched.gradientStatevector(bigParams, bigEstimate);
        const double batchedMs = millisSince(t0);
        std::printf("%-10s %12.3f %12.3f %8.2fx\n", "ideal_14q",
                    serialMs, batchedMs, serialMs / batchedMs);
        json.row("ideal_14q", {{"serial_ms", serialMs},
                               {"batched_ms", batchedMs},
                               {"speedup", serialMs / batchedMs}});
        adjointHeader();
        adjointRow("ideal_adjoint_14q", bigBatched, bigParams,
                   bigEstimate, 1);
    }

    json.write();
    return ok ? 0 : 1;
}
