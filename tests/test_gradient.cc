/**
 * @file
 * Gradient tests: agreement with central finite differences on every
 * evaluation path (ideal statevector, noisy pair-difference, generic
 * backend replay), the adjoint sweep against the shift rule on H2,
 * LiH and 12-qubit BeH2, its dispatch from the ideal driver and its
 * start from the state the driver's energy evaluation prepared,
 * bit-for-bit equality of batched and serial execution and of the
 * prefix-shared fast paths against full replays, CircuitCache reuse
 * on the gate-level path, and convergence of the gradient-driven
 * optimizers.
 */

#include <cmath>
#include <functional>
#include <gtest/gtest.h>
#include <string>

#include "ansatz/uccsd.hh"
#include "api/registries.hh"
#include "chem/molecules.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "compiler/cache.hh"
#include "ferm/hamiltonian.hh"
#include "obs/trace.hh"
#include "sim/lanczos.hh"
#include "vqe/driver.hh"
#include "vqe/expectation_engine.hh"
#include "vqe/gradient.hh"
#include "vqe/vqe.hh"

using namespace qcc;

namespace {

struct Fixture
{
    MolecularProblem prob;
    Ansatz ansatz;
};

const Fixture &
h2()
{
    static const Fixture fix = [] {
        setVerbose(false);
        MolecularProblem prob =
            buildMolecularProblem(benchmarkMolecule("H2"), 0.74);
        Ansatz a = buildUccsd(prob.nSpatial, prob.nElectrons);
        return Fixture{std::move(prob), std::move(a)};
    }();
    return fix;
}

const Fixture &
lih()
{
    static const Fixture fix = [] {
        setVerbose(false);
        MolecularProblem prob =
            buildMolecularProblem(benchmarkMolecule("LiH"), 1.6);
        Ansatz a = buildUccsd(prob.nSpatial, prob.nElectrons);
        return Fixture{std::move(prob), std::move(a)};
    }();
    return fix;
}

const Fixture &
beh2()
{
    static const Fixture fix = [] {
        setVerbose(false);
        MolecularProblem prob =
            buildMolecularProblem(benchmarkMolecule("BeH2"), 1.33);
        Ansatz a = buildUccsd(prob.nSpatial, prob.nElectrons);
        return Fixture{std::move(prob), std::move(a)};
    }();
    return fix;
}

/** Seeded uniform parameters in [-0.3, 0.3). */
std::vector<double>
randomParams(unsigned n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> p(n);
    for (auto &v : p)
        v = rng.uniform(-0.3, 0.3);
    return p;
}

/** Random rotations and a random 8-term H on n qubits. */
std::pair<PauliSum, Ansatz>
randomProblem(unsigned n, unsigned nRot, uint64_t seed)
{
    Rng rng(seed);
    Ansatz a;
    a.nQubits = n;
    a.nParams = nRot;
    a.hfMask = rng.index(uint64_t{1} << n);
    for (unsigned j = 0; j < nRot; ++j)
        a.rotations.push_back(
            {j, 0.6,
             PauliString(n, rng.index(uint64_t{1} << n),
                         rng.index(uint64_t{1} << n))});
    PauliSum h(n);
    for (int t = 0; t < 8; ++t)
        h.add(rng.uniform(-1.0, 1.0),
              PauliString(n, rng.index(uint64_t{1} << n),
                          rng.index(uint64_t{1} << n)));
    return {std::move(h), std::move(a)};
}

std::vector<double>
testParams(unsigned n)
{
    std::vector<double> p(n);
    for (unsigned i = 0; i < n; ++i)
        p[i] = 0.07 * double(i + 1) - 0.15;
    return p;
}

/**
 * The `forward` arg ("reused" or "replayed") of every
 * gradient.adjoint span `fn` emits, in order.
 */
std::vector<std::string>
adjointForwardRoutes(const std::function<void()> &fn)
{
    setTraceEnabled(true);
    clearTrace();
    fn();
    const std::string json = traceEventsArrayJson();
    setTraceEnabled(false);
    clearTrace();
    const std::string key = "\"forward\": \"";
    std::vector<std::string> routes;
    for (size_t at = json.find(key); at != std::string::npos;
         at = json.find(key, at + 1)) {
        const size_t begin = at + key.size();
        routes.push_back(json.substr(begin, json.find('"', begin) - begin));
    }
    return routes;
}

double
maxAbsDiff(const std::vector<double> &a, const std::vector<double> &b)
{
    EXPECT_EQ(a.size(), b.size());
    double m = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        m = std::max(m, std::fabs(a[i] - b[i]));
    return m;
}

} // namespace

TEST(Gradient, ShiftMatchesFiniteDifferences_Ideal)
{
    const Fixture &fix = h2();
    ExpectationEngine ee(fix.prob.hamiltonian);
    ParameterShiftEngine engine(fix.prob.hamiltonian, fix.ansatz);
    auto params = testParams(fix.ansatz.nParams);

    auto g = engine.gradientStatevector(
        params,
        [&](const Statevector &psi, size_t) { return ee.energy(psi); });

    auto make = [&] {
        return std::make_unique<StatevectorBackend>(
            fix.ansatz.nQubits);
    };
    auto energy = [&](SimBackend &b, size_t) { return ee.energy(b); };
    auto fd =
        finiteDifferenceGradient(fix.ansatz, params, make, energy);
    EXPECT_LT(maxAbsDiff(g, fd), 1e-7);
    // The ideal mode's adjoint sweep, against the same reference.
    EXPECT_LT(maxAbsDiff(engine.gradientAdjoint(params), fd), 1e-7);
}

TEST(Gradient, AdjointMatchesParameterShift)
{
    uint64_t seed = 11;
    for (const Fixture *fix : {&h2(), &lih(), &beh2()}) {
        ExpectationEngine ee(fix->prob.hamiltonian);
        ParameterShiftEngine engine(fix->prob.hamiltonian,
                                    fix->ansatz);
        auto params = randomParams(fix->ansatz.nParams, seed++);
        auto adjoint = engine.gradientAdjoint(params);
        auto shift = engine.gradientStatevector(
            params, [&](const Statevector &psi, size_t) {
                return ee.energy(psi);
            });
        EXPECT_LT(maxAbsDiff(adjoint, shift), 1e-10)
            << fix->ansatz.nQubits << " qubits";
    }
}

TEST(Gradient, AdjointRepeatsBitForBitAtAnyWidthCap)
{
    // Same numbers call after call, and with sweeps capped to one
    // lane (a concurrency-N sweep job) as uncapped: the kernels'
    // chunking follows parallelThreads(), never the cap. The
    // 17-qubit problem puts the adjoint step's block reduction
    // (2^15 blocks) past 2x its grain, where chunk scheduling is
    // real.
    auto check = [](const PauliSum &h, const Ansatz &a) {
        ParameterShiftEngine engine(h, a);
        auto params = randomParams(a.nParams, 7);
        const auto first = engine.gradientAdjoint(params);
        EXPECT_EQ(engine.gradientAdjoint(params), first);
        ParallelWidthCap cap(1);
        EXPECT_EQ(engine.gradientAdjoint(params), first);
    };
    check(lih().prob.hamiltonian, lih().ansatz);
    auto [h, a] = randomProblem(17, 6, 13);
    check(h, a);
}

TEST(Gradient, IdealDriverDispatchesToAdjoint)
{
    const Fixture &fix = lih();
    auto params = randomParams(fix.ansatz.nParams, 9);
    VqeDriverOptions o;
    VqeDriver driver(
        fix.prob.hamiltonian, fix.ansatz, o,
        makeEstimationStrategy(
            "ideal",
            EstimationConfig{&fix.prob.hamiltonian, {}, {}, {}}));
    ParameterShiftEngine engine(fix.prob.hamiltonian, fix.ansatz,
                                o.gradient);
    EXPECT_EQ(driver.gradient(params), engine.gradientAdjoint(params));
}

TEST(Gradient, IdealDriverStartsFromThePreparedState)
{
    // energy(x) then gradient(x) reuses the state energy prepared and
    // gives the bits of a replaying sweep; a gradient at any other
    // point replays, so a stale state is never read.
    for (const Fixture *fix : {&lih(), &beh2()}) {
        const auto x1 = randomParams(fix->ansatz.nParams, 21);
        const auto x2 = randomParams(fix->ansatz.nParams, 22);
        VqeDriverOptions o;
        VqeDriver driver(
            fix->prob.hamiltonian, fix->ansatz, o,
            makeEstimationStrategy(
                "ideal",
                EstimationConfig{&fix->prob.hamiltonian, {}, {}, {}}));
        ParameterShiftEngine engine(fix->prob.hamiltonian, fix->ansatz,
                                    o.gradient);
        std::vector<double> g1, g2;
        const auto routes = adjointForwardRoutes([&] {
            driver.energy(x1);
            g1 = driver.gradient(x1);
            g2 = driver.gradient(x2);
        });
        EXPECT_EQ(routes,
                  (std::vector<std::string>{"reused", "replayed"}));
        EXPECT_EQ(g1, engine.gradientAdjoint(x1));
        EXPECT_EQ(g2, engine.gradientAdjoint(x2));
    }
}

TEST(Gradient, ShiftRoutesIgnoreThePreparedState)
{
    // The noisy and sampled routes read shifted states, never the
    // prepared one: a prior energy() leaves their gradients as they
    // are.
    const Fixture &fix = h2();
    const auto params = testParams(fix.ansatz.nParams);
    for (const char *mode : {"noisy", "sampled"}) {
        VqeDriverOptions o;
        o.noise = NoiseModel::paperDefault();
        o.sampling.shots = 4096;
        auto make = [&] {
            return makeEstimationStrategy(
                mode, EstimationConfig{&fix.prob.hamiltonian, o.noise,
                                       o.sampling, {}});
        };
        VqeDriver fresh(fix.prob.hamiltonian, fix.ansatz, o, make());
        VqeDriver prepared(fix.prob.hamiltonian, fix.ansatz, o, make());
        prepared.energy(params);
        EXPECT_EQ(prepared.gradient(params), fresh.gradient(params))
            << mode;
    }
}

TEST(Gradient, ShiftMatchesFiniteDifferences_Noisy)
{
    const Fixture &fix = h2();
    NoiseModel noise;
    noise.cnotDepolarizing = 1e-3;
    noise.singleQubitDepolarizing = 1e-4;
    ParameterShiftEngine engine(fix.prob.hamiltonian, fix.ansatz);
    auto params = testParams(fix.ansatz.nParams);

    auto g = engine.gradientNoisy(params, noise);

    auto make = [&] {
        return std::make_unique<DensityMatrixBackend>(
            fix.ansatz.nQubits, noise);
    };
    auto energy = [&](SimBackend &b, size_t) {
        return b.expectation(fix.prob.hamiltonian);
    };
    auto fd =
        finiteDifferenceGradient(fix.ansatz, params, make, energy);
    EXPECT_LT(maxAbsDiff(g, fd), 1e-7);
}

TEST(Gradient, PairDifferenceMatchesGenericReplay_Noisy)
{
    // The linear-superoperator difference sweep against literally
    // executing both shifted circuits through the backend.
    const Fixture &fix = h2();
    NoiseModel noise = NoiseModel::paperDefault();
    ParameterShiftEngine engine(fix.prob.hamiltonian, fix.ansatz);
    auto params = testParams(fix.ansatz.nParams);

    auto fast = engine.gradientNoisy(params, noise);
    auto slow = engine.gradient(
        params,
        [&] {
            return std::make_unique<DensityMatrixBackend>(
                fix.ansatz.nQubits, noise);
        },
        [&](SimBackend &b, size_t) {
            return b.expectation(fix.prob.hamiltonian);
        });
    EXPECT_LT(maxAbsDiff(fast, slow), 1e-12);
}

TEST(Gradient, BatchedEqualsSerialBitForBit)
{
    const Fixture &fix = lih();
    ExpectationEngine ee(fix.prob.hamiltonian);
    NoiseModel noise = NoiseModel::paperDefault();
    auto params = testParams(fix.ansatz.nParams);

    ParameterShiftEngine batched(fix.prob.hamiltonian, fix.ansatz);
    GradientOptions serialOpts;
    serialOpts.batched = false;
    ParameterShiftEngine serial(fix.prob.hamiltonian, fix.ansatz,
                                serialOpts);

    auto est = [&](const Statevector &psi, size_t) {
        return ee.energy(psi);
    };
    EXPECT_EQ(batched.gradientStatevector(params, est),
              serial.gradientStatevector(params, est));
    EXPECT_EQ(batched.gradientNoisy(params, noise),
              serial.gradientNoisy(params, noise));

    auto make = [&] {
        return std::make_unique<StatevectorBackend>(
            fix.ansatz.nQubits);
    };
    auto energy = [&](SimBackend &b, size_t) { return ee.energy(b); };
    EXPECT_EQ(batched.gradient(params, make, energy),
              serial.gradient(params, make, energy));
}

TEST(Gradient, BatchedEqualsSerialAtParallelKernelSizes)
{
    // The molecule fixtures are small enough that every kernel sweep
    // runs inline; this synthetic pair trips the chunked parallel
    // paths (16-qubit statevector, 8-qubit density matrix: both
    // 65536-element arrays, past 2x the parallel grain), pinning the
    // bit-for-bit guarantee where chunk scheduling is real.
    {
        auto [h, a] = randomProblem(16, 4, 3);
        ExpectationEngine ee(h);
        ParameterShiftEngine batched(h, a);
        GradientOptions so;
        so.batched = false;
        ParameterShiftEngine serial(h, a, so);
        std::vector<double> p(a.nParams, 0.15);
        auto est = [&](const Statevector &psi, size_t) {
            return ee.energy(psi);
        };
        EXPECT_EQ(batched.gradientStatevector(p, est),
                  serial.gradientStatevector(p, est));
    }
    {
        auto [h, a] = randomProblem(8, 3, 5);
        NoiseModel noise;
        noise.cnotDepolarizing = 1e-3;
        ParameterShiftEngine batched(h, a);
        GradientOptions so;
        so.batched = false;
        ParameterShiftEngine serial(h, a, so);
        std::vector<double> p(a.nParams, 0.15);
        EXPECT_EQ(batched.gradientNoisy(p, noise),
                  serial.gradientNoisy(p, noise));
    }
}

TEST(Gradient, PrefixSharingEqualsFullReplayBitForBit)
{
    const Fixture &fix = h2();
    ExpectationEngine ee(fix.prob.hamiltonian);
    NoiseModel noise = NoiseModel::paperDefault();
    auto params = testParams(fix.ansatz.nParams);

    ParameterShiftEngine shared(fix.prob.hamiltonian, fix.ansatz);
    GradientOptions noSnapshots;
    noSnapshots.maxPrefixBytes = 0; // force replay/streaming paths
    ParameterShiftEngine replay(fix.prob.hamiltonian, fix.ansatz,
                                noSnapshots);

    auto est = [&](const Statevector &psi, size_t) {
        return ee.energy(psi);
    };
    EXPECT_EQ(shared.gradientStatevector(params, est),
              replay.gradientStatevector(params, est));
    EXPECT_EQ(shared.gradientNoisy(params, noise),
              replay.gradientNoisy(params, noise));
}

TEST(Gradient, SampledGradientSeededAndBatchingInvariant)
{
    const Fixture &fix = h2();
    auto params = testParams(fix.ansatz.nParams);
    VqeDriverOptions o;
    o.sampling.shots = 4096;
    auto sampled = [&](const VqeDriverOptions &opts) {
        return makeEstimationStrategy(
            "sampled",
            EstimationConfig{&fix.prob.hamiltonian, opts.noise,
                             opts.sampling, {}});
    };

    VqeDriver d1(fix.prob.hamiltonian, fix.ansatz, o, sampled(o));
    VqeDriver d2(fix.prob.hamiltonian, fix.ansatz, o, sampled(o));
    VqeDriverOptions serial = o;
    serial.gradient.batched = false;
    VqeDriver d3(fix.prob.hamiltonian, fix.ansatz, serial,
                 sampled(serial));

    auto g1 = d1.gradient(params);
    auto g2 = d2.gradient(params);
    auto g3 = d3.gradient(params);
    EXPECT_EQ(g1, g2); // same seed -> identical draws
    EXPECT_EQ(g1, g3); // scheduling never leaks into the streams

    // A sampled gradient still points the right way.
    ExpectationEngine ee(fix.prob.hamiltonian);
    ParameterShiftEngine exact(fix.prob.hamiltonian, fix.ansatz);
    auto ref = exact.gradientStatevector(
        params,
        [&](const Statevector &psi, size_t) { return ee.energy(psi); });
    EXPECT_LT(maxAbsDiff(g1, ref), 0.5);
}

TEST(Gradient, UnrolledShiftsRebindTheSharedCacheEntry)
{
    if (!circuitCacheEnabled())
        GTEST_SKIP() << "QCC_COMPILE_CACHE=0 in the environment";
    const Fixture &fix = h2();
    NoiseModel noise = NoiseModel::paperDefault();
    auto params = testParams(fix.ansatz.nParams);

    // Prime the structure the way the noisy energy path does.
    DensityMatrixBackend backend(fix.ansatz.nQubits, noise);
    backend.applyAnsatz(fix.ansatz, params);

    ParameterShiftEngine engine(fix.prob.hamiltonian, fix.ansatz);
    const CacheStats before = globalCircuitCache().stats();
    engine.gradientNoisy(params, noise);
    const CacheStats after = globalCircuitCache().stats();
    // Every shifted compile is an angle rebind of the entry the
    // energy path created — no new synthesis.
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_GT(after.hits, before.hits);
}

TEST(Gradient, ShiftCountMatchesAnsatzStructure)
{
    const Fixture &fix = lih();
    ParameterShiftEngine engine(fix.prob.hamiltonian, fix.ansatz);
    EXPECT_EQ(engine.numShiftedEvaluations(),
              2 * fix.ansatz.rotations.size());
    EXPECT_EQ(engine.unrolledAnsatz().nParams,
              fix.ansatz.rotations.size());
    EXPECT_EQ(engine.unrolledAnsatz().hfMask, fix.ansatz.hfMask);
}

TEST(Gradient, DescentWithAnalyticGradientsReachesFci)
{
    const Fixture &fix = h2();
    const double exact = lanczosGroundEnergy(fix.prob.hamiltonian);
    for (const char *method : {"gd", "lbfgs"}) {
        VqeDriverOptions o;
        o.optimizer = optimizerRegistry().get(method)();
        o.maxIter = 300;
        VqeDriver driver(
            fix.prob.hamiltonian, fix.ansatz, o,
            makeEstimationStrategy(
                "ideal",
                EstimationConfig{&fix.prob.hamiltonian, {}, {}, {}}));
        VqeResult res = driver.run();
        EXPECT_NEAR(res.energy, exact, 1e-5) << method;
        EXPECT_TRUE(res.converged) << method;
        // The driver counted its shifted evaluations.
        EXPECT_GT(res.evals, 0);
    }
}

TEST(Gradient, WidthAndCountMismatchesFatal)
{
    const Fixture &fix = h2();
    PauliSum wrong(fix.ansatz.nQubits + 2);
    wrong.add(1.0, PauliString(fix.ansatz.nQubits + 2));
    EXPECT_DEATH(ParameterShiftEngine(wrong, fix.ansatz),
                 "width mismatch");

    ParameterShiftEngine engine(fix.prob.hamiltonian, fix.ansatz);
    ExpectationEngine ee(fix.prob.hamiltonian);
    std::vector<double> tooFew(fix.ansatz.nParams - 1, 0.0);
    EXPECT_DEATH(
        engine.gradientStatevector(
            tooFew,
            [&](const Statevector &psi, size_t) {
                return ee.energy(psi);
            }),
        "parameter count");
}
