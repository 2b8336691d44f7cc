/**
 * @file
 * Equivalence tests for the specialized simulator kernels: randomized
 * circuits and Pauli rotations checked against the generic dense
 * reference path, plus grouped-vs-termwise Hamiltonian expectation
 * agreement and the expectation width-check regression.
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include "circuit/circuit.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "pauli/grouping.hh"
#include "sim/density_matrix.hh"
#include "sim/fusion.hh"
#include "sim/kernels.hh"
#include "sim/simd.hh"
#include "sim/statevector.hh"
#include "vqe/expectation_engine.hh"

using namespace qcc;

namespace {

std::vector<cplx>
randomAmplitudes(unsigned n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<cplx> amp(size_t{1} << n);
    double norm2 = 0.0;
    for (auto &a : amp) {
        a = cplx(rng.gaussian(), rng.gaussian());
        norm2 += std::norm(a);
    }
    for (auto &a : amp)
        a /= std::sqrt(norm2);
    return amp;
}

Statevector
randomState(unsigned n, uint64_t seed)
{
    Statevector sv(n);
    sv.amplitudes() = randomAmplitudes(n, seed);
    return sv;
}

PauliString
randomString(unsigned n, Rng &rng, bool allow_identity = true)
{
    for (;;) {
        uint64_t mask = (n == 64) ? ~0ull : ((1ull << n) - 1);
        PauliString p(n, rng.index(1ull << n) & mask,
                      rng.index(1ull << n) & mask);
        if (allow_identity || !p.isIdentity())
            return p;
    }
}

void
expectClose(const std::vector<cplx> &a, const std::vector<cplx> &b,
            const std::string &what, double tol = 1e-12)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (size_t i = 0; i < a.size(); ++i)
        ASSERT_NEAR(std::abs(a[i] - b[i]), 0.0, tol)
            << what << " at index " << i;
}

/** Pin the SIMD dispatch for one scope, restoring it on exit. */
struct SimdGuard {
    bool was;
    explicit SimdGuard(bool on) : was(kern::simdActive())
    {
        kern::setSimdEnabled(on);
    }
    ~SimdGuard() { kern::setSimdEnabled(was); }
};

/** Random circuit over all gate kinds (same mix as the dense test). */
Circuit
randomCircuit(unsigned n, int n_gates, Rng &rng)
{
    Circuit c(n);
    const GateKind oneQ[] = {GateKind::X,  GateKind::Y,  GateKind::Z,
                             GateKind::H,  GateKind::S,  GateKind::Sdg,
                             GateKind::RX, GateKind::RY, GateKind::RZ};
    for (int g = 0; g < n_gates; ++g) {
        if (n >= 2 && rng.uniform() < 0.3) {
            unsigned a = unsigned(rng.index(n));
            unsigned b = unsigned(rng.index(n - 1));
            if (b >= a)
                ++b;
            if (rng.coin())
                c.cnot(a, b);
            else
                c.swap(a, b);
        } else {
            GateKind k = oneQ[rng.index(std::size(oneQ))];
            c.push({k, unsigned(rng.index(n)), 0,
                    rng.uniform(-3.0, 3.0)});
        }
    }
    return c;
}

} // namespace

TEST(Kernels, Apply1qMatchesGeneric)
{
    Rng rng(7);
    for (unsigned n : {1u, 3u, 6u}) {
        for (int rep = 0; rep < 8; ++rep) {
            cplx u[4];
            for (auto &v : u)
                v = cplx(rng.gaussian(), rng.gaussian());
            const unsigned q = unsigned(rng.index(n));
            auto fast = randomAmplitudes(n, 100 + rep);
            auto ref = fast;
            kern::apply1q(fast.data(), fast.size(), q, u);
            kern::apply1qGeneric(ref.data(), ref.size(), q, u);
            expectClose(fast, ref, "apply1q n=" + std::to_string(n));
        }
    }
}

TEST(Kernels, PauliRotationMatchesGeneric)
{
    Rng rng(11);
    for (unsigned n : {1u, 2u, 5u, 9u}) {
        for (int rep = 0; rep < 20; ++rep) {
            PauliString p = randomString(n, rng);
            const double theta = rng.uniform(-3.0, 3.0);
            auto fast = randomAmplitudes(n, 1000 * n + rep);
            auto ref = fast;
            kern::applyPauliRotation(fast.data(), fast.size(),
                                     p.xMask(), p.zMask(), theta);
            kern::applyPauliRotationGeneric(ref.data(), ref.size(),
                                            p.xMask(), p.zMask(),
                                            theta);
            expectClose(fast, ref, "rotation " + p.str());
        }
    }
}

TEST(Kernels, ExpectationMatchesGeneric)
{
    Rng rng(13);
    for (unsigned n : {1u, 4u, 8u}) {
        auto amp = randomAmplitudes(n, 55 + n);
        for (int rep = 0; rep < 20; ++rep) {
            PauliString p = randomString(n, rng);
            double fast = kern::expectation(amp.data(), amp.size(),
                                            p.xMask(), p.zMask());
            double ref = kern::expectationGeneric(
                amp.data(), amp.size(), p.xMask(), p.zMask());
            EXPECT_NEAR(fast, ref, 1e-12) << p.str();
        }
    }
}

TEST(Kernels, RandomCircuitMatchesDenseApply)
{
    // Every specialized gate kernel (diagonal, X, CX, SWAP) against
    // the generic dense 2x2 path / explicit permutation reference.
    Rng rng(17);
    const unsigned n = 6;
    for (int rep = 0; rep < 6; ++rep) {
        Statevector fast = randomState(n, 900 + rep);
        std::vector<cplx> ref = fast.amplitudes();

        std::vector<Gate> gates;
        const GateKind oneQ[] = {GateKind::X,   GateKind::Y,
                                 GateKind::Z,   GateKind::H,
                                 GateKind::S,   GateKind::Sdg,
                                 GateKind::RX,  GateKind::RY,
                                 GateKind::RZ};
        for (int g = 0; g < 40; ++g) {
            if (rng.uniform() < 0.3) {
                unsigned a = unsigned(rng.index(n));
                unsigned b = unsigned(rng.index(n - 1));
                if (b >= a)
                    ++b;
                gates.push_back({rng.coin() ? GateKind::CNOT
                                            : GateKind::SWAP,
                                 a, b});
            } else {
                GateKind k = oneQ[rng.index(std::size(oneQ))];
                gates.push_back({k, unsigned(rng.index(n)), 0,
                                 rng.uniform(-3.0, 3.0)});
            }
        }

        for (const auto &g : gates) {
            fast.applyGate(g);
            // Reference path: dense 2x2 for 1q kinds, explicit
            // full-scan permutations for CNOT/SWAP (the seed's
            // loops).
            if (g.kind == GateKind::CNOT) {
                const uint64_t cb = 1ull << g.q0, tb = 1ull << g.q1;
                for (size_t b = 0; b < ref.size(); ++b)
                    if ((b & cb) && !(b & tb))
                        std::swap(ref[b], ref[b | tb]);
            } else if (g.kind == GateKind::SWAP) {
                const uint64_t ab = 1ull << g.q0, bb = 1ull << g.q1;
                for (size_t b = 0; b < ref.size(); ++b)
                    if ((b & ab) && !(b & bb))
                        std::swap(ref[b ^ ab ^ bb], ref[b]);
            } else {
                cplx u[4];
                gateMatrix(g.kind, g.angle, u);
                kern::apply1qGeneric(ref.data(), ref.size(), g.q0, u);
            }
        }
        expectClose(fast.amplitudes(), ref, "random circuit");
    }
}

namespace {

/** Chunk edges over [0, blocks), odd and single-block chunks
 *  included (blocks >= 32). */
std::vector<size_t>
splitEdges(size_t blocks)
{
    std::vector<size_t> edges = {0,          1,          2,
                                 7,          8,          9,
                                 blocks / 3, blocks / 2 + 1,
                                 blocks - 1, blocks};
    std::sort(edges.begin(), edges.end());
    return edges;
}

} // namespace

TEST(Kernels, ParallelSweepMatchesSerial)
{
    // At n = 12 the kernel entry points run inline (the pair sweeps
    // stay under 2 * kParallelGrain), so drive the range bodies
    // directly: a split of the block range at arbitrary (odd
    // included) boundaries must write exactly the bits of one
    // whole-range call, on both dispatch paths. The expectation and
    // overlap partials regroup the sum, so they agree to rounding
    // only.
    const unsigned n = 12;
    const size_t dim = size_t{1} << n;
    const auto base = randomAmplitudes(n, 77);
    const auto other = randomAmplitudes(n, 78);
    Rng rng(19);
    const double c = std::cos(0.37);
    const cplx v(0.3, -std::sin(0.37));
    const cplx w(0.7, -0.2);
    for (bool simd : {false, true}) {
        SimdGuard g(simd);
        for (uint64_t x : {uint64_t{1}, uint64_t{0x3}, uint64_t{0x4a},
                           uint64_t{0x801}, uint64_t{0xf0f}}) {
            const uint64_t z = rng.index(dim);
            const size_t blocks = kern::ranges::pairBlocks(dim, x);
            const std::vector<size_t> edges = splitEdges(blocks);
            const std::string what =
                std::string(simd ? "simd" : "scalar") +
                " x=" + std::to_string(x);

            auto whole = base, split = base;
            kern::ranges::pauliRotPairs(whole.data(), 0, blocks, x, z, c,
                                        v.real(), v.imag());
            const double sumWhole = kern::ranges::expectPairs(
                base.data(), 0, blocks, x, z, true);
            double sumSplit = 0.0;
            for (size_t i = 0; i + 1 < edges.size(); ++i) {
                kern::ranges::pauliRotPairs(split.data(), edges[i],
                                            edges[i + 1], x, z, c,
                                            v.real(), v.imag());
                sumSplit += kern::ranges::expectPairs(
                    base.data(), edges[i], edges[i + 1], x, z, true);
            }
            EXPECT_EQ(std::memcmp(whole.data(), split.data(),
                                  dim * sizeof(cplx)),
                      0)
                << "rotation " << what;
            EXPECT_NEAR(sumSplit, sumWhole, 1e-13) << "expectation " << what;

            // The adjoint step over the same split: both states the
            // bytes of one whole-range call (and lambda those of the
            // rotation above), the overlap partials to rounding.
            auto lamWhole = base, chiWhole = other;
            auto lamSplit = base, chiSplit = other;
            const cplx overlapWhole = kern::ranges::adjointPairs(
                lamWhole.data(), chiWhole.data(), 0, blocks, x, z, c,
                v.real(), v.imag());
            cplx overlapSplit = 0.0;
            for (size_t i = 0; i + 1 < edges.size(); ++i)
                overlapSplit += kern::ranges::adjointPairs(
                    lamSplit.data(), chiSplit.data(), edges[i],
                    edges[i + 1], x, z, c, v.real(), v.imag());
            EXPECT_EQ(std::memcmp(lamWhole.data(), whole.data(),
                                  dim * sizeof(cplx)),
                      0)
                << "adjointPairs vs rotation " << what;
            EXPECT_EQ(std::memcmp(lamWhole.data(), lamSplit.data(),
                                  dim * sizeof(cplx)),
                      0)
                << "adjointPairs lambda " << what;
            EXPECT_EQ(std::memcmp(chiWhole.data(), chiSplit.data(),
                                  dim * sizeof(cplx)),
                      0)
                << "adjointPairs chi " << what;
            EXPECT_NEAR(std::abs(overlapSplit - overlapWhole), 0.0, 1e-13)
                << "adjointPairs overlap " << what;

            // H·psi over the basis ranges of aligned blocks (b, b+1).
            std::vector<cplx> outWhole(dim), outSplit(dim);
            kern::ranges::accumulatePauli(base.data(), outWhole.data(), 0,
                                          dim, x, z, w);
            const std::vector<size_t> halves = splitEdges(dim / 2);
            for (size_t i = 0; i + 1 < halves.size(); ++i)
                kern::ranges::accumulatePauli(
                    base.data(), outSplit.data(), 2 * halves[i],
                    2 * halves[i + 1], x, z, w);
            EXPECT_EQ(std::memcmp(outWhole.data(), outSplit.data(),
                                  dim * sizeof(cplx)),
                      0)
                << "accumulatePauli " << what;
        }
    }

    // The kernel entry point against the generic oracle.
    auto amp = base, ref = base;
    const PauliString p = randomString(n, rng, false);
    kern::applyPauliRotation(amp.data(), amp.size(), p.xMask(),
                             p.zMask(), 0.37);
    kern::applyPauliRotationGeneric(ref.data(), ref.size(), p.xMask(),
                                    p.zMask(), 0.37);
    expectClose(amp, ref, "rotation");

    // parallelReduce itself, chunked by a grain far below the size.
    const double e = parallelReduce(
        0, amp.size(), 0.0,
        [&](size_t lo, size_t hi) {
            double s = 0;
            for (size_t i = lo; i < hi; ++i)
                s += std::norm(amp[i]);
            return s;
        },
        /*grain=*/64);
    EXPECT_NEAR(e, 1.0, 1e-10);
}

TEST(Kernels, ForkedChildSweepsInlineAndExits)
{
    // A child forked after the pool ran (a gtest death test, say)
    // inherits the pool object but none of its workers. Its sweeps
    // must run inline, with the same chunking and so the same bits,
    // and its exit() must not wait on the parent's workers. Each
    // child here sweeps, checks, and must exit within the deadline;
    // the parent sweeps on the pool right before every fork.
    auto amp = randomAmplitudes(17, 5); // past 2x the parallel grain
    const double ref =
        kern::expectation(amp.data(), amp.size(), 0, 0x15);
    for (int rep = 0; rep < 40; ++rep) {
        ASSERT_EQ(kern::expectation(amp.data(), amp.size(), 0, 0x15),
                  ref);
        const pid_t pid = fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            const double e =
                kern::expectation(amp.data(), amp.size(), 0, 0x15);
            std::exit(e == ref ? 0 : 2);
        }
        int status = 0;
        pid_t done = 0;
        for (int ms = 0; ms < 10000 && done == 0; ++ms) {
            done = waitpid(pid, &status, WNOHANG);
            if (done == 0)
                usleep(1000);
        }
        if (done == 0) {
            kill(pid, SIGKILL);
            waitpid(pid, &status, 0);
            FAIL() << "forked child hung at exit, rep " << rep;
        }
        ASSERT_TRUE(WIFEXITED(status)) << "rep " << rep;
        ASSERT_EQ(WEXITSTATUS(status), 0) << "rep " << rep;
    }
}

TEST(Kernels, GroupedExpectationMatchesTermwise)
{
    Rng rng(23);
    for (unsigned n : {3u, 6u}) {
        PauliSum h(n);
        for (int t = 0; t < 25; ++t)
            h.add(rng.gaussian(), randomString(n, rng));
        h.simplify();

        Statevector psi = randomState(n, 40 + n);
        ExpectationEngine engine(h);
        EXPECT_GT(engine.numGroups(), 0u);
        EXPECT_LE(engine.numGroups(), h.numTerms());
        EXPECT_NEAR(engine.energy(psi), psi.expectation(h), 1e-10)
            << "n=" << n;
    }
}

TEST(Kernels, GroupedExpectationDiagonalFamilyFastPath)
{
    // An all-diagonal Hamiltonian needs no scratch rotation at all.
    PauliSum h(4);
    h.add(0.5, PauliString::fromString("ZZII"));
    h.add(-0.25, PauliString::fromString("IZZI"));
    h.add(1.5, PauliString(4));
    Statevector psi = randomState(4, 3);
    ExpectationEngine engine(h);
    EXPECT_EQ(engine.numGroups(), 1u);
    EXPECT_NEAR(engine.energy(psi), psi.expectation(h), 1e-12);
}

TEST(Kernels, ExpectationWidthMismatchPanics)
{
    // Regression: the PauliString overload used to silently accept a
    // width-mismatched string (reading out of range).
    // Pool workers may be alive from earlier tests; fork+exec style
    // keeps the death test safe with threads running.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Statevector sv(3);
    PauliString wide = PauliString::fromString("ZZZZZ");
    EXPECT_DEATH(sv.expectation(wide), "width mismatch");
}

// ---------------------------------------------------------------------
// SIMD dispatch: vector path vs forced-scalar path vs generic oracle.
// On machines without AVX2 both dispatches run the scalar bodies and
// the checks degenerate to (still valid) scalar-vs-generic tests.
// ---------------------------------------------------------------------

TEST(Simd, Apply1qMatchesScalarAndGeneric)
{
    Rng rng(31);
    for (unsigned n : {1u, 2u, 3u, 5u, 11u}) {
        for (int rep = 0; rep < 6; ++rep) {
            cplx u[4];
            for (auto &v : u)
                v = cplx(rng.gaussian(), rng.gaussian());
            for (unsigned q = 0; q < n; ++q) {
                auto ref = randomAmplitudes(n, 7000 + 64 * n + rep);
                auto vec = ref;
                auto sca = ref;
                kern::apply1qGeneric(ref.data(), ref.size(), q, u);
                {
                    SimdGuard g(true);
                    kern::apply1q(vec.data(), vec.size(), q, u);
                }
                {
                    SimdGuard g(false);
                    kern::apply1q(sca.data(), sca.size(), q, u);
                }
                const std::string what = "apply1q n=" +
                    std::to_string(n) + " q=" + std::to_string(q);
                expectClose(vec, ref, "simd " + what);
                expectClose(sca, ref, "scalar " + what);
            }
        }
    }
}

TEST(Simd, PauliRotationMatchesScalarAndGeneric)
{
    Rng rng(37);
    // Odd widths and n=1 stress the vector head/tail handling; the
    // random strings cover diagonal (x=0), pivot=1, and pivot>=2.
    for (unsigned n : {1u, 2u, 3u, 7u, 13u}) {
        for (int rep = 0; rep < 16; ++rep) {
            PauliString p = randomString(n, rng);
            const double theta = rng.uniform(-3.0, 3.0);
            auto ref = randomAmplitudes(n, 8000 + 64 * n + rep);
            auto vec = ref;
            auto sca = ref;
            kern::applyPauliRotationGeneric(ref.data(), ref.size(),
                                            p.xMask(), p.zMask(),
                                            theta);
            {
                SimdGuard g(true);
                kern::applyPauliRotation(vec.data(), vec.size(),
                                         p.xMask(), p.zMask(), theta);
            }
            {
                SimdGuard g(false);
                kern::applyPauliRotation(sca.data(), sca.size(),
                                         p.xMask(), p.zMask(), theta);
            }
            expectClose(vec, ref, "simd rotation " + p.str());
            expectClose(sca, ref, "scalar rotation " + p.str());
        }
    }
}

TEST(Simd, ExpectationMatchesScalarAndGeneric)
{
    Rng rng(41);
    for (unsigned n : {1u, 3u, 5u, 13u}) {
        auto amp = randomAmplitudes(n, 90 + n);
        for (int rep = 0; rep < 16; ++rep) {
            PauliString p = randomString(n, rng);
            const double ref = kern::expectationGeneric(
                amp.data(), amp.size(), p.xMask(), p.zMask());
            double vec, sca;
            {
                SimdGuard g(true);
                vec = kern::expectation(amp.data(), amp.size(),
                                        p.xMask(), p.zMask());
            }
            {
                SimdGuard g(false);
                sca = kern::expectation(amp.data(), amp.size(),
                                        p.xMask(), p.zMask());
            }
            EXPECT_NEAR(vec, ref, 1e-12) << "simd " << p.str();
            EXPECT_NEAR(sca, ref, 1e-12) << "scalar " << p.str();
        }
    }
}

namespace {

/**
 * One x mask of every class the pair kernels tell apart, kept to n
 * qubits: x = 0, x == 1 (the partner block is the block itself), x
 * with bit 0 set and a higher bit (0b11, 0b101, 0b1001, random),
 * lowest set bit at qubit 1, and lowest set bit at qubit >= 2.
 */
std::vector<uint64_t>
xMaskClasses(unsigned n, Rng &rng)
{
    const uint64_t mask = (uint64_t{1} << n) - 1;
    const uint64_t r = rng.index(uint64_t{1} << n);
    std::vector<uint64_t> xs = {0, 1, 0b11, 0b101, 0b1001,
                                (r | 1) & mask, ((r << 1) | 2) & mask,
                                ((r << 2) | 4) & mask};
    std::vector<uint64_t> kept;
    for (uint64_t x : xs)
        if ((x & ~mask) == 0)
            kept.push_back(x);
    return kept;
}

} // namespace

TEST(Simd, PauliPairKernelsCoverEveryXClass)
{
    // Rotation, expectation and H·psi term on the vector path, the
    // forced-scalar path and the generic oracle, for every x class.
    Rng rng(53);
    for (unsigned n : {1u, 2u, 3u, 7u, 13u}) {
        const auto base = randomAmplitudes(n, 1300 + n);
        const size_t dim = base.size();
        for (uint64_t x : xMaskClasses(n, rng)) {
            for (int rep = 0; rep < 2; ++rep) {
                const uint64_t z = rng.index(uint64_t{1} << n);
                const double theta = rng.uniform(-3.0, 3.0);
                const cplx w(rng.gaussian(), rng.gaussian());
                const std::string what = "n=" + std::to_string(n) +
                                         " x=" + std::to_string(x) +
                                         " z=" + std::to_string(z);

                auto rotRef = base;
                kern::applyPauliRotationGeneric(rotRef.data(), dim, x,
                                                z, theta);
                const double expRef =
                    kern::expectationGeneric(base.data(), dim, x, z);
                std::vector<cplx> accRef(base.rbegin(), base.rend());
                kern::accumulatePauliGeneric(base.data(), dim, x, z, w,
                                             accRef.data());
                for (bool simd : {true, false}) {
                    SimdGuard g(simd);
                    const std::string path = simd ? "simd " : "scalar ";
                    auto rot = base;
                    kern::applyPauliRotation(rot.data(), dim, x, z,
                                             theta);
                    expectClose(rot, rotRef, path + "rotation " + what);
                    EXPECT_NEAR(kern::expectation(base.data(), dim, x, z),
                                expRef, 1e-12)
                        << path << "expectation " << what;
                    std::vector<cplx> acc(base.rbegin(), base.rend());
                    kern::accumulatePauli(base.data(), dim, x, z, w,
                                          acc.data());
                    expectClose(acc, accRef,
                                path + "accumulatePauli " + what);
                }

                // The H·psi range bodies over odd [lo, hi) against the
                // plain definition of the partial update.
                const size_t lo = dim > 2 ? 1 : 0;
                const size_t hi = dim > 2 ? dim - 1 : dim;
                std::vector<cplx> part(dim), rv(dim), rs(dim);
                for (size_t b = lo; b < hi; ++b)
                    part[b] = (std::popcount(z & b) & 1 ? -w : w) *
                              base[b ^ x];
                {
                    SimdGuard g(true);
                    kern::ranges::accumulatePauli(base.data(), rv.data(),
                                                  lo, hi, x, z, w);
                }
                kern::ranges::accumulatePauliScalar(
                    base.data(), rs.data(), lo, hi, x, z, w);
                expectClose(rv, part, "simd range " + what);
                expectClose(rs, part, "scalar range " + what);
            }
        }
    }
}

TEST(Simd, AdjointStepCoversEveryXClass)
{
    // The fused adjoint step on the vector path and the forced-scalar
    // path: both states must be the bytes of two applyPauliRotation
    // calls on the same path, and the overlap and the states must
    // match the oracle (pauliOverlapGeneric, then two
    // applyPauliRotationGeneric calls) for every x class.
    Rng rng(47);
    for (unsigned n : {1u, 2u, 3u, 7u, 13u}) {
        const auto lam = randomAmplitudes(n, 500 + n);
        const auto chi = randomAmplitudes(n, 600 + n);
        const size_t dim = lam.size();
        for (uint64_t x : xMaskClasses(n, rng)) {
            for (int rep = 0; rep < 2; ++rep) {
                const uint64_t z = rng.index(uint64_t{1} << n);
                const double theta = rng.uniform(-3.0, 3.0);
                const std::string what = "n=" + std::to_string(n) +
                                         " x=" + std::to_string(x) +
                                         " z=" + std::to_string(z);

                const cplx overlapRef = kern::pauliOverlapGeneric(
                    lam.data(), chi.data(), dim, x, z);
                auto lamRef = lam, chiRef = chi;
                kern::applyPauliRotationGeneric(lamRef.data(), dim, x,
                                                z, theta);
                kern::applyPauliRotationGeneric(chiRef.data(), dim, x,
                                                z, theta);
                for (bool simd : {true, false}) {
                    SimdGuard g(simd);
                    const std::string path = simd ? "simd " : "scalar ";
                    auto l = lam, h = chi;
                    const cplx o = kern::adjointStep(l.data(), h.data(),
                                                     dim, x, z, theta);
                    auto lRot = lam, hRot = chi;
                    kern::applyPauliRotation(lRot.data(), dim, x, z,
                                             theta);
                    kern::applyPauliRotation(hRot.data(), dim, x, z,
                                             theta);
                    EXPECT_EQ(std::memcmp(l.data(), lRot.data(),
                                          dim * sizeof(cplx)),
                              0)
                        << path << "lambda " << what;
                    EXPECT_EQ(std::memcmp(h.data(), hRot.data(),
                                          dim * sizeof(cplx)),
                              0)
                        << path << "chi " << what;
                    EXPECT_NEAR(std::abs(o - overlapRef), 0.0, 1e-12)
                        << path << "overlap " << what;
                    expectClose(l, lamRef, path + "lambda " + what);
                    expectClose(h, chiRef, path + "chi " + what);
                }
            }
        }
    }
}

TEST(Simd, DiagonalGroupExpectationMatchesScalar)
{
    Rng rng(43);
    for (unsigned n : {1u, 3u, 6u, 13u}) {
        auto amp = randomAmplitudes(n, 300 + n);
        const uint64_t mask = (1ull << n) - 1;
        // Term counts around the AVX2 4-probability quad boundary.
        for (size_t terms : {1u, 3u, 24u}) {
            std::vector<double> w;
            std::vector<uint64_t> z;
            for (size_t t = 0; t < terms; ++t) {
                w.push_back(rng.gaussian());
                z.push_back(rng.index(1ull << n) & mask);
            }
            // Scalar oracle straight from the definition.
            double ref = 0.0;
            for (size_t b = 0; b < amp.size(); ++b) {
                const double n2 = std::norm(amp[b]);
                for (size_t t = 0; t < terms; ++t)
                    ref += (std::popcount(z[t] & b) & 1 ? -w[t]
                                                        : w[t]) *
                           n2;
            }
            double vec, sca;
            {
                SimdGuard g(true);
                vec = kern::diagonalGroupExpectation(
                    amp.data(), amp.size(), w.data(), z.data(),
                    terms);
            }
            {
                SimdGuard g(false);
                sca = kern::diagonalGroupExpectation(
                    amp.data(), amp.size(), w.data(), z.data(),
                    terms);
            }
            EXPECT_NEAR(vec, ref, 1e-12)
                << "simd n=" << n << " terms=" << terms;
            EXPECT_NEAR(sca, ref, 1e-12)
                << "scalar n=" << n << " terms=" << terms;
        }
    }
}

// ---------------------------------------------------------------------
// Gate fusion + cache-blocked execution vs plain per-gate replay.
// ---------------------------------------------------------------------

TEST(Fusion, FusedCircuitMatchesPerGate)
{
    Rng rng(47);
    // n=14 exceeds the execution block width, so high-bit 1q gates,
    // block-selecting CNOT controls, and the segment machinery all
    // run; n=1 and odd widths cover the degenerate ends.
    for (unsigned n : {1u, 2u, 5u, 14u}) {
        const int reps = n >= 14 ? 2 : 5;
        for (int rep = 0; rep < reps; ++rep) {
            Circuit c = randomCircuit(n, n >= 14 ? 120 : 60, rng);
            Statevector ref = randomState(n, 500 + 16 * n + rep);
            Statevector fusedV(n), fusedS(n);
            fusedV.amplitudes() = ref.amplitudes();
            fusedS.amplitudes() = ref.amplitudes();
            {
                SimdGuard g(false);
                ref.applyCircuit(c, false);
                fusedS.applyCircuit(c, true);
            }
            {
                SimdGuard g(true);
                fusedV.applyCircuit(c, true);
            }
            expectClose(fusedS.amplitudes(), ref.amplitudes(),
                        "fused scalar n=" + std::to_string(n));
            expectClose(fusedV.amplitudes(), ref.amplitudes(),
                        "fused simd n=" + std::to_string(n));
        }
    }
}

TEST(Fusion, DiagonalRunsCoalesce)
{
    // A long run of commuting diagonal gates (with CNOTs whose
    // controls sit on the diagonal qubits interleaved) must fuse into
    // far fewer ops and still match per-gate replay.
    Circuit c(5);
    for (int pass = 0; pass < 3; ++pass) {
        for (unsigned q = 0; q < 5; ++q) {
            c.z(q);
            c.s(q);
            c.rz(q, 0.2 + 0.1 * q);
        }
        c.cnot(0, 4); // diag on control 0 commutes through
    }
    FusedProgram p = fuseCircuit(c);
    EXPECT_LT(p.ops.size(), c.size() / 3);

    Statevector a = randomState(5, 77), b(5);
    b.amplitudes() = a.amplitudes();
    a.applyCircuit(c, false);
    b.applyCircuit(c, true);
    expectClose(b.amplitudes(), a.amplitudes(), "diag coalesce");
}

TEST(Fusion, OneQubitRunsMerge)
{
    // RZ-RY-RZ Euler blocks per qubit collapse to one matrix each.
    Circuit c(4);
    for (unsigned q = 0; q < 4; ++q) {
        c.rz(q, 0.3);
        c.ry(q, 0.5);
        c.rz(q, -0.2);
        c.h(q);
    }
    FusedProgram p = fuseCircuit(c);
    EXPECT_EQ(p.ops.size(), 4u);

    Statevector a = randomState(4, 88), b(4);
    b.amplitudes() = a.amplitudes();
    a.applyCircuit(c, false);
    b.applyCircuit(c, true);
    expectClose(b.amplitudes(), a.amplitudes(), "1q merge");
}

TEST(Fusion, DensityMatrixFusedMatchesPerGate)
{
    Rng rng(53);
    const NoiseModel noiseless;
    for (int rep = 0; rep < 3; ++rep) {
        Circuit c = randomCircuit(4, 40, rng);
        DensityMatrix a(4), b(4);
        // Evolve both away from the basis state first so the check
        // sees a dense matrix.
        Circuit warm = randomCircuit(4, 10, rng);
        a.applyCircuit(warm, noiseless, false);
        b.vectorized() = a.vectorized();
        a.applyCircuit(c, noiseless, false);
        b.applyCircuit(c, noiseless, true);
        expectClose(b.vectorized(), a.vectorized(), "dm fused");
        EXPECT_NEAR(b.trace(), 1.0, 1e-10);
    }
}

TEST(Fusion, RotatedGroupExpectationMatchesCopyPath)
{
    Rng rng(59);
    // n=14 with low rotations exercises the zero-copy blocked sweep;
    // adding a rotation above the block width forces the scratch-copy
    // path. n=5 runs the single-block case.
    for (unsigned n : {5u, 14u}) {
        auto amp = randomAmplitudes(n, 600 + n);
        const uint64_t mask = (1ull << n) - 1;
        for (bool highRotation : {false, true}) {
            if (highRotation && n < 14)
                continue;
            std::vector<std::pair<unsigned, std::array<cplx, 4>>>
                rots;
            std::vector<unsigned> qs = {0, 2, unsigned(n - 1)};
            if (!highRotation && n >= 14)
                qs = {0, 2, 7};
            for (unsigned q : qs) {
                std::array<cplx, 4> u;
                basisChangeMatrix(rng.coin() ? PauliOp::X
                                             : PauliOp::Y,
                                  u.data());
                rots.emplace_back(q, u);
            }
            std::vector<double> w;
            std::vector<uint64_t> z;
            for (int t = 0; t < 12; ++t) {
                w.push_back(rng.gaussian());
                z.push_back(rng.index(1ull << n) & mask);
            }
            // Oracle: rotate a full copy, then the plain group sweep.
            auto copy = amp;
            for (const auto &[q, u] : rots)
                kern::apply1q(copy.data(), copy.size(), q, u.data());
            const double ref = kern::diagonalGroupExpectation(
                copy.data(), copy.size(), w.data(), z.data(),
                z.size());
            const double got = rotatedGroupExpectation(
                amp.data(), amp.size(), rots, w.data(), z.data(),
                z.size());
            EXPECT_NEAR(got, ref, 1e-11)
                << "n=" << n << " high=" << highRotation;
        }
    }
}

TEST(Fusion, EngineEnergyAgreesWithFusionOff)
{
    // The ExpectationEngine's fused rotated-family sweep against the
    // scratch-copy path on the same random Hamiltonian and state.
    Rng rng(61);
    PauliSum h(6);
    for (int t = 0; t < 40; ++t)
        h.add(rng.gaussian(), randomString(6, rng));
    h.simplify();
    Statevector psi = randomState(6, 99);
    ExpectationEngine engine(h);
    const bool was = fusionEnabled();
    setFusionEnabled(true);
    const double fused = engine.energy(psi);
    setFusionEnabled(false);
    const double plain = engine.energy(psi);
    setFusionEnabled(was);
    EXPECT_NEAR(fused, plain, 1e-11);
    EXPECT_NEAR(fused, psi.expectation(h), 1e-10);
}

// ---------------------------------------------------------------------
// Operand validation at the applyCircuit boundary.
// ---------------------------------------------------------------------

TEST(Validation, WidthMismatchThrowsSimError)
{
    Statevector sv(3);
    Circuit c(4);
    c.h(0);
    try {
        sv.applyCircuit(c);
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("width"),
                  std::string::npos)
            << e.what();
        EXPECT_EQ(e.issue().gateIndex, -1);
    }
}

TEST(Validation, OutOfRangeOperandThrowsWithGateIndex)
{
    Statevector sv(3);
    Circuit c(3);
    c.h(0);
    c.cnot(0, 1);
    c.gates()[1].q1 = 9; // corrupt the CNOT target past the register
    try {
        sv.applyCircuit(c);
        FAIL() << "expected SimError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.issue().gateIndex, 1);
        EXPECT_NE(std::string(e.what()).find("gate 1"),
                  std::string::npos)
            << e.what();
    }
    // The state must be untouched: validation precedes execution.
    EXPECT_NEAR(std::abs(sv.amplitudes()[0]), 1.0, 1e-15);
}

TEST(Validation, IdenticalTwoQubitOperandsThrow)
{
    Statevector sv(3);
    Circuit c(3);
    c.cnot(0, 1);
    c.gates()[0].q1 = 0;
    EXPECT_THROW(sv.applyCircuit(c), SimError);
}

TEST(Validation, DensityMatrixValidatesToo)
{
    DensityMatrix rho(3);
    Circuit wide(5);
    wide.h(0);
    EXPECT_THROW(rho.applyCircuit(wide), SimError);

    Circuit c(3);
    c.swap(0, 2);
    c.gates()[0].q0 = 7;
    EXPECT_THROW(rho.applyCircuit(c), SimError);

    std::optional<SimIssue> issue = validateCircuit(c, 3);
    ASSERT_TRUE(issue.has_value());
    EXPECT_EQ(issue->gateIndex, 0);
}
