/**
 * @file
 * Unit tests for Algorithm 1 (parameter importance estimation):
 * score arithmetic, weighting by Hamiltonian coefficients, the
 * batched kernel against the one-string reference on both SIMD
 * paths, and the semantic property that importance predicts energy
 * sensitivity.
 */

#include <cmath>
#include <cstring>
#include <random>
#include <gtest/gtest.h>

#include "ansatz/compression.hh"
#include "ansatz/importance.hh"
#include "chem/molecules.hh"
#include "ferm/hamiltonian.hh"
#include "sim/simd.hh"
#include "vqe/vqe.hh"

using namespace qcc;

namespace {

struct SimdGuard
{
    bool was;
    explicit SimdGuard(bool on) : was(kern::simdActive())
    {
        kern::setSimdEnabled(on);
    }
    ~SimdGuard() { kern::setSimdEnabled(was); }
};

/** Algorithm 1 written out pair by pair, as the paper states it. */
double
textbookScore(const PauliString &pa, const PauliSum &h)
{
    double score = 0.0;
    for (const auto &term : h.terms())
        score += std::ldexp(std::abs(term.coeff),
                            -int(importanceDecay(pa, term.string)));
    return score;
}

/**
 * stringScores on both SIMD paths must equal, byte for byte, the
 * one-string reference; `textbook` also checks the reference against
 * the pair-by-pair formula.
 */
void
expectScoresBitIdentical(const Ansatz &a, const PauliSum &h,
                         const std::string &label, bool textbook)
{
    std::vector<double> ref;
    for (const auto &r : a.rotations) {
        ref.push_back(stringImportance(r.string, h));
        if (textbook) {
            const double t = textbookScore(r.string, h);
            ASSERT_EQ(std::memcmp(&ref.back(), &t, sizeof t), 0)
                << label << " " << r.string.str();
        }
    }
    for (bool simd : {true, false}) {
        SimdGuard guard(simd);
        const std::vector<double> got = stringScores(a, h);
        ASSERT_EQ(got.size(), ref.size()) << label;
        EXPECT_EQ(std::memcmp(got.data(), ref.data(),
                              ref.size() * sizeof(double)),
                  0)
            << label << " on the " << kern::simdName() << " path";
    }
}

} // namespace

TEST(Importance, StringScoreArithmetic)
{
    // H = 0.5 * ZZ + 0.25 * XI on 2 qubits; Pa = XY.
    // d(XY, ZZ): both non-I, both differ -> d = 0 -> 2^0 * 0.5.
    // d(XY, XI): q1 equal (X) -> decay, q0 PH = I -> decay -> d = 2
    //            -> 2^-2 * 0.25.
    PauliSum h(2);
    h.add(0.5, PauliString::fromString("ZZ"));
    h.add(0.25, PauliString::fromString("XI"));
    double s = stringImportance(PauliString::fromString("XY"), h);
    EXPECT_NEAR(s, 0.5 + 0.0625, 1e-12);
}

TEST(Importance, NegativeWeightsUseAbsoluteValue)
{
    PauliSum h(1);
    h.add(-2.0, PauliString::fromString("Z"));
    double s = stringImportance(PauliString::fromString("X"), h);
    EXPECT_NEAR(s, 2.0, 1e-12);
}

TEST(Importance, IdentityAnsatzStringScoresLowest)
{
    PauliSum h(3);
    h.add(1.0, PauliString::fromString("XYZ"));
    double sId = stringImportance(PauliString(3), h);
    double sOrth = stringImportance(PauliString::fromString("ZXY"), h);
    EXPECT_LT(sId, sOrth);
    EXPECT_NEAR(sId, std::ldexp(1.0, -3), 1e-12);
    EXPECT_NEAR(sOrth, 1.0, 1e-12);
}

TEST(Importance, ParameterScoreSumsItsStrings)
{
    const auto &entry = benchmarkMolecule("H2");
    MolecularProblem prob = buildMolecularProblem(entry, 0.74);
    Ansatz a = buildUccsd(prob.nSpatial, prob.nElectrons);

    auto perString = stringScores(a, prob.hamiltonian);
    auto perParam = parameterImportance(a, prob.hamiltonian);

    std::vector<double> manual(a.nParams, 0.0);
    for (size_t j = 0; j < a.rotations.size(); ++j)
        manual[a.rotations[j].param] += perString[j];
    for (unsigned k = 0; k < a.nParams; ++k)
        EXPECT_NEAR(perParam[k], manual[k], 1e-12);
}

TEST(Importance, DoubleExcitationDominatesInH2)
{
    // For H2 the doubles amplitude carries the correlation energy;
    // Algorithm 1 must rank it above the singles.
    const auto &entry = benchmarkMolecule("H2");
    MolecularProblem prob = buildMolecularProblem(entry, 0.74);
    Ansatz a = buildUccsd(prob.nSpatial, prob.nElectrons);
    auto imp = parameterImportance(a, prob.hamiltonian);

    unsigned doubleIdx = ~0u;
    for (unsigned k = 0; k < a.nParams; ++k)
        if (a.excitations[k].kind == Excitation::Kind::Double)
            doubleIdx = k;
    ASSERT_NE(doubleIdx, ~0u);
    for (unsigned k = 0; k < a.nParams; ++k) {
        if (k != doubleIdx) {
            EXPECT_GE(imp[doubleIdx], imp[k]);
        }
    }
}

TEST(Importance, BatchedScoresMatchReferenceBitForBit)
{
    // Catalog molecules up to CH4 (16 qubits, 2688 rotations x 4689
    // terms). H2's 12 rotations are not a multiple of the kernel's
    // block, so its tail goes through the scalar body.
    for (const char *name : {"H2", "LiH", "BeH2", "NH3", "CH4"}) {
        const auto &entry = benchmarkMolecule(name);
        MolecularProblem prob =
            buildMolecularProblem(entry, entry.equilibriumBond);
        Ansatz a = buildUccsd(prob.nSpatial, prob.nElectrons);
        expectScoresBitIdentical(a, prob.hamiltonian, name,
                                 a.nQubits <= 12);
    }

    // Seeded random 64-qubit strings, 203 rotations (203 % 8 = 3).
    // All-Y rotations against all-X terms anticommute on every qubit
    // (e = 64) and identity terms on none (e = 0), so both edge
    // entries of the 2^-(n-e) table are used; weights span 2^-60..1.
    std::mt19937_64 rng(2021);
    const uint64_t all = ~0ull;
    PauliSum h(64);
    for (int t = 0; t < 257; ++t) {
        uint64_t x = rng(), z = rng();
        if (t % 9 == 0)
            x = all, z = 0;
        if (t % 13 == 0)
            x = 0, z = 0;
        const double w = (double(rng() % 2001) - 1000.0) * 1e-3 *
                         std::ldexp(1.0, -int(rng() % 61));
        h.add(w, PauliString(64, x, z));
    }
    Ansatz a;
    a.nQubits = 64;
    a.nParams = 1;
    for (int r = 0; r < 203; ++r) {
        uint64_t x = rng(), z = rng();
        if (r % 5 == 0)
            x = all, z = all;
        a.rotations.push_back({0, 1.0, PauliString(64, x, z)});
    }
    expectScoresBitIdentical(a, h, "random64", true);

    // A one-term Hamiltonian.
    PauliSum one(64);
    one.add(-0.75, PauliString(64, all, 0));
    expectScoresBitIdentical(a, one, "one-term", true);
}

TEST(Importance, CompressionKeepsTheSameParametersForCh4)
{
    // Kept parameter lists of the pair-by-pair implementation (size
    // and FNV-1a over the indices in order), on both SIMD paths.
    const auto &entry = benchmarkMolecule("CH4");
    MolecularProblem prob =
        buildMolecularProblem(entry, entry.equilibriumBond);
    Ansatz full = buildUccsd(prob.nSpatial, prob.nElectrons);
    ASSERT_EQ(full.nParams, 360u);

    struct Pin
    {
        double ratio;
        size_t size;
        uint64_t fnv;
    };
    const Pin pins[] = {{0.1, 36, 0xa12d5fa57f0ee14eull},
                        {0.5, 180, 0x3e7ea84a4f28d288ull},
                        {0.9, 324, 0x4f7f23c304c78259ull}};
    for (bool simd : {true, false}) {
        SimdGuard guard(simd);
        for (const Pin &pin : pins) {
            const CompressedAnsatz c =
                compressAnsatz(full, prob.hamiltonian, pin.ratio);
            uint64_t fnv = 0xcbf29ce484222325ull;
            for (unsigned k : c.keptParams) {
                fnv ^= k;
                fnv *= 0x100000001b3ull;
            }
            EXPECT_EQ(c.keptParams.size(), pin.size) << pin.ratio;
            EXPECT_EQ(fnv, pin.fnv)
                << pin.ratio << " on the " << kern::simdName()
                << " path";
        }
    }
}

TEST(Importance, PredictsEnergySensitivity)
{
    // Semantic check on LiH: the gradient magnitude |dE/dtheta_k| at
    // a small random point should correlate positively with the
    // importance ranking (Spearman-like sign test on averages).
    const auto &entry = benchmarkMolecule("LiH");
    MolecularProblem prob = buildMolecularProblem(entry, 1.6);
    Ansatz a = buildUccsd(prob.nSpatial, prob.nElectrons);
    auto imp = parameterImportance(a, prob.hamiltonian);

    std::vector<double> x(a.nParams, 0.02);
    const double eps = 1e-4;
    std::vector<double> grad(a.nParams);
    for (unsigned k = 0; k < a.nParams; ++k) {
        auto xp = x, xm = x;
        xp[k] += eps;
        xm[k] -= eps;
        grad[k] = std::fabs(
            (ansatzEnergy(prob.hamiltonian, a, xp) -
             ansatzEnergy(prob.hamiltonian, a, xm)) /
            (2 * eps));
    }

    // Mean gradient of the top half (by importance) should exceed
    // the mean gradient of the bottom half.
    std::vector<unsigned> order(a.nParams);
    for (unsigned k = 0; k < a.nParams; ++k)
        order[k] = k;
    std::sort(order.begin(), order.end(), [&](unsigned p, unsigned q) {
        return imp[p] > imp[q];
    });
    double top = 0, bottom = 0;
    unsigned half = a.nParams / 2;
    for (unsigned i = 0; i < half; ++i)
        top += grad[order[i]];
    for (unsigned i = half; i < a.nParams; ++i)
        bottom += grad[order[i]];
    EXPECT_GT(top / half, bottom / (a.nParams - half));
}
