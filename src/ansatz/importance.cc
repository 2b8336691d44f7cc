/**
 * @file
 * Algorithm 1 as one batched kernel over an (ansatz, Hamiltonian)
 * pair. The terms are copied once into parallel arrays (x, z, |w|),
 * and every term sweep scores a block of rotations, each with its own
 * accumulator that adds the terms in Hamiltonian order: the sums are
 * the same sequence of roundings as the one-string loop, so every
 * score is bit-identical whatever the block size or SIMD path.
 *
 * The qubits where both strings are non-identity and differ are the
 * qubits where the single-qubit operators anticommute, (xa & zh) ^
 * (za & xh). With e of them, the decay weight 2^-d = 2^-(n-e) is read
 * from an exact power-of-two table indexed by e, so |w| * 2^-(n-e) is
 * one correctly rounded product, equal to ldexp(|w|, -(n-e)).
 *
 * The AVX2 body (per-function target attribute, selected through
 * kern::simdActive() like the simulator kernels, so QCC_SIMD=0 and
 * kern::setSimdEnabled pick the scalar body) scores four rotations
 * per register and counts bits in-register with the nibble-table
 * method, so it needs no POPCNT; its decay weights are the table's
 * entries, assembled in their exponent field.
 */

#include "ansatz/importance.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/logging.hh"
#include "sim/simd.hh"

#if defined(__x86_64__) || defined(__i386__)
#define QCC_IMPORTANCE_X86 1
#include <immintrin.h>
// No "fma": a fused multiply-add skips the product's rounding, which
// matters only if |w| * 2^-(n-e) underflows; unfused, the AVX2 body
// rounds exactly like the scalar body.
#define QCC_AVX2 __attribute__((target("avx2")))
#endif

namespace qcc {

namespace {

/** Rotations scored per term sweep (two AVX2 registers). */
constexpr size_t kBlock = 8;

/** Hamiltonian terms as parallel arrays. */
struct TermArrays
{
    std::vector<uint64_t> x, z;
    std::vector<double> w; ///< |coeff|
};

TermArrays
termArrays(const PauliSum &h)
{
    TermArrays t;
    const size_t n = h.terms().size();
    t.x.reserve(n);
    t.z.reserve(n);
    t.w.reserve(n);
    for (const auto &term : h.terms()) {
        t.x.push_back(term.string.xMask());
        t.z.push_back(term.string.zMask());
        t.w.push_back(std::abs(term.coeff));
    }
    return t;
}

/** scale[e] = 2^-(n-e) for e in [0, n]: exact powers of two. */
std::array<double, 65>
decayTable(unsigned n)
{
    std::array<double, 65> scale{};
    for (unsigned e = 0; e <= n; ++e)
        scale[e] = std::ldexp(1.0, -int(n - e));
    return scale;
}

/**
 * Scores of the rotations with masks (ax[r], az[r]), r in [0, nr),
 * into out[r]. This is the one scalar implementation: the batched
 * path runs it on every block, the one-string reference on one.
 */
void
scoreScalar(const uint64_t *ax, const uint64_t *az, size_t nr,
            const TermArrays &h, const double *scale, double *out)
{
    const size_t nt = h.w.size();
    for (size_t r0 = 0; r0 < nr; r0 += kBlock) {
        const size_t nb = std::min(kBlock, nr - r0);
        double acc[kBlock] = {};
        for (size_t t = 0; t < nt; ++t) {
            const uint64_t hx = h.x[t], hz = h.z[t];
            const double w = h.w[t];
            for (size_t j = 0; j < nb; ++j) {
                const uint64_t m = (ax[r0 + j] & hz) ^ (az[r0 + j] & hx);
                acc[j] += w * scale[std::popcount(m)];
            }
        }
        std::copy(acc, acc + nb, out + r0);
    }
}

#ifdef QCC_IMPORTANCE_X86

/** Per-64-bit-lane popcount (nibble table + byte sums). */
QCC_AVX2 inline __m256i
popcount64(__m256i v)
{
    const __m256i nibbles = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low = _mm256_set1_epi8(0x0f);
    const __m256i lo = _mm256_and_si256(v, low);
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
    const __m256i bytes =
        _mm256_add_epi8(_mm256_shuffle_epi8(nibbles, lo),
                        _mm256_shuffle_epi8(nibbles, hi));
    return _mm256_sad_epu8(bytes, _mm256_setzero_si256());
}

/** scale[e] per lane: 2^-n with e added to its exponent field. */
QCC_AVX2 inline __m256d
decayScale(__m256i e, __m256i base)
{
    return _mm256_castsi256_pd(
        _mm256_add_epi64(base, _mm256_slli_epi64(e, 52)));
}

/** scoreScalar for nr a multiple of kBlock. */
QCC_AVX2 void
scoreAvx2(const uint64_t *ax, const uint64_t *az, size_t nr,
          const TermArrays &h, const double *scale, double *out)
{
    static_assert(kBlock == 8, "two 4-lane registers per block");
    const size_t nt = h.w.size();
    const __m256i base = _mm256_set1_epi64x(
        std::bit_cast<long long>(scale[0]));
    for (size_t r0 = 0; r0 < nr; r0 += kBlock) {
        const __m256i x0 = _mm256_loadu_si256((const __m256i *)(ax + r0));
        const __m256i x1 =
            _mm256_loadu_si256((const __m256i *)(ax + r0 + 4));
        const __m256i z0 = _mm256_loadu_si256((const __m256i *)(az + r0));
        const __m256i z1 =
            _mm256_loadu_si256((const __m256i *)(az + r0 + 4));
        __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
        for (size_t t = 0; t < nt; ++t) {
            const __m256i hx = _mm256_set1_epi64x((long long)h.x[t]);
            const __m256i hz = _mm256_set1_epi64x((long long)h.z[t]);
            const __m256d w = _mm256_set1_pd(h.w[t]);
            const __m256i m0 = _mm256_xor_si256(_mm256_and_si256(x0, hz),
                                                _mm256_and_si256(z0, hx));
            const __m256i m1 = _mm256_xor_si256(_mm256_and_si256(x1, hz),
                                                _mm256_and_si256(z1, hx));
            acc0 = _mm256_add_pd(
                acc0, _mm256_mul_pd(w, decayScale(popcount64(m0), base)));
            acc1 = _mm256_add_pd(
                acc1, _mm256_mul_pd(w, decayScale(popcount64(m1), base)));
        }
        _mm256_storeu_pd(out + r0, acc0);
        _mm256_storeu_pd(out + r0 + 4, acc1);
    }
}

#endif // QCC_IMPORTANCE_X86

} // namespace

double
stringImportance(const PauliString &pa, const PauliSum &h)
{
    if (pa.numQubits() != h.numQubits())
        panic("stringImportance: qubit count mismatch");
    const uint64_t x = pa.xMask(), z = pa.zMask();
    const auto scale = decayTable(h.numQubits());
    double score = 0.0;
    scoreScalar(&x, &z, 1, termArrays(h), scale.data(), &score);
    return score;
}

std::vector<double>
stringScores(const Ansatz &ansatz, const PauliSum &h)
{
    if (h.numQubits() != ansatz.nQubits)
        panic("stringScores: qubit count mismatch");
    const size_t nr = ansatz.rotations.size();
    std::vector<uint64_t> ax(nr), az(nr);
    for (size_t r = 0; r < nr; ++r) {
        const PauliString &s = ansatz.rotations[r].string;
        if (s.numQubits() != ansatz.nQubits)
            panic("stringScores: qubit count mismatch");
        ax[r] = s.xMask();
        az[r] = s.zMask();
    }
    const TermArrays terms = termArrays(h);
    const auto scale = decayTable(h.numQubits());
    std::vector<double> scores(nr, 0.0);

    size_t done = 0;
#ifdef QCC_IMPORTANCE_X86
    if (kern::simdActive()) {
        done = nr - nr % kBlock;
        scoreAvx2(ax.data(), az.data(), done, terms, scale.data(),
                  scores.data());
    }
#endif
    scoreScalar(ax.data() + done, az.data() + done, nr - done, terms,
                scale.data(), scores.data() + done);
    return scores;
}

std::vector<double>
parameterImportance(const Ansatz &ansatz, const PauliSum &h)
{
    std::vector<double> scores = stringScores(ansatz, h);
    std::vector<double> imp(ansatz.nParams, 0.0);
    for (size_t j = 0; j < ansatz.rotations.size(); ++j)
        imp[ansatz.rotations[j].param] += scores[j];
    return imp;
}

} // namespace qcc
