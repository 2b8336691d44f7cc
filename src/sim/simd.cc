/**
 * @file
 * Scalar and AVX2 bodies of the range primitives declared in
 * sim/simd.hh, plus the runtime dispatch state. The AVX2 functions
 * are compiled with per-function target("avx2,fma") attributes so the
 * rest of the build keeps the default ISA; they are only ever called
 * after __builtin_cpu_supports says the CPU can run them.
 *
 * Vector layout notes (AVX2, 4 doubles = 2 complex per register):
 *  - cmulBcast multiplies two packed complexes by per-lane-pair
 *    broadcast factors with one fmaddsub (even lanes subtract, odd
 *    lanes add — exactly the complex product split into real parts).
 *  - Parity signs are taken per aligned block (b, b+1): the sign of
 *    b+1 is the sign of b times (-1)^{z&1}, so one popcount per block
 *    (or per 4 amplitudes, in the grouped sweep) suffices.
 *  - Every kernel that pairs b with b ^ x (pauliRotPairs, expectPairs,
 *    adjointPairs, accumulatePauli) uses one block-pair form for all
 *    x: a register holds the aligned block (b0, b0+1), its partner
 *    block is at (b0 ^ x) & ~1 = b0 ^ (x & ~1), and when x has bit 0
 *    set the partner's two complexes are swapped in-register
 *    (_mm256_permute2f128_pd). The rotation, the expectation and the
 *    adjoint step visit only the blocks with bit h clear (h = lowest
 *    set bit of x & ~1), b0 = 2 * expandBit(m, h >> 1), so one
 *    iteration covers two pairs with two loads (and two stores) per
 *    state; for x == 1 the partner block is the block itself,
 *    swapped. The partner block's signs are the block's times
 *    (-1)^{|z & (x & ~1)|}.
 *  - diagonalGroupExpectation uses _mm256_hadd_pd, which interleaves
 *    lanes as (b, b+2, b+1, b+3); the per-term low-bit sign patterns
 *    are stored in that order so the FMA accumulation lines up.
 */

#include "sim/simd.hh"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <utility>

#include "sim/kernels.hh"

#if defined(__x86_64__) || defined(__i386__)
#define QCC_SIMD_X86 1
#include <immintrin.h>
#define QCC_AVX2 __attribute__((target("avx2,fma")))
#endif

namespace qcc {
namespace kern {

namespace {

bool
envSimdEnabled()
{
    const char *e = std::getenv("QCC_SIMD");
    return !(e && e[0] == '0' && e[1] == '\0');
}

std::atomic<bool> &
simdFlag()
{
    static std::atomic<bool> flag(envSimdEnabled());
    return flag;
}

inline double
paritySign(uint64_t m, uint64_t b)
{
    return (std::popcount(m & b) & 1) ? -1.0 : 1.0;
}

/**
 * One Pauli-rotation pair update: v = (vr, vi) acts on amp[b] and
 * u = sigma v on amp[b2], both with the sign s_b of b. The update is
 * symmetric, so either member of the pair may come first.
 */
inline void
rotPairOne(cplx *amp, size_t b, size_t b2, uint64_t z, double c,
           double ur, double ui, double vr, double vi)
{
    const double sb = paritySign(z, b);
    const double wr = sb * ur, wi = sb * ui;
    const double xr = sb * vr, xi = sb * vi;
    const double ar = amp[b].real(), ai = amp[b].imag();
    const double br = amp[b2].real(), bi = amp[b2].imag();
    amp[b] = cplx(c * ar + xr * br - xi * bi,
                  c * ai + xr * bi + xi * br);
    amp[b2] = cplx(c * br + wr * ar - wi * ai,
                   c * bi + wr * ai + wi * ar);
}

/** One expectation pair contribution (partial sum, unscaled); the
 *  same value whichever member of the pair is b. */
inline double
expectPairOne(const cplx *amp, size_t b, size_t b2, uint64_t z,
              bool sigma_pos)
{
    const double sb = paritySign(z, b);
    if (sigma_pos)
        return sb * (amp[b].real() * amp[b2].real() +
                     amp[b].imag() * amp[b2].imag());
    return sb * (amp[b].real() * amp[b2].imag() -
                 amp[b].imag() * amp[b2].real());
}

/**
 * One adjoint-step pair (b, b2 = b ^ x): adds both overlap terms,
 * s_b conj(lam[b]) chi[b2] + s_b2 conj(lam[b2]) chi[b] with
 * s_b2 = sigma s_b, from the old values, then rotates the pair in
 * both states exactly as pauliRotPairsScalar does.
 */
inline void
adjointPairOne(cplx *lam, cplx *chi, size_t b, size_t b2, uint64_t z,
               double sigma, double c, double ur, double ui, double vr,
               double vi, double &re, double &im)
{
    const double sb = paritySign(z, b);
    const cplx l = lam[b], l2 = lam[b2], h = chi[b], h2 = chi[b2];
    re += sb * ((l.real() * h2.real() + l.imag() * h2.imag()) +
                sigma * (l2.real() * h.real() + l2.imag() * h.imag()));
    im += sb * ((l.real() * h2.imag() - l.imag() * h2.real()) +
                sigma * (l2.real() * h.imag() - l2.imag() * h.real()));
    rotPairOne(lam, b, b2, z, c, ur, ui, vr, vi);
    rotPairOne(chi, b, b2, z, c, ur, ui, vr, vi);
}

inline double
groupExpectOne(const cplx *amp, size_t b, uint64_t g, const double *w,
               const uint64_t *zmask, size_t n_terms)
{
    const double p = std::norm(amp[b]);
    double s = 0.0;
    for (size_t t = 0; t < n_terms; ++t)
        s += w[t] * paritySign(zmask[t], g) * p;
    return s;
}

/** Block-index pivot of a pair sweep over x: half the lowest set bit
 *  of x & ~1, or 0 when x == 1 (expandBit(m, 0) == m). */
inline uint64_t
blockPivot(uint64_t x)
{
    const uint64_t xe = x & ~uint64_t{1};
    return (xe & (~xe + 1)) >> 1;
}

/** First index of block m of a pair sweep with block pivot hp. */
inline size_t
blockBase(size_t m, uint64_t hp)
{
    return 2 * expandBit(m, hp);
}

/** One H·psi term at one index (shared by scalar loop and tails). */
inline void
accumulateOne(const cplx *amp, cplx *out, size_t b, uint64_t x,
              uint64_t z, cplx w)
{
    out[b] += (w * paritySign(z, b)) * amp[b ^ x];
}

} // namespace

bool
simdCompiled()
{
#ifdef QCC_SIMD_X86
    return true;
#else
    return false;
#endif
}

bool
simdSupported()
{
#ifdef QCC_SIMD_X86
    static const bool ok = __builtin_cpu_supports("avx2") &&
                           __builtin_cpu_supports("fma");
    return ok;
#else
    return false;
#endif
}

bool
simdActive()
{
    return simdSupported() &&
           simdFlag().load(std::memory_order_relaxed);
}

void
setSimdEnabled(bool enabled)
{
    simdFlag().store(enabled, std::memory_order_relaxed);
}

const char *
simdName()
{
    return simdActive() ? "avx2" : "scalar";
}

namespace ranges {

// ---------------------------------------------------------------
// Scalar bodies (the seed's loops, re-expressed over ranges).
// ---------------------------------------------------------------

void
apply1qScalar(cplx *amp, size_t k_lo, size_t k_hi, uint64_t bit,
              const cplx u[4])
{
    const cplx u0 = u[0], u1 = u[1], u2 = u[2], u3 = u[3];
    for (size_t k = k_lo; k < k_hi; ++k) {
        const size_t b = expandBit(k, bit);
        const cplx a0 = amp[b], a1 = amp[b | bit];
        amp[b] = u0 * a0 + u1 * a1;
        amp[b | bit] = u2 * a0 + u3 * a1;
    }
}

void
diag1qScalar(cplx *amp, size_t b_lo, size_t b_hi, uint64_t bit,
             cplx d0, cplx d1)
{
    for (size_t b = b_lo; b < b_hi; ++b)
        amp[b] *= (b & bit) ? d1 : d0;
}

void
diagMulScalar(cplx *amp, size_t b_lo, size_t b_hi,
              const cplx *pattern, uint64_t pat_mask, cplx scale)
{
    for (size_t b = b_lo; b < b_hi; ++b)
        amp[b] *= scale * pattern[b & pat_mask];
}

void
pauliRotPairsScalar(cplx *amp, size_t m_lo, size_t m_hi, uint64_t x,
                    uint64_t z, double c, double vr, double vi)
{
    const uint64_t hp = blockPivot(x);
    const double sigma = paritySign(z, x);
    const double ur = sigma * vr, ui = sigma * vi;
    for (size_t m = m_lo; m < m_hi; ++m) {
        const size_t b0 = blockBase(m, hp);
        rotPairOne(amp, b0, b0 ^ x, z, c, ur, ui, vr, vi);
        if (x != 1)
            rotPairOne(amp, b0 + 1, (b0 + 1) ^ x, z, c, ur, ui, vr,
                       vi);
    }
}

void
pauliRotDiagScalar(cplx *amp, size_t b_lo, size_t b_hi, uint64_t z,
                   cplx f_even, cplx f_odd)
{
    for (size_t b = b_lo; b < b_hi; ++b)
        amp[b] *= (std::popcount(z & b) & 1) ? f_odd : f_even;
}

double
expectPairsScalar(const cplx *amp, size_t m_lo, size_t m_hi,
                  uint64_t x, uint64_t z, bool sigma_pos)
{
    const uint64_t hp = blockPivot(x);
    double s = 0.0;
    for (size_t m = m_lo; m < m_hi; ++m) {
        const size_t b0 = blockBase(m, hp);
        s += expectPairOne(amp, b0, b0 ^ x, z, sigma_pos);
        if (x != 1)
            s += expectPairOne(amp, b0 + 1, (b0 + 1) ^ x, z, sigma_pos);
    }
    return s;
}

cplx
adjointPairsScalar(cplx *lam, cplx *chi, size_t m_lo, size_t m_hi,
                   uint64_t x, uint64_t z, double c, double vr,
                   double vi)
{
    const uint64_t hp = blockPivot(x);
    const double sigma = paritySign(z, x);
    const double ur = sigma * vr, ui = sigma * vi;
    double re = 0.0, im = 0.0;
    for (size_t m = m_lo; m < m_hi; ++m) {
        const size_t b0 = blockBase(m, hp);
        adjointPairOne(lam, chi, b0, b0 ^ x, z, sigma, c, ur, ui, vr, vi,
                       re, im);
        if (x != 1)
            adjointPairOne(lam, chi, b0 + 1, (b0 + 1) ^ x, z, sigma, c,
                           ur, ui, vr, vi, re, im);
    }
    return {re, im};
}

void
accumulatePauliScalar(const cplx *amp, cplx *out, size_t b_lo,
                      size_t b_hi, uint64_t x, uint64_t z, cplx w)
{
    for (size_t b = b_lo; b < b_hi; ++b)
        accumulateOne(amp, out, b, x, z, w);
}

double
expectDiagScalar(const cplx *amp, size_t b_lo, size_t b_hi,
                 uint64_t z)
{
    double s = 0.0;
    for (size_t b = b_lo; b < b_hi; ++b)
        s += paritySign(z, b) * std::norm(amp[b]);
    return s;
}

double
groupExpectScalar(const cplx *amp, size_t b_lo, size_t b_hi,
                  uint64_t b_offset, const double *w,
                  const uint64_t *zmask, size_t n_terms)
{
    double s = 0.0;
    for (size_t b = b_lo; b < b_hi; ++b)
        s += groupExpectOne(amp, b, b_offset | b, w, zmask, n_terms);
    return s;
}

void
depolarize1Scalar(cplx *amp, size_t k_lo, size_t k_hi, uint64_t kbit,
                  uint64_t bbit, double keep, double mix)
{
    for (size_t k = k_lo; k < k_hi; ++k) {
        const size_t base = expandBit(expandBit(k, kbit), bbit);
        const cplx tr = amp[base] + amp[base | kbit | bbit];
        amp[base] = keep * amp[base] + mix * tr;
        amp[base | kbit | bbit] =
            keep * amp[base | kbit | bbit] + mix * tr;
        amp[base | kbit] *= keep;
        amp[base | bbit] *= keep;
    }
}

void
depolarize2Scalar(cplx *amp, size_t k_lo, size_t k_hi, uint64_t ka,
                  uint64_t kb, uint64_t ba, uint64_t bb, double keep,
                  double mix)
{
    const uint64_t sub[4] = {0, ka, kb, ka | kb};
    const uint64_t bsub[4] = {0, ba, bb, ba | bb};
    for (size_t k = k_lo; k < k_hi; ++k) {
        const size_t base = expandBit(
            expandBit(expandBit(expandBit(k, ka), kb), ba), bb);
        cplx tr = 0.0;
        for (int s = 0; s < 4; ++s)
            tr += amp[base | sub[s] | bsub[s]];
        for (int s1 = 0; s1 < 4; ++s1) {
            for (int s2 = 0; s2 < 4; ++s2) {
                const size_t idx = base | sub[s1] | bsub[s2];
                amp[idx] *= keep;
                if (s1 == s2)
                    amp[idx] += mix * tr;
            }
        }
    }
}

void
applyX(cplx *amp, size_t k_lo, size_t k_hi, uint64_t bit)
{
    for (size_t k = k_lo; k < k_hi; ++k) {
        const size_t b = expandBit(k, bit);
        std::swap(amp[b], amp[b | bit]);
    }
}

void
applyCx(cplx *amp, size_t k_lo, size_t k_hi, uint64_t cbit,
        uint64_t tbit)
{
    for (size_t k = k_lo; k < k_hi; ++k) {
        const size_t b = expandBit(k, tbit);
        if (b & cbit)
            std::swap(amp[b], amp[b | tbit]);
    }
}

void
applySwap(cplx *amp, size_t k_lo, size_t k_hi, uint64_t abit,
          uint64_t bbit)
{
    for (size_t k = k_lo; k < k_hi; ++k) {
        // idx has the b-bit clear; the |01> <-> |10> partner is in the
        // other half of the pair loop, so each pair is visited once.
        const size_t idx = expandBit(k, bbit);
        if (idx & abit)
            std::swap(amp[idx], amp[idx ^ (abit | bbit)]);
    }
}

// ---------------------------------------------------------------
// AVX2 bodies.
// ---------------------------------------------------------------

#ifdef QCC_SIMD_X86

namespace {

/** (a0, a1) * (br + i bi) with br/bi broadcast per lane pair. */
QCC_AVX2 inline __m256d
cmulBcast(__m256d a, __m256d br, __m256d bi)
{
    const __m256d as = _mm256_shuffle_pd(a, a, 0x5);
    return _mm256_fmaddsub_pd(a, br, _mm256_mul_pd(as, bi));
}

/** Full complex product of two packed-complex registers. */
QCC_AVX2 inline __m256d
cmulVar(__m256d a, __m256d b)
{
    const __m256d br = _mm256_movedup_pd(b);
    const __m256d bi = _mm256_permute_pd(b, 0xF);
    return cmulBcast(a, br, bi);
}

/** (-1)^{|m & b|} as a sign-bit mask: xor-ing it in is an exact
 *  multiply by that sign. */
QCC_AVX2 inline __m256d
signMask(uint64_t m, uint64_t b)
{
    const uint64_t odd = uint64_t(std::popcount(m & b) & 1);
    return _mm256_castsi256_pd(_mm256_set1_epi64x(int64_t(odd << 63)));
}

/**
 * Store the Pauli-rotation update of one block at p: a * c plus the
 * lane-signed v * partner (partner already lane-swapped as needed).
 * pauliRotPairsAvx2 and adjointPairsAvx2 both write through it, so
 * the two kernels write the same bits.
 */
QCC_AVX2 inline void
rotStore(double *p, __m256d a, __m256d partner, __m256d cv, __m256d vr,
         __m256d vi, __m256d s0)
{
    _mm256_storeu_pd(
        p, _mm256_fmadd_pd(a, cv,
                           _mm256_xor_pd(cmulBcast(partner, vr, vi), s0)));
}

/**
 * Add the overlap terms conj(l) h of one block to (accRe, accIm), h
 * being the partner amplitudes lined up with l: conj(l) h =
 * (lr hr + li hi) + i (lr hi - li hr), so the real part sums l * h
 * and the imaginary part l * swap(h); wRe/wIm carry the lane signs
 * (odd lanes negated in wIm).
 */
QCC_AVX2 inline void
overlapAcc(__m256d l, __m256d h, __m256d wRe, __m256d wIm, __m256d &accRe,
           __m256d &accIm)
{
    accRe = _mm256_fmadd_pd(_mm256_mul_pd(l, h), wRe, accRe);
    accIm = _mm256_fmadd_pd(
        _mm256_mul_pd(l, _mm256_shuffle_pd(h, h, 0x5)), wIm, accIm);
}

QCC_AVX2 inline double
hsum(__m256d v)
{
    __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    lo = _mm_add_pd(lo, hi);
    return _mm_cvtsd_f64(_mm_add_sd(lo, _mm_unpackhi_pd(lo, lo)));
}

QCC_AVX2 void
apply1qAvx2(cplx *ampc, size_t k_lo, size_t k_hi, uint64_t bit,
            const cplx u[4])
{
    double *amp = reinterpret_cast<double *>(ampc);
    if (bit == 1) {
        // Adjacent pairs: one register holds both amplitudes; the
        // column vectors (u0,u2) and (u1,u3) act on lane-duplicated
        // copies.
        const __m256d uAr = _mm256_setr_pd(u[0].real(), u[0].real(),
                                           u[2].real(), u[2].real());
        const __m256d uAi = _mm256_setr_pd(u[0].imag(), u[0].imag(),
                                           u[2].imag(), u[2].imag());
        const __m256d uBr = _mm256_setr_pd(u[1].real(), u[1].real(),
                                           u[3].real(), u[3].real());
        const __m256d uBi = _mm256_setr_pd(u[1].imag(), u[1].imag(),
                                           u[3].imag(), u[3].imag());
        for (size_t k = k_lo; k < k_hi; ++k) {
            double *p = amp + 4 * k;
            const __m256d v = _mm256_loadu_pd(p);
            const __m256d a0 = _mm256_permute2f128_pd(v, v, 0x00);
            const __m256d a1 = _mm256_permute2f128_pd(v, v, 0x11);
            _mm256_storeu_pd(p,
                             _mm256_add_pd(cmulBcast(a0, uAr, uAi),
                                           cmulBcast(a1, uBr, uBi)));
        }
        return;
    }
    // bit >= 2: k-space runs of `bit` pairs map to two contiguous
    // amplitude streams.
    const __m256d u0r = _mm256_set1_pd(u[0].real());
    const __m256d u0i = _mm256_set1_pd(u[0].imag());
    const __m256d u1r = _mm256_set1_pd(u[1].real());
    const __m256d u1i = _mm256_set1_pd(u[1].imag());
    const __m256d u2r = _mm256_set1_pd(u[2].real());
    const __m256d u2i = _mm256_set1_pd(u[2].imag());
    const __m256d u3r = _mm256_set1_pd(u[3].real());
    const __m256d u3i = _mm256_set1_pd(u[3].imag());
    size_t k = k_lo;
    while (k < k_hi) {
        const size_t runEnd =
            std::min<size_t>(k_hi, (k | (bit - 1)) + 1);
        const size_t b = expandBit(k, bit);
        double *p0 = amp + 2 * b;
        double *p1 = amp + 2 * (b | bit);
        const size_t len = runEnd - k;
        size_t i = 0;
        for (; i + 2 <= len; i += 2) {
            const __m256d a0 = _mm256_loadu_pd(p0 + 2 * i);
            const __m256d a1 = _mm256_loadu_pd(p1 + 2 * i);
            _mm256_storeu_pd(p0 + 2 * i,
                             _mm256_add_pd(cmulBcast(a0, u0r, u0i),
                                           cmulBcast(a1, u1r, u1i)));
            _mm256_storeu_pd(p1 + 2 * i,
                             _mm256_add_pd(cmulBcast(a0, u2r, u2i),
                                           cmulBcast(a1, u3r, u3i)));
        }
        for (; i < len; ++i) {
            const cplx a0 = ampc[b + i], a1 = ampc[(b + i) | bit];
            ampc[b + i] = u[0] * a0 + u[1] * a1;
            ampc[(b + i) | bit] = u[2] * a0 + u[3] * a1;
        }
        k = runEnd;
    }
}

QCC_AVX2 void
diag1qAvx2(cplx *ampc, size_t b_lo, size_t b_hi, uint64_t bit,
           cplx d0, cplx d1)
{
    double *amp = reinterpret_cast<double *>(ampc);
    if (bit == 1) {
        // Alternating (d0, d1) pattern: align to even b so the fixed
        // register pattern lines up.
        size_t b = b_lo;
        if ((b & 1) && b < b_hi) {
            ampc[b] *= d1;
            ++b;
        }
        const __m256d dr = _mm256_setr_pd(d0.real(), d0.real(),
                                          d1.real(), d1.real());
        const __m256d di = _mm256_setr_pd(d0.imag(), d0.imag(),
                                          d1.imag(), d1.imag());
        for (; b + 2 <= b_hi; b += 2) {
            const __m256d v = _mm256_loadu_pd(amp + 2 * b);
            _mm256_storeu_pd(amp + 2 * b, cmulBcast(v, dr, di));
        }
        if (b < b_hi)
            ampc[b] *= d0;
        return;
    }
    const __m256d d0r = _mm256_set1_pd(d0.real());
    const __m256d d0i = _mm256_set1_pd(d0.imag());
    const __m256d d1r = _mm256_set1_pd(d1.real());
    const __m256d d1i = _mm256_set1_pd(d1.imag());
    size_t b = b_lo;
    while (b < b_hi) {
        // The factor is constant over each run of `bit` indices.
        const size_t runEnd =
            std::min<size_t>(b_hi, (b | (bit - 1)) + 1);
        const bool one = (b & bit) != 0;
        const __m256d fr = one ? d1r : d0r;
        const __m256d fi = one ? d1i : d0i;
        const cplx f = one ? d1 : d0;
        size_t i = b;
        for (; i + 2 <= runEnd; i += 2) {
            const __m256d v = _mm256_loadu_pd(amp + 2 * i);
            _mm256_storeu_pd(amp + 2 * i, cmulBcast(v, fr, fi));
        }
        for (; i < runEnd; ++i)
            ampc[i] *= f;
        b = runEnd;
    }
}

QCC_AVX2 void
diagMulAvx2(cplx *ampc, size_t b_lo, size_t b_hi,
            const cplx *patternc, uint64_t pat_mask, cplx scale)
{
    double *amp = reinterpret_cast<double *>(ampc);
    const double *pat = reinterpret_cast<const double *>(patternc);
    if (pat_mask == 0) {
        const cplx f = scale * patternc[0];
        const __m256d fr = _mm256_set1_pd(f.real());
        const __m256d fi = _mm256_set1_pd(f.imag());
        size_t b = b_lo;
        for (; b + 2 <= b_hi; b += 2) {
            const __m256d v = _mm256_loadu_pd(amp + 2 * b);
            _mm256_storeu_pd(amp + 2 * b, cmulBcast(v, fr, fi));
        }
        if (b < b_hi)
            ampc[b] *= f;
        return;
    }
    // pat_mask is odd (power-of-two length), so even-aligned index
    // pairs never straddle the pattern wrap.
    const __m256d sr = _mm256_set1_pd(scale.real());
    const __m256d si = _mm256_set1_pd(scale.imag());
    size_t b = b_lo;
    if ((b & 1) && b < b_hi) {
        ampc[b] *= scale * patternc[b & pat_mask];
        ++b;
    }
    for (; b + 2 <= b_hi; b += 2) {
        const __m256d a = _mm256_loadu_pd(amp + 2 * b);
        const __m256d p =
            _mm256_loadu_pd(pat + 2 * (b & pat_mask));
        _mm256_storeu_pd(amp + 2 * b,
                         cmulVar(a, cmulBcast(p, sr, si)));
    }
    if (b < b_hi)
        ampc[b] *= scale * patternc[b & pat_mask];
}

QCC_AVX2 void
pauliRotPairsAvx2(cplx *ampc, size_t m_lo, size_t m_hi, uint64_t x,
                  uint64_t z, double c, double vr, double vi)
{
    double *amp = reinterpret_cast<double *>(ampc);
    const double e0 = (z & 1) ? -1.0 : 1.0;
    const __m256d cv = _mm256_set1_pd(c);
    // v (1, (-1)^{z&1}) per lane pair; the block's sign s_b0 is xor-ed
    // onto the product.
    const __m256d evr = _mm256_setr_pd(vr, vr, e0 * vr, e0 * vr);
    const __m256d evi = _mm256_setr_pd(vi, vi, e0 * vi, e0 * vi);
    const uint64_t xe = x & ~uint64_t{1};
    if (xe == 0) {
        // x == 1: the partner block is the block itself, swapped.
        for (size_t m = m_lo; m < m_hi; ++m) {
            double *p = amp + 4 * m;
            const __m256d a = _mm256_loadu_pd(p);
            rotStore(p, a, _mm256_permute2f128_pd(a, a, 0x01), cv, evr,
                     evi, signMask(z, 2 * m));
        }
        return;
    }
    // The partner block's signs are the block's times
    // (-1)^{|z & (x & ~1)|}.
    const double sigmaE = paritySign(z, xe);
    const __m256d pvr = _mm256_mul_pd(_mm256_set1_pd(sigmaE), evr);
    const __m256d pvi = _mm256_mul_pd(_mm256_set1_pd(sigmaE), evi);
    const uint64_t hp = blockPivot(x);
    const bool swapLanes = (x & 1) != 0;
    for (size_t m = m_lo; m < m_hi; ++m) {
        const size_t b0 = blockBase(m, hp);
        double *pa = amp + 2 * b0;
        double *pp = amp + 2 * (b0 ^ xe);
        const __m256d s0 = signMask(z, b0);
        const __m256d a = _mm256_loadu_pd(pa);
        const __m256d p = _mm256_loadu_pd(pp);
        const __m256d as =
            swapLanes ? _mm256_permute2f128_pd(a, a, 0x01) : a;
        const __m256d ps =
            swapLanes ? _mm256_permute2f128_pd(p, p, 0x01) : p;
        rotStore(pa, a, ps, cv, evr, evi, s0);
        rotStore(pp, p, as, cv, pvr, pvi, s0);
    }
}

QCC_AVX2 void
pauliRotDiagAvx2(cplx *ampc, size_t b_lo, size_t b_hi, uint64_t z,
                 cplx f_even, cplx f_odd)
{
    double *amp = reinterpret_cast<double *>(ampc);
    // factor(b) = h + s_b * d with s_b = (-1)^{|z & b|}.
    const cplx h = 0.5 * (f_even + f_odd);
    const cplx d = 0.5 * (f_even - f_odd);
    const double e0 = (z & 1) ? -1.0 : 1.0;
    const __m256d evec = _mm256_setr_pd(1.0, 1.0, e0, e0);
    const __m256d hr = _mm256_set1_pd(h.real());
    const __m256d hi = _mm256_set1_pd(h.imag());
    const __m256d dr = _mm256_set1_pd(d.real());
    const __m256d di = _mm256_set1_pd(d.imag());
    size_t b = b_lo;
    if ((b & 1) && b < b_hi) {
        ampc[b] *= (std::popcount(z & b) & 1) ? f_odd : f_even;
        ++b;
    }
    for (; b + 2 <= b_hi; b += 2) {
        const double s0 = paritySign(z, b);
        const __m256d sv = _mm256_mul_pd(_mm256_set1_pd(s0), evec);
        const __m256d fr = _mm256_fmadd_pd(sv, dr, hr);
        const __m256d fi = _mm256_fmadd_pd(sv, di, hi);
        const __m256d v = _mm256_loadu_pd(amp + 2 * b);
        _mm256_storeu_pd(amp + 2 * b, cmulBcast(v, fr, fi));
    }
    for (; b < b_hi; ++b)
        ampc[b] *= (std::popcount(z & b) & 1) ? f_odd : f_even;
}

QCC_AVX2 double
expectPairsAvx2(const cplx *ampc, size_t m_lo, size_t m_hi,
                uint64_t x, uint64_t z, bool sigma_pos)
{
    const double *amp = reinterpret_cast<const double *>(ampc);
    const double e0 = (z & 1) ? -1.0 : 1.0;
    const __m256d evec = _mm256_setr_pd(1.0, 1.0, e0, e0);
    const uint64_t hp = blockPivot(x);
    const uint64_t xe = x & ~uint64_t{1};
    const bool swapLanes = (x & 1) != 0;
    // Keep the real slot of each complex lane; for x == 1 both lanes
    // hold the one pair (b0, b0+1), so keep the first only.
    const __m256d keep = _mm256_castsi256_pd(
        xe ? _mm256_setr_epi64x(-1, 0, -1, 0)
           : _mm256_setr_epi64x(-1, 0, 0, 0));
    __m256d acc = _mm256_setzero_pd();
    for (size_t m = m_lo; m < m_hi; ++m) {
        const size_t b0 = blockBase(m, hp);
        const __m256d a = _mm256_loadu_pd(amp + 2 * b0);
        __m256d p = _mm256_loadu_pd(amp + 2 * (b0 ^ xe));
        if (swapLanes)
            p = _mm256_permute2f128_pd(p, p, 0x01);
        __m256d t;
        if (sigma_pos) {
            const __m256d q = _mm256_mul_pd(a, p);
            t = _mm256_add_pd(q, _mm256_shuffle_pd(q, q, 0x5));
        } else {
            const __m256d as = _mm256_shuffle_pd(a, a, 0x5);
            const __m256d q = _mm256_mul_pd(as, p);
            t = _mm256_sub_pd(_mm256_shuffle_pd(q, q, 0x5), q);
        }
        t = _mm256_xor_pd(_mm256_and_pd(t, keep), signMask(z, b0));
        acc = _mm256_fmadd_pd(t, evec, acc);
    }
    return hsum(acc);
}

QCC_AVX2 cplx
adjointPairsAvx2(cplx *lamc, cplx *chic, size_t m_lo, size_t m_hi,
                 uint64_t x, uint64_t z, double c, double vr, double vi)
{
    double *lam = reinterpret_cast<double *>(lamc);
    double *chi = reinterpret_cast<double *>(chic);
    // Rotation constants as in pauliRotPairsAvx2.
    const double e0 = (z & 1) ? -1.0 : 1.0;
    const __m256d cv = _mm256_set1_pd(c);
    const __m256d evr = _mm256_setr_pd(vr, vr, e0 * vr, e0 * vr);
    const __m256d evi = _mm256_setr_pd(vi, vi, e0 * vi, e0 * vi);
    // Overlap lane weights (see overlapAcc); the block's sign s_b0 is
    // xor-ed on per iteration.
    const __m256d wRe = _mm256_setr_pd(1.0, 1.0, e0, e0);
    const __m256d wIm = _mm256_setr_pd(1.0, -1.0, e0, -e0);
    __m256d accRe = _mm256_setzero_pd();
    __m256d accIm = _mm256_setzero_pd();
    const uint64_t xe = x & ~uint64_t{1};
    if (xe == 0) {
        // x == 1: the partner block is the block itself, swapped, and
        // its two lanes are the pair's two overlap terms.
        for (size_t m = m_lo; m < m_hi; ++m) {
            double *pl = lam + 4 * m;
            double *ph = chi + 4 * m;
            const __m256d s0 = signMask(z, 2 * m);
            const __m256d l = _mm256_loadu_pd(pl);
            const __m256d h = _mm256_loadu_pd(ph);
            const __m256d ls = _mm256_permute2f128_pd(l, l, 0x01);
            const __m256d hs = _mm256_permute2f128_pd(h, h, 0x01);
            overlapAcc(l, hs, _mm256_xor_pd(wRe, s0),
                       _mm256_xor_pd(wIm, s0), accRe, accIm);
            rotStore(pl, l, ls, cv, evr, evi, s0);
            rotStore(ph, h, hs, cv, evr, evi, s0);
        }
        return {hsum(accRe), hsum(accIm)};
    }
    // The partner block's signs are the block's times
    // (-1)^{|z & (x & ~1)|}, for the rotation and the overlap alike.
    const __m256d sigmaE = _mm256_set1_pd(paritySign(z, xe));
    const __m256d pvr = _mm256_mul_pd(sigmaE, evr);
    const __m256d pvi = _mm256_mul_pd(sigmaE, evi);
    const __m256d pwRe = _mm256_mul_pd(sigmaE, wRe);
    const __m256d pwIm = _mm256_mul_pd(sigmaE, wIm);
    const uint64_t hp = blockPivot(x);
    const bool swapLanes = (x & 1) != 0;
    for (size_t m = m_lo; m < m_hi; ++m) {
        const size_t b0 = blockBase(m, hp);
        double *pla = lam + 2 * b0;
        double *plp = lam + 2 * (b0 ^ xe);
        double *pha = chi + 2 * b0;
        double *php = chi + 2 * (b0 ^ xe);
        const __m256d s0 = signMask(z, b0);
        const __m256d la = _mm256_loadu_pd(pla);
        const __m256d lp = _mm256_loadu_pd(plp);
        const __m256d ha = _mm256_loadu_pd(pha);
        const __m256d hp_ = _mm256_loadu_pd(php);
        const __m256d las =
            swapLanes ? _mm256_permute2f128_pd(la, la, 0x01) : la;
        const __m256d lps =
            swapLanes ? _mm256_permute2f128_pd(lp, lp, 0x01) : lp;
        const __m256d has =
            swapLanes ? _mm256_permute2f128_pd(ha, ha, 0x01) : ha;
        const __m256d hps =
            swapLanes ? _mm256_permute2f128_pd(hp_, hp_, 0x01) : hp_;
        // Block lanes meet the partner's chi, partner lanes the
        // block's.
        overlapAcc(la, hps, _mm256_xor_pd(wRe, s0),
                   _mm256_xor_pd(wIm, s0), accRe, accIm);
        overlapAcc(lp, has, _mm256_xor_pd(pwRe, s0),
                   _mm256_xor_pd(pwIm, s0), accRe, accIm);
        rotStore(pla, la, lps, cv, evr, evi, s0);
        rotStore(plp, lp, las, cv, pvr, pvi, s0);
        rotStore(pha, ha, hps, cv, evr, evi, s0);
        rotStore(php, hp_, has, cv, pvr, pvi, s0);
    }
    return {hsum(accRe), hsum(accIm)};
}

QCC_AVX2 void
accumulatePauliAvx2(const cplx *ampc, cplx *outc, size_t b_lo,
                    size_t b_hi, uint64_t x, uint64_t z, cplx w)
{
    const double *amp = reinterpret_cast<const double *>(ampc);
    double *out = reinterpret_cast<double *>(outc);
    const uint64_t xe = x & ~uint64_t{1};
    const bool swapLanes = (x & 1) != 0;
    const double e0 = (z & 1) ? -1.0 : 1.0;
    const __m256d ewr = _mm256_setr_pd(w.real(), w.real(),
                                       e0 * w.real(), e0 * w.real());
    const __m256d ewi = _mm256_setr_pd(w.imag(), w.imag(),
                                       e0 * w.imag(), e0 * w.imag());
    size_t b = b_lo;
    if ((b & 1) && b < b_hi) {
        accumulateOne(ampc, outc, b, x, z, w);
        ++b;
    }
    for (; b + 2 <= b_hi; b += 2) {
        __m256d p = _mm256_loadu_pd(amp + 2 * (b ^ xe));
        if (swapLanes)
            p = _mm256_permute2f128_pd(p, p, 0x01);
        const __m256d o = _mm256_loadu_pd(out + 2 * b);
        _mm256_storeu_pd(
            out + 2 * b,
            _mm256_add_pd(o, _mm256_xor_pd(cmulBcast(p, ewr, ewi),
                                           signMask(z, b))));
    }
    if (b < b_hi)
        accumulateOne(ampc, outc, b, x, z, w);
}

QCC_AVX2 double
expectDiagAvx2(const cplx *ampc, size_t b_lo, size_t b_hi, uint64_t z)
{
    const double *amp = reinterpret_cast<const double *>(ampc);
    const double e0 = (z & 1) ? -1.0 : 1.0;
    const __m256d evec = _mm256_setr_pd(1.0, 1.0, e0, e0);
    const __m256d evenMask = _mm256_castsi256_pd(
        _mm256_setr_epi64x(-1, 0, -1, 0));
    __m256d acc = _mm256_setzero_pd();
    double tail = 0.0;
    size_t b = b_lo;
    if ((b & 1) && b < b_hi) {
        tail += paritySign(z, b) * std::norm(ampc[b]);
        ++b;
    }
    for (; b + 2 <= b_hi; b += 2) {
        const double s0 = paritySign(z, b);
        const __m256d sv = _mm256_mul_pd(_mm256_set1_pd(s0), evec);
        const __m256d a = _mm256_loadu_pd(amp + 2 * b);
        const __m256d m = _mm256_mul_pd(a, a);
        __m256d t = _mm256_add_pd(m, _mm256_shuffle_pd(m, m, 0x5));
        t = _mm256_and_pd(t, evenMask);
        acc = _mm256_fmadd_pd(t, sv, acc);
    }
    for (; b < b_hi; ++b)
        tail += paritySign(z, b) * std::norm(ampc[b]);
    return hsum(acc) + tail;
}

QCC_AVX2 double
groupExpectAvx2(const cplx *ampc, size_t b_lo, size_t b_hi,
                uint64_t b_offset, const double *w,
                const uint64_t *zmask, size_t n_terms)
{
    const double *amp = reinterpret_cast<const double *>(ampc);
    // Per-term sign patterns over the low two index bits, in the
    // (b, b+2, b+1, b+3) lane order produced by hadd below.
    static const double patTable[4][4] = {
        {1.0, 1.0, 1.0, 1.0},
        {1.0, 1.0, -1.0, -1.0},
        {1.0, -1.0, 1.0, -1.0},
        {1.0, -1.0, -1.0, 1.0},
    };
    const __m256d pats[4] = {
        _mm256_loadu_pd(patTable[0]),
        _mm256_loadu_pd(patTable[1]),
        _mm256_loadu_pd(patTable[2]),
        _mm256_loadu_pd(patTable[3]),
    };
    __m256d acc = _mm256_setzero_pd();
    double tail = 0.0;
    size_t b = b_lo;
    for (; b < b_hi && ((b_offset | b) & 3); ++b)
        tail += groupExpectOne(ampc, b, b_offset | b, w, zmask,
                               n_terms);
    for (; b + 4 <= b_hi; b += 4) {
        const uint64_t g = b_offset | b;
        const __m256d v0 = _mm256_loadu_pd(amp + 2 * b);
        const __m256d v1 = _mm256_loadu_pd(amp + 2 * b + 4);
        const __m256d p = _mm256_hadd_pd(_mm256_mul_pd(v0, v0),
                                         _mm256_mul_pd(v1, v1));
        for (size_t t = 0; t < n_terms; ++t) {
            const uint64_t zm = zmask[t];
            const double ws = w[t] * paritySign(zm & ~3ull, g);
            acc = _mm256_fmadd_pd(_mm256_mul_pd(p, pats[zm & 3]),
                                  _mm256_set1_pd(ws), acc);
        }
    }
    for (; b < b_hi; ++b)
        tail += groupExpectOne(ampc, b, b_offset | b, w, zmask,
                               n_terms);
    return hsum(acc) + tail;
}

QCC_AVX2 void
depolarize1Avx2(cplx *ampc, size_t k_lo, size_t k_hi, uint64_t kbit,
                uint64_t bbit, double keep, double mix)
{
    if (kbit < 2) {
        // Runs shorter than one register: the scalar sweep wins.
        depolarize1Scalar(ampc, k_lo, k_hi, kbit, bbit, keep, mix);
        return;
    }
    double *amp = reinterpret_cast<double *>(ampc);
    const __m256d keepv = _mm256_set1_pd(keep);
    const __m256d mixv = _mm256_set1_pd(mix);
    size_t k = k_lo;
    while (k < k_hi) {
        // Low k bits below kbit map 1:1 onto base, so each k-run is
        // four contiguous amplitude streams (one per block entry).
        const size_t runEnd =
            std::min<size_t>(k_hi, (k | (kbit - 1)) + 1);
        const size_t base = expandBit(expandBit(k, kbit), bbit);
        double *p00 = amp + 2 * base;
        double *p01 = amp + 2 * (base | kbit);
        double *p10 = amp + 2 * (base | bbit);
        double *p11 = amp + 2 * (base | kbit | bbit);
        const size_t len = runEnd - k;
        size_t i = 0;
        for (; i + 2 <= len; i += 2) {
            const __m256d a00 = _mm256_loadu_pd(p00 + 2 * i);
            const __m256d a11 = _mm256_loadu_pd(p11 + 2 * i);
            // keep/mix are real, so packed complex scales are plain
            // element-wise mul/fmadd.
            const __m256d tr = _mm256_add_pd(a00, a11);
            _mm256_storeu_pd(p00 + 2 * i,
                             _mm256_fmadd_pd(
                                 mixv, tr,
                                 _mm256_mul_pd(keepv, a00)));
            _mm256_storeu_pd(p11 + 2 * i,
                             _mm256_fmadd_pd(
                                 mixv, tr,
                                 _mm256_mul_pd(keepv, a11)));
            _mm256_storeu_pd(
                p01 + 2 * i,
                _mm256_mul_pd(keepv,
                              _mm256_loadu_pd(p01 + 2 * i)));
            _mm256_storeu_pd(
                p10 + 2 * i,
                _mm256_mul_pd(keepv,
                              _mm256_loadu_pd(p10 + 2 * i)));
        }
        if (i < len)
            depolarize1Scalar(ampc, k + i, runEnd, kbit, bbit, keep,
                              mix);
        k = runEnd;
    }
}

QCC_AVX2 void
depolarize2Avx2(cplx *ampc, size_t k_lo, size_t k_hi, uint64_t ka,
                uint64_t kb, uint64_t ba, uint64_t bb, double keep,
                double mix)
{
    if (ka < 2) {
        depolarize2Scalar(ampc, k_lo, k_hi, ka, kb, ba, bb, keep,
                          mix);
        return;
    }
    double *amp = reinterpret_cast<double *>(ampc);
    const __m256d keepv = _mm256_set1_pd(keep);
    const __m256d mixv = _mm256_set1_pd(mix);
    const uint64_t sub[4] = {0, ka, kb, ka | kb};
    const uint64_t bsub[4] = {0, ba, bb, ba | bb};
    size_t k = k_lo;
    while (k < k_hi) {
        const size_t runEnd =
            std::min<size_t>(k_hi, (k | (ka - 1)) + 1);
        const size_t base = expandBit(
            expandBit(expandBit(expandBit(k, ka), kb), ba), bb);
        // 16 contiguous streams, one per 4x4 block entry.
        double *p[4][4];
        for (int s1 = 0; s1 < 4; ++s1)
            for (int s2 = 0; s2 < 4; ++s2)
                p[s1][s2] = amp + 2 * (base | sub[s1] | bsub[s2]);
        const size_t len = runEnd - k;
        size_t i = 0;
        for (; i + 2 <= len; i += 2) {
            __m256d tr = _mm256_loadu_pd(p[0][0] + 2 * i);
            for (int s = 1; s < 4; ++s)
                tr = _mm256_add_pd(tr,
                                   _mm256_loadu_pd(p[s][s] + 2 * i));
            for (int s1 = 0; s1 < 4; ++s1) {
                for (int s2 = 0; s2 < 4; ++s2) {
                    __m256d v = _mm256_mul_pd(
                        keepv, _mm256_loadu_pd(p[s1][s2] + 2 * i));
                    if (s1 == s2)
                        v = _mm256_fmadd_pd(mixv, tr, v);
                    _mm256_storeu_pd(p[s1][s2] + 2 * i, v);
                }
            }
        }
        if (i < len)
            depolarize2Scalar(ampc, k + i, runEnd, ka, kb, ba, bb,
                              keep, mix);
        k = runEnd;
    }
}

} // namespace

#endif // QCC_SIMD_X86

// ---------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------

void
apply1q(cplx *amp, size_t k_lo, size_t k_hi, uint64_t bit,
        const cplx u[4])
{
#ifdef QCC_SIMD_X86
    if (simdActive()) {
        apply1qAvx2(amp, k_lo, k_hi, bit, u);
        return;
    }
#endif
    apply1qScalar(amp, k_lo, k_hi, bit, u);
}

void
diag1q(cplx *amp, size_t b_lo, size_t b_hi, uint64_t bit, cplx d0,
       cplx d1)
{
#ifdef QCC_SIMD_X86
    if (simdActive()) {
        diag1qAvx2(amp, b_lo, b_hi, bit, d0, d1);
        return;
    }
#endif
    diag1qScalar(amp, b_lo, b_hi, bit, d0, d1);
}

void
diagMul(cplx *amp, size_t b_lo, size_t b_hi, const cplx *pattern,
        uint64_t pat_mask, cplx scale)
{
#ifdef QCC_SIMD_X86
    if (simdActive()) {
        diagMulAvx2(amp, b_lo, b_hi, pattern, pat_mask, scale);
        return;
    }
#endif
    diagMulScalar(amp, b_lo, b_hi, pattern, pat_mask, scale);
}

void
pauliRotPairs(cplx *amp, size_t m_lo, size_t m_hi, uint64_t x,
              uint64_t z, double c, double vr, double vi)
{
#ifdef QCC_SIMD_X86
    if (simdActive()) {
        pauliRotPairsAvx2(amp, m_lo, m_hi, x, z, c, vr, vi);
        return;
    }
#endif
    pauliRotPairsScalar(amp, m_lo, m_hi, x, z, c, vr, vi);
}

void
pauliRotDiag(cplx *amp, size_t b_lo, size_t b_hi, uint64_t z,
             cplx f_even, cplx f_odd)
{
#ifdef QCC_SIMD_X86
    if (simdActive()) {
        pauliRotDiagAvx2(amp, b_lo, b_hi, z, f_even, f_odd);
        return;
    }
#endif
    pauliRotDiagScalar(amp, b_lo, b_hi, z, f_even, f_odd);
}

double
expectPairs(const cplx *amp, size_t m_lo, size_t m_hi, uint64_t x,
            uint64_t z, bool sigma_pos)
{
#ifdef QCC_SIMD_X86
    if (simdActive())
        return expectPairsAvx2(amp, m_lo, m_hi, x, z, sigma_pos);
#endif
    return expectPairsScalar(amp, m_lo, m_hi, x, z, sigma_pos);
}

void
accumulatePauli(const cplx *amp, cplx *out, size_t b_lo, size_t b_hi,
                uint64_t x, uint64_t z, cplx w)
{
#ifdef QCC_SIMD_X86
    if (simdActive()) {
        accumulatePauliAvx2(amp, out, b_lo, b_hi, x, z, w);
        return;
    }
#endif
    accumulatePauliScalar(amp, out, b_lo, b_hi, x, z, w);
}

cplx
adjointPairs(cplx *lam, cplx *chi, size_t m_lo, size_t m_hi, uint64_t x,
             uint64_t z, double c, double vr, double vi)
{
#ifdef QCC_SIMD_X86
    if (simdActive())
        return adjointPairsAvx2(lam, chi, m_lo, m_hi, x, z, c, vr, vi);
#endif
    return adjointPairsScalar(lam, chi, m_lo, m_hi, x, z, c, vr, vi);
}

double
expectDiag(const cplx *amp, size_t b_lo, size_t b_hi, uint64_t z)
{
#ifdef QCC_SIMD_X86
    if (simdActive())
        return expectDiagAvx2(amp, b_lo, b_hi, z);
#endif
    return expectDiagScalar(amp, b_lo, b_hi, z);
}

double
groupExpect(const cplx *amp, size_t b_lo, size_t b_hi,
            uint64_t b_offset, const double *w, const uint64_t *zmask,
            size_t n_terms)
{
#ifdef QCC_SIMD_X86
    if (simdActive())
        return groupExpectAvx2(amp, b_lo, b_hi, b_offset, w, zmask,
                               n_terms);
#endif
    return groupExpectScalar(amp, b_lo, b_hi, b_offset, w, zmask,
                             n_terms);
}

void
depolarize1(cplx *amp, size_t k_lo, size_t k_hi, uint64_t kbit,
            uint64_t bbit, double keep, double mix)
{
#ifdef QCC_SIMD_X86
    if (simdActive()) {
        depolarize1Avx2(amp, k_lo, k_hi, kbit, bbit, keep, mix);
        return;
    }
#endif
    depolarize1Scalar(amp, k_lo, k_hi, kbit, bbit, keep, mix);
}

void
depolarize2(cplx *amp, size_t k_lo, size_t k_hi, uint64_t ka,
            uint64_t kb, uint64_t ba, uint64_t bb, double keep,
            double mix)
{
#ifdef QCC_SIMD_X86
    if (simdActive()) {
        depolarize2Avx2(amp, k_lo, k_hi, ka, kb, ba, bb, keep, mix);
        return;
    }
#endif
    depolarize2Scalar(amp, k_lo, k_hi, ka, kb, ba, bb, keep, mix);
}

} // namespace ranges
} // namespace kern
} // namespace qcc
