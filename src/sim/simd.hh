/**
 * @file
 * Runtime-dispatched SIMD layer under the simulator kernels. The
 * public kernels in sim/kernels.hh split their sweeps into index
 * ranges (via common/parallel) and hand each range to one of the
 * primitives below; every primitive has a portable scalar
 * implementation and, on x86-64 with AVX2+FMA, a vectorized one
 * compiled with per-function target attributes (no special build
 * flags needed). Which one runs is decided once at startup:
 *
 *   - QCC_SIMD=0 forces the scalar fallback (the CI matrix pins one
 *     leg to this so the dispatch seam cannot rot);
 *   - QCC_SIMD=1 / unset uses the vector path when the CPU supports
 *     it (checked with __builtin_cpu_supports);
 *   - setSimdEnabled() overrides the environment at runtime, which
 *     is how the equivalence tests and bench_sim_micro exercise both
 *     paths inside one process.
 *
 * The Algorithm-1 importance kernel (ansatz/importance.cc) selects
 * its AVX2 body through simdActive() too, so one switch covers every
 * vector path.
 *
 * The range primitives are also the building blocks of the fused,
 * cache-blocked executor (sim/fusion.hh): they take explicit index
 * ranges and a global-offset parameter where bit-parity signs depend
 * on the absolute basis index, so the same code runs over a whole
 * 2^n array or over one L2-sized block of it.
 *
 * Index conventions match sim/kernels.hh: `b` ranges are raw basis
 * indices, `k` ranges are compacted pair indices expanded around a
 * pivot bit with expandBit, and `m` ranges are the block indices of
 * the Pauli pair sweeps (pairBlocks).
 */

#ifndef QCC_SIM_SIMD_HH
#define QCC_SIM_SIMD_HH

#include <complex>
#include <cstddef>
#include <cstdint>

namespace qcc {
namespace kern {

using cplx = std::complex<double>;

/** True when this build carries the AVX2 kernel bodies (x86 only). */
bool simdCompiled();

/** True when the running CPU supports AVX2 + FMA. */
bool simdSupported();

/** True when the vector path is selected (support + QCC_SIMD). */
bool simdActive();

/**
 * Force the vector path on or off at runtime, overriding QCC_SIMD.
 * Enabling on an unsupported CPU is a silent no-op (scalar runs).
 * Used by the equivalence tests and the bench variants.
 */
void setSimdEnabled(bool enabled);

/** "avx2" or "scalar", for bench/report labels. */
const char *simdName();

/**
 * Range primitives. Each `xxx` dispatches to `xxxScalar` or the
 * AVX2 body according to simdActive(); the scalar forms are exposed
 * so tests can pin the oracle path explicitly.
 */
namespace ranges {

/** 2x2 unitary on pair-bit `bit` over compacted k in [k_lo, k_hi). */
void apply1q(cplx *amp, size_t k_lo, size_t k_hi, uint64_t bit,
             const cplx u[4]);
void apply1qScalar(cplx *amp, size_t k_lo, size_t k_hi, uint64_t bit,
                   const cplx u[4]);

/** diag(d0, d1) on `bit` over basis indices [b_lo, b_hi). */
void diag1q(cplx *amp, size_t b_lo, size_t b_hi, uint64_t bit,
            cplx d0, cplx d1);
void diag1qScalar(cplx *amp, size_t b_lo, size_t b_hi, uint64_t bit,
                  cplx d0, cplx d1);

/**
 * amp[b] *= scale * pattern[b & pat_mask] over [b_lo, b_hi).
 * pat_mask + 1 is a power of two (the pattern length); the fused
 * executor uses this to apply a whole run of diagonal gates as one
 * block sweep with the block-constant part folded into `scale`.
 */
void diagMul(cplx *amp, size_t b_lo, size_t b_hi,
             const cplx *pattern, uint64_t pat_mask, cplx scale);
void diagMulScalar(cplx *amp, size_t b_lo, size_t b_hi,
                   const cplx *pattern, uint64_t pat_mask, cplx scale);

/**
 * Number of block indices m of a pair sweep over x != 0 on a
 * dim-amplitude state. Block m is the aligned pair (b0, b0 + 1); its
 * partner block is at (b0 ^ x) & ~1, lane-swapped when x has bit 0
 * set. When x == 1 the partner block is the block itself, so there
 * are dim/2 blocks; otherwise m runs over the dim/4 blocks whose bit
 * h is clear (h = lowest set bit of x & ~1), and each block-pair
 * iteration covers two amplitude pairs exactly once.
 */
inline size_t
pairBlocks(size_t dim, uint64_t x)
{
    return (x & ~uint64_t{1}) ? dim / 4 : dim / 2;
}

/**
 * Pauli-rotation pair update over block indices [m_lo, m_hi) (see
 * pairBlocks). Every index b of the visited blocks and their
 * partners follows one rule,
 *   new[b] = c * a[b] + (vr + i vi) * s_b * a[b ^ x],
 * with s_b = (-1)^{|z&b|} and v = sigma i sin(theta) i^{|x&z|}
 * folded by kern::applyPauliRotation (sigma = (-1)^{|z&x|} is what
 * makes the rule hold for both members of a pair).
 */
void pauliRotPairs(cplx *amp, size_t m_lo, size_t m_hi, uint64_t x,
                   uint64_t z, double c, double vr, double vi);
void pauliRotPairsScalar(cplx *amp, size_t m_lo, size_t m_hi,
                         uint64_t x, uint64_t z, double c, double vr,
                         double vi);

/** Diagonal rotation (x == 0): amp[b] *= f_even or f_odd by the
 *  parity of |z & b| over [b_lo, b_hi). */
void pauliRotDiag(cplx *amp, size_t b_lo, size_t b_hi, uint64_t z,
                  cplx f_even, cplx f_odd);
void pauliRotDiagScalar(cplx *amp, size_t b_lo, size_t b_hi,
                        uint64_t z, cplx f_even, cplx f_odd);

/**
 * Expectation partial sum over block indices [m_lo, m_hi) (see
 * pairBlocks), one term per amplitude pair (b, b ^ x):
 * s_b Re(conj(a[b]) a[b^x]) when sigma_pos, s_b Im(conj(a[b])
 * a[b^x]) otherwise. Both are symmetric in the pair, so it does not
 * matter which member a block holds; kern::expectation applies the
 * constant that turns the sum into <P>.
 */
double expectPairs(const cplx *amp, size_t m_lo, size_t m_hi,
                   uint64_t x, uint64_t z, bool sigma_pos);
double expectPairsScalar(const cplx *amp, size_t m_lo, size_t m_hi,
                         uint64_t x, uint64_t z, bool sigma_pos);

/**
 * H·psi term over basis indices [b_lo, b_hi), read-only in amp:
 * out[b] += w * (-1)^{|z&b|} * amp[b ^ x], with w already carrying
 * i^{|x&z|} (-1)^{|z&x|} (see kern::accumulatePauli). One form for
 * every x, as in pauliRotPairs: an aligned (b, b+1) pair reads the
 * aligned partner pair at b ^ (x & ~1), lane-swapped when x has
 * bit 0 set. out must not alias amp.
 */
void accumulatePauli(const cplx *amp, cplx *out, size_t b_lo,
                     size_t b_hi, uint64_t x, uint64_t z, cplx w);
void accumulatePauliScalar(const cplx *amp, cplx *out, size_t b_lo,
                           size_t b_hi, uint64_t x, uint64_t z, cplx w);

/**
 * Adjoint-sweep step over block indices [m_lo, m_hi) (see
 * pairBlocks), x != 0: returns the overlap partial sum
 * sum_b (-1)^{|z&b|} conj(lam[b]) chi[b^x] over every index of the
 * visited blocks and their partners, read before the update, then
 * applies the pauliRotPairs update (same c, vr, vi, same arithmetic)
 * to lam and to chi. One iteration loads the block and partner
 * registers of both states once; kern::adjointStep applies the
 * constant that turns the sum into <lam|P|chi>.
 */
cplx adjointPairs(cplx *lam, cplx *chi, size_t m_lo, size_t m_hi,
                  uint64_t x, uint64_t z, double c, double vr,
                  double vi);
cplx adjointPairsScalar(cplx *lam, cplx *chi, size_t m_lo, size_t m_hi,
                        uint64_t x, uint64_t z, double c, double vr,
                        double vi);

/** sum_b (-1)^{|z&b|} |amp[b]|^2 over [b_lo, b_hi). */
double expectDiag(const cplx *amp, size_t b_lo, size_t b_hi,
                  uint64_t z);
double expectDiagScalar(const cplx *amp, size_t b_lo, size_t b_hi,
                        uint64_t z);

/**
 * Grouped diagonal-family partial sum over local indices
 * [b_lo, b_hi): sum_t w[t] * sum_b (-1)^{|zmask[t] & (b_offset|b)|}
 * * |amp[b]|^2. b_offset is the block base when amp points at one
 * block of a larger state (its set bits must be disjoint from the
 * local index range), 0 for whole-array sweeps.
 */
double groupExpect(const cplx *amp, size_t b_lo, size_t b_hi,
                   uint64_t b_offset, const double *w,
                   const uint64_t *zmask, size_t n_terms);
double groupExpectScalar(const cplx *amp, size_t b_lo, size_t b_hi,
                         uint64_t b_offset, const double *w,
                         const uint64_t *zmask, size_t n_terms);

/**
 * Single-qubit depolarizing sweep over one vectorized density
 * matrix. k in [k_lo, k_hi) compacts away the ket bit `kbit` and the
 * bra bit `bbit` (kbit < bbit required): each k names one 2x2
 * sub-block {base, base|kbit, base|bbit, base|kbit|bbit}, which is
 * scaled by `keep` with `mix * (partial trace)` added back on the
 * two diagonal entries. keep/mix are real, so the AVX2 body is plain
 * mul/fmadd on packed complex doubles.
 */
void depolarize1(cplx *amp, size_t k_lo, size_t k_hi, uint64_t kbit,
                 uint64_t bbit, double keep, double mix);
void depolarize1Scalar(cplx *amp, size_t k_lo, size_t k_hi,
                       uint64_t kbit, uint64_t bbit, double keep,
                       double mix);

/**
 * Two-qubit depolarizing sweep: k compacts away the two ket bits
 * (ka < kb) and two bra bits (ba < bb, both above kb); each k names
 * a 4x4 sub-block scaled by `keep` with `mix * (partial trace over
 * the four diagonal entries)` added on the diagonal.
 */
void depolarize2(cplx *amp, size_t k_lo, size_t k_hi, uint64_t ka,
                 uint64_t kb, uint64_t ba, uint64_t bb, double keep,
                 double mix);
void depolarize2Scalar(cplx *amp, size_t k_lo, size_t k_hi,
                       uint64_t ka, uint64_t kb, uint64_t ba,
                       uint64_t bb, double keep, double mix);

/** @{ Permutation range kernels (scalar; these are pure moves). */
void applyX(cplx *amp, size_t k_lo, size_t k_hi, uint64_t bit);
void applyCx(cplx *amp, size_t k_lo, size_t k_hi, uint64_t cbit,
             uint64_t tbit);
void applySwap(cplx *amp, size_t k_lo, size_t k_hi, uint64_t abit,
               uint64_t bbit);
/** @} */

} // namespace ranges
} // namespace kern
} // namespace qcc

#endif // QCC_SIM_SIMD_HH
