#include <cmath>
#include <complex>

#include "perfbench.hh"

namespace perfbench {

namespace {

/** A 12-qubit state: the size the vqe_uccsd simulator works on. */
constexpr unsigned kProbeDim = 1u << 12;

/** Untimed rotations that bring the vector back into cache. */
constexpr int kWarmRotations = 24;

/** Timed rotations: about 12 ms on the host the benchmark was
 *  tuned on. */
constexpr int kTimedRotations = 300;

/** Single-qubit X rotations on each qubit in turn. */
double
rotate(std::vector<std::complex<double>> &psi, int rotations)
{
    const double c = std::cos(0.05), s = std::sin(0.05);
    for (int r = 0; r < rotations; ++r) {
        const unsigned bit = 1u << (unsigned(r) % 12);
        for (unsigned i = 0; i < kProbeDim; ++i) {
            if (i & bit)
                continue;
            const std::complex<double> a = psi[i], b = psi[i | bit];
            psi[i] = {c * a.real() + s * b.imag(),
                      c * a.imag() - s * b.real()};
            psi[i | bit] = {c * b.real() + s * a.imag(),
                            c * b.imag() - s * a.real()};
        }
    }
    return psi[0].real();
}

} // namespace

double
hostProbeMs()
{
    static std::vector<std::complex<double>> psi(kProbeDim,
                                                 {1.0 / 64.0, 0.0});
    rotate(psi, kWarmRotations);
    const auto t0 = clock_type::now();
    const double x = rotate(psi, kTimedRotations);
    const double ms = millisSince(t0);
    // A norm-preserving rotation keeps |x| <= 1; the test only makes
    // the result observable, so the work cannot be optimized away.
    return std::fabs(x) > 1.0 ? ms + 1.0 : ms;
}

} // namespace perfbench
