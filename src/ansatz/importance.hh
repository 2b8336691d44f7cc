/**
 * @file
 * Parameter importance estimation (Algorithm 1): each ansatz Pauli
 * string Pa is compared against every Hamiltonian string PH; the
 * importance decay d counts qubits where the comparison rules of
 * Section III-A make Pa unlikely to move PH's measurement, and the
 * string score is sum_H 2^-d |w_H|. A parameter's importance is the
 * sum of its strings' scores.
 *
 * stringScores is one batched kernel over the whole (ansatz,
 * Hamiltonian) pair, with a scalar body and an AVX2 body chosen like
 * the simulator kernels (sim/simd.hh). Both return, bit for bit, the
 * scores of the one-string reference stringImportance, which runs the
 * same scalar body on a single rotation.
 */

#ifndef QCC_ANSATZ_IMPORTANCE_HH
#define QCC_ANSATZ_IMPORTANCE_HH

#include <vector>

#include "ansatz/uccsd.hh"
#include "pauli/pauli_sum.hh"

namespace qcc {

/** Algorithm 1 score of a single ansatz string (the reference). */
double stringImportance(const PauliString &pa, const PauliSum &h);

/**
 * Scores for every rotation in program order, equal bit for bit to
 * stringImportance of each rotation's string.
 */
std::vector<double> stringScores(const Ansatz &ansatz,
                                 const PauliSum &h);

/** Per-parameter importance (sum over the parameter's strings). */
std::vector<double> parameterImportance(const Ansatz &ansatz,
                                        const PauliSum &h);

} // namespace qcc

#endif // QCC_ANSATZ_IMPORTANCE_HH
