// The per-element Q1.15 value chains of the receive kernels.
//
// Each function below is one step of a kernel's arithmetic on one element:
// the radix-4 butterfly, the channel-estimate product, the Gram finish, the
// noise-estimate residual and fold, and the Cholesky / substitution steps.
// The simulated kernels (src/kernels/) wrap these calls in loads, stores and
// timing tokens; the host kernels (src/fixed/) wrap them in plain loops over
// host memory.  Both compute every output through the same code, so the sim
// and fixed backends agree bit for bit by construction
// (tests/test_q15_chain.cpp checks that no caller diverges on the corners).
//
// The vector path in src/fixed/simd.cpp is the one exception: it
// re-expresses the butterfly and CHE chains lane-wise and is pinned against
// these functions by the same tests.
#ifndef PUSCHPOOL_COMMON_Q15_CHAIN_H
#define PUSCHPOOL_COMMON_Q15_CHAIN_H

#include <algorithm>
#include <cstdint>

#include "common/complex16.h"
#include "common/fixed_point.h"

namespace pp::common {

// Layer (UE) limit of the MIMO kernels: Gram keeps one H row per beam in
// registers and the host solves keep an n_l x n_l factor on the stack.
inline constexpr uint32_t max_layers = 8;

// ---- sub-carrier partition --------------------------------------------------

// Sub-carriers [lo, hi) owned by part `idx` of `n_parts` under the kernels'
// ceil-chunk partition (trailing parts may be empty).  The NE fold depends on
// this partition, so every caller must split exactly this way.
struct Sc_block {
  uint32_t lo, hi;
};
constexpr Sc_block sc_block(uint32_t n_sc, uint32_t n_parts, uint32_t idx) {
  const uint32_t chunk = (n_sc + n_parts - 1) / n_parts;
  const uint32_t lo = std::min(idx * chunk, n_sc);
  return {lo, std::min(lo + chunk, n_sc)};
}

// ---- radix-4 DIF butterfly --------------------------------------------------

// Add network of one butterfly, in place on its four inputs in port order:
// a 1/4 pre-scale (so the Q1.15 adds cannot saturate), the radix-4 sums and
// the -j rotation of the odd difference.
constexpr void radix4_dif(cq15 (&v)[4]) {
  cq15 x[4];
  for (int j = 0; j < 4; ++j) x[j] = cquarter(v[j]);
  const cq15 a = cadd(x[0], x[2]);
  const cq15 c = csub(x[0], x[2]);
  const cq15 b = cadd(x[1], x[3]);
  const cq15 dj = cmul_mj(csub(x[1], x[3]));
  v[0] = cadd(a, b);
  v[1] = cadd(c, dj);
  v[2] = csub(a, b);
  v[3] = csub(c, dj);
}

// Stage twiddles on output ports 1..3 (every stage but the last).
constexpr void radix4_twiddle(cq15 (&v)[4], const cq15 (&w)[3]) {
  for (int m = 1; m < 4; ++m) v[m] = cmul(v[m], w[m - 1]);
}

// ---- channel estimate -------------------------------------------------------

// Block-LS estimate of one element, h = 2 * y * conj(pilot): `pilot_conj`
// is the conjugated pilot, and the doubling folds the pilots' |x|^2 = 1/2.
constexpr cq15 che_elem(cq15 y, cq15 pilot_conj) {
  const cq15 t = cmul(y, pilot_conj);
  return cadd(t, t);
}

// ---- noise estimate ---------------------------------------------------------

// Residual power |y - round(y_hat)|^2 of one beam sample, in Q2.30.
constexpr int64_t ne_residual(cq15 y, const cacc& y_hat) {
  return cmag2_raw(csub(y, y_hat.round()));
}

// One part's Q2.30 residual partial folded to the uint32 word the parts sum
// into (mod 2^32): Q15 units, negative partials clamped to zero.
constexpr uint32_t ne_fold(int64_t partial) {
  return static_cast<uint32_t>(std::max<int64_t>(0, partial >> q15_frac_bits));
}

// Noise variance from the summed fold words: the mean residual power over
// the n_sc * n_b samples, back in Q1.15 units.
constexpr double ne_sigma2(uint32_t folded, uint32_t n_sc, uint32_t n_b) {
  const double count = static_cast<double>(n_sc) * n_b;
  return static_cast<double>(folded) /
         (count * static_cast<double>(1 << q15_frac_bits));
}

// ---- Gram + matched filter --------------------------------------------------

// Lower-triangle entry G[i][j] from its wide accumulator: rounded, plus the
// regularizer sigma on the diagonal.
constexpr cq15 gram_entry(const cacc& acc, bool diagonal, cq15 sigma) {
  const cq15 v = acc.round();
  return diagonal ? cadd(v, sigma) : v;
}

// The mirrored upper-triangle entry G[j][i] of a lower entry G[i][j].
constexpr cq15 gram_mirror(cq15 lower) { return cconj(lower); }

// ---- Cholesky + substitutions -----------------------------------------------

// Diagonal L[j][j] = sqrt(Re G[j][j] - sum_k |L[j][k]|^2) in three steps:
// a Q2.30 accumulator seeded with Re G[j][j], one subtraction per earlier
// column, and a rounded Q1.15 square root (a non-positive sum clamps to 0).
constexpr int64_t chol_diag_init(cq15 g_jj) {
  return static_cast<int64_t>(g_jj.re) << q15_frac_bits;
}
constexpr int64_t chol_diag_sub(int64_t acc, cq15 l_jk) {
  return acc - cmag2_raw(l_jk);
}
constexpr cq15 chol_diag_finish(int64_t acc) {
  constexpr int64_t half = 1 << (q15_frac_bits - 1);
  return cq15{sqrt_q15(sat16((acc + half) >> q15_frac_bits)), 0};
}

// The step shared by the off-diagonal entries and both substitutions: round
// the wide numerator and divide each component by the real pivot (a zero
// pivot saturates toward the numerator's sign).
constexpr cq15 div_by_pivot(const cacc& num, int16_t pivot) {
  const cq15 v = num.round();
  return cq15{div_q15(v.re, pivot), div_q15(v.im, pivot)};
}

}  // namespace pp::common

#endif  // PUSCHPOOL_COMMON_Q15_CHAIN_H
