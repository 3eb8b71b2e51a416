// Host-native Q1.15 kernels: the receive chain's kernels as plain loops over
// host memory.
//
// The per-element arithmetic - butterflies, CHE products, Gram finishes, NE
// residuals, Cholesky and substitution steps - is not written here: every
// kernel calls the value-chain functions of common/q15_chain.h, the same
// ones the simulated kernels (src/kernels/) call between their loads and
// stores.  What this file owns is the loop structure around them, and that
// structure keeps the accumulation order exact integer arithmetic, so the
// outputs are bit-identical to the sim kernels' (tests/test_q15_chain.cpp).
//
// All kernels are range-parameterized: the full-range call is the serial
// kernel, and disjoint sub-ranges can run on worker threads.  Except for the
// noise-estimate fold (see ne_partial), every output element is produced by
// exact integer arithmetic over its own inputs, so results are independent
// of how the range is partitioned.
#ifndef PUSCHPOOL_FIXED_Q15_KERNELS_H
#define PUSCHPOOL_FIXED_Q15_KERNELS_H

#include <array>
#include <cstdint>
#include <vector>

#include "common/complex16.h"
#include "common/q15_chain.h"
#include "kernels/fft_plan.h"

namespace pp::fixed {

using common::cq15;

// ---- radix-4 DIF FFT ------------------------------------------------------

// Per-size FFT plan: the radix-4 geometry plus per-stage twiddle tables laid
// out in butterfly order, one contiguous array per rotated output port, so
// consecutive butterflies of one stage read consecutive twiddles (the layout
// the SIMD butterfly loads from).
struct Fft_plan {
  kernels::Fft_geom geom;
  // tw[k][m-1][g] = W_n^tw_exp(k, g, m) for stage k, butterfly g, output
  // port m in 1..3.  The last stage applies no twiddles and has no entry.
  std::vector<std::array<std::vector<cq15>, 3>> tw;

  explicit Fft_plan(uint32_t n);
};

// Shared per-size plan, built on first use and cached for the process
// lifetime (same contract as common::twiddle_q15).
const Fft_plan& fft_plan(uint32_t n);

// Full transform, stage by stage through the radix-4 DIF butterfly
// (common::radix4_dif, then common::radix4_twiddle on outputs 1..3):
// clobbers `buf` (the caller's scratch) and the final stage writes the
// digit-reversed result to `out`.
void fft_transform(const Fft_plan& plan, cq15* buf, cq15* out, bool simd);

// ---- beamforming MMM ------------------------------------------------------

// c[i*p + q] = round(sum_k a[i*k_dim + k] * b[k*p + q]) for rows
// [i_begin, i_end): a wide-accumulator matrix multiply (the sim kernel's
// k-stagger only reorders an exact int64 sum).
void mmm_rows(const cq15* a, const cq15* b, cq15* c, uint32_t k_dim,
              uint32_t p, uint32_t i_begin, uint32_t i_end);

// ---- channel estimate -----------------------------------------------------

// Block-LS channel estimate for sub-carriers [sc_begin, sc_end):
// h[(sc*n_b + b)*n_l + l] = common::che_elem(y_sep[l][sc*n_b + b],
// conj(pilot[l][sc])).
void che_subcarriers(const std::vector<std::vector<cq15>>& y_sep,
                     const std::vector<std::vector<cq15>>& pilots, cq15* h,
                     uint32_t n_b, uint32_t n_l, uint32_t sc_begin,
                     uint32_t sc_end, bool simd);

// ---- noise estimate -------------------------------------------------------

// The simulated NE's core partition, re-exported for host callers.
using common::Sc_block;
using common::sc_block;

// Q2.30 residual-power partial over sub-carriers [sc_begin, sc_end): the sum
// of common::ne_residual(y[sc*n_b+b], sum_l h[(sc*n_b+b)*n_l+l] *
// pilot[l][sc]).  The sim NE folds one such partial per core with
// common::ne_fold and sums the words mod 2^32, so the estimate depends on
// the core partition: callers compute one partial per common::sc_block of
// the simulated core count and fold exactly the same way.
int64_t ne_partial(const cq15* y, const cq15* h,
                   const std::vector<std::vector<cq15>>& pilots, uint32_t n_b,
                   uint32_t n_l, uint32_t sc_begin, uint32_t sc_end);

// ---- Gram + matched filter ------------------------------------------------

// Regularized Gramian for sub-carriers [sc_begin, sc_end):
// g[(sc*n_l+i)*n_l+j] = common::gram_entry(sum_b h_b[j] conj(h_b[i])),
// upper triangle by common::gram_mirror, with h_b[l] = h[(sc*n_b+b)*n_l+l]
// (n_l <= common::max_layers).  It depends only on the channel estimate, so
// a slot computes it once per sub-carrier for all its data symbols.
void gram_matrix(const cq15* h, cq15 sigma, cq15* g, uint32_t n_b,
                 uint32_t n_l, uint32_t sc_begin, uint32_t sc_end);

// Matched filter for sub-carriers [sc_begin, sc_end): rhs[sc*n_l+i] =
// round(sum_b y_b conj(h_b[i])), y_b = y[sc*n_b+b], h_b as in gram_matrix.
void matched_filter(const cq15* h, const cq15* y, cq15* rhs, uint32_t n_b,
                    uint32_t n_l, uint32_t sc_begin, uint32_t sc_end);

// The sim Gram kernel's whole output: gram_matrix then matched_filter over
// the same range.
void gram_subcarriers(const cq15* h, const cq15* y, cq15 sigma, cq15* g,
                      cq15* rhs, uint32_t n_b, uint32_t n_l,
                      uint32_t sc_begin, uint32_t sc_end);

// ---- Cholesky + triangular solves -----------------------------------------

// Lower-triangular Cholesky factor of the n x n Hermitian matrix g, column
// by column in the sim kernel's order: common::chol_diag_* on the diagonal,
// common::div_by_pivot off it.  The upper triangle of l is zeroed.
void cholesky(const cq15* g, cq15* l, uint32_t n);

// Forward (L z = y) then backward (L^H x = z) substitution on the factor
// produced by cholesky(), each step finished by common::div_by_pivot;
// n <= common::max_layers.
void trisolve(const cq15* l, const cq15* y, cq15* x, uint32_t n);

}  // namespace pp::fixed

#endif  // PUSCHPOOL_FIXED_Q15_KERNELS_H
