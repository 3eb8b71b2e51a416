#include "fixed/q15_kernels.h"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>

#include "common/check.h"
#include "common/q15_chain.h"
#include "fixed/simd.h"

namespace pp::fixed {

using common::cacc;
using common::cconj;

// ---- FFT ------------------------------------------------------------------

Fft_plan::Fft_plan(uint32_t n) : geom(n) {
  tw.resize(geom.stages);
  for (uint32_t k = 0; k + 1 < geom.stages; ++k) {
    for (uint32_t m = 1; m < 4; ++m) {
      auto& t = tw[k][m - 1];
      t.resize(n / 4);
      for (uint32_t g = 0; g < n / 4; ++g) {
        t[g] = geom.twiddle(geom.tw_exp(k, g, m));
      }
    }
  }
}

const Fft_plan& fft_plan(uint32_t n) {
  static std::mutex mu;
  static std::map<uint32_t, std::unique_ptr<Fft_plan>> plans;  // process life
  std::lock_guard<std::mutex> lock(mu);
  auto it = plans.find(n);
  if (it == plans.end()) {
    it = plans.emplace(n, std::make_unique<Fft_plan>(n)).first;
  }
  return *it->second;
}

namespace {

// One butterfly of stage k: gather, shared value chain, scatter.
inline void butterfly_scalar(const Fft_plan& plan, uint32_t k, cq15* buf,
                             cq15* out, uint32_t g, bool last) {
  const kernels::Fft_geom& geom = plan.geom;
  const uint32_t d = geom.d(k);
  const uint32_t base = geom.base(k, g);
  cq15 v[4];
  for (uint32_t j = 0; j < 4; ++j) v[j] = buf[base + j * d];
  common::radix4_dif(v);
  if (!last) {
    const cq15 w[3] = {plan.tw[k][0][g], plan.tw[k][1][g], plan.tw[k][2][g]};
    common::radix4_twiddle(v, w);
  }
  for (uint32_t m = 0; m < 4; ++m) {
    const uint32_t i_out = base + m * d;
    if (last) {
      out[geom.digitrev(i_out)] = v[m];
    } else {
      buf[i_out] = v[m];
    }
  }
}

// One in-place stage k over all n/4 butterflies; the final stage writes
// into `out` instead of back into `buf`.
void fft_stage(const Fft_plan& plan, uint32_t k, cq15* buf, cq15* out,
               bool simd) {
  const kernels::Fft_geom& geom = plan.geom;
  const bool last = k + 1 == geom.stages;
  const uint32_t d = geom.d(k);
  const uint32_t g_end = geom.n / 4;
  uint32_t g = 0;
  while (g < g_end) {
    // Butterflies of one d-group are contiguous in memory: for g = G*d + t,
    // port j sits at (G*4d + t) + j*d, consecutive in t.  Vectorize each
    // contiguous run; the tail (and the digit-reversed last stage) is
    // scalar.
    const uint32_t run = std::min(g_end - g, d - g % d);
    uint32_t done = 0;
    if (simd && !last) {
      done = butterfly_prefix(buf + geom.base(k, g), d,
                              plan.tw[k][0].data() + g,
                              plan.tw[k][1].data() + g,
                              plan.tw[k][2].data() + g, run);
    }
    for (uint32_t t = done; t < run; ++t) {
      butterfly_scalar(plan, k, buf, out, g + t, last);
    }
    g += run;
  }
}

}  // namespace

void fft_transform(const Fft_plan& plan, cq15* buf, cq15* out, bool simd) {
  for (uint32_t k = 0; k < plan.geom.stages; ++k) {
    fft_stage(plan, k, buf, out, simd);
  }
}

// ---- MMM ------------------------------------------------------------------

void mmm_rows(const cq15* a, const cq15* b, cq15* c, uint32_t k_dim,
              uint32_t p, uint32_t i_begin, uint32_t i_end) {
  for (uint32_t i = i_begin; i < i_end; ++i) {
    const cq15* arow = a + static_cast<size_t>(i) * k_dim;
    for (uint32_t q = 0; q < p; ++q) {
      int64_t re = 0, im = 0;
#pragma omp simd reduction(+ : re, im)
      for (uint32_t k = 0; k < k_dim; ++k) {
        const cq15 av = arow[k];
        const cq15 bv = b[static_cast<size_t>(k) * p + q];
        re += static_cast<int64_t>(av.re) * bv.re -
              static_cast<int64_t>(av.im) * bv.im;
        im += static_cast<int64_t>(av.re) * bv.im +
              static_cast<int64_t>(av.im) * bv.re;
      }
      c[static_cast<size_t>(i) * p + q] = cacc{re, im}.round();
    }
  }
}

// ---- CHE ------------------------------------------------------------------

void che_subcarriers(const std::vector<std::vector<cq15>>& y_sep,
                     const std::vector<std::vector<cq15>>& pilots, cq15* h,
                     uint32_t n_b, uint32_t n_l, uint32_t sc_begin,
                     uint32_t sc_end, bool simd) {
  // Stack scratch, beam-blocked: this runs on the slot hot path once per
  // worker per slot, so it must not heap-allocate (the serving loop's
  // zero-steady-state contract).  The product is elementwise, so blocking
  // leaves every output bit unchanged.
  cq15 row[64];
  for (uint32_t sc = sc_begin; sc < sc_end; ++sc) {
    for (uint32_t l = 0; l < n_l; ++l) {
      const cq15 xc = cconj(pilots[l][sc]);
      const cq15* y = y_sep[l].data() + static_cast<size_t>(sc) * n_b;
      for (uint32_t b0 = 0; b0 < n_b; b0 += 64) {
        const uint32_t blk = std::min(64u, n_b - b0);
        uint32_t done = 0;
        if (simd) done = cmul_double_prefix(y + b0, xc, row, blk);
        for (uint32_t b = done; b < blk; ++b) {
          row[b] = common::che_elem(y[b0 + b], xc);
        }
        for (uint32_t b = 0; b < blk; ++b) {
          h[(static_cast<size_t>(sc) * n_b + b0 + b) * n_l + l] = row[b];
        }
      }
    }
  }
}

// ---- NE -------------------------------------------------------------------

int64_t ne_partial(const cq15* y, const cq15* h,
                   const std::vector<std::vector<cq15>>& pilots, uint32_t n_b,
                   uint32_t n_l, uint32_t sc_begin, uint32_t sc_end) {
  int64_t partial = 0;  // Q2.30 accumulator
  for (uint32_t sc = sc_begin; sc < sc_end; ++sc) {
    for (uint32_t b = 0; b < n_b; ++b) {
      const cq15* hrow = h + (static_cast<size_t>(sc) * n_b + b) * n_l;
      int64_t re = 0, im = 0;
#pragma omp simd reduction(+ : re, im)
      for (uint32_t l = 0; l < n_l; ++l) {
        const cq15 hv = hrow[l];
        const cq15 xv = pilots[l][sc];
        re += static_cast<int64_t>(hv.re) * xv.re -
              static_cast<int64_t>(hv.im) * xv.im;
        im += static_cast<int64_t>(hv.re) * xv.im +
              static_cast<int64_t>(hv.im) * xv.re;
      }
      partial += common::ne_residual(y[static_cast<size_t>(sc) * n_b + b],
                                     cacc{re, im});
    }
  }
  return partial;
}

// ---- Gram + matched filter ------------------------------------------------

void gram_matrix(const cq15* h, cq15 sigma, cq15* g, uint32_t n_b,
                 uint32_t n_l, uint32_t sc_begin, uint32_t sc_end) {
  PP_CHECK(n_l <= common::max_layers,
           "gram kernel keeps one H row in registers (n_l <= max_layers)");
  for (uint32_t sc = sc_begin; sc < sc_end; ++sc) {
    const cq15* hsc = h + static_cast<size_t>(sc) * n_b * n_l;
    // Lower triangle G[i][j] = sum_b h_b[j] conj(h_b[i]); each entry is an
    // exact int64 reduction over beams, so reducing per entry matches the
    // sim kernel's per-beam interleaved order bit for bit.
    for (uint32_t i = 0; i < n_l; ++i) {
      for (uint32_t j = 0; j <= i; ++j) {
        int64_t re = 0, im = 0;
#pragma omp simd reduction(+ : re, im)
        for (uint32_t b = 0; b < n_b; ++b) {
          const cq15 hj = hsc[static_cast<size_t>(b) * n_l + j];
          const cq15 hi = hsc[static_cast<size_t>(b) * n_l + i];
          // mac_conj(hj, hi): hj * conj(hi)
          re += static_cast<int64_t>(hj.re) * hi.re +
                static_cast<int64_t>(hj.im) * hi.im;
          im += static_cast<int64_t>(hj.im) * hi.re -
                static_cast<int64_t>(hj.re) * hi.im;
        }
        const cq15 v = common::gram_entry(cacc{re, im}, i == j, sigma);
        g[(static_cast<size_t>(sc) * n_l + i) * n_l + j] = v;
        if (i != j) {
          g[(static_cast<size_t>(sc) * n_l + j) * n_l + i] =
              common::gram_mirror(v);
        }
      }
    }
  }
}

void matched_filter(const cq15* h, const cq15* y, cq15* rhs, uint32_t n_b,
                    uint32_t n_l, uint32_t sc_begin, uint32_t sc_end) {
  for (uint32_t sc = sc_begin; sc < sc_end; ++sc) {
    const cq15* hsc = h + static_cast<size_t>(sc) * n_b * n_l;
    const cq15* ysc = y + static_cast<size_t>(sc) * n_b;
    for (uint32_t i = 0; i < n_l; ++i) {
      int64_t re = 0, im = 0;
#pragma omp simd reduction(+ : re, im)
      for (uint32_t b = 0; b < n_b; ++b) {
        const cq15 yv = ysc[b];
        const cq15 hi = hsc[static_cast<size_t>(b) * n_l + i];
        re += static_cast<int64_t>(yv.re) * hi.re +
              static_cast<int64_t>(yv.im) * hi.im;
        im += static_cast<int64_t>(yv.im) * hi.re -
              static_cast<int64_t>(yv.re) * hi.im;
      }
      rhs[static_cast<size_t>(sc) * n_l + i] = cacc{re, im}.round();
    }
  }
}

void gram_subcarriers(const cq15* h, const cq15* y, cq15 sigma, cq15* g,
                      cq15* rhs, uint32_t n_b, uint32_t n_l,
                      uint32_t sc_begin, uint32_t sc_end) {
  gram_matrix(h, sigma, g, n_b, n_l, sc_begin, sc_end);
  matched_filter(h, y, rhs, n_b, n_l, sc_begin, sc_end);
}

// ---- Cholesky + solves ----------------------------------------------------

namespace {

inline void chol_diag(const cq15* g, cq15* l, uint32_t n, uint32_t j) {
  int64_t acc = common::chol_diag_init(g[static_cast<size_t>(j) * n + j]);
  for (uint32_t k = 0; k < j; ++k) {
    acc = common::chol_diag_sub(acc, l[static_cast<size_t>(j) * n + k]);
  }
  l[static_cast<size_t>(j) * n + j] = common::chol_diag_finish(acc);
}

inline void chol_offdiag(const cq15* g, cq15* l, uint32_t n, uint32_t i,
                         uint32_t j) {
  cacc acc;
  acc.add_q15(g[static_cast<size_t>(i) * n + j]);
  for (uint32_t k = 0; k < j; ++k) {
    acc.msu_conj(l[static_cast<size_t>(i) * n + k],
                 l[static_cast<size_t>(j) * n + k]);
  }
  l[static_cast<size_t>(i) * n + j] =
      common::div_by_pivot(acc, l[static_cast<size_t>(j) * n + j].re);
}

}  // namespace

void cholesky(const cq15* g, cq15* l, uint32_t n) {
  for (uint32_t i = 0; i < n * n; ++i) l[i] = cq15{};
  chol_diag(g, l, n, 0);
  for (uint32_t j = 0; j + 1 < n; ++j) {
    for (uint32_t i = j + 1; i < n; ++i) chol_offdiag(g, l, n, i, j);
    chol_diag(g, l, n, j + 1);
  }
}

void trisolve(const cq15* l, const cq15* y, cq15* x, uint32_t n) {
  PP_CHECK(n <= common::max_layers,
           "trisolve keeps the solution vector in registers (n <= max_layers)");
  cq15 z[common::max_layers];
  // Forward substitution: L z = y.
  for (uint32_t i = 0; i < n; ++i) {
    cacc acc;
    acc.add_q15(y[i]);
    for (uint32_t k = 0; k < i; ++k) {
      acc.msu(l[static_cast<size_t>(i) * n + k], z[k]);
    }
    z[i] = common::div_by_pivot(acc, l[static_cast<size_t>(i) * n + i].re);
  }
  // Backward substitution: L^H x = z.
  for (uint32_t ii = n; ii-- > 0;) {
    cacc acc;
    acc.add_q15(z[ii]);
    for (uint32_t k = ii + 1; k < n; ++k) {
      acc.msu_conj(x[k], l[static_cast<size_t>(k) * n + ii]);
    }
    x[ii] = common::div_by_pivot(acc, l[static_cast<size_t>(ii) * n + ii].re);
  }
}

}  // namespace pp::fixed
