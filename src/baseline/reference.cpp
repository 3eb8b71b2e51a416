#include "baseline/reference.h"

#include <cmath>

#include "common/check.h"
#include "common/grid.h"
#include "common/once_tables.h"

namespace pp::ref {

std::vector<cd> dft(const std::vector<cd>& x) {
  const size_t n = x.size();
  std::vector<cd> y(n);
  for (size_t k = 0; k < n; ++k) {
    cd acc{0.0, 0.0};
    for (size_t t = 0; t < n; ++t) {
      const double ang = -2.0 * M_PI * static_cast<double>(k * t % n) /
                         static_cast<double>(n);
      acc += x[t] * cd{std::cos(ang), std::sin(ang)};
    }
    y[k] = acc / static_cast<double>(n);
  }
  return y;
}

namespace {

// Stage twiddles w_j = wl^j for a length-`len` butterfly stage, built with
// the same incremental product the loop below previously ran inline (so
// results stay bit-identical) and cached per (log2(len), direction) under
// std::call_once.  Scenario construction and golden receives run these FFTs
// concurrently from sweep workers; the tables are immutable once built.
const std::vector<cd>& stage_twiddles(size_t len, bool inverse) {
  static common::Once_tables<cd, 64> cache;
  size_t log2len = 0;
  while ((size_t{1} << log2len) != len) ++log2len;
  return cache.get(2 * log2len + (inverse ? 1 : 0), [len, inverse] {
    const double ang = (inverse ? 2.0 : -2.0) * M_PI / static_cast<double>(len);
    const cd wl{std::cos(ang), std::sin(ang)};
    std::vector<cd> t(len / 2);
    cd w{1.0, 0.0};
    for (size_t j = 0; j < len / 2; ++j) {
      t[j] = w;
      w *= wl;
    }
    return t;
  });
}

// Bit-reversal permutation of `a` (power-of-two size), the layout every
// butterfly stage assumes.
void fft_bit_reverse(std::vector<cd>& a) {
  const size_t n = a.size();
  PP_CHECK((n & (n - 1)) == 0 && n > 0, "fft size must be a power of two");
  for (size_t i = 1, j = 0; i < n; ++i) {
    size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
}

// One length-`len` butterfly stage over all size(a)/len independent blocks
// (block i spans a[i*len .. (i+1)*len)).
void fft_stage_blocks(std::vector<cd>& a, size_t len, bool inverse) {
  const std::vector<cd>& tw = stage_twiddles(len, inverse);
  for (size_t i = 0; i < a.size(); i += len) {
    for (size_t j = 0; j < len / 2; ++j) {
      const cd u = a[i + j];
      const cd v = a[i + j + len / 2] * tw[j];
      a[i + j] = u + v;
      a[i + j + len / 2] = u - v;
    }
  }
}

// The forward FFT's final 1/N normalization.
void fft_scale(std::vector<cd>& a) {
  const double n = static_cast<double>(a.size());
  for (auto& v : a) v /= n;
}

void fft_inplace(std::vector<cd>& a, bool inverse) {
  fft_bit_reverse(a);
  for (size_t len = 2; len <= a.size(); len <<= 1) {
    fft_stage_blocks(a, len, inverse);
  }
}

}  // namespace

std::vector<cd> fft(const std::vector<cd>& x) {
  std::vector<cd> a = x;
  fft_inplace(a, false);
  fft_scale(a);
  return a;
}

void fft_into(const std::vector<cd>& x, std::vector<cd>& y) {
  y.assign(x.begin(), x.end());
  fft_inplace(y, false);
  fft_scale(y);
}

std::vector<cd> ifft(const std::vector<cd>& x) {
  std::vector<cd> a = x;
  fft_inplace(a, true);
  return a;
}

void matmul_rows(std::span<const cd> a, std::span<const cd> b,
                 std::span<cd> c, size_t m, size_t k, size_t p,
                 size_t row_begin, size_t row_end) {
  PP_CHECK(a.size() == m * k && b.size() == k * p && c.size() == m * p,
           "matmul shape mismatch");
  PP_CHECK(row_begin <= row_end && row_end <= m, "matmul row tile out of range");
  for (size_t i = row_begin; i < row_end; ++i) {
    for (size_t j = 0; j < p; ++j) c[i * p + j] = cd{0.0, 0.0};
    for (size_t kk = 0; kk < k; ++kk) {
      const cd av = a[i * k + kk];
      for (size_t j = 0; j < p; ++j) {
        c[i * p + j] += av * b[kk * p + j];
      }
    }
  }
}

std::vector<cd> matmul(const std::vector<cd>& a, const std::vector<cd>& b,
                       size_t m, size_t k, size_t p) {
  std::vector<cd> c(m * p);
  matmul_rows(a, b, c, m, k, p, 0, m);
  return c;
}

void gram_rows(std::span<const cd> a, std::span<cd> g, size_t m,
               size_t k, size_t row_begin, size_t row_end) {
  PP_CHECK(a.size() == m * k && g.size() == k * k, "gram shape mismatch");
  PP_CHECK(row_begin <= row_end && row_end <= k, "gram row tile out of range");
  for (size_t i = row_begin; i < row_end; ++i) {
    for (size_t j = 0; j < k; ++j) {
      cd acc{0.0, 0.0};
      for (size_t r = 0; r < m; ++r) {
        acc += std::conj(a[r * k + i]) * a[r * k + j];
      }
      g[i * k + j] = acc;
    }
  }
}

std::vector<cd> gram(const std::vector<cd>& a, size_t m, size_t k) {
  std::vector<cd> g(k * k);
  gram_rows(a, g, m, k, 0, k);
  return g;
}

void cholesky_into(std::span<const cd> g, size_t n, std::span<cd> l) {
  PP_CHECK(g.size() == n * n, "cholesky shape mismatch");
  PP_CHECK(l.size() == n * n, "cholesky output shape mismatch");
  // The factorization only writes the lower triangle; zero the rest so a
  // reused workspace holds exactly what the returning form returns.
  for (size_t i = 0; i < n * n; ++i) l[i] = cd{0.0, 0.0};
  for (size_t j = 0; j < n; ++j) {
    double diag = g[j * n + j].real();
    for (size_t k = 0; k < j; ++k) diag -= std::norm(l[j * n + k]);
    PP_CHECK(diag > 0.0, "matrix not positive definite");
    const double ljj = std::sqrt(diag);
    l[j * n + j] = ljj;
    for (size_t i = j + 1; i < n; ++i) {
      cd acc = g[i * n + j];
      for (size_t k = 0; k < j; ++k) {
        acc -= l[i * n + k] * std::conj(l[j * n + k]);
      }
      l[i * n + j] = acc / ljj;
    }
  }
}

std::vector<cd> cholesky(const std::vector<cd>& g, size_t n) {
  std::vector<cd> l(n * n);
  cholesky_into(g, n, l);
  return l;
}

void forward_solve_into(std::span<const cd> l, std::span<const cd> y,
                        size_t n, std::span<cd> z) {
  PP_CHECK(z.size() == n, "forward_solve output shape mismatch");
  for (size_t i = 0; i < n; ++i) {
    cd acc = y[i];
    for (size_t k = 0; k < i; ++k) acc -= l[i * n + k] * z[k];
    z[i] = acc / l[i * n + i];
  }
}

std::vector<cd> forward_solve(const std::vector<cd>& l,
                              const std::vector<cd>& y, size_t n) {
  std::vector<cd> z(n);
  forward_solve_into(l, y, n, z);
  return z;
}

void backward_solve_into(std::span<const cd> l, std::span<const cd> z,
                         size_t n, std::span<cd> x) {
  PP_CHECK(x.size() == n, "backward_solve output shape mismatch");
  for (size_t ii = n; ii-- > 0;) {
    cd acc = z[ii];
    for (size_t k = ii + 1; k < n; ++k) {
      acc -= std::conj(l[k * n + ii]) * x[k];
    }
    x[ii] = acc / l[ii * n + ii];
  }
}

std::vector<cd> backward_solve(const std::vector<cd>& l,
                               const std::vector<cd>& z, size_t n) {
  std::vector<cd> x(n);
  backward_solve_into(l, z, n, x);
  return x;
}

void lmmse_into(std::span<const cd> h, std::span<const cd> y, size_t m,
                size_t n, double sigma2, Lmmse_ws& ws, std::span<cd> x) {
  PP_CHECK(x.size() == n, "lmmse output shape mismatch");
  common::ws_grow(ws.g, n * n);
  common::ws_grow(ws.l, n * n);
  common::ws_grow(ws.rhs, n);
  common::ws_grow(ws.z, n);
  // G = H^H H + sigma2 I
  gram_rows(h, ws.g, m, n, 0, n);
  for (size_t i = 0; i < n; ++i) ws.g[i * n + i] += sigma2;
  // rhs = H^H y
  for (size_t i = 0; i < n; ++i) {
    cd acc{0.0, 0.0};
    for (size_t r = 0; r < m; ++r) acc += std::conj(h[r * n + i]) * y[r];
    ws.rhs[i] = acc;
  }
  cholesky_into(std::span<const cd>{ws.g.data(), n * n}, n,
                std::span<cd>{ws.l.data(), n * n});
  forward_solve_into(std::span<const cd>{ws.l.data(), n * n},
                     std::span<const cd>{ws.rhs.data(), n}, n,
                     std::span<cd>{ws.z.data(), n});
  backward_solve_into(std::span<const cd>{ws.l.data(), n * n},
                      std::span<const cd>{ws.z.data(), n}, n, x);
}

std::vector<cd> lmmse(const std::vector<cd>& h, const std::vector<cd>& y,
                      size_t m, size_t n, double sigma2) {
  std::vector<cd> x(n);
  Lmmse_ws ws;
  lmmse_into(h, y, m, n, sigma2, ws, x);
  return x;
}

double mse(const std::vector<cd>& a, const std::vector<cd>& b) {
  PP_CHECK(a.size() == b.size(), "mse size mismatch");
  if (a.empty()) return 0.0;
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) acc += std::norm(a[i] - b[i]);
  return acc / static_cast<double>(a.size());
}

double sqnr_db(const std::vector<cd>& want, const std::vector<cd>& got) {
  double sig = 0.0, err = 0.0;
  for (size_t i = 0; i < want.size(); ++i) {
    sig += std::norm(want[i]);
    err += std::norm(want[i] - got[i]);
  }
  if (err == 0.0) return 200.0;
  return 10.0 * std::log10(sig / err);
}

}  // namespace pp::ref
