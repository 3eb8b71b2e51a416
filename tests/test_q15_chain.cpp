// Kernel-level bit parity between the host Q15 kernels (src/fixed/) and the
// simulated kernels (src/kernels/) on corner inputs the slot-level parity
// suites never produce: full-scale +-0x8000 samples, the widest Gram, and
// degenerate factorizations where sqrt_q15 clamps to zero and div_q15
// divides by a zero pivot.  Both sides compute through the same value
// chains, so every comparison below is exact (==), never a tolerance.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "fixed/q15_kernels.h"
#include "fixed/simd.h"
#include "kernels/che_ne.h"
#include "kernels/cholesky.h"
#include "kernels/fft.h"
#include "kernels/gram.h"

namespace {

using namespace pp;
using common::cq15;
using common::Rng;

// Each component drawn from the saturation corners {-0x8000, 0x7fff} and
// their neighbours {-0x7fff, 0x7ffe}, plus zero.
cq15 corner_sample(Rng& rng) {
  static constexpr int16_t corners[] = {-0x8000, -0x7fff, 0, 0x7ffe, 0x7fff};
  auto pick = [&] { return corners[rng.uniform_int(5)]; };
  return cq15{pick(), pick()};  // braced init: evaluated left to right
}

std::vector<cq15> corner_signal(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<cq15> x(n);
  for (auto& v : x) v = corner_sample(rng);
  return x;
}

// ---- radix-4 FFT ------------------------------------------------------------

std::vector<cq15> sim_fft(const std::vector<cq15>& x) {
  const auto n = static_cast<uint32_t>(x.size());
  sim::Machine m(arch::Cluster_config::minipool());
  arch::L1_alloc alloc(m.config());
  kernels::Fft_serial fft(m, alloc, n, 1);
  fft.set_input(0, x);
  fft.run();
  return fft.output(0);
}

std::vector<cq15> host_fft(std::vector<cq15> x, bool simd) {
  const auto n = static_cast<uint32_t>(x.size());
  const fixed::Fft_plan& plan = fixed::fft_plan(n);
  std::vector<cq15> out(x.size());
  fixed::fft_transform(plan, x.data(), out.data(), simd);
  return out;
}

TEST(Q15Chain, FftFullScaleInputsMatchSimBitExactly) {
  for (const uint32_t n : {16u, 64u, 256u}) {
    std::vector<std::vector<cq15>> inputs = {
        std::vector<cq15>(n, cq15{-0x8000, -0x8000}),
        std::vector<cq15>(n, cq15{0x7fff, -0x8000}),
        corner_signal(n, 7 + n),
    };
    // Alternating signs: the add network's widest swing.
    std::vector<cq15> alt(n);
    for (uint32_t i = 0; i < n; ++i) {
      alt[i] = i % 2 ? cq15{0x7fff, 0x7fff} : cq15{-0x8000, -0x8000};
    }
    inputs.push_back(alt);
    for (size_t t = 0; t < inputs.size(); ++t) {
      const auto want = sim_fft(inputs[t]);
      const std::string what = "n=" + std::to_string(n) + " input " +
                               std::to_string(t);
      EXPECT_EQ(host_fft(inputs[t], false), want) << what << " scalar";
      if (fixed::simd_available()) {
        EXPECT_EQ(host_fft(inputs[t], true), want) << what << " simd";
      }
    }
  }
}

// ---- channel estimate -------------------------------------------------------

TEST(Q15Chain, CheFullScaleInputsMatchSimBitExactly) {
  const uint32_t n_sc = 16, n_b = 8, n_l = 4, n_cores = 4;
  std::vector<std::vector<cq15>> y_sep(n_l), pilots(n_l);
  for (uint32_t l = 0; l < n_l; ++l) {
    y_sep[l] = corner_signal(size_t{n_sc} * n_b, 100 + l);
    pilots[l] = corner_signal(n_sc, 200 + l);
  }
  sim::Machine m(arch::Cluster_config::minipool());
  arch::L1_alloc alloc(m.config());
  kernels::Che che(m, alloc, n_sc, n_b, n_l, n_cores);
  for (uint32_t l = 0; l < n_l; ++l) {
    che.set_y_sep(l, y_sep[l]);
    che.set_pilot(l, pilots[l]);
  }
  che.run();
  const auto want = che.h();
  for (const bool simd : {false, true}) {
    if (simd && !fixed::simd_available()) continue;
    std::vector<cq15> h(want.size());
    fixed::che_subcarriers(y_sep, pilots, h.data(), n_b, n_l, 0, n_sc, simd);
    EXPECT_EQ(h, want) << (simd ? "simd" : "scalar");
  }
}

// ---- Gram + matched filter --------------------------------------------------

TEST(Q15Chain, GramEightLayersFullScaleMatchesSimBitExactly) {
  const uint32_t n_sc = 8, n_b = 16, n_l = 8, n_cores = 4;
  for (const int16_t sigma : {int16_t{0}, int16_t{0x7fff}}) {
    const auto h = corner_signal(size_t{n_sc} * n_b * n_l, 31);
    const auto y = corner_signal(size_t{n_sc} * n_b, 37);
    sim::Machine m(arch::Cluster_config::minipool());
    arch::L1_alloc alloc(m.config());
    kernels::Gram_batch gram(m, alloc, n_sc, n_b, n_l, n_cores);
    gram.set_h(h);
    gram.set_y(y);
    gram.set_sigma2(sigma);
    gram.run();

    std::vector<cq15> g(size_t{n_sc} * n_l * n_l), rhs(size_t{n_sc} * n_l);
    fixed::gram_subcarriers(h.data(), y.data(), cq15{sigma, 0}, g.data(),
                            rhs.data(), n_b, n_l, 0, n_sc);
    for (uint32_t sc = 0; sc < n_sc; ++sc) {
      const std::vector<cq15> g_sc(g.begin() + sc * n_l * n_l,
                                   g.begin() + (sc + 1) * n_l * n_l);
      const std::vector<cq15> rhs_sc(rhs.begin() + sc * n_l,
                                     rhs.begin() + (sc + 1) * n_l);
      EXPECT_EQ(g_sc, gram.g(sc)) << "sigma " << sigma << " sc " << sc;
      EXPECT_EQ(rhs_sc, gram.rhs(sc)) << "sigma " << sigma << " sc " << sc;
    }
  }
}

TEST(Q15Chain, GramMatrixPlusMatchedFilterEqualsGramSubcarriers) {
  // The fixed backend factors G once per sub-carrier and runs only the
  // matched filter per data symbol: the two halves, called separately and
  // over split ranges, must reproduce gram_subcarriers bit for bit.
  const uint32_t n_sc = 8, n_b = 16, n_l = 8;
  for (const int16_t sigma : {int16_t{0}, int16_t{0x7fff}}) {
    const auto h = corner_signal(size_t{n_sc} * n_b * n_l, 31);
    const auto y = corner_signal(size_t{n_sc} * n_b, 37);
    std::vector<cq15> g(size_t{n_sc} * n_l * n_l), rhs(size_t{n_sc} * n_l);
    fixed::gram_subcarriers(h.data(), y.data(), cq15{sigma, 0}, g.data(),
                            rhs.data(), n_b, n_l, 0, n_sc);

    std::vector<cq15> g2(g.size()), rhs2(rhs.size());
    fixed::gram_matrix(h.data(), cq15{sigma, 0}, g2.data(), n_b, n_l, 0, 3);
    fixed::gram_matrix(h.data(), cq15{sigma, 0}, g2.data(), n_b, n_l, 3,
                       n_sc);
    for (uint32_t sc = 0; sc < n_sc; ++sc) {
      fixed::matched_filter(h.data() + size_t{sc} * n_b * n_l,
                            y.data() + size_t{sc} * n_b,
                            rhs2.data() + size_t{sc} * n_l, n_b, n_l, 0, 1);
    }
    EXPECT_EQ(g, g2) << "sigma " << sigma;
    EXPECT_EQ(rhs, rhs2) << "sigma " << sigma;
  }
}

// ---- Cholesky ---------------------------------------------------------------

// Hermitian matrices that are not positive definite: the diagonal runs
// negative or to zero part-way through, so sqrt_q15 clamps to 0 and every
// later column divides by a zero pivot.
std::vector<std::vector<cq15>> non_pd_matrices(uint32_t n) {
  std::vector<std::vector<cq15>> out;
  // All-zero G: every pivot is zero from the first column on.
  out.emplace_back(size_t{n} * n, cq15{});
  // Rank one, full scale: column 1's pivot cancels to zero.
  std::vector<cq15> ones(size_t{n} * n, cq15{0x7fff, 0});
  out.push_back(ones);
  // Negative diagonal with full-scale off-diagonal entries.
  Rng rng(50 + n);
  std::vector<cq15> g(size_t{n} * n);
  for (uint32_t i = 0; i < n; ++i) {
    g[i * n + i] = cq15{static_cast<int16_t>(i % 2 ? -0x8000 : 0x0100), 0};
    for (uint32_t j = 0; j < i; ++j) {
      const cq15 v = corner_sample(rng);
      g[i * n + j] = v;
      g[j * n + i] = common::cconj(v);
    }
  }
  out.push_back(g);
  return out;
}

std::vector<cq15> host_cholesky(const std::vector<cq15>& g, uint32_t n) {
  std::vector<cq15> l(size_t{n} * n);
  fixed::cholesky(g.data(), l.data(), n);
  return l;
}

TEST(Q15Chain, CholeskyNonPositiveDefiniteMatchesSimBitExactly) {
  for (const uint32_t n : {4u, 8u}) {
    const auto mats = non_pd_matrices(n);
    for (size_t t = 0; t < mats.size(); ++t) {
      const std::string what =
          "n=" + std::to_string(n) + " matrix " + std::to_string(t);
      const auto want = host_cholesky(mats[t], n);

      sim::Machine m1(arch::Cluster_config::minipool());
      arch::L1_alloc a1(m1.config());
      kernels::Chol_serial serial(m1, a1, n, 1);
      serial.set_g(0, mats[t]);
      serial.run();
      EXPECT_EQ(serial.l(0), want) << what << " serial";

      sim::Machine m2(arch::Cluster_config::minipool());
      arch::L1_alloc a2(m2.config());
      kernels::Chol_batch batch(m2, a2, n, 1, 1);
      batch.set_g(0, 0, mats[t]);
      batch.run();
      EXPECT_EQ(batch.l(0, 0), want) << what << " batch";
    }
  }
}

// ---- triangular solves ------------------------------------------------------

TEST(Q15Chain, TrisolveZeroDiagonalMatchesSimBitExactly) {
  const uint32_t n = 4;
  Rng rng(77);
  std::vector<std::vector<cq15>> ls, ys;
  // Zero pivot at each position in turn, then an all-zero factor.
  for (uint32_t zero = 0; zero <= n; ++zero) {
    std::vector<cq15> l(size_t{n} * n, cq15{});
    for (uint32_t r = 0; r < n; ++r) {
      for (uint32_t c = 0; c < r; ++c) l[r * n + c] = corner_sample(rng);
      l[r * n + r] =
          cq15{static_cast<int16_t>(zero == n || r == zero ? 0 : 0x4000), 0};
    }
    ls.push_back(l);
    ys.push_back(corner_signal(n, 300 + zero));
  }

  sim::Machine m(arch::Cluster_config::minipool());
  arch::L1_alloc alloc(m.config());
  const auto n_sys = static_cast<uint32_t>(ls.size());
  kernels::Trisolve_batch ts(m, alloc, n, n_sys, 1);
  for (uint32_t i = 0; i < n_sys; ++i) ts.set_system(0, i, ls[i], ys[i]);
  ts.run();
  for (uint32_t i = 0; i < n_sys; ++i) {
    std::vector<cq15> x(n);
    fixed::trisolve(ls[i].data(), ys[i].data(), x.data(), n);
    EXPECT_EQ(x, ts.x(0, i)) << "system " << i;
  }
}

}  // namespace
