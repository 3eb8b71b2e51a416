// Integration tests at the published cluster scales (256-core MemPool,
// 1024-core TeraPool): functional correctness and the paper's headline
// efficiency properties at full size, plus end-to-end sweeps.
#include <gtest/gtest.h>

#include "baseline/reference.h"
#include "common/rng.h"
#include "kernels/cholesky.h"
#include "kernels/fft.h"
#include "kernels/mmm.h"
#include "phy/uplink.h"
#include "runtime/backend.h"
#include "runtime/presets.h"

namespace {

using namespace pp;
using common::cq15;
using common::Rng;

std::vector<cq15> random_signal(uint32_t n, uint64_t seed, double amp = 0.25) {
  Rng rng(seed);
  std::vector<cq15> x(n);
  for (auto& v : x) v = common::to_cq15(rng.cnormal() * amp);
  return x;
}

std::vector<ref::cd> to_cd(const std::vector<cq15>& x) {
  std::vector<ref::cd> y(x.size());
  for (size_t i = 0; i < x.size(); ++i) y[i] = common::to_cd(x[i]);
  return y;
}

// Full-size 4096-point FFT on a 256-core gang matches the serial kernel
// bit-for-bit and meets the paper's efficiency claims.
TEST(Scale, Fft4096OnMempoolGang) {
  sim::Machine m(arch::Cluster_config::mempool());
  arch::L1_alloc alloc(m.config());
  kernels::Fft_serial s(m, alloc, 4096, 1);
  kernels::Fft_parallel p(m, alloc, 4096, 1, 1);

  const auto x = random_signal(4096, 1234);
  s.set_input(0, x);
  p.set_input(0, 0, x);
  const auto rs = s.run();
  const auto rp = p.run();

  EXPECT_EQ(s.output(0), p.output(0, 0));  // bit-exact
  EXPECT_EQ(rp.n_cores, 256u);
  EXPECT_LT(rp.frac_memory_stalls(), 0.25);  // RAW includes barrier waits
  // Paper's Fig. 9a single-4096-FFT point: speedup well over 100.
  EXPECT_GT(static_cast<double>(rs.cycles) / rp.cycles, 100.0);
}

// Batched FFTs on TeraPool hit the paper's headline utilization band.
TEST(Scale, BatchedFftUtilizationTerapool) {
  sim::Machine m(arch::Cluster_config::terapool());
  arch::L1_alloc alloc(m.config());
  kernels::Fft_parallel fft(m, alloc, 4096, 4, 4);
  for (uint32_t i = 0; i < 4; ++i) {
    for (uint32_t r = 0; r < 4; ++r) {
      fft.set_input(i, r, random_signal(4096, i * 4 + r));
    }
  }
  const auto rep = fft.run();
  EXPECT_EQ(rep.n_cores, 1024u);
  EXPECT_GT(rep.ipc(), 0.7);  // paper: 0.74 with deeper batching
  EXPECT_LT(rep.frac_memory_stalls(), 0.10);
}

// The use-case MMM shape on TeraPool: utilization and MACs/cycle in the
// paper's band, results matching the reference.
TEST(Scale, UseCaseMmmOnTerapool) {
  sim::Machine m(arch::Cluster_config::terapool());
  arch::L1_alloc alloc(m.config());
  const kernels::Mmm_dims d{2048, 64, 32};  // row slice of the use case
  kernels::Mmm mmm(m, alloc, d);
  // Moderate amplitudes: 64-deep accumulations must not saturate Q1.15.
  const auto a = random_signal(d.m * d.k, 7, 0.12);
  const auto b = random_signal(d.k * d.p, 8, 0.12);
  mmm.set_a(a);
  mmm.set_b(b);
  const auto rep = mmm.run_parallel();
  EXPECT_GT(rep.ipc(), 0.6);
  const auto want = ref::matmul(to_cd(a), to_cd(b), d.m, d.k, d.p);
  EXPECT_GT(ref::sqnr_db(want, to_cd(mmm.c())), 35.0);
}

// 4096 4x4 Cholesky decompositions per data symbol on TeraPool (the
// use-case batch) all reconstruct their inputs.
TEST(Scale, UseCaseCholeskyBatchTerapool) {
  const auto cfg = arch::Cluster_config::terapool();
  sim::Machine m(cfg);
  arch::L1_alloc alloc(m.config());
  kernels::Chol_batch chol(m, alloc, 4, 4, cfg.n_cores());

  Rng rng(77);
  std::vector<ref::cd> a(8 * 4);
  for (auto& v : a) v = rng.cnormal() * 0.1;
  auto g = ref::gram(a, 8, 4);
  for (int i = 0; i < 4; ++i) g[i * 4 + i] += 0.05;
  std::vector<cq15> gq(16);
  for (int i = 0; i < 16; ++i) gq[i] = common::to_cq15(g[i]);
  for (uint32_t c = 0; c < cfg.n_cores(); ++c) {
    for (uint32_t i = 0; i < 4; ++i) chol.set_g(c, i, gq);
  }
  const auto rep = chol.run();
  EXPECT_EQ(rep.n_cores, 1024u);
  // Spot-check reconstruction on a few cores.
  for (arch::core_id c : {0u, 511u, 1023u}) {
    const auto l = to_cd(chol.l(c, 3));
    for (uint32_t i = 0; i < 4; ++i) {
      for (uint32_t j = 0; j < 4; ++j) {
        ref::cd acc{0, 0};
        for (uint32_t k = 0; k < 4; ++k) {
          acc += l[i * 4 + k] * std::conj(l[j * 4 + k]);
        }
        EXPECT_NEAR(std::abs(acc - g[i * 4 + j]), 0.0, 5e-3);
      }
    }
  }
}

// --- end-to-end sweeps ------------------------------------------------

struct E2eCase {
  phy::Qam qam;
  uint64_t seed;
};

class E2eSweep : public ::testing::TestWithParam<E2eCase> {};

TEST_P(E2eSweep, ZeroBerAtHighSnr) {
  phy::Uplink_config cfg;
  cfg.n_sc = 64;
  cfg.fft_size = 64;
  // 16-QAM needs more array gain than QPSK to clear the Q15 noise floor.
  const bool dense = GetParam().qam != phy::Qam::qpsk;
  cfg.n_rx = dense ? 16 : 4;
  cfg.n_beams = dense ? 8 : 4;
  cfg.n_ue = 2;
  cfg.n_symb = 4;
  cfg.n_pilot_symb = 2;
  cfg.qam = GetParam().qam;
  cfg.sigma2 = 1e-8;
  cfg.ue_power = 0.08;
  cfg.seed = GetParam().seed;
  const phy::Uplink_scenario sc(cfg);
  runtime::Sim_backend sim;
  const auto res =
      runtime::uplink_pipeline(arch::Cluster_config::minipool()).execute(sc, sim);
  // QPSK and 16-QAM must decode cleanly through the Q15 chain.
  EXPECT_EQ(res.ber, 0.0) << "EVM " << res.evm;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, E2eSweep,
    ::testing::Values(E2eCase{phy::Qam::qpsk, 1}, E2eCase{phy::Qam::qpsk, 2},
                      E2eCase{phy::Qam::qam16, 3},
                      E2eCase{phy::Qam::qam16, 4}));

// The same slot decodes identically on MemPool and TeraPool (the cluster
// size changes timing, never values).
TEST(Scale, ChainValuesClusterInvariant) {
  phy::Uplink_config cfg;
  cfg.n_sc = 256;
  cfg.fft_size = 256;
  cfg.n_rx = 16;
  cfg.n_beams = 8;
  cfg.n_ue = 2;
  cfg.n_symb = 4;
  cfg.n_pilot_symb = 2;
  cfg.qam = phy::Qam::qpsk;  // focus: cluster invariance, not QAM headroom
  cfg.sigma2 = 1e-8;
  cfg.ue_power = 0.08;
  cfg.seed = 99;
  const phy::Uplink_scenario sc(cfg);

  runtime::Sim_backend sim;
  const auto on_mp =
      runtime::uplink_pipeline(arch::Cluster_config::mempool()).execute(sc, sim);
  const auto on_tp =
      runtime::uplink_pipeline(arch::Cluster_config::terapool()).execute(sc, sim);
  // Decoded payloads agree; EVM may differ in the last bits because the NE
  // reduction rounds per-core partial sums and the partition depends on the
  // core count.
  EXPECT_EQ(on_mp.bits, on_tp.bits);
  EXPECT_NEAR(on_mp.evm, on_tp.evm, 0.02);
  EXPECT_EQ(on_mp.ber, 0.0);
}

}  // namespace
