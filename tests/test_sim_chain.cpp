// End-to-end integration: the full simulated fixed-point PUSCH chain
// (FFT -> BF -> CHE -> NE -> MIMO) recovers the UEs' payloads, and its
// estimates agree with the double-precision golden receiver.
#include <gtest/gtest.h>

#include "phy/uplink.h"
#include "runtime/backend.h"
#include "runtime/presets.h"

namespace {

using namespace pp;

phy::Uplink_config small_cfg() {
  phy::Uplink_config cfg;
  cfg.n_sc = 64;
  cfg.fft_size = 64;
  cfg.n_rx = 4;
  cfg.n_beams = 4;
  cfg.n_ue = 2;
  cfg.n_symb = 4;
  cfg.n_pilot_symb = 2;
  cfg.qam = phy::Qam::qpsk;
  cfg.sigma2 = 1e-7;
  cfg.ue_power = 0.08;
  cfg.seed = 11;
  return cfg;
}

TEST(SimChain, RecoversPayloadAtHighSnr) {
  const phy::Uplink_scenario sc(small_cfg());
  runtime::Sim_backend sim;
  const auto res = runtime::uplink_pipeline(arch::Cluster_config::minipool())
                       .execute(sc, sim);
  EXPECT_EQ(res.ber, 0.0) << "EVM " << res.evm;
  EXPECT_LT(res.evm, 0.25);
  // All six stages executed.
  ASSERT_EQ(res.stages.size(), 6u);
  for (const auto& st : res.stages) {
    EXPECT_GT(st.cycles, 0u) << st.name;
    EXPECT_GT(st.runs, 0u) << st.name;
  }
}

TEST(SimChain, AgreesWithGoldenReceiver) {
  const phy::Uplink_scenario sc(small_cfg());
  const auto golden = phy::golden_receive(sc);
  runtime::Sim_backend sim;
  const auto simres = runtime::uplink_pipeline(arch::Cluster_config::minipool())
                       .execute(sc, sim);
  // Same recovered payloads at high SNR.
  for (uint32_t l = 0; l < sc.config().n_ue; ++l) {
    EXPECT_EQ(golden.bits[l], simres.bits[l]) << "UE " << l;
  }
  // Fixed-point EVM is worse than double EVM but bounded.
  EXPECT_GE(simres.evm, golden.evm * 0.5);
  EXPECT_LT(simres.evm, golden.evm + 0.25);
}

TEST(SimChain, FrontEndOutweighsEveryTailStage) {
  // At this reduced scale (4 antennas vs the paper's 64) the front end is
  // not >50% of the slot as in the full use case, but FFT+MMM must still
  // outweigh each estimation/MIMO stage individually.
  const phy::Uplink_scenario sc(small_cfg());
  runtime::Sim_backend sim;
  const auto res = runtime::uplink_pipeline(arch::Cluster_config::minipool())
                       .execute(sc, sim);
  const uint64_t fe = res.stages[0].cycles + res.stages[1].cycles;
  for (size_t i = 2; i < res.stages.size(); ++i) {
    EXPECT_GT(fe, res.stages[i].cycles) << res.stages[i].name;
  }
}

TEST(SimChain, NoiseEstimateIsSane) {
  auto cfg = small_cfg();
  cfg.sigma2 = 1e-3;
  cfg.seed = 12;
  const phy::Uplink_scenario sc(cfg);
  runtime::Sim_backend sim;
  const auto res = runtime::uplink_pipeline(arch::Cluster_config::minipool())
                       .execute(sc, sim);
  // Within an order of magnitude (quantization adds its own floor).
  EXPECT_GT(res.sigma2_hat, 1e-5);
  EXPECT_LT(res.sigma2_hat, 1e-1);
}

}  // namespace
