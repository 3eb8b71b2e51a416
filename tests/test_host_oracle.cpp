// Double-precision host backends vs. the golden receiver.
//
// phy::golden_receive is the oracle every double-precision path answers to.
// The "reference" backend name (Parallel_backend at one worker) and the
// "parallel" backend at any worker count must reproduce it bit for bit -
// payload bits, equalized symbols, EVM, BER and the noise estimate - over
// the numerology x UE x QAM x SNR grid of tests/test_backend_parallel.cpp.
#include <gtest/gtest.h>

#include <string>

#include "phy/uplink.h"
#include "runtime/backend.h"
#include "runtime/backend_parallel.h"
#include "runtime/presets.h"
#include "runtime/sweep.h"

namespace {

using namespace pp;

runtime::Sweep_grid oracle_grid() {
  runtime::Sweep_grid grid;
  grid.fft_sizes = {16, 64};
  grid.ue_counts = {2, 4};
  grid.qam_orders = {phy::Qam::qpsk, phy::Qam::qam16};
  grid.snr_db = {10, 20, 30};
  return grid;
}

void expect_matches_oracle(const phy::Receiver_result& want,
                           const runtime::Slot_result& got,
                           const std::string& what) {
  EXPECT_EQ(want.bits, got.bits) << what;
  EXPECT_EQ(want.symbols, got.symbols) << what;
  EXPECT_EQ(want.evm, got.evm) << what;
  EXPECT_EQ(want.ber, got.ber) << what;
  EXPECT_EQ(want.sigma2_hat, got.sigma2_hat) << what;
}

TEST(HostOracle, ReferenceAndParallelBitIdenticalToGoldenReceive) {
  const runtime::Sweep_grid grid = oracle_grid();
  const auto points = grid.points();
  ASSERT_EQ(grid.n_slots(), 24u);
  const auto pipeline =
      runtime::uplink_pipeline(arch::Cluster_config::minipool());

  struct Case {
    const char* name;
    uint32_t intra;
  };
  for (const Case c : {Case{"reference", 0}, Case{"parallel", 1},
                       Case{"parallel", 2}, Case{"parallel", 8}}) {
    // One persistent backend per case: every slot after the first runs on
    // recycled workspaces, as in the serving loop.
    const auto backend = runtime::make_backend(c.name, c.intra);
    runtime::Slot_result res;
    for (uint64_t i = 0; i < grid.n_slots(); ++i) {
      const phy::Uplink_scenario sc(
          runtime::slot_config(grid, points[i / grid.slots_per_point], i));
      pipeline.execute_into(sc, *backend, res);
      expect_matches_oracle(phy::golden_receive(sc), res,
                            std::string(c.name) + " intra " +
                                std::to_string(c.intra) + " slot " +
                                std::to_string(i));
      EXPECT_EQ(res.backend, c.name);
    }
  }
}

TEST(HostOracle, ReferenceIsOneWorkerParallelUnderItsOwnName) {
  for (const uint32_t intra : {0u, 4u}) {  // intra is ignored by reference
    const auto b = runtime::make_backend("reference", intra);
    EXPECT_EQ(b->name(), "reference");
    EXPECT_FALSE(b->cycle_accurate());
    const auto* par = dynamic_cast<const runtime::Parallel_backend*>(b.get());
    ASSERT_NE(par, nullptr);
    EXPECT_EQ(par->workers(), 1u);
  }
}

}  // namespace
