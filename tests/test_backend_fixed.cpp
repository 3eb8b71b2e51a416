// Fixed_backend bit-exactness and SIMD parity tests.
//
// The load-bearing guarantee (docs/DETERMINISM.md section 7): the fixed-point
// host backend is **bit-identical to the sim backend** - same payload bits,
// same EVM/BER doubles, same sigma2_hat - across the scenario grid, at any
// intra-slot worker count, through the split front/back path, and with the
// SIMD kernels on or off.  Unlike the parallel/reference pair (which shares
// double-precision models), fixed and sim share only the Q15 value chain, so
// these tests pin the whole src/fixed/ subsystem against the simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fixed/q15_kernels.h"
#include "fixed/simd.h"
#include "runtime/backend.h"
#include "runtime/backend_fixed.h"
#include "runtime/sweep.h"

namespace {

using namespace pp;
using common::cq15;

// ---- registry wiring -------------------------------------------------------

TEST(FixedBackend, MakeBackendByNameAndWorkerCount) {
  const auto b = runtime::make_backend("fixed", 3);
  EXPECT_EQ(b->name(), "fixed");
  EXPECT_FALSE(b->cycle_accurate());
  EXPECT_EQ(static_cast<runtime::Fixed_backend*>(b.get())->workers(), 3u);
  runtime::Fixed_backend all(0);
  EXPECT_GE(all.workers(), 1u);
  // The SIMD resolution is a host property, not a per-call coin flip.
  runtime::Fixed_backend scalar(1, false);
  EXPECT_FALSE(scalar.simd_active());
  runtime::Fixed_backend simd(1, true);
  EXPECT_EQ(simd.simd_active(), fixed::simd_available());
}

TEST(FixedBackend, BackendNamesStayInSyncWithMakeBackend) {
  // Every advertised name must construct, agree on its own name, and the
  // fixed backend must be advertised - the CLI --list / validation surface
  // (bench_util, pusch_sweep, pusch_serve) is generated from this list.
  const auto names = runtime::backend_names();
  for (const auto& name : names) {
    const auto b = runtime::make_backend(name, 1);
    ASSERT_NE(b, nullptr) << name;
    EXPECT_EQ(b->name(), name);
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "fixed"), names.end());
}

// ---- bit parity vs. the simulator ------------------------------------------

void expect_slot_bits_equal(const runtime::Slot_result& sim,
                            const runtime::Slot_result& fix,
                            const std::string& what) {
  EXPECT_EQ(sim.bits, fix.bits) << what;
  EXPECT_EQ(sim.evm, fix.evm) << what;
  EXPECT_EQ(sim.ber, fix.ber) << what;
  EXPECT_EQ(sim.sigma2_hat, fix.sigma2_hat) << what;
  ASSERT_EQ(sim.stages.size(), fix.stages.size()) << what;
  for (size_t s = 0; s < sim.stages.size(); ++s) {
    EXPECT_EQ(sim.stages[s].name, fix.stages[s].name) << what;
    EXPECT_EQ(sim.stages[s].runs, fix.stages[s].runs) << what;
    EXPECT_EQ(fix.stages[s].cycles, 0u) << "host backends report no cycles";
  }
}

TEST(FixedBackend, BitIdenticalToSimAcrossScenarioGridAndWorkers) {
  // Numerology x UE x QAM grid, two SNR points each; every slot checked at
  // 1, 2 and 8 intra-slot workers against the simulated sweep.  EVM and BER
  // are compared with ==: the fixed backend reproduces the sim backend's
  // Q15 arithmetic exactly, not approximately.
  runtime::Sweep_grid grid;
  grid.fft_sizes = {16, 64};
  grid.ue_counts = {2, 4};
  grid.qam_orders = {phy::Qam::qpsk, phy::Qam::qam16};
  grid.snr_db = {10, 30};

  runtime::Scheduler_options sim_opt;
  sim_opt.backend = "sim";
  sim_opt.workers = 2;
  const auto sim =
      runtime::Slot_scheduler(sim_opt).run(runtime::Grid_source(grid));
  ASSERT_EQ(sim.total_slots, 16u);

  for (const uint32_t intra : {1u, 2u, 8u}) {
    runtime::Scheduler_options fix_opt;
    fix_opt.backend = "fixed";
    fix_opt.workers = 2;  // compose slot-level x intra-slot parallelism
    fix_opt.intra = intra;
    const auto fix =
        runtime::Slot_scheduler(fix_opt).run(runtime::Grid_source(grid));
    ASSERT_EQ(fix.slots.size(), sim.slots.size());
    for (size_t i = 0; i < sim.slots.size(); ++i) {
      expect_slot_bits_equal(
          sim.slots[i], fix.slots[i],
          "slot " + std::to_string(i) + " intra " + std::to_string(intra));
      EXPECT_EQ(fix.slots[i].backend, "fixed");
    }
    for (size_t p = 0; p < sim.groups.size(); ++p) {
      EXPECT_EQ(sim.groups[p].evm, fix.groups[p].evm) << "point " << p;
      EXPECT_EQ(sim.groups[p].ber, fix.groups[p].ber) << "point " << p;
      EXPECT_EQ(sim.groups[p].sigma2_hat, fix.groups[p].sigma2_hat)
          << "point " << p;
    }
  }
}

TEST(FixedBackend, CooperativeFftPathBitIdenticalToSim) {
  // More workers than (symbol, antenna) transforms: some workers own no
  // transform and only meet the others at the barrier before their
  // beamforming rows.
  phy::Uplink_config cfg;
  cfg.n_sc = 64;
  cfg.fft_size = 64;
  cfg.n_rx = 2;
  cfg.n_beams = 4;
  cfg.n_ue = 2;
  cfg.n_symb = 3;
  cfg.n_pilot_symb = 2;
  cfg.seed = 99;
  const phy::Uplink_scenario sc(cfg);
  const auto pipeline =
      runtime::uplink_pipeline(arch::Cluster_config::minipool());

  const auto sim = pipeline.execute(sc, *runtime::make_backend("sim"));
  for (const uint32_t intra : {7u, 16u}) {  // 6 transforms < workers
    runtime::Fixed_backend backend(intra);
    const auto fix = pipeline.execute(sc, backend);
    expect_slot_bits_equal(sim, fix, "intra " + std::to_string(intra));
  }
}

TEST(FixedBackend, SymbolBatchedMimoBitIdenticalToSim) {
  // The sim backend groups chol_symb_batch data symbols per Cholesky/solve
  // launch; the fixed backend solves every (data symbol, sub-carrier) item
  // independently and must still match it bit for bit, launch counts in
  // stages[].runs included.
  phy::Uplink_config cfg;
  cfg.n_sc = 64;
  cfg.fft_size = 64;
  cfg.n_rx = 4;
  cfg.n_beams = 4;
  cfg.n_ue = 2;
  cfg.n_symb = 6;
  cfg.n_pilot_symb = 2;
  cfg.seed = 21;
  const phy::Uplink_scenario sc(cfg);
  const uint32_t n_data = cfg.n_symb - cfg.n_pilot_symb;

  for (const uint32_t batch : {2u, n_data}) {
    runtime::Uplink_options opt;
    opt.chol_symb_batch = batch;
    const auto pipeline =
        runtime::uplink_pipeline(arch::Cluster_config::minipool(), opt);
    const auto sim = pipeline.execute(sc, *runtime::make_backend("sim"));
    ASSERT_EQ(sim.stages[5].runs, 2 * (n_data / batch));
    for (const uint32_t intra : {1u, 4u}) {
      runtime::Fixed_backend backend(intra);
      const auto fix = pipeline.execute(sc, backend);
      expect_slot_bits_equal(sim, fix,
                             "batch " + std::to_string(batch) + " intra " +
                                 std::to_string(intra));
    }
  }
}

TEST(FixedBackend, MixedShapeSequenceOnOneBackendBitIdentical) {
  // One backend instance serves a shrinking then growing shape sequence:
  // its workspaces (the per-sub-carrier Cholesky factors among them) keep
  // the previous slot's contents, so a factor left over from the wider slot
  // would show as a mismatch against a fresh backend.  1, 3 and 5 workers
  // leave both the sub-carrier slices and the (data symbol, sub-carrier)
  // item slices uneven.
  struct Shape {
    uint32_t fft, n_ue;
    bool with_sim;  // sim solves at most Trisolve_batch::max_n = 4 layers
  };
  const Shape shapes[] = {{1024, 8, false}, {64, 2, true}, {256, 8, false}};
  const auto pipeline =
      runtime::uplink_pipeline(arch::Cluster_config::mempool());
  std::vector<phy::Uplink_scenario> scenarios;
  std::vector<runtime::Slot_result> sims;
  for (const Shape& sh : shapes) {
    phy::Uplink_config cfg;
    cfg.n_sc = sh.fft;
    cfg.fft_size = sh.fft;
    cfg.n_rx = 8;
    cfg.n_beams = 8;
    cfg.n_ue = sh.n_ue;
    cfg.n_symb = 5;
    cfg.n_pilot_symb = 2;
    cfg.qam = phy::Qam::qam16;
    cfg.seed = 500 + sh.fft;
    scenarios.emplace_back(cfg);
    sims.push_back(sh.with_sim ? pipeline.execute(scenarios.back(),
                                                  *runtime::make_backend("sim"))
                               : runtime::Slot_result{});
  }

  for (const uint32_t intra : {1u, 3u, 5u}) {
    runtime::Fixed_backend reused(intra);
    for (size_t i = 0; i < scenarios.size(); ++i) {
      const std::string what = "fft " + std::to_string(shapes[i].fft) +
                               " intra " + std::to_string(intra);
      runtime::Fixed_backend fresh(intra);
      const auto want = pipeline.execute(scenarios[i], fresh);
      const auto got = pipeline.execute(scenarios[i], reused);
      expect_slot_bits_equal(want, got, what);
      EXPECT_EQ(want.symbols, got.symbols) << what;
      if (shapes[i].with_sim) expect_slot_bits_equal(sims[i], got, what);
    }
  }
}

TEST(FixedBackend, SplitContractMatchesWholeSlot) {
  // run_back_into(run_front_into()) == run_slot_into - the contract
  // run_slot_into and perfbench's per-half timing rest on (backend.h).
  phy::Uplink_config cfg;
  cfg.n_sc = 64;
  cfg.fft_size = 64;
  cfg.n_rx = 4;
  cfg.n_beams = 4;
  cfg.n_ue = 4;
  cfg.n_symb = 4;
  cfg.n_pilot_symb = 2;
  cfg.seed = 7;
  const phy::Uplink_scenario sc(cfg);
  const auto pipeline =
      runtime::uplink_pipeline(arch::Cluster_config::minipool());

  runtime::Fixed_backend whole(2);
  runtime::Fixed_backend split(2);
  runtime::Slot_result a, b;
  whole.run_slot_into(pipeline, sc, a);
  runtime::Slot_front front;
  split.run_front_into(pipeline, sc, front);
  split.run_back_into(pipeline, sc, front, b);
  EXPECT_EQ(a.bits, b.bits);
  EXPECT_EQ(a.evm, b.evm);
  EXPECT_EQ(a.ber, b.ber);
  EXPECT_EQ(a.sigma2_hat, b.sigma2_hat);
}

TEST(FixedBackend, PipelinedSchedulerBitIdenticalToSim) {
  // The full composition: Slot_scheduler with slot workers and intra-slot
  // workers on the fixed backend, against the simulated run.
  runtime::Sweep_grid grid;
  grid.fft_sizes = {16};
  grid.snr_db = {15, 25};
  grid.slots_per_point = 2;
  const runtime::Grid_source source(grid);

  runtime::Scheduler_options sim_opt;
  sim_opt.backend = "sim";
  sim_opt.workers = 1;
  const auto sim = runtime::Slot_scheduler(sim_opt).run(source);

  runtime::Scheduler_options fix_opt;
  fix_opt.backend = "fixed";
  fix_opt.workers = 2;
  fix_opt.intra = 2;
  const auto fix = runtime::Slot_scheduler(fix_opt).run(source);
  ASSERT_EQ(fix.slots.size(), sim.slots.size());
  for (size_t i = 0; i < sim.slots.size(); ++i) {
    expect_slot_bits_equal(sim.slots[i], fix.slots[i],
                           "slot " + std::to_string(i));
  }
}

// ---- SIMD parity -----------------------------------------------------------

TEST(FixedBackend, ScalarAndSimdBitIdentical) {
  // A slot large enough to engage every vector path (butterfly runs >= 8,
  // 8-beam CHE rows): forcing the scalar loops must not change a bit.  On
  // hosts without a SIMD path both runs are scalar and the test is vacuous
  // (the grid test above still covers the backend).
  phy::Uplink_config cfg;
  cfg.n_sc = 256;
  cfg.fft_size = 256;
  cfg.n_rx = 8;
  cfg.n_beams = 8;
  cfg.n_ue = 4;
  cfg.n_symb = 4;
  cfg.n_pilot_symb = 2;
  cfg.qam = phy::Qam::qam64;
  cfg.seed = 41;
  const phy::Uplink_scenario sc(cfg);
  const auto pipeline =
      runtime::uplink_pipeline(arch::Cluster_config::minipool());

  runtime::Fixed_backend simd(2, true);
  runtime::Fixed_backend scalar(2, false);
  const auto a = pipeline.execute(sc, simd);
  const auto b = pipeline.execute(sc, scalar);
  expect_slot_bits_equal(a, b, std::string("isa ") + fixed::simd_isa());
}

cq15 random_cq15(common::Rng& rng) {
  // Full int16 range, with extreme values (q15_min in both lanes included)
  // oversampled to exercise the saturation corners.
  auto lane = [&rng]() -> int16_t {
    switch (rng.next_u32() % 8) {
      case 0: return common::q15_min;
      case 1: return common::q15_max;
      default: return static_cast<int16_t>(rng.next_u32());
    }
  };
  return cq15{lane(), lane()};
}

TEST(FixedQ15, SimdCheRowMatchesScalarIncludingCorners) {
  // cmul_double_prefix vs. the scalar CHE row op cadd(t, t), t = cmul(y, x),
  // over adversarial inputs - including the one cmul wrap corner
  // ({-0x8000, -0x8000} x itself) the AVX2 path patches with a blend.
  common::Rng rng(2023);
  for (int round = 0; round < 200; ++round) {
    const uint32_t n = 1 + rng.next_u32() % 64;
    std::vector<cq15> y(n);
    for (auto& v : y) v = random_cq15(rng);
    cq15 x = random_cq15(rng);
    if (round == 0) {  // pin the corner explicitly
      x = cq15{common::q15_min, common::q15_min};
      y.assign(n, cq15{common::q15_min, common::q15_min});
    }
    std::vector<cq15> out(n, cq15{0, 0});
    const uint32_t done = fixed::cmul_double_prefix(y.data(), x, out.data(),
                                                    static_cast<uint32_t>(n));
    ASSERT_LE(done, n);
    for (uint32_t i = 0; i < done; ++i) {
      const cq15 t = common::cmul(y[i], x);
      const cq15 want = common::cadd(t, t);
      EXPECT_EQ(out[i].re, want.re) << "round " << round << " i " << i;
      EXPECT_EQ(out[i].im, want.im) << "round " << round << " i " << i;
    }
  }
}

TEST(FixedQ15, SimdFftMatchesScalarAcrossSizes) {
  common::Rng rng(7);
  for (const uint32_t n : {16u, 64u, 256u, 1024u}) {
    const auto& plan = fixed::fft_plan(n);
    for (int round = 0; round < 4; ++round) {
      std::vector<cq15> in(n);
      for (auto& v : in) v = random_cq15(rng);
      std::vector<cq15> buf_s = in, out_s(n), buf_v = in, out_v(n);
      fixed::fft_transform(plan, buf_s.data(), out_s.data(), false);
      fixed::fft_transform(plan, buf_v.data(), out_v.data(), true);
      for (uint32_t i = 0; i < n; ++i) {
        EXPECT_EQ(out_s[i].re, out_v[i].re) << "n " << n << " bin " << i;
        EXPECT_EQ(out_s[i].im, out_v[i].im) << "n " << n << " bin " << i;
      }
    }
  }
}

}  // namespace
