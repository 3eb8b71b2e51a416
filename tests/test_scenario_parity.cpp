// Cross-backend scenario parity: the deterministic serving surface -
// payload bits, BER, the HARQ schedule/verdicts, admission counters,
// deadline histograms and the virtual makespan - must be identical across
// all four backends and every host-parallelism knob
// (Schedule_result::scenario_equal; docs/DETERMINISM.md "Channel profiles
// & HARQ determinism").
//
// Two operating points:
//   benign grid   numerology x UE x QAM x profile mix where every backend
//                 decodes the same bits (the Q15 family has a
//                 quantization-noise BER floor on frequency-selective TDL
//                 channels, so dense constellations there split the
//                 families - the grid stays inside the common envelope,
//                 and pins that envelope).
//   HARQ surface  a failure-rich fading mix with the retransmission loop
//                 closed, compared within each arithmetic family (double:
//                 reference vs. parallel, Q15: fixed vs. sim) and across
//                 the worker / intra ladder, sim included.
//
// Both use analytic_service: the predictor clock is the one service model
// every backend shares (simulated cycles are a legitimately different
// clock).
#include <gtest/gtest.h>

#include "runtime/scheduler.h"
#include "runtime/traffic.h"

namespace {

using namespace pp;
using runtime::Schedule_result;
using runtime::Scheduler_options;
using runtime::Slot_scheduler;
using runtime::Traffic_cell;
using runtime::Traffic_config;
using runtime::Traffic_source;

// mu 0/1/2 x UE 1/2 x qam16/qpsk x flat/tdl-a/tdl-c.  Zero Doppler and a
// short delay spread keep every slot inside the Q15 envelope (verified
// empirically; the decode is exact on all four backends at this seed).
Traffic_config benign_grid() {
  Traffic_config cfg;
  cfg.n_slots = 12;
  cfg.base_seed = 7;
  Traffic_cell flat;
  flat.mu = 0;
  flat.fft_size = 64;
  flat.n_ue = 1;
  flat.qam = phy::Qam::qam16;
  flat.load = 0.8;
  Traffic_cell tdla;
  tdla.mu = 1;
  tdla.fft_size = 64;
  tdla.n_ue = 2;
  tdla.qam = phy::Qam::qpsk;
  tdla.load = 0.8;
  tdla.profile = phy::Channel_profile::tdl_a;
  tdla.delay_spread = 1.0;
  Traffic_cell tdlc;
  tdlc.mu = 2;
  tdlc.fft_size = 64;
  tdlc.n_ue = 2;
  tdlc.qam = phy::Qam::qpsk;
  tdlc.load = 0.8;
  tdlc.profile = phy::Channel_profile::tdl_c;
  tdlc.delay_spread = 1.0;
  cfg.cells = {flat, tdla, tdlc};
  return cfg;
}

// Failure-rich fading mix: Doppler-aged TDL cells whose decode misses the
// threshold often enough to retransmit, recover and exhaust.
Traffic_config harq_mix(uint64_t n_slots) {
  Traffic_config cfg = benign_grid();
  cfg.n_slots = n_slots;
  cfg.base_seed = 3;
  cfg.cells[1].qam = phy::Qam::qam16;
  cfg.cells[1].doppler_hz = 16.0;
  cfg.cells[1].delay_spread = 4.0;
  cfg.cells[2].n_ue = 4;
  cfg.cells[2].qam = phy::Qam::qam64;
  cfg.cells[2].doppler_hz = 16.0;
  cfg.cells[2].delay_spread = 4.0;
  return cfg;
}

Scheduler_options base_options() {
  Scheduler_options opt;
  opt.workers = 1;
  opt.analytic_service = true;
  opt.keep_slots = true;
  return opt;
}

Scheduler_options harq_options() {
  Scheduler_options opt = base_options();
  opt.max_harq = 2;
  opt.harq_ber = 0.005;
  opt.shards = 2;
  opt.overload = "drop";
  // Scaled clock (bench_scenario_mix's trick): analytic service times in
  // the slot-budget regime, so the drop policy sees retransmission
  // pressure instead of idling.
  opt.clock_ghz = 0.01;
  return opt;
}

void expect_bits_equal(const Schedule_result& a, const Schedule_result& b) {
  ASSERT_EQ(a.slots.size(), b.slots.size());
  for (size_t i = 0; i < a.slots.size(); ++i) {
    EXPECT_EQ(a.slots[i].bits, b.slots[i].bits) << "slot " << i;
  }
}

TEST(ScenarioParity, AllFourBackendsAgreeOnTheBenignGrid) {
  const Traffic_source src(benign_grid());
  Scheduler_options opt = base_options();
  const auto ref = Slot_scheduler(opt).run(src);
  ASSERT_EQ(ref.groups.size(), 3u);
  for (const auto& g : ref.groups) EXPECT_GT(g.slots, 0u) << g.label;

  for (const char* backend : {"parallel", "fixed", "sim"}) {
    for (const uint32_t workers : {1u, 2u, 8u}) {
      Scheduler_options other = base_options();
      other.backend = backend;
      other.workers = workers;
      const auto res = Slot_scheduler(other).run(src);
      EXPECT_TRUE(ref.scenario_equal(res))
          << backend << " @ " << workers << " workers";
      expect_bits_equal(ref, res);
    }
  }
}

TEST(ScenarioParity, WorkerLadderIsInvariantOnTheHarqSurface) {
  const Traffic_source src(harq_mix(24));
  Scheduler_options opt = harq_options();
  const auto serial = Slot_scheduler(opt).run(src);
  // The loop and the admission controller must both be active here, or
  // the ladder is vacuous.
  EXPECT_GT(serial.harq_retx, 0u);
  EXPECT_GT(serial.harq_recovered + serial.harq_exhausted, 0u);
  EXPECT_GT(serial.dropped, 0u);

  // Each count runs twice: a repeat at the same count would catch a result
  // that depends on how the workers interleave.
  for (const uint32_t workers : {2u, 2u, 8u, 8u}) {
    Scheduler_options other = opt;
    other.workers = workers;
    EXPECT_TRUE(serial.deterministic_equal(Slot_scheduler(other).run(src)))
        << workers << " workers";
  }
}

TEST(ScenarioParity, DoubleFamilyAgreesOnTheHarqSurface) {
  const Traffic_source src(harq_mix(16));
  Scheduler_options opt = harq_options();
  const auto ref = Slot_scheduler(opt).run(src);

  Scheduler_options par = opt;
  par.backend = "parallel";
  par.intra = 2;
  par.workers = 2;
  const auto res = Slot_scheduler(par).run(src);
  // Same arithmetic family: the full deterministic surface matches, not
  // just the scenario subset.
  EXPECT_TRUE(ref.deterministic_equal(res));
  expect_bits_equal(ref, res);
}

TEST(ScenarioParity, Q15FamilyAgreesOnTheHarqSurface) {
  const Traffic_source src(harq_mix(8));
  Scheduler_options opt = harq_options();
  opt.backend = "fixed";
  const auto fixed = Slot_scheduler(opt).run(src);
  EXPECT_GT(fixed.harq_retx, 0u);

  Scheduler_options sim = opt;
  sim.backend = "sim";
  sim.workers = 2;
  const auto simulated = Slot_scheduler(sim).run(src);
  // The host Q15 backend and the cycle-accurate simulator decode the same
  // bits, so with the shared analytic service clock the whole scenario
  // surface (cycles excluded) must match.
  EXPECT_TRUE(fixed.scenario_equal(simulated));
  expect_bits_equal(fixed, simulated);
}

TEST(ScenarioParity, SimShardLadderIsInvariantOnTheHarqSurface) {
  const Traffic_source src(harq_mix(8));
  Scheduler_options opt = harq_options();
  opt.backend = "sim";
  opt.workers = 1;
  const auto one = Slot_scheduler(opt).run(src);
  for (const uint32_t workers : {2u, 8u}) {
    Scheduler_options other = opt;
    other.workers = workers;
    EXPECT_TRUE(one.deterministic_equal(Slot_scheduler(other).run(src)))
        << workers << " sim workers";
  }
}

}  // namespace
