// Parallel_backend determinism and thread-pool tests.
//
// The load-bearing guarantee (docs/DETERMINISM.md): the intra-slot parallel
// host backend is bit-identical to its own serial run at any worker count -
// workers own statically-sliced disjoint tiles whose arithmetic matches the
// serial loops exactly, and floating-point reductions are accumulated
// serially in slot order.  The grid test below sweeps numerology x UE x QAM
// at 1/2/8 workers; the speedup test needs real parallel hardware and skips
// on small hosts.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>

#include "common/thread_pool.h"
#include "runtime/backend.h"
#include "runtime/backend_parallel.h"
#include "runtime/scheduler.h"
#include "runtime/sweep.h"

namespace {

using namespace pp;
using common::Counting_barrier;
using common::Thread_pool;

// ---- Thread_pool primitives ----------------------------------------------

TEST(ThreadPool, SliceCoversRangeInOrderWithoutOverlap) {
  for (const uint32_t workers : {1u, 2u, 3u, 7u, 8u}) {
    for (const uint64_t n : {0ull, 1ull, 5ull, 64ull, 1000ull}) {
      uint64_t next = 0;
      for (uint32_t w = 0; w < workers; ++w) {
        const auto [first, last] = Thread_pool::slice(n, w, workers);
        EXPECT_EQ(first, next) << n << " items, worker " << w;
        EXPECT_LE(last - first, n / workers + 1);
        next = last;
      }
      EXPECT_EQ(next, n) << "slices must cover [0, n)";
    }
  }
}

TEST(ThreadPool, RunDispatchesEveryWorkerIdOnce) {
  Thread_pool pool(4);
  ASSERT_EQ(pool.workers(), 4u);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::atomic<int>> hits(4);
    pool.run([&](uint32_t w) { hits[w].fetch_add(1); });
    for (uint32_t w = 0; w < 4; ++w) EXPECT_EQ(hits[w].load(), 1);
  }
}

TEST(ThreadPool, ParallelForVisitsEachIndexExactlyOnce) {
  Thread_pool pool(3);
  std::vector<std::atomic<uint32_t>> seen(257);
  pool.parallel_for(seen.size(), [&](uint64_t i) { seen[i].fetch_add(1); });
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1u);
}

TEST(ThreadPool, CountingBarrierReusableAcrossGenerations) {
  constexpr uint32_t kWorkers = 4;
  constexpr int kRounds = 100;
  Thread_pool pool(kWorkers);
  Counting_barrier barrier(kWorkers);
  // Every worker bumps a per-round counter, then waits; after the barrier
  // all must observe the full round's worth of increments.
  std::vector<std::atomic<uint32_t>> counts(kRounds);
  pool.run([&](uint32_t) {
    for (int r = 0; r < kRounds; ++r) {
      counts[r].fetch_add(1);
      barrier.arrive_and_wait();
      EXPECT_EQ(counts[r].load(), kWorkers) << "round " << r;
      barrier.arrive_and_wait();
    }
  });
}

TEST(ThreadPool, SingleWorkerPoolSpawnsNoThreadsAndRunsInline) {
  Thread_pool pool(1);
  const std::thread::id self = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.run([&](uint32_t w) {
    EXPECT_EQ(w, 0u);
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, self);
}

// ---- backend construction -------------------------------------------------

TEST(ParallelBackend, MakeBackendByNameAndWorkerCount) {
  const auto b = runtime::make_backend("parallel", 3);
  EXPECT_EQ(b->name(), "parallel");
  EXPECT_FALSE(b->cycle_accurate());
  EXPECT_EQ(static_cast<runtime::Parallel_backend*>(b.get())->workers(), 3u);
  // intra = 0 fills the host.
  runtime::Parallel_backend all(0);
  EXPECT_GE(all.workers(), 1u);
}

// ---- bit parity vs. the serial reference ----------------------------------

void expect_slot_bits_equal(const runtime::Slot_result& ref,
                            const runtime::Slot_result& par,
                            const std::string& what) {
  EXPECT_EQ(ref.bits, par.bits) << what;
  EXPECT_EQ(ref.evm, par.evm) << what;
  EXPECT_EQ(ref.ber, par.ber) << what;
  EXPECT_EQ(ref.sigma2_hat, par.sigma2_hat) << what;
  ASSERT_EQ(ref.stages.size(), par.stages.size()) << what;
  for (size_t s = 0; s < ref.stages.size(); ++s) {
    EXPECT_EQ(ref.stages[s].name, par.stages[s].name) << what;
    EXPECT_EQ(ref.stages[s].runs, par.stages[s].runs) << what;
    EXPECT_EQ(par.stages[s].cycles, 0u) << "host backends report no cycles";
  }
}

TEST(ParallelBackend, BitIdenticalToReferenceAcrossScenarioGridAndWorkers) {
  // Numerology x UE x QAM grid, three SNR points each; every slot checked
  // at 1, 2 and 8 intra-slot workers against the serial reference sweep.
  runtime::Sweep_grid grid;
  grid.fft_sizes = {16, 64};
  grid.ue_counts = {2, 4};
  grid.qam_orders = {phy::Qam::qpsk, phy::Qam::qam16};
  grid.snr_db = {10, 20, 30};

  runtime::Scheduler_options ref_opt;
  ref_opt.backend = "reference";
  ref_opt.workers = 1;
  const auto ref =
      runtime::Slot_scheduler(ref_opt).run(runtime::Grid_source(grid));
  ASSERT_EQ(ref.total_slots, 24u);

  for (const uint32_t intra : {1u, 2u, 8u}) {
    runtime::Scheduler_options par_opt;
    par_opt.backend = "parallel";
    par_opt.workers = 2;  // compose slot-level x intra-slot parallelism
    par_opt.intra = intra;
    const auto par =
        runtime::Slot_scheduler(par_opt).run(runtime::Grid_source(grid));
    ASSERT_EQ(par.slots.size(), ref.slots.size());
    for (size_t i = 0; i < ref.slots.size(); ++i) {
      expect_slot_bits_equal(
          ref.slots[i], par.slots[i],
          "slot " + std::to_string(i) + " intra " + std::to_string(intra));
      EXPECT_EQ(par.slots[i].backend, "parallel");
    }
    for (size_t p = 0; p < ref.groups.size(); ++p) {
      EXPECT_EQ(ref.groups[p].evm, par.groups[p].evm) << "point " << p;
      EXPECT_EQ(ref.groups[p].ber, par.groups[p].ber) << "point " << p;
    }
  }
}

TEST(ParallelBackend, CooperativeFftPathBitIdentical) {
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

  const auto ref = pipeline.execute(sc, *runtime::make_backend("reference"));
  for (const uint32_t intra : {7u, 16u}) {  // 6 transforms < workers
    runtime::Parallel_backend backend(intra);
    const auto par = pipeline.execute(sc, backend);
    expect_slot_bits_equal(ref, par, "intra " + std::to_string(intra));
  }
}

TEST(ParallelBackend, ComposedSweepMatchesSerialReferenceRollup) {
  // The --backend parallel --intra N composition through Slot_scheduler:
  // per-point aggregates (which sum floats in slot order) must also match.
  runtime::Sweep_grid grid;
  grid.fft_sizes = {16};
  grid.snr_db = {15, 25};
  grid.slots_per_point = 2;

  runtime::Scheduler_options a;
  a.backend = "reference";
  a.workers = 1;
  runtime::Scheduler_options b;
  b.backend = "parallel";
  b.workers = 3;
  b.intra = 2;
  const auto ra = runtime::Slot_scheduler(a).run(runtime::Grid_source(grid));
  const auto rb = runtime::Slot_scheduler(b).run(runtime::Grid_source(grid));
  ASSERT_EQ(ra.groups.size(), rb.groups.size());
  for (size_t p = 0; p < ra.groups.size(); ++p) {
    EXPECT_EQ(ra.groups[p].evm, rb.groups[p].evm);
    EXPECT_EQ(ra.groups[p].ber, rb.groups[p].ber);
    EXPECT_EQ(ra.groups[p].sigma2_hat, rb.groups[p].sigma2_hat);
  }
}

TEST(ParallelBackend, EightWorkerSlotSpeedup) {
  // The acceptance bar: >= 2x whole-slot speedup with 8 intra-slot workers.
  // Needs real parallel hardware; skip on small hosts (CI containers often
  // expose 1-2 cores) where the bar is unmeetable.
  if (std::thread::hardware_concurrency() < 8) {
    GTEST_SKIP() << "needs >= 8 hardware threads, have "
                 << std::thread::hardware_concurrency();
  }
  phy::Uplink_config cfg;
  cfg.n_sc = 1024;
  cfg.fft_size = 1024;
  cfg.n_rx = 8;
  cfg.n_beams = 8;
  cfg.n_ue = 4;
  cfg.n_symb = 8;
  cfg.n_pilot_symb = 2;
  cfg.qam = phy::Qam::qam64;
  const phy::Uplink_scenario sc(cfg);
  const auto pipeline =
      runtime::uplink_pipeline(arch::Cluster_config::minipool());

  auto time_slot = [&](runtime::Parallel_backend& backend) {
    double best = 1e300;
    for (int i = 0; i < 3; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      (void)pipeline.execute(sc, backend);
      const auto t1 = std::chrono::steady_clock::now();
      best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
  };
  runtime::Parallel_backend serial(1);
  runtime::Parallel_backend eight(8);
  const double t1 = time_slot(serial);
  const double t8 = time_slot(eight);
  EXPECT_GE(t1 / t8, 2.0) << "1 worker " << t1 << " s, 8 workers " << t8
                          << " s";
}

}  // namespace
