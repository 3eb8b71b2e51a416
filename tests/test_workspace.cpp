// Slot workspace subsystem tests (docs/DETERMINISM.md section 10).
//
// Every backend owns grow-then-stabilize arenas for its slot buffers:
// capacity only moves up (geometrically, via common::ws_grow), reaches a
// high-water mark after warm-up, and reused storage never leaks one slot's
// values into the next (the non-interference rule - every buffer read back
// is fully overwritten first).  These tests pin:
//
//   - the ws_grow / Ws_grid / ws_shape_rows growth primitives themselves
//   - quantize_into/dequantize_into bit-identity with the returning forms
//   - workspace_bytes() growth-then-stable across repeated slot runs and
//     shape changes, on all four backends
//   - recycled-Slot_result and recycled-Slot_front results bit-identical
//     to fresh runs on every backend, stage counters included (reuse
//     cannot change values)
//   - per-worker workspace checkout under the thread pool and the
//     scheduler's summary mode (keep_slots=false reuses one Slot_result
//     per worker instead of retaining every slot)
#include <gtest/gtest.h>

#include <complex>
#include <string>
#include <vector>

#include "common/alloc_count.h"
#include "common/grid.h"
#include "common/thread_pool.h"
#include "runtime/backend.h"
#include "runtime/presets.h"
#include "runtime/scheduler.h"
#include "runtime/traffic.h"
#include "runtime/workspace.h"

namespace {

using namespace pp;
using common::cq15;

// ---- growth primitives -----------------------------------------------------

TEST(WorkspaceGrow, GeometricGrowthThenStable) {
  std::vector<double> v;
  common::ws_grow(v, 10);
  EXPECT_EQ(v.size(), 10u);
  const size_t cap10 = v.capacity();
  // Growing by one element doubles capacity instead of creeping.
  common::ws_grow(v, 11);
  EXPECT_EQ(v.size(), 11u);
  EXPECT_GE(v.capacity(), 2 * cap10);
  const size_t cap11 = v.capacity();
  // Shrinking the logical size never releases storage.
  common::ws_grow(v, 3);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v.capacity(), cap11);
  // Re-growing within capacity keeps the same storage.
  common::ws_grow(v, 11);
  EXPECT_EQ(v.capacity(), cap11);
  // A jump beyond 2x goes straight to the requested size.
  common::ws_grow(v, 10 * cap11);
  EXPECT_GE(v.capacity(), 10 * cap11);
}

TEST(WorkspaceGrow, GridReshapeKeepsFootprint) {
  common::Ws_grid<int> g;
  EXPECT_TRUE(g.empty());
  g.shape(4, 8);
  EXPECT_EQ(g.rows(), 4u);
  EXPECT_EQ(g.cols(), 8u);
  for (size_t r = 0; r < g.rows(); ++r) {
    EXPECT_EQ(g.row(r).size(), 8u);
    for (size_t c = 0; c < g.cols(); ++c) g.at(r, c) = int(r * 100 + c);
  }
  // Rows are contiguous slices of one flat backing store.
  EXPECT_EQ(g.row(1).data(), g.data() + 8);
  EXPECT_EQ(g.at(3, 7), 307);
  const size_t high_water = g.footprint_bytes();
  EXPECT_GT(high_water, 0u);
  // Any smaller or equal reshape reuses the same storage.
  g.shape(2, 16);
  EXPECT_EQ(g.footprint_bytes(), high_water);
  g.shape(8, 4);
  EXPECT_EQ(g.footprint_bytes(), high_water);
  // Growth is monotone.
  g.shape(16, 16);
  EXPECT_GT(g.footprint_bytes(), high_water);
}

TEST(WorkspaceGrow, NestedRowsOuterNeverShrinks) {
  std::vector<std::vector<int>> rows;
  common::ws_shape_rows(rows, 6, 32);
  EXPECT_EQ(rows.size(), 6u);
  for (const auto& r : rows) EXPECT_EQ(r.size(), 32u);
  const size_t high_water = common::ws_rows_footprint(rows);
  // Shrinking the row count keeps the outer vector (and the trailing inner
  // vectors' capacity) alive; consumers take explicit row counts.
  common::ws_shape_rows(rows, 2, 32);
  EXPECT_EQ(rows.size(), 6u);
  EXPECT_EQ(common::ws_rows_footprint(rows), high_water);
  common::ws_shape_rows(rows, 6, 32);
  EXPECT_EQ(common::ws_rows_footprint(rows), high_water);
}

TEST(WorkspaceGrow, AllocCounterDisabledReportsZero) {
  // Regular test builds run without PP_COUNT_ALLOCS: the counter must read
  // as a stable 0 so allocs_per_slot metrics gate trivially instead of
  // reporting garbage.  Under PP_COUNT_ALLOCS it must actually count.
  if (!common::alloc_count_enabled()) {
    const uint64_t a0 = common::alloc_count();
    std::vector<int> churn(1024);
    churn.resize(4096);
    EXPECT_EQ(common::alloc_count(), a0);
    EXPECT_EQ(a0, 0u);
  } else {
    std::vector<int> churn;
    const uint64_t a0 = common::alloc_count();
    churn.reserve(4096);
    EXPECT_GT(common::alloc_count(), a0);
  }
}

// ---- marshaling bit-identity -----------------------------------------------

std::vector<std::complex<double>> marshal_samples() {
  std::vector<std::complex<double>> x;
  for (int i = 0; i < 257; ++i) {
    // Mix of in-range, saturating, and sign-flipping values.
    x.emplace_back(0.013 * i - 1.6, 1.7 - 0.011 * i);
  }
  return x;
}

TEST(WorkspaceMarshal, QuantizeIntoMatchesReturningForm) {
  const auto x = marshal_samples();
  const double scale = 0.37;
  const auto returned = runtime::quantize(x, scale);
  std::vector<cq15> into;
  runtime::quantize_into(x, scale, into);
  ASSERT_EQ(returned.size(), into.size());
  for (size_t i = 0; i < into.size(); ++i) {
    EXPECT_EQ(returned[i].re, into[i].re) << i;
    EXPECT_EQ(returned[i].im, into[i].im) << i;
  }
  // Reuse with stale contents: a second _into call on a different input
  // fully overwrites, matching a fresh quantize of that input.
  std::vector<std::complex<double>> y(x.rbegin(), x.rend());
  y.resize(100);
  runtime::quantize_into(y, scale, into);
  const auto returned_y = runtime::quantize(y, scale);
  ASSERT_EQ(into.size(), returned_y.size());
  for (size_t i = 0; i < into.size(); ++i) {
    EXPECT_EQ(returned_y[i].re, into[i].re) << i;
    EXPECT_EQ(returned_y[i].im, into[i].im) << i;
  }
}

TEST(WorkspaceMarshal, DequantizeIntoMatchesReturningForm) {
  const auto q = runtime::quantize(marshal_samples(), 0.41);
  const double scale = 0.41;
  const auto returned = runtime::dequantize(q, scale);
  std::vector<std::complex<double>> into;
  runtime::dequantize_into(q, scale, into);
  ASSERT_EQ(returned.size(), into.size());
  for (size_t i = 0; i < into.size(); ++i) {
    // Bitwise equality on the doubles, not approximate.
    EXPECT_EQ(returned[i], into[i]) << i;
  }
  // Pointer-range form over an interior sub-range equals the vector form
  // on a copy of that sub-range.
  const std::vector<cq15> mid(q.begin() + 32, q.begin() + 96);
  const auto mid_returned = runtime::dequantize(mid, scale);
  runtime::dequantize_into(q.data() + 32, 64, scale, into);
  ASSERT_EQ(into.size(), mid_returned.size());
  for (size_t i = 0; i < into.size(); ++i) {
    EXPECT_EQ(mid_returned[i], into[i]) << i;
  }
}

// ---- backend workspaces ----------------------------------------------------

phy::Uplink_config small_cfg() {
  phy::Uplink_config cfg;
  cfg.n_sc = 16;
  cfg.fft_size = 16;
  cfg.n_rx = 2;
  cfg.n_beams = 2;
  cfg.n_ue = 2;
  cfg.n_symb = 3;
  cfg.n_pilot_symb = 2;
  cfg.qam = phy::Qam::qpsk;
  cfg.seed = 11;
  return cfg;
}

phy::Uplink_config big_cfg() {
  phy::Uplink_config cfg;
  cfg.n_sc = 64;
  cfg.fft_size = 64;
  cfg.n_rx = 4;
  cfg.n_beams = 4;
  cfg.n_ue = 2;
  cfg.n_symb = 4;
  cfg.n_pilot_symb = 2;
  cfg.qam = phy::Qam::qam16;
  cfg.seed = 12;
  return cfg;
}

void expect_results_equal(const runtime::Slot_result& a,
                          const runtime::Slot_result& b,
                          const std::string& what) {
  EXPECT_EQ(a.bits, b.bits) << what;
  EXPECT_EQ(a.symbols, b.symbols) << what;
  EXPECT_EQ(a.evm, b.evm) << what;
  EXPECT_EQ(a.ber, b.ber) << what;
  EXPECT_EQ(a.sigma2_hat, b.sigma2_hat) << what;
  EXPECT_EQ(a.backend, b.backend) << what;
  ASSERT_EQ(a.stages.size(), b.stages.size()) << what;
  for (size_t s = 0; s < a.stages.size(); ++s) {
    EXPECT_EQ(a.stages[s].name, b.stages[s].name) << what;
    EXPECT_EQ(a.stages[s].cycles, b.stages[s].cycles) << what;
    EXPECT_EQ(a.stages[s].instrs, b.stages[s].instrs) << what;
    EXPECT_EQ(a.stages[s].stall, b.stages[s].stall) << what;
    EXPECT_EQ(a.stages[s].runs, b.stages[s].runs) << what;
  }
}

TEST(WorkspaceBackend, GrowthThenStableAcrossSlotRuns) {
  // workspace_bytes() is the high-water footprint of the backend's arenas:
  // zero before the first slot, grows on first contact with a shape, then
  // stays put - repeat runs and smaller shapes reuse the same storage.
  const phy::Uplink_scenario small(small_cfg());
  const phy::Uplink_scenario big(big_cfg());
  const auto pipeline =
      runtime::uplink_pipeline(arch::Cluster_config::minipool());
  for (const char* name : {"reference", "parallel", "fixed", "sim"}) {
    const auto backend = runtime::make_backend(name, 3);
    EXPECT_EQ(backend->workspace_bytes(), 0u) << name << " before first slot";
    runtime::Slot_result res;
    backend->run_slot_into(pipeline, small, res);
    const size_t after_small = backend->workspace_bytes();
    EXPECT_GT(after_small, 0u) << name;
    backend->run_slot_into(pipeline, small, res);
    EXPECT_EQ(backend->workspace_bytes(), after_small)
        << name << " re-running the same shape must not grow the workspace";
    backend->run_slot_into(pipeline, big, res);
    const size_t after_big = backend->workspace_bytes();
    EXPECT_GT(after_big, after_small) << name;
    // Back to the small shape: capacity never shrinks, never re-grows.
    backend->run_slot_into(pipeline, small, res);
    EXPECT_EQ(backend->workspace_bytes(), after_big) << name;
    backend->run_slot_into(pipeline, big, res);
    EXPECT_EQ(backend->workspace_bytes(), after_big) << name;
  }
}

TEST(WorkspaceBackend, ReusedWorkspaceResultsBitIdenticalToFreshBackend) {
  // The non-interference rule, observed from outside: a backend that has
  // executed other shapes, writing into a recycled Slot_result, produces
  // exactly what a fresh backend writes into a fresh result.  The sim
  // backend accumulates stage counters, so it must restart them from zero.
  const phy::Uplink_scenario small(small_cfg());
  const phy::Uplink_scenario big(big_cfg());
  const auto pipeline =
      runtime::uplink_pipeline(arch::Cluster_config::minipool());
  for (const char* name : {"reference", "parallel", "fixed", "sim"}) {
    const runtime::Slot_result fresh_small =
        pipeline.execute(small, *runtime::make_backend(name, 2));
    const runtime::Slot_result fresh_big =
        pipeline.execute(big, *runtime::make_backend(name, 2));
    const auto reused = runtime::make_backend(name, 2);
    runtime::Slot_result res;
    reused->run_slot_into(pipeline, big, res);
    expect_results_equal(res, fresh_big, std::string(name) + " big #1");
    reused->run_slot_into(pipeline, small, res);
    expect_results_equal(res, fresh_small, std::string(name) + " small");
    reused->run_slot_into(pipeline, big, res);
    expect_results_equal(res, fresh_big, std::string(name) + " big #2");
  }
}

TEST(WorkspaceBackend, RecycledSlotFrontBitIdenticalToWholeSlot) {
  // run_slot_into recycles the backend's own Slot_front across slots; a
  // recycled front (stale beam grid from another shape) must carry exactly
  // the same values as a fresh one, and the split halves must reproduce
  // run_slot_into bit for bit.
  const phy::Uplink_scenario small(small_cfg());
  const phy::Uplink_scenario big(big_cfg());
  const auto pipeline =
      runtime::uplink_pipeline(arch::Cluster_config::minipool());
  for (const char* name : {"reference", "parallel", "fixed"}) {
    const auto backend = runtime::make_backend(name, 2);
    runtime::Slot_result whole_small, whole_big;
    backend->run_slot_into(pipeline, small, whole_small);
    backend->run_slot_into(pipeline, big, whole_big);

    runtime::Slot_front front;  // one recycled hand-off buffer
    runtime::Slot_result split;
    backend->run_front_into(pipeline, big, front);
    backend->run_back_into(pipeline, big, front, split);
    expect_results_equal(split, whole_big, std::string(name) + " split big");
    // Reuse the same front for the smaller slot: rows shrink, storage and
    // values must not bleed through.
    backend->run_front_into(pipeline, small, front);
    backend->run_back_into(pipeline, small, front, split);
    expect_results_equal(split, whole_small,
                         std::string(name) + " recycled front small");
    backend->run_front_into(pipeline, big, front);
    backend->run_back_into(pipeline, big, front, split);
    expect_results_equal(split, whole_big,
                         std::string(name) + " recycled front big");
  }
}

// ---- thread-pool checkout --------------------------------------------------

TEST(WorkspacePool, PerWorkerBuffersUnderThreadPool) {
  // Per-worker workspace checkout: each worker ws_grows and fills its own
  // arena; repeated dispatches reuse them.  Run under TSAN by check.sh -
  // the assertions here pin values, the sanitizer pins race-freedom.
  common::Thread_pool pool(4);
  std::vector<std::vector<double>> per_worker(pool.workers());
  for (const size_t n : {64u, 256u, 128u, 256u}) {
    pool.run([&](uint32_t w) {
      common::ws_grow(per_worker[w], n);
      for (size_t i = 0; i < n; ++i) per_worker[w][i] = double(w * 1000 + i);
    });
    for (uint32_t w = 0; w < pool.workers(); ++w) {
      ASSERT_EQ(per_worker[w].size(), n);
      EXPECT_EQ(per_worker[w][n - 1], double(w * 1000 + n - 1)) << w;
    }
  }
  const size_t footprint = common::ws_rows_footprint(per_worker);
  // A further dispatch at the high-water shape leaves capacity untouched.
  pool.run([&](uint32_t w) { common::ws_grow(per_worker[w], 256); });
  EXPECT_EQ(common::ws_rows_footprint(per_worker), footprint);
}

// ---- scheduler summary mode ------------------------------------------------

runtime::Traffic_config summary_traffic() {
  runtime::Traffic_config traffic;
  traffic.n_slots = 10;
  traffic.base_seed = 5;
  runtime::Traffic_cell cell;
  cell.mu = 1;
  cell.fft_size = 16;
  cell.n_ue = 2;
  cell.qam = phy::Qam::qam16;
  cell.load = 0.8;
  traffic.cells = {cell};
  return traffic;
}

TEST(WorkspaceScheduler, SummaryModeMatchesKeepSlots) {
  // keep_slots=false routes every slot into one reused per-worker
  // Slot_result instead of retaining all of them; the aggregates must be
  // bit-identical to the retaining run, at any worker count, run after
  // run.
  const runtime::Traffic_source source(summary_traffic());
  runtime::Scheduler_options opt;
  opt.backend = "fixed";
  opt.keep_slots = true;
  opt.workers = 1;
  const auto retained = runtime::Slot_scheduler(opt).run(source);
  EXPECT_EQ(retained.slots.size(), source.n_slots());

  for (const uint32_t workers : {1u, 1u, 3u, 3u}) {
    runtime::Scheduler_options sopt;
    sopt.backend = "fixed";
    sopt.keep_slots = false;
    sopt.workers = workers;
    sopt.intra = 2;  // intra-slot pool under the per-worker checkout
    const auto summary = runtime::Slot_scheduler(sopt).run(source);
    EXPECT_TRUE(summary.slots.empty())
        << "summary mode must not retain per-slot results";
    EXPECT_TRUE(retained.deterministic_equal(summary))
        << "workers " << workers;
  }
}

}  // namespace
