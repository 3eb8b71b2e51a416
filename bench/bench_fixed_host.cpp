// Fixed-point host backend wall-clock: scalar vs. SIMD vs. the
// double-precision reference on the same slot.
//
// Times the full receive chain through three host backends - the Q15
// subsystem (src/fixed/) with its vector paths forced off, the same with
// SIMD on (AVX2/NEON where the host supports it), and the double-precision
// "reference" backend - and reports the SIMD and fixed-vs-double speedups.
// The scalar and SIMD runs are checked bit-identical on every invocation
// (the contract of docs/DETERMINISM.md section 7); sim parity is covered
// by tests/test_backend_fixed.cpp, not re-run here (the simulator is orders
// of magnitude slower).
//
//   ./bench/bench_fixed_host                       # 1 intra-slot worker
//   ./bench/bench_fixed_host --workers 4 --fft 4096 --symb 14
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "bench/bench_util.h"
#include "fixed/simd.h"
#include "runtime/backend_fixed.h"
#include "runtime/presets.h"

namespace {

using namespace pp;
using common::Table;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Three timed repetitions of fn() (the first may also warm lazy tables);
// the table reports the min, the JSON report keeps min/median/stdev.
template <typename Fn>
std::vector<double> time_samples(Fn&& fn) {
  std::vector<double> samples;
  for (int i = 0; i < 3; ++i) {
    const double t0 = now_seconds();
    fn();
    samples.push_back(now_seconds() - t0);
  }
  return samples;
}

}  // namespace

int main(int argc, char** argv) {
  common::Cli cli(argc, argv);
  const uint32_t workers = std::max(1u, cli.get_u32("--workers", 1));
  const uint32_t fft_size = cli.get_u32("--fft", 1024);
  const uint32_t n_symb = cli.get_u32("--symb", 8);

  bench::banner("[host]", "fixed-point host backend wall-clock",
                "Q15 scalar vs. SIMD vs. double reference on one slot; "
                "scalar/SIMD checked bit-identical on every run");
  std::printf("host: %u hardware threads, SIMD path: %s\n\n",
              std::thread::hardware_concurrency(), fixed::simd_isa());

  // A heavy slot so the kernel loops dominate the marshaling.
  phy::Uplink_config cfg;
  cfg.n_sc = fft_size;
  cfg.fft_size = fft_size;
  cfg.n_rx = 8;
  cfg.n_beams = 8;
  cfg.n_ue = 4;
  cfg.n_symb = n_symb;
  cfg.n_pilot_symb = 2;
  cfg.qam = phy::Qam::qam64;
  cfg.seed = 7;
  const phy::Uplink_scenario sc(cfg);
  const runtime::Pipeline pipeline =
      runtime::uplink_pipeline(arch::Cluster_config::minipool());

  runtime::Fixed_backend scalar(workers, false);
  runtime::Fixed_backend simd(workers, true);
  const auto reference = runtime::make_backend("reference");

  runtime::Slot_result res_scalar, res_simd, res_ref;
  const auto t_scalar =
      time_samples([&] { res_scalar = pipeline.execute(sc, scalar); });
  const auto t_simd =
      time_samples([&] { res_simd = pipeline.execute(sc, simd); });
  const auto t_ref =
      time_samples([&] { res_ref = pipeline.execute(sc, *reference); });

  const bool parity = res_scalar.bits == res_simd.bits &&
                      res_scalar.evm == res_simd.evm &&
                      res_scalar.ber == res_simd.ber &&
                      res_scalar.sigma2_hat == res_simd.sigma2_hat;
  if (!parity) {
    std::fprintf(stderr, "fixed scalar/SIMD results not bit-identical\n");
    return 1;
  }

  const auto min3 = [](const std::vector<double>& s) {
    return *std::min_element(s.begin(), s.end());
  };
  const double s_scalar = min3(t_scalar);
  const double s_simd = min3(t_simd);
  const double s_ref = min3(t_ref);

  Table t({"backend", "slot ms", "vs fixed-scalar"});
  t.add_row({"fixed (scalar)", Table::fmt(s_scalar * 1e3, 2),
             Table::fmt(1.0, 2)});
  t.add_row({std::string("fixed (") + fixed::simd_isa() + ")",
             Table::fmt(s_simd * 1e3, 2), Table::fmt(s_scalar / s_simd, 2)});
  t.add_row({"reference (double)", Table::fmt(s_ref * 1e3, 2),
             Table::fmt(s_scalar / s_ref, 2)});
  std::fputs(t.str().c_str(), stdout);
  std::printf("\nscalar and %s runs are bit-identical (EVM %.4f%%, BER "
              "%.2e).\n",
              fixed::simd_isa(), 100 * res_simd.evm, res_simd.ber);

  // ---- steady-state serving loop: zero allocations after warm-up --------
  // Repeated execute_into() on the persistent SIMD backend with a reused
  // result: the warm-up passes grow the slot workspaces, after which the
  // measured passes must never touch the heap.  PP_COUNT_ALLOCS builds turn
  // that into a hard gate; other builds still record the (constant-0)
  // metric plus the steady wall-clock.
  constexpr uint64_t kSteadySlots = 8;
  runtime::Slot_result steady_res;
  double steady_s = 0.0;
  const double apslot = bench::allocs_per_slot(
      kSteadySlots,
      [&] {
        for (int i = 0; i < 2; ++i) {
          pipeline.execute_into(sc, simd, steady_res);
        }
      },
      [&] {
        const double t0 = now_seconds();
        for (uint64_t i = 0; i < kSteadySlots; ++i) {
          pipeline.execute_into(sc, simd, steady_res);
        }
        steady_s = (now_seconds() - t0) / kSteadySlots;
      });
  const int alloc_gate = bench::gate_steady_allocs("bench_fixed_host", apslot);
  std::printf("steady state (fixed %s): %.2f ms/slot, %g allocs/slot, "
              "%zu KiB workspace\n",
              fixed::simd_isa(), steady_s * 1e3, apslot,
              simd.workspace_bytes() / 1024);

  auto rep = bench::make_report("bench_fixed_host", "[host]",
                                "fixed-point host backend wall-clock");
  rep.add_meta("hardware_threads",
               std::to_string(std::thread::hardware_concurrency()));
  rep.add_meta("simd_isa", fixed::simd_isa());
  rep.add_meta("workers", std::to_string(workers));
  rep.add_row("fixed_scalar").metric(bench::wall_metric("wall", t_scalar));
  auto& row_simd = rep.add_row("fixed_simd");
  row_simd.metric(bench::wall_metric("wall", t_simd));
  row_simd.metric("speedup_vs_scalar", s_scalar / s_simd, "x", false, "info");
  auto& row_ref = rep.add_row("reference");
  row_ref.metric(bench::wall_metric("wall", t_ref));
  row_ref.metric("fixed_scalar_vs_reference", s_scalar / s_ref, "x", false,
                 "info");
  rep.add_row("parity").metric("scalar_simd_bit_identical", 1.0, "bool", true,
                               "higher");
  auto& row_steady = rep.add_row("steady");
  row_steady.metric("allocs_per_slot", apslot, "allocs/slot", true, "exact");
  row_steady.metric("steady_slot_ms", steady_s * 1e3, "ms", false, "info");
  return bench::emit(rep, cli) | alloc_gate;
}
