// Intra-slot host-parallel scaling: per-stage and whole-slot speedup of
// runtime::Parallel_backend vs. worker count, echoing the paper's Fig. 9
// (kernel speedups 9a/9b, full use case 9c) on the double-precision host
// path instead of the simulated cluster.
//
// Per-stage rows time the same host models the backend dispatches on a
// common::Thread_pool: a fan-out of whole ref::fft transforms, row tiles
// of ref::matmul_rows and ref::gram_rows, per-UE-batch ref::lmmse; the
// slot row runs the full receive chain through the backend.  Every row of every run is
// checked bit-identical to the first --workers entry's run before its
// speedup is reported - the determinism contract of docs/DETERMINISM.md is
// re-verified on every invocation, not just in the test suite.
//
//   ./bench/bench_parallel_scaling                  # workers 1,2,4,8
//   ./bench/bench_parallel_scaling --workers 1,2,16 --fft 4096 --batches 2048
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "baseline/reference.h"
#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "runtime/backend_parallel.h"
#include "runtime/presets.h"

namespace {

using namespace pp;
using common::Table;
using common::Thread_pool;
using ref::cd;

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

std::vector<cd> random_cd(size_t n, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<cd> x(n);
  for (auto& v : x) v = rng.cnormal();
  return x;
}

struct Stage_timing {
  std::string name;
  std::vector<double> seconds;               // min, one entry per worker count
  std::vector<std::vector<double>> samples;  // raw repetitions per entry

  void push(std::vector<double> s) {
    seconds.push_back(*std::min_element(s.begin(), s.end()));
    samples.push_back(std::move(s));
  }
};

}  // namespace

int main(int argc, char** argv) {
  common::Cli cli(argc, argv);
  const std::vector<uint32_t> worker_counts =
      cli.get_u32_list("--workers", "1,2,4,8");
  const uint32_t fft_size = cli.get_u32("--fft", 4096);
  const uint32_t n_ffts = cli.get_u32("--ffts", 32);
  const uint32_t mmm_rows = cli.get_u32("--rows", 4096);
  const uint32_t batches = cli.get_u32("--batches", 4096);

  bench::banner("[Fig. 9 host]", "intra-slot host-parallel scaling",
                "per-stage + whole-slot speedup of the 'parallel' backend; "
                "every row of every run is checked bit-identical to the "
                "first --workers entry's run");
  std::printf("host: %u hardware threads\n\n",
              std::thread::hardware_concurrency());

  // ---- per-stage tiles (Fig. 9a/9b analogue) ------------------------------
  const uint32_t n_rx = 64, n_beams = 32, n_ue = 4;
  const auto fft_in = random_cd(fft_size, 1);
  const auto mf_a = random_cd(static_cast<size_t>(mmm_rows) * n_rx, 2);
  const auto mf_b = random_cd(static_cast<size_t>(n_rx) * n_beams, 3);
  const auto gram_a = random_cd(static_cast<size_t>(mmm_rows) * n_rx, 4);
  const auto chol_h = random_cd(static_cast<size_t>(n_beams) * n_ue, 5);
  const auto chol_y = random_cd(n_beams, 6);

  std::vector<Stage_timing> rows(5);
  rows[0].name = "FFT fan-out (" + std::to_string(n_ffts) + " x " +
                 std::to_string(fft_size) + ")";
  rows[1].name = "matched filter MMM (" + std::to_string(mmm_rows) + " x " +
                 std::to_string(n_rx) + " x " + std::to_string(n_beams) + ")";
  rows[2].name = "Gram rows (" + std::to_string(mmm_rows) + " x " +
                 std::to_string(n_rx) + ")";
  rows[3].name = "Cholesky+solve batches (" + std::to_string(batches) + " x " +
                 std::to_string(n_beams) + "x" + std::to_string(n_ue) + ")";
  rows[4].name = "full slot (parallel backend)";

  // Whole-slot scenario: a heavy config so the parallel regions dominate.
  phy::Uplink_config slot_cfg;
  slot_cfg.n_sc = 1024;
  slot_cfg.fft_size = 1024;
  slot_cfg.n_rx = 8;
  slot_cfg.n_beams = 8;
  slot_cfg.n_ue = 4;
  slot_cfg.n_symb = 8;
  slot_cfg.n_pilot_symb = 2;
  slot_cfg.qam = phy::Qam::qam64;
  slot_cfg.seed = 7;
  const phy::Uplink_scenario slot_sc(slot_cfg);
  const runtime::Pipeline pipeline =
      runtime::uplink_pipeline(arch::Cluster_config::minipool());

  runtime::Slot_result slot_serial;
  std::vector<std::vector<cd>> fft_serial;
  std::vector<cd> mf_serial, gram_serial;
  std::vector<std::vector<cd>> chol_serial;

  // Baseline for the "bit-identical" checks and the speedup column: the
  // first entry of --workers (1 by default).
  const uint32_t base_workers = std::max(1u, worker_counts.at(0));

  for (size_t wi = 0; wi < worker_counts.size(); ++wi) {
    const uint32_t w = std::max(1u, worker_counts[wi]);
    Thread_pool pool(w);

    // FFT fan-out over n_ffts independent transforms.
    std::vector<std::vector<cd>> fft_out(n_ffts);
    rows[0].push(time_samples([&] {
      pool.parallel_for(n_ffts,
                        [&](uint64_t i) { fft_out[i] = ref::fft(fft_in); });
    }));
    if (wi == 0) {
      fft_serial = fft_out;
    } else if (fft_out != fft_serial) {
      std::fprintf(stderr, "FFT fan-out not bit-identical at %u workers\n", w);
      return 1;
    }

    // Matched-filter MMM, row-block tiled.
    std::vector<cd> mf_c(static_cast<size_t>(mmm_rows) * n_beams);
    rows[1].push(time_samples([&] {
      pool.run([&](uint32_t id) {
        const auto [first, last] = Thread_pool::slice(mmm_rows, id, w);
        ref::matmul_rows(mf_a, mf_b, mf_c, mmm_rows, n_rx, n_beams, first,
                         last);
      });
    }));
    if (wi == 0) {
      mf_serial = mf_c;
    } else if (mf_c != mf_serial) {
      std::fprintf(stderr, "MMM rows not bit-identical at %u workers\n", w);
      return 1;
    }

    // Gram rows (A^H A of a tall matrix), row-block tiled.
    std::vector<cd> gram_g(static_cast<size_t>(n_rx) * n_rx);
    rows[2].push(time_samples([&] {
      pool.run([&](uint32_t id) {
        const auto [first, last] = Thread_pool::slice(n_rx, id, w);
        ref::gram_rows(gram_a, gram_g, mmm_rows, n_rx, first, last);
      });
    }));
    if (wi == 0) {
      gram_serial = gram_g;
    } else if (gram_g != gram_serial) {
      std::fprintf(stderr, "Gram rows not bit-identical at %u workers\n", w);
      return 1;
    }

    // Per-UE-batch Cholesky + substitutions, batches sliced across workers.
    std::vector<std::vector<cd>> xs(batches);
    rows[3].push(time_samples([&] {
      pool.parallel_for(batches, [&](uint64_t i) {
        xs[i] = ref::lmmse(chol_h, chol_y, n_beams, n_ue, 1e-3);
      });
    }));
    if (wi == 0) {
      chol_serial = xs;
    } else if (xs != chol_serial) {
      std::fprintf(stderr, "Cholesky batches not bit-identical at %u workers\n",
                   w);
      return 1;
    }

    // Full slot through the backend, parity-checked against 1 worker.
    runtime::Parallel_backend backend(w);
    runtime::Slot_result slot;
    rows[4].push(
        time_samples([&] { slot = pipeline.execute(slot_sc, backend); }));
    if (wi == 0) {
      slot_serial = slot;
    } else if (slot.bits != slot_serial.bits || slot.evm != slot_serial.evm ||
               slot.ber != slot_serial.ber ||
               slot.sigma2_hat != slot_serial.sigma2_hat) {
      std::fprintf(stderr, "slot result not bit-identical at %u workers\n", w);
      return 1;
    }
  }

  std::vector<std::string> header = {
      "stage", std::to_string(base_workers) + "w ms"};
  for (const uint32_t w : worker_counts) {
    header.push_back("x" + std::to_string(w) + "w");
  }
  Table t(header);
  for (const auto& row : rows) {
    std::vector<std::string> cells = {row.name,
                                      Table::fmt(row.seconds[0] * 1e3, 2)};
    for (const double s : row.seconds) {
      cells.push_back(Table::fmt(row.seconds[0] / s, 2));
    }
    t.add_row(cells);
  }
  std::fputs(t.str().c_str(), stdout);
  std::printf(
      "\nspeedups are vs. this binary's own %u-worker run; all parallel "
      "results verified bit-identical to it.\n",
      base_workers);

  // JSON report: all wall-clock (host-dependent, min/median/stdev over the
  // 3 repetitions); the only deterministic metric is the parity check.
  auto rep = bench::make_report("bench_parallel_scaling", "[Fig. 9 host]",
                                "intra-slot host-parallel scaling");
  rep.add_meta("hardware_threads",
               std::to_string(std::thread::hardware_concurrency()));
  rep.add_meta("base_workers", std::to_string(base_workers));
  for (const auto& row : rows) {
    for (size_t wi = 0; wi < worker_counts.size(); ++wi) {
      auto& r = rep.add_row(row.name + " @" +
                            std::to_string(worker_counts[wi]) + "w");
      r.metric(bench::wall_metric("wall", row.samples[wi]));
      r.metric("speedup_vs_base", row.seconds[0] / row.seconds[wi], "x",
               false, "info");
    }
  }
  rep.add_row("parity").metric("bit_identical", 1.0, "bool", true, "higher");
  return bench::emit(rep, cli);
}
