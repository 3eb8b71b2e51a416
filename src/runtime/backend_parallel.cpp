// Functional slot execution on the double-precision host models, split
// across a worker pool with the paper's per-kernel core mapping (§IV).
//
// This file runs phy::golden_receive()'s stage sequence through the same
// range-parameterized sub-steps the serial receiver is built from
// (phy::che_rows / ne_terms / mimo_items and the ref:: tiled sub-kernels),
// so the two paths share one implementation of every stage's arithmetic.
// Every parallel region follows the same recipe: workers own
// statically-sliced disjoint output tiles (common::Thread_pool::slice), a
// tile's arithmetic is independent of the partition, and floating-point
// reductions are never accumulated concurrently - per-element terms are
// stored and summed serially in slot order afterwards.  The result is
// therefore bit-identical to phy::golden_receive at any worker count;
// tests/test_host_oracle.cpp pins that over a scenario grid.
#include <cmath>

#include "baseline/reference.h"
#include "common/thread_pool.h"
#include "phy/qam.h"
#include "runtime/backend_parallel.h"

namespace pp::runtime {

namespace {

using phy::cd;
using common::Thread_pool;

}  // namespace

void Parallel_backend::run_front_into(const Pipeline&,
                                      const phy::Uplink_scenario& sc,
                                      Slot_front& out) {
  const auto& cfg = sc.config();
  common::Ws_grid<cd>& beams = out.beams;
  const double fft_comp = std::sqrt(static_cast<double>(cfg.fft_size));
  const uint32_t workers = pool_.workers();

  // 1) OFDM demodulation + 2) beamforming in one dispatch.  Spectra land in
  // one row per (symbol, antenna), s * n_rx + r; every beam row is fully
  // written by matmul_rows over the workers' disjoint row tiles.
  const uint64_t n_fft = static_cast<uint64_t>(cfg.n_symb) * cfg.n_rx;
  beams.shape(cfg.n_symb, static_cast<size_t>(cfg.n_sc) * cfg.n_beams);
  if (freq_.size() < n_fft) freq_.resize(n_fft);
  common::ws_grow(ft_, static_cast<size_t>(cfg.n_sc) * cfg.n_rx);
  common::Counting_barrier bar(workers);
  pool_.run([&](uint32_t w) {
    // Whole transforms per worker, each the serial receiver's exact
    // sequence: ref::fft_into reusing the row's capacity, then the sqrt(N)
    // compensation of the 1/sqrt(N) transmit normalization.
    const auto [f0, f1] = Thread_pool::slice(n_fft, w, workers);
    for (uint64_t t = f0; t < f1; ++t) {
      std::vector<cd>& a = freq_[t];
      ref::fft_into(sc.antenna_time(static_cast<uint32_t>(t / cfg.n_rx),
                                    static_cast<uint32_t>(t % cfg.n_rx)),
                    a);
      for (auto& v : a) v *= fft_comp;
    }
    bar.arrive_and_wait();

    // Matched-filter MMM beams = F^T * B per symbol over the worker's
    // sub-carrier rows.  The transpose gather is pure data movement; the
    // arithmetic lives in ref::matmul_rows, whose per-row accumulation
    // order matches the serial receiver's antenna loop.  `ft_` is shared,
    // but each worker reads back only the rows it wrote itself.
    const auto [r0, r1] = Thread_pool::slice(cfg.n_sc, w, workers);
    const std::span<const std::vector<cd>> spectra(freq_);
    for (uint32_t s = 0; s < cfg.n_symb; ++s) {
      phy::gather_subcarrier_rows(
          spectra.subspan(static_cast<size_t>(s) * cfg.n_rx, cfg.n_rx), ft_,
          cfg.n_rx, r0, r1);
      ref::matmul_rows(ft_, sc.codebook(), beams.row(s), cfg.n_sc, cfg.n_rx,
                       cfg.n_beams, r0, r1);
    }
  });
}

void Parallel_backend::run_back_into(const Pipeline& p,
                                     const phy::Uplink_scenario& sc,
                                     const Slot_front& front,
                                     Slot_result& out) {
  const auto& cfg = sc.config();
  const common::Ws_grid<cd>& beams = front.beams;
  const uint32_t workers = pool_.workers();

  // 3) Channel estimation: per-(UE, sub-carrier) row tiles of
  // phy::che_rows (every row of h_hat is written, so the reused buffer
  // needs no clearing).
  common::ws_grow(h_hat_,
                  static_cast<size_t>(cfg.n_sc) * cfg.n_beams * cfg.n_ue);
  const uint64_t n_che = static_cast<uint64_t>(cfg.n_ue) * cfg.n_sc;
  pool_.run([&](uint32_t w) {
    const auto [first, last] = Thread_pool::slice(n_che, w, workers);
    phy::che_rows(sc, h_hat_, first, last);
  });

  // 4) Noise estimation: per-cell pilot residuals (phy::ne_terms) computed
  // in parallel, summed serially in (symbol, sub-carrier, beam) order so
  // the estimate is bit-identical to the serial accumulation.
  const uint64_t n_ne = static_cast<uint64_t>(cfg.n_pilot_symb) * cfg.n_sc;
  common::ws_grow(sig_terms_, n_ne * cfg.n_beams);
  pool_.run([&](uint32_t w) {
    const auto [first, last] = Thread_pool::slice(n_ne, w, workers);
    phy::ne_terms(sc, beams, h_hat_, sig_terms_, first, last);
  });
  const double sigma2_hat = phy::mean_of_terms(sig_terms_);

  // 5) MIMO LMMSE: each (data symbol, sub-carrier) item is one Gram +
  // Cholesky + forward/backward substitution problem (phy::mimo_items ->
  // ref::lmmse_into on the worker's private Mimo_ws).  Equalized symbols
  // land straight in the caller's result storage at their slot index; the
  // EVM terms are reduced serially afterwards.
  const uint64_t n_mimo =
      static_cast<uint64_t>(cfg.n_symb - cfg.n_pilot_symb) * cfg.n_sc;
  out.symbols.resize(cfg.n_ue);
  for (auto& s : out.symbols) common::ws_grow(s, n_mimo);
  common::ws_grow(evm_terms_, n_mimo * cfg.n_ue);
  pool_.run([&](uint32_t w) {
    const auto [first, last] = Thread_pool::slice(n_mimo, w, workers);
    phy::mimo_items(sc, beams, h_hat_, sigma2_hat, out.symbols, evm_terms_,
                    mimo_ws_[w], first, last);
  });

  // 6) Demodulation (parallel per UE) + the shared serial epilogue.
  out.backend = name_;
  out.bits.resize(cfg.n_ue);
  pool_.parallel_for(cfg.n_ue, [&](uint64_t l) {
    phy::qam_demodulate_into(cfg.qam, out.symbols[l], out.bits[l]);
  });
  out.evm = phy::evm_from_terms(evm_terms_);
  out.ber = phy::payload_ber(sc, out.bits);
  out.sigma2_hat = sigma2_hat;
  mirror_sim_stage_runs(p, cfg, out);
}

size_t Parallel_backend::workspace_bytes() const {
  size_t b = Backend::workspace_bytes() + common::ws_rows_footprint(freq_) +
             ft_.capacity() * sizeof(cd) + h_hat_.capacity() * sizeof(cd) +
             (sig_terms_.capacity() + evm_terms_.capacity()) * sizeof(double);
  for (const auto& ws : mimo_ws_) b += ws.footprint_bytes();
  return b;
}

}  // namespace pp::runtime
