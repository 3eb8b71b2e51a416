// Fixed-point host slot execution, bit-identical to the sim backend.
//
// The Q15 arithmetic is shared with the simulator through
// common/q15_chain.h (via the host kernels of src/fixed/), and the BER
// epilogue is phy::payload_ber.  What this file keeps in step with
// backend_sim.cpp is only the marshaling order: the same quantize/dequantize
// round-trips at the same block-rescaling factors, the same NE core
// partition, the same serial EVM order.  A change to the sim backend's
// marshaling must be made here too (tests/test_backend_fixed.cpp pins the
// bit-exact contract across a scenario grid, worker counts, shape changes
// on one backend and the split front/back path).
//
// The loop structure is free to differ where the values cannot: the
// round-trips run per element inside the parallel dispatches, and the MIMO
// stage factors G = H^H H + sigma2 I once per sub-carrier where the sim
// backend factors it once per launch batch of data symbols - the same
// inputs through the same q15_chain.h steps give the same factor.
//
// All marshaling staging lives in the backend's slot workspaces
// (grow-then-stabilize): after the first slot of a shape, a run allocates
// nothing - the serving benches gate that under PP_COUNT_ALLOCS.
#include <cmath>

#include "common/check.h"
#include "common/q15_chain.h"
#include "fixed/q15_kernels.h"
#include "fixed/simd.h"
#include "runtime/backend_fixed.h"
#include "runtime/workspace.h"

namespace pp::runtime {

namespace {

using common::cq15;
using common::Thread_pool;
using phy::cd;

}  // namespace

bool Fixed_backend::simd_active() const {
  return simd_ && fixed::simd_available();
}

void Fixed_backend::run_front_into(const Pipeline& p,
                                   const phy::Uplink_scenario& sc,
                                   Slot_front& out) {
  const auto& cfg = sc.config();
  common::Ws_grid<cd>& beams = out.beams;
  PP_CHECK(cfg.n_sc == cfg.fft_size,
           "fixed backend assumes all FFT bins are active sub-carriers");
  const uint32_t n = cfg.fft_size;
  const Stage_spec& fft_spec =
      p.require(Stage_role::fft, "pipeline needs an fft stage");
  const Stage_spec& bf_spec =
      p.require(Stage_role::beamform, "pipeline needs a beamform stage");
  const double s_time = fft_spec.rescale;
  const double s_grid = bf_spec.rescale;
  // The kernel computes FFT/N of the s_time-scaled samples and the
  // transmitter normalized time by 1/sqrt(N) (same comment as backend_sim).
  const double ds = s_time / std::sqrt(static_cast<double>(n));
  const fixed::Fft_plan& plan = fixed::fft_plan(n);
  const bool simd = simd_active();
  const uint32_t workers = pool_.workers();

  // Quantized beamforming codebook (n_rx x n_beams), reused every symbol.
  quantize_into(sc.codebook(), 1.0, bq_);

  // Frequency grids per (symbol, antenna) in true (unscaled) units: row
  // s * n_rx + r of the workspace grid.  Every row is fully written by the
  // FFT phase before the MMM phase reads it (barrier in between).
  freq_.shape(static_cast<size_t>(cfg.n_symb) * cfg.n_rx, n);
  beams.shape(cfg.n_symb, static_cast<size_t>(n) * cfg.n_beams);

  const uint64_t n_fft = static_cast<uint64_t>(cfg.n_symb) * cfg.n_rx;
  common::Counting_barrier bar(workers);
  pool_.run([&](uint32_t w) {
    Worker_ws& ws = fft_ws_[w];
    common::ws_grow(ws.buf, n);
    common::ws_grow(ws.fout, n);
    common::ws_grow(ws.aq, cfg.n_rx);
    common::ws_grow(ws.crow, cfg.n_beams);

    // OFDM FFT: whole (symbol, antenna) transforms, statically sliced.
    const auto [f0, f1] = Thread_pool::slice(n_fft, w, workers);
    for (uint64_t t = f0; t < f1; ++t) {
      const uint32_t s = static_cast<uint32_t>(t / cfg.n_rx);
      const uint32_t r = static_cast<uint32_t>(t % cfg.n_rx);
      const auto& x = sc.antenna_time(s, r);
      for (uint32_t i = 0; i < n; ++i) {
        ws.buf[i] = common::to_cq15(x[i] * s_time);
      }
      fixed::fft_transform(plan, ws.buf.data(), ws.fout.data(), simd);
      std::span<cd> frow = freq_.row(t);
      for (uint32_t i = 0; i < n; ++i) {
        frow[i] = common::to_cd(ws.fout[i]) / ds;
      }
    }
    bar.arrive_and_wait();

    // Beamforming: one (symbol, sub-carrier) output row of the MMM per
    // item - gather the quantized sub-carrier row, exact MAC against the
    // codebook, dequantize.  Element-for-element the arithmetic of the sim
    // backend's whole-matrix quantize -> MMM -> dequantize sequence.
    const auto [r0, r1] =
        Thread_pool::slice(static_cast<uint64_t>(cfg.n_symb) * n, w, workers);
    for (uint64_t item = r0; item < r1; ++item) {
      const uint32_t s = static_cast<uint32_t>(item / n);
      const uint32_t scx = static_cast<uint32_t>(item % n);
      for (uint32_t r = 0; r < cfg.n_rx; ++r) {
        ws.aq[r] = common::to_cq15(
            freq_.at(static_cast<size_t>(s) * cfg.n_rx + r, scx) * s_grid);
      }
      fixed::mmm_rows(ws.aq.data(), bq_.data(), ws.crow.data(), cfg.n_rx,
                      cfg.n_beams, 0, 1);
      std::span<cd> brow = beams.row(s);
      for (uint32_t q = 0; q < cfg.n_beams; ++q) {
        brow[static_cast<size_t>(scx) * cfg.n_beams + q] =
            common::to_cd(ws.crow[q]) / s_grid;
      }
    }
  });
}

void Fixed_backend::run_back_into(const Pipeline& p,
                                  const phy::Uplink_scenario& sc,
                                  const Slot_front& front, Slot_result& out) {
  const auto& cfg = sc.config();
  const common::Ws_grid<cd>& beams = front.beams;
  const uint32_t n = cfg.fft_size;
  const uint32_t n_b = cfg.n_beams;
  const uint32_t n_l = cfg.n_ue;
  const Stage_spec& che_spec =
      p.require(Stage_role::che, "pipeline needs a che stage");
  const Stage_spec& ne_spec =
      p.require(Stage_role::ne, "pipeline needs an ne stage");
  const Stage_spec& gram_spec =
      p.require(Stage_role::gram, "pipeline needs a gram stage");
  p.require(Stage_role::mimo_solve, "pipeline needs a mimo_solve stage");
  const double s_che = che_spec.rescale;
  const double s_est = ne_spec.rescale;
  const double s_rhs = gram_spec.rescale;
  const bool simd = simd_active();
  const uint32_t workers = pool_.workers();
  common::Counting_barrier bar(workers);

  out.backend = "fixed";
  mirror_sim_stage_runs(p, cfg, out);

  // ---- channel estimation on the pilot symbols ------------------------
  // One pass per sub-carrier slice: quantize the slice's pilots, separated
  // pilot observations and first pilot-symbol beam rows, estimate its
  // channel rows, then dequantize each estimate and requantize it for NE
  // (x s_est) and for the MIMO stage (x 1.0).  Every step is elementwise
  // and stays within the slice, so no barrier is needed and the values are
  // those of the sim backend's whole-buffer round trips.
  const size_t h_elems = static_cast<size_t>(n) * n_b * n_l;
  common::ws_shape_rows(pilots_q_, n_l, n);
  common::ws_shape_rows(y_sep_q_, n_l, static_cast<size_t>(n) * n_b);
  common::ws_grow(y_est_, static_cast<size_t>(n) * n_b);
  common::ws_grow(h_q_, h_elems);  // [sc][b][l]
  common::ws_grow(h_est_, h_elems);
  common::ws_grow(gh_q_, h_elems);
  const std::span<const cd> beams0 = beams.row(0);
  pool_.run([&](uint32_t w) {
    const auto [lo, hi] = Thread_pool::slice(n, w, workers);
    const size_t r0 = static_cast<size_t>(lo) * n_b;
    const size_t r1 = static_cast<size_t>(hi) * n_b;
    for (uint32_t l = 0; l < n_l; ++l) {
      const std::vector<cd>& pilot = sc.pilot(l);
      const std::vector<cd>& obs = sc.pilot_obs_beam(l);
      for (uint64_t i = lo; i < hi; ++i) {
        pilots_q_[l][i] = common::to_cq15(pilot[i] * 1.0);
      }
      for (size_t i = r0; i < r1; ++i) {
        y_sep_q_[l][i] = common::to_cq15(obs[i] * s_che);
      }
    }
    for (size_t i = r0; i < r1; ++i) {
      y_est_[i] = common::to_cq15(beams0[i] * s_est);
    }
    fixed::che_subcarriers(y_sep_q_, pilots_q_, h_q_.data(), n_b, n_l,
                           static_cast<uint32_t>(lo),
                           static_cast<uint32_t>(hi), simd);
    for (size_t i = r0 * n_l; i < r1 * n_l; ++i) {
      const cd h_hat = common::to_cd(h_q_[i]) / s_che;
      h_est_[i] = common::to_cq15(h_hat * s_est);
      gh_q_[i] = common::to_cq15(h_hat * 1.0);
    }
  });

  // ---- noise estimation ------------------------------------------------
  // The sim NE folds one uint32 contribution per core block, so the
  // estimate depends on the *simulated* partition: replay exactly that
  // many blocks regardless of the host worker count.
  uint32_t ne_cores = ne_spec.run.params.getu("cores", 0);
  if (ne_cores == 0) ne_cores = p.cluster().n_cores();
  common::ws_grow(contribs_, ne_cores);
  pool_.parallel_for(ne_cores, [&](uint64_t idx) {
    const common::Sc_block blk =
        common::sc_block(n, ne_cores, static_cast<uint32_t>(idx));
    contribs_[idx] = common::ne_fold(fixed::ne_partial(
        y_est_.data(), h_est_.data(), pilots_q_, n_b, n_l, blk.lo, blk.hi));
  });
  uint32_t raw = 0;  // wraps mod 2^32 like the simulated amo_add word
  for (uint32_t i = 0; i < ne_cores; ++i) raw += contribs_[i];
  const double sigma2_hat = common::ne_sigma2(raw, n, n_b) / (s_est * s_est);
  out.sigma2_hat = sigma2_hat;

  // ---- MIMO: G = H^H H + sigma2 I, Cholesky, solves --------------------
  // The channel estimate and sigma2 are per slot, so G and its Cholesky
  // factor depend only on the sub-carrier.  Phase 1 factors each
  // sub-carrier once into l_q_; after the barrier, phase 2 solves every
  // (data symbol, sub-carrier) item against its sub-carrier's factor:
  // quantize the beam row, matched filter, both substitutions, dequantize,
  // then demodulate the worker's item range.  The sim backend re-factors
  // per launch batch (chol_symb_batch symbols); it computes the same
  // values from the same inputs, so the grouping shows only in
  // stages[].runs (mirror_sim_stage_runs above).
  const cq15 sigma{common::to_q15(sigma2_hat), 0};
  const uint32_t n_data = cfg.n_symb - cfg.n_pilot_symb;
  const uint64_t n_items = static_cast<uint64_t>(n_data) * n;
  const size_t ll = static_cast<size_t>(n_l) * n_l;
  common::ws_grow(l_q_, static_cast<size_t>(n) * ll);
  out.bits.resize(n_l);
  out.symbols.resize(n_l);  // equalized symbols, indexed (data symbol, sc)
  const uint32_t bps = phy::qam_bits(cfg.qam);
  for (uint32_t l = 0; l < n_l; ++l) {
    common::ws_grow(out.symbols[l], n_items);
    common::ws_grow(out.bits[l], n_items * bps);
  }
  pool_.run([&](uint32_t w) {
    const auto [lo, hi] = Thread_pool::slice(n, w, workers);
    for (uint64_t scx = lo; scx < hi; ++scx) {
      cq15 g[common::max_layers * common::max_layers];
      fixed::gram_matrix(gh_q_.data() + scx * n_b * n_l, sigma, g, n_b, n_l,
                         0, 1);
      fixed::cholesky(g, l_q_.data() + scx * ll, n_l);
    }
    bar.arrive_and_wait();

    std::vector<cq15>& yq = fft_ws_[w].aq;
    const auto [i0, i1] = Thread_pool::slice(n_items, w, workers);
    for (uint64_t item = i0; item < i1; ++item) {
      const uint32_t s = cfg.n_pilot_symb + static_cast<uint32_t>(item / n);
      const size_t scx = item % n;
      quantize_into(beams.row(s).subspan(scx * n_b, n_b), s_rhs, yq);
      cq15 rhs[common::max_layers];
      cq15 x[common::max_layers];
      fixed::matched_filter(gh_q_.data() + scx * n_b * n_l, yq.data(), rhs,
                            n_b, n_l, 0, 1);
      fixed::trisolve(l_q_.data() + scx * ll, rhs, x, n_l);
      for (uint32_t l = 0; l < n_l; ++l) {
        out.symbols[l][item] = common::to_cd(x[l]) / s_rhs / cfg.ue_power;
      }
    }
    for (uint32_t l = 0; l < n_l; ++l) {
      phy::qam_demodulate_range(cfg.qam, out.symbols[l], i0, i1, out.bits[l]);
    }
  });

  // Serial EVM in the sim backend's exact loop order (symbol, sub-carrier,
  // UE): the sum is a float reduction, so its order is part of the contract.
  double evm_acc = 0.0;
  for (uint64_t item = 0; item < n_items; ++item) {
    const uint32_t s = cfg.n_pilot_symb + static_cast<uint32_t>(item / n);
    const uint32_t scx = static_cast<uint32_t>(item % n);
    for (uint32_t l = 0; l < n_l; ++l) {
      const cd want = sc.tx_grid(l, s)[scx] / cfg.ue_power;
      evm_acc += std::norm(out.symbols[l][item] - want);
    }
  }
  out.evm = std::sqrt(evm_acc / static_cast<double>(n_items * n_l));
  out.ber = phy::payload_ber(sc, out.bits);
}

size_t Fixed_backend::workspace_bytes() const {
  size_t b = Backend::workspace_bytes() +
             (bq_.capacity() + h_q_.capacity() + y_est_.capacity() +
              h_est_.capacity() + gh_q_.capacity() + l_q_.capacity()) *
                 sizeof(cq15) +
             freq_.footprint_bytes() + contribs_.capacity() * sizeof(uint32_t);
  for (const auto& ws : fft_ws_) b += ws.footprint_bytes();
  b += common::ws_rows_footprint(pilots_q_) +
       common::ws_rows_footprint(y_sep_q_);
  return b;
}

}  // namespace pp::runtime
