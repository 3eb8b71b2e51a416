// Functional slot execution on the cycle-approximate simulated cluster.
//
// Driven by the Pipeline description: stage kernels come from the registry,
// block-rescaling factors and Cholesky symbol-batching come from the
// Stage_specs, and all kernels are driven through the uniform
// runtime::Kernel lifecycle.  Between
// kernel launches the host only marshals data and applies power-of-two
// block rescaling (the role DMA + block-floating-point shifts play in a
// real deployment).
#include <cmath>

#include "runtime/backend.h"
#include "runtime/registry.h"
#include "runtime/workspace.h"
#include "sim/machine.h"

namespace pp::runtime {

namespace {

using common::cq15;
using phy::cd;

void accumulate(Slot_result::Stage& st, const sim::Kernel_report& r) {
  st.cycles += r.cycles;
  st.instrs += r.instrs;
  for (size_t k = 0; k < sim::n_stall_kinds; ++k) st.stall[k] += r.stall[k];
  ++st.runs;
}

}  // namespace

// Host-side marshaling workspace: the quantize staging buffers and the
// dequantized grids the host keeps between kernel launches.  Only this
// marshaling reuses storage across slots - the sim::Machine (simulated
// cores, L1, kernel instances) is rebuilt per slot by design, so the sim
// backend stays allocating and the zero-steady-state gate applies to the
// host backends only (docs/DETERMINISM.md section 10).
struct Sim_backend::Ws {
  std::vector<cq15> bq;                 // quantized codebook
  std::vector<cq15> q;                  // generic bind staging (bind copies)
  std::vector<cd> a;                    // beamform transpose gather
  std::vector<std::vector<cd>> freq;    // grow-only outer, per antenna
  std::vector<std::vector<cd>> beams;   // grow-only outer, per symbol
  std::vector<cd> h_hat;
  std::vector<std::vector<cq15>> g_syms, rhs_syms;  // per batch symbol

  size_t footprint_bytes() const {
    return (bq.capacity() + q.capacity()) * sizeof(cq15) +
           (a.capacity() + h_hat.capacity()) * sizeof(cd) +
           common::ws_rows_footprint(freq) + common::ws_rows_footprint(beams) +
           common::ws_rows_footprint(g_syms) +
           common::ws_rows_footprint(rhs_syms);
  }
};

Sim_backend::Sim_backend() : ws_(std::make_unique<Ws>()) {}
Sim_backend::~Sim_backend() = default;

size_t Sim_backend::workspace_bytes() const { return ws_->footprint_bytes(); }

void Sim_backend::run_slot_into(const Pipeline& p,
                                const phy::Uplink_scenario& sc,
                                Slot_result& out) {
  const auto& cfg = sc.config();
  const auto& cluster = p.cluster();
  PP_CHECK(cfg.n_sc == cfg.fft_size,
           "sim backend assumes all FFT bins are active sub-carriers");
  const uint32_t n = cfg.fft_size;
  const uint32_t n_cores = cluster.n_cores();

  const Stage_spec& fft_spec = p.require(Stage_role::fft, "pipeline needs an fft stage");
  const Stage_spec& bf_spec = p.require(Stage_role::beamform, "pipeline needs a beamform stage");
  const Stage_spec& che_spec = p.require(Stage_role::che, "pipeline needs a che stage");
  const Stage_spec& ne_spec = p.require(Stage_role::ne, "pipeline needs an ne stage");
  const Stage_spec& gram_spec = p.require(Stage_role::gram, "pipeline needs a gram stage");
  const Stage_spec& mimo_spec = p.require(Stage_role::mimo_solve, "pipeline needs a mimo_solve stage");

  // Block-rescaling factors between stages (power-of-two shifts).
  const double s_time = fft_spec.rescale;
  const double s_grid = bf_spec.rescale;
  const double s_est = ne_spec.rescale;
  const double s_che = che_spec.rescale;
  // The matched-filter scale: set on the gram stage (whose y input the host
  // quantizes); the solve outputs inherit it linearly.
  const double s_rhs = gram_spec.rescale;

  // Concurrent FFT gangs: never more than there are antennas to transform
  // (excess gangs would run on unbound inputs and inflate the cycle counts).
  const uint32_t fft_inst =
      resolve_fft_gangs(cluster, n, fft_spec.run.params, cfg.n_rx);

  // Cholesky symbol batching: decompositions of `batch` data symbols are
  // queued per core and closed by a single barrier.
  const uint32_t batch = mimo_spec.run.params.getu("symb_batch", 1);
  const uint32_t n_data_symb = cfg.n_symb - cfg.n_pilot_symb;
  PP_CHECK(batch >= 1 && n_data_symb % batch == 0,
           "chol symb_batch must divide the data-symbol count");
  const uint32_t per_sym = n / n_cores > 0 ? n / n_cores : 1;
  const uint32_t per_core = per_sym * batch;

  sim::Machine m(cluster);
  arch::L1_alloc alloc(m.config());

  // `out` may be a recycled result: every field below is overwritten and
  // the stage counters restart from zero.
  out.backend = "sim";
  out.stages.resize(p.stages().size());
  for (size_t i = 0; i < p.stages().size(); ++i) {
    auto& st = out.stages[i];
    st.name = p.stages()[i].name;
    st.cycles = 0;
    st.instrs = 0;
    st.stall.fill(0);
    st.runs = 0;
  }
  auto stage_of = [&](const Stage_spec& spec) -> Slot_result::Stage& {
    return out.stages[&spec - p.stages().data()];
  };

  // Persistent kernel instances (buffers live in L1 across the slot),
  // instantiated from the registry in a fixed order so the L1 layout is
  // reproducible.
  auto fft = make_kernel(fft_spec.run.kernel, m, alloc,
                         kernel_params(fft_spec.run)
                             .set("n", n)
                             .set("inst", fft_inst)
                             .set("reps", 1u));
  auto mmm = make_kernel(bf_spec.run.kernel, m, alloc,
                         kernel_params(bf_spec.run)
                             .set("m", n)
                             .set("k", cfg.n_rx)
                             .set("p", cfg.n_beams));
  // Stage params pass through; only the scenario-derived dimensions are
  // overridden.
  auto est_dims = [&](const Stage_spec& spec) {
    return kernel_params(spec.run)
        .set("sc", n)
        .set("b", cfg.n_beams)
        .set("l", cfg.n_ue);
  };
  auto che = make_kernel(che_spec.run.kernel, m, alloc, est_dims(che_spec));
  auto ne = make_kernel(ne_spec.run.kernel, m, alloc, est_dims(ne_spec));
  auto gram = make_kernel(gram_spec.run.kernel, m, alloc, est_dims(gram_spec));
  const Params mimo_dims = kernel_params(mimo_spec.run)
                               .set("n", cfg.n_ue)
                               .set("per_core", per_core);
  auto chol = make_kernel(mimo_spec.run.kernel, m, alloc, mimo_dims);
  auto solve = make_kernel(
      mimo_spec.run.params.gets("solver", "trisolve.batch"), m, alloc,
      mimo_dims);

  // Quantized beamforming codebook (n_rx x n_beams), reused every symbol.
  // Marshaling staging (ws_->q and friends) is reused across binds and
  // slots: bind() copies into L1 before returning, so one staging buffer
  // serves every port.
  quantize_into(sc.codebook(), 1.0, ws_->bq);

  // ---- per-symbol front end: FFT + beamforming ------------------------
  // beam grid per symbol, [sc][beam], in true (unscaled) units
  auto& beams = ws_->beams;
  auto& freq = ws_->freq;
  if (beams.size() < cfg.n_symb) beams.resize(cfg.n_symb);  // grow-only
  if (freq.size() < cfg.n_rx) freq.resize(cfg.n_rx);
  for (uint32_t s = 0; s < cfg.n_symb; ++s) {
    for (uint32_t r0 = 0; r0 < cfg.n_rx; r0 += fft_inst) {
      const uint32_t nb = std::min(fft_inst, cfg.n_rx - r0);
      for (uint32_t i = 0; i < nb; ++i) {
        quantize_into(sc.antenna_time(s, r0 + i), s_time, ws_->q);
        fft->bind("x", i, ws_->q);
      }
      accumulate(stage_of(fft_spec), fft->launch());
      for (uint32_t i = 0; i < nb; ++i) {
        // The kernel computes FFT/N of the s_time-scaled samples and the
        // transmitter normalized time by 1/sqrt(N), so the grid comes back
        // scaled by s_time/sqrt(N).
        dequantize_into(fft->fetch("y", i),
                        s_time / std::sqrt(static_cast<double>(n)),
                        freq[r0 + i]);
      }
    }

    // Beamforming on the simulated MMM: A = grid (n x n_rx) scaled.
    auto& a = ws_->a;
    common::ws_grow(a, static_cast<size_t>(n) * cfg.n_rx);
    for (uint32_t scx = 0; scx < n; ++scx) {
      for (uint32_t r0 = 0; r0 < cfg.n_rx; ++r0) {
        a[static_cast<size_t>(scx) * cfg.n_rx + r0] = freq[r0][scx];
      }
    }
    quantize_into(a, s_grid, ws_->q);
    mmm->bind("a", 0, ws_->q);
    mmm->bind("b", 0, ws_->bq);
    accumulate(stage_of(bf_spec), mmm->launch());
    dequantize_into(mmm->fetch("c"), s_grid, beams[s]);
  }

  // ---- channel + noise estimation on the pilot symbols ----------------
  for (uint32_t l = 0; l < cfg.n_ue; ++l) {
    quantize_into(sc.pilot(l), 1.0, ws_->q);
    che->bind("pilot", l, ws_->q);
    quantize_into(sc.pilot_obs_beam(l), s_che, ws_->q);
    che->bind("y_sep", l, ws_->q);
  }
  accumulate(stage_of(che_spec), che->launch());
  auto& h_hat = ws_->h_hat;  // [sc][b][l]
  dequantize_into(che->fetch("h"), s_che, h_hat);

  for (uint32_t l = 0; l < cfg.n_ue; ++l) {
    quantize_into(sc.pilot(l), 1.0, ws_->q);
    ne->bind("pilot", l, ws_->q);
  }
  quantize_into(beams[0], s_est, ws_->q);
  ne->bind("y", 0, ws_->q);
  quantize_into(h_hat, s_est, ws_->q);
  ne->bind("h", 0, ws_->q);
  accumulate(stage_of(ne_spec), ne->launch());
  const double sigma2_hat = ne->fetch_scalar("sigma2") / (s_est * s_est);
  out.sigma2_hat = sigma2_hat;

  // ---- MIMO per data symbol: G = H^H H + sigma2 I, Cholesky, solves ----
  // Gramian and matched filter run on the simulated kernel; the host only
  // reshuffles its interleaved outputs into the Cholesky kernel's folded
  // per-core layout (a DMA job in a real deployment).
  quantize_into(h_hat, 1.0, ws_->q);
  gram->bind("h", 0, ws_->q);
  gram->bind_scalar("sigma2", sigma2_hat);
  out.bits.resize(cfg.n_ue);
  auto& eq = out.symbols;  // equalized symbols
  eq.resize(cfg.n_ue);
  for (auto& e : eq) e.clear();
  double evm_acc = 0.0;
  uint64_t evm_cnt = 0;

  // Gramian staging per symbol group (grow-only outers; clear() keeps the
  // inner capacity across groups and slots).
  auto& g_syms = ws_->g_syms;
  auto& rhs_syms = ws_->rhs_syms;
  if (g_syms.size() < batch) g_syms.resize(batch);
  if (rhs_syms.size() < batch) rhs_syms.resize(batch);
  for (uint32_t s0 = cfg.n_pilot_symb; s0 < cfg.n_symb; s0 += batch) {
    // Gramians of the whole symbol group, staged host-side.
    for (uint32_t b = 0; b < batch; ++b) {
      quantize_into(beams[s0 + b], s_rhs, ws_->q);
      gram->bind("y", 0, ws_->q);
      accumulate(stage_of(gram_spec), gram->launch());
      g_syms[b].clear();
      rhs_syms[b].clear();
      for (uint32_t scx = 0; scx < n; ++scx) {
        const auto g = gram->fetch("g", scx);
        const auto r = gram->fetch("rhs", scx);
        g_syms[b].insert(g_syms[b].end(), g.begin(), g.end());
        rhs_syms[b].insert(rhs_syms[b].end(), r.begin(), r.end());
      }
    }

    // One batched Cholesky + solve launch covers the group.
    const uint32_t nue = cfg.n_ue;
    for (uint32_t b = 0; b < batch; ++b) {
      for (uint32_t scx = 0; scx < n; ++scx) {
        const uint32_t slot = b * n + scx;
        chol->bind("g", slot,
                   std::span<const cq15>(g_syms[b].data() +
                                             static_cast<size_t>(scx) * nue * nue,
                                         static_cast<size_t>(nue) * nue));
      }
    }
    accumulate(stage_of(mimo_spec), chol->launch());
    for (uint32_t b = 0; b < batch; ++b) {
      for (uint32_t scx = 0; scx < n; ++scx) {
        const uint32_t slot = b * n + scx;
        solve->bind("l", slot, chol->fetch("l", slot));
        solve->bind("y", slot,
                    std::span<const cq15>(rhs_syms[b].data() +
                                              static_cast<size_t>(scx) * nue,
                                          nue));
      }
    }
    accumulate(stage_of(mimo_spec), solve->launch());

    for (uint32_t b = 0; b < batch; ++b) {
      const uint32_t s = s0 + b;
      for (uint32_t scx = 0; scx < n; ++scx) {
        const auto x = dequantize(solve->fetch("x", b * n + scx), s_rhs);
        for (uint32_t l = 0; l < cfg.n_ue; ++l) {
          const cd sym = x[l] / cfg.ue_power;
          eq[l].push_back(sym);
          const cd want = sc.tx_grid(l, s)[scx] / cfg.ue_power;
          evm_acc += std::norm(sym - want);
          ++evm_cnt;
        }
      }
    }
  }
  out.evm = std::sqrt(evm_acc / static_cast<double>(evm_cnt));

  for (uint32_t l = 0; l < cfg.n_ue; ++l) {
    phy::qam_demodulate_into(cfg.qam, eq[l], out.bits[l]);
  }
  out.ber = phy::payload_ber(sc, out.bits);
}

}  // namespace pp::runtime
