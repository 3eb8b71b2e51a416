#include "phy/uplink.h"

#include <algorithm>
#include <cmath>

#include "baseline/reference.h"
#include "common/check.h"

namespace pp::phy {

Uplink_config degrade_to_layers(const Uplink_config& cfg, uint32_t n_ue) {
  PP_CHECK(n_ue >= 1, "a degraded slot still serves at least one UE layer");
  PP_CHECK(n_ue <= cfg.n_ue, "degrade only removes UE layers");
  Uplink_config out = cfg;
  out.n_ue = n_ue;
  // sigma2 = n_ue * (channel_gain * ue_power)^2 * 10^(-snr/10) in the sweep
  // derivation: rescale by the layer ratio so each surviving UE sees the
  // same SNR.  One multiply + one divide - deterministic IEEE doubles.
  out.sigma2 = cfg.sigma2 * static_cast<double>(n_ue) /
               static_cast<double>(cfg.n_ue);
  return out;
}

namespace {

Channel_config scenario_channel_config(const Uplink_config& cfg) {
  Channel_config c;
  c.n_sc = cfg.n_sc;
  c.n_rx = cfg.n_rx;
  c.n_ue = cfg.n_ue;
  c.coherence = cfg.coherence;
  c.gain = cfg.channel_gain;
  c.sigma2 = cfg.sigma2;
  c.profile = cfg.profile;
  c.n_symb = cfg.n_symb;
  c.doppler_hz = cfg.doppler_hz;
  c.delay_spread = cfg.delay_spread;
  c.symbol_s = cfg.symbol_s;
  // TDL tap streams re-realize per HARQ attempt directly through the seed;
  // the flat profile draws from a caller RNG instead, so its attempt > 0
  // rebuild happens in the scenario body (after burning the legacy draws).
  c.seed = cfg.harq_attempt > 0 ? common::Rng::derive_seed(
                                      cfg.seed, kHarqStream + cfg.harq_attempt)
                                : cfg.seed;
  return c;
}

}  // namespace

std::vector<std::vector<uint8_t>> tx_payload_bits(const Uplink_config& cfg) {
  PP_CHECK(cfg.n_symb > cfg.n_pilot_symb,
           "slot needs at least one data symbol after the pilots");
  common::Rng rng(cfg.seed);
  if (cfg.profile == Channel_profile::flat) {
    // The scenario constructs the flat channel from rng_ before drawing any
    // payload, one cnormal() per coefficient; replay the same count so the
    // bit draws land on the same stream positions.
    const size_t burn = Channel::flat_coeff_count(scenario_channel_config(cfg));
    for (size_t i = 0; i < burn; ++i) rng.cnormal();
  }
  const uint32_t bps = qam_bits(cfg.qam);
  const uint32_t n_data = cfg.n_symb - cfg.n_pilot_symb;
  std::vector<std::vector<uint8_t>> bits(cfg.n_ue);
  for (uint32_t l = 0; l < cfg.n_ue; ++l) {
    bits[l].resize(static_cast<size_t>(n_data) * cfg.n_sc * bps);
    for (auto& b : bits[l]) b = rng.uniform() < 0.5 ? 0 : 1;
    // Burn the pilot draws (two uniforms per sub-carrier) so the next UE's
    // bits stay aligned with the scenario's interleaved draw order.
    for (uint32_t i = 0; i < 2 * cfg.n_sc; ++i) rng.uniform();
  }
  return bits;
}

Uplink_scenario::Uplink_scenario(const Uplink_config& cfg)
    : cfg_(cfg), rng_(cfg.seed),
      chan_(scenario_channel_config(cfg), rng_),
      codebook_(dft_codebook(cfg.n_rx, cfg.n_beams)) {
  PP_CHECK(cfg_.fft_size >= cfg_.n_sc, "FFT size must cover active carriers");
  PP_CHECK(cfg_.n_symb > cfg_.n_pilot_symb,
           "slot needs at least one data symbol after the pilots");
  const uint32_t bps = qam_bits(cfg_.qam);
  const uint32_t n_data = cfg_.n_symb - cfg_.n_pilot_symb;

  // Per-UE payloads and grids.
  bits_.resize(cfg_.n_ue);
  grids_.resize(cfg_.n_ue);
  pilots_.resize(cfg_.n_ue);
  for (uint32_t l = 0; l < cfg_.n_ue; ++l) {
    bits_[l].resize(static_cast<size_t>(n_data) * cfg_.n_sc * bps);
    for (auto& b : bits_[l]) b = rng_.uniform() < 0.5 ? 0 : 1;
    const auto symbols = qam_modulate(cfg_.qam, bits_[l]);

    pilots_[l].resize(cfg_.n_sc);
    for (auto& p : pilots_[l]) {
      p = cd{rng_.uniform() < 0.5 ? 0.5 : -0.5, rng_.uniform() < 0.5 ? 0.5 : -0.5};
    }

    grids_[l].resize(cfg_.n_symb);
    uint32_t d = 0;
    for (uint32_t s = 0; s < cfg_.n_symb; ++s) {
      grids_[l][s].resize(cfg_.n_sc);
      if (is_pilot_symbol(s)) {
        grids_[l][s] = pilots_[l];
      } else {
        for (uint32_t sc = 0; sc < cfg_.n_sc; ++sc) {
          grids_[l][s][sc] = symbols[static_cast<size_t>(d) * cfg_.n_sc + sc] *
                             cfg_.ue_power;
        }
        ++d;
      }
    }
  }

  // HARQ attempt k > 0: the payload above came from the same rng_ positions
  // as attempt 0 (the flat channel burned its legacy draws in the init
  // list), so bits and pilots are identical; the channel and every noise
  // draw below re-realize from the attempt's derived stream instead.
  common::Rng harq_rng(
      common::Rng::derive_seed(cfg_.seed, kHarqStream + cfg_.harq_attempt));
  if (cfg_.harq_attempt > 0 && cfg_.profile == Channel_profile::flat) {
    chan_ = Channel(scenario_channel_config(cfg_), harq_rng);
  }
  common::Rng& noise_rng = cfg_.harq_attempt > 0 ? harq_rng : rng_;

  // Channel + OFDM modulation to time domain, per symbol and antenna.
  time_.resize(cfg_.n_symb);
  for (uint32_t s = 0; s < cfg_.n_symb; ++s) {
    std::vector<std::vector<cd>> x(cfg_.n_ue);
    for (uint32_t l = 0; l < cfg_.n_ue; ++l) x[l] = grids_[l][s];
    const auto y = chan_.apply(x, s, noise_rng);  // [sc][rx]
    time_[s].resize(cfg_.n_rx);
    for (uint32_t r = 0; r < cfg_.n_rx; ++r) {
      std::vector<cd> bins(cfg_.fft_size, cd{0, 0});
      for (uint32_t sc = 0; sc < cfg_.n_sc; ++sc) {
        bins[sc] = y[static_cast<size_t>(sc) * cfg_.n_rx + r];
      }
      time_[s][r] = ref::ifft(bins);
      // Normalize so time samples keep Q15 headroom; the receiver's 1/N FFT
      // scaling plus this factor is undone in the beamforming stage.
      for (auto& v : time_[s][r]) v /= std::sqrt(static_cast<double>(cfg_.fft_size));
    }
  }

  // Ideal code-separated pilot observations in the beam domain.
  pilot_obs_.resize(cfg_.n_ue);
  const auto h_eff = beam_channel();
  for (uint32_t l = 0; l < cfg_.n_ue; ++l) {
    pilot_obs_[l].resize(static_cast<size_t>(cfg_.n_sc) * cfg_.n_beams);
    for (uint32_t sc = 0; sc < cfg_.n_sc; ++sc) {
      for (uint32_t b = 0; b < cfg_.n_beams; ++b) {
        cd v = h_eff[(static_cast<size_t>(sc) * cfg_.n_beams + b) * cfg_.n_ue + l] *
               pilots_[l][sc];
        v += noise_rng.cnormal() *
             std::sqrt(cfg_.sigma2 / (2.0 * cfg_.n_ue));  // separated noise
        pilot_obs_[l][static_cast<size_t>(sc) * cfg_.n_beams + b] = v;
      }
    }
  }
}

std::vector<cd> Uplink_scenario::beam_channel(uint32_t s) const {
  std::vector<cd> h_eff(static_cast<size_t>(cfg_.n_sc) * cfg_.n_beams * cfg_.n_ue);
  for (uint32_t sc = 0; sc < cfg_.n_sc; ++sc) {
    for (uint32_t b = 0; b < cfg_.n_beams; ++b) {
      for (uint32_t l = 0; l < cfg_.n_ue; ++l) {
        cd acc{0, 0};
        for (uint32_t r = 0; r < cfg_.n_rx; ++r) {
          acc += codebook_[static_cast<size_t>(r) * cfg_.n_beams + b] *
                 chan_.h(s, sc, r, l);
        }
        h_eff[(static_cast<size_t>(sc) * cfg_.n_beams + b) * cfg_.n_ue + l] = acc;
      }
    }
  }
  return h_eff;
}

std::vector<cd> Uplink_scenario::beam_channel() const {
  // Flat: time-invariant - symbol 0 IS the channel, and the single-symbol
  // path keeps the pre-profile result bit-for-bit (no mean-of-identical
  // rounding).  TDL: the code-separated pilot observation measures the mean
  // of the fading over the pilot symbols, so that mean is the channel the
  // CHE should recover (and the one channel_mse scores against).
  if (cfg_.profile == Channel_profile::flat) return beam_channel(0);
  const uint32_t np = std::max(1u, cfg_.n_pilot_symb);
  std::vector<cd> acc = beam_channel(0);
  for (uint32_t s = 1; s < np; ++s) {
    const auto hs = beam_channel(s);
    for (size_t i = 0; i < acc.size(); ++i) acc[i] += hs[i];
  }
  for (auto& v : acc) v /= static_cast<double>(np);
  return acc;
}

const std::vector<cd>& Uplink_scenario::pilot_obs_beam(uint32_t l) const {
  return pilot_obs_[l];
}

void gather_subcarrier_rows(std::span<const std::vector<cd>> freq,
                            std::vector<cd>& ft, uint32_t n_rx,
                            size_t row_begin, size_t row_end) {
  for (size_t scx = row_begin; scx < row_end; ++scx) {
    for (uint32_t r = 0; r < n_rx; ++r) {
      ft[scx * n_rx + r] = freq[r][scx];
    }
  }
}

void che_rows(const Uplink_scenario& sc, std::vector<cd>& h_hat,
              uint64_t row_begin, uint64_t row_end) {
  const auto& cfg = sc.config();
  for (uint64_t i = row_begin; i < row_end; ++i) {
    const uint32_t l = static_cast<uint32_t>(i / cfg.n_sc);
    const uint32_t scx = static_cast<uint32_t>(i % cfg.n_sc);
    const cd p = sc.pilot(l)[scx];
    const std::vector<cd>& obs = sc.pilot_obs_beam(l);
    for (uint32_t b = 0; b < cfg.n_beams; ++b) {
      h_hat[(static_cast<size_t>(scx) * cfg.n_beams + b) * cfg.n_ue + l] =
          obs[static_cast<size_t>(scx) * cfg.n_beams + b] * std::conj(p) /
          std::norm(p);
    }
  }
}

void ne_terms(const Uplink_scenario& sc, const common::Ws_grid<cd>& beams,
              const std::vector<cd>& h_hat, std::vector<double>& terms,
              uint64_t item_begin, uint64_t item_end) {
  const auto& cfg = sc.config();
  for (uint64_t i = item_begin; i < item_end; ++i) {
    const uint32_t s = static_cast<uint32_t>(i / cfg.n_sc);
    const uint32_t scx = static_cast<uint32_t>(i % cfg.n_sc);
    for (uint32_t b = 0; b < cfg.n_beams; ++b) {
      cd yhat{0, 0};
      for (uint32_t l = 0; l < cfg.n_ue; ++l) {
        yhat +=
            h_hat[(static_cast<size_t>(scx) * cfg.n_beams + b) * cfg.n_ue + l] *
            sc.pilot(l)[scx];
      }
      terms[i * cfg.n_beams + b] = std::norm(
          beams.at(s, static_cast<size_t>(scx) * cfg.n_beams + b) - yhat);
    }
  }
}

void mimo_items(const Uplink_scenario& sc, const common::Ws_grid<cd>& beams,
                const std::vector<cd>& h_hat, double sigma2_hat,
                std::vector<std::vector<cd>>& symbols,
                std::vector<double>& evm_terms, Mimo_ws& ws,
                uint64_t item_begin, uint64_t item_end) {
  const auto& cfg = sc.config();
  common::ws_grow(ws.h, static_cast<size_t>(cfg.n_beams) * cfg.n_ue);
  common::ws_grow(ws.y, cfg.n_beams);
  common::ws_grow(ws.x, cfg.n_ue);
  for (uint64_t i = item_begin; i < item_end; ++i) {
    const uint32_t s = cfg.n_pilot_symb + static_cast<uint32_t>(i / cfg.n_sc);
    const uint32_t scx = static_cast<uint32_t>(i % cfg.n_sc);
    for (uint32_t b = 0; b < cfg.n_beams; ++b) {
      for (uint32_t l = 0; l < cfg.n_ue; ++l) {
        ws.h[static_cast<size_t>(b) * cfg.n_ue + l] =
            h_hat[(static_cast<size_t>(scx) * cfg.n_beams + b) * cfg.n_ue + l];
      }
    }
    for (uint32_t b = 0; b < cfg.n_beams; ++b) {
      ws.y[b] = beams.at(s, static_cast<size_t>(scx) * cfg.n_beams + b);
    }
    ref::lmmse_into(std::span<const ref::cd>{ws.h.data(),
                                             static_cast<size_t>(cfg.n_beams) *
                                                 cfg.n_ue},
                    std::span<const ref::cd>{ws.y.data(), cfg.n_beams},
                    cfg.n_beams, cfg.n_ue, sigma2_hat, ws.lmmse,
                    std::span<ref::cd>{ws.x.data(), cfg.n_ue});
    for (uint32_t l = 0; l < cfg.n_ue; ++l) {
      const cd eq = ws.x[l] / cfg.ue_power;  // undo tx power scaling
      symbols[l][i] = eq;
      const cd want = sc.tx_grid(l, s)[scx] / cfg.ue_power;
      evm_terms[i * cfg.n_ue + l] = std::norm(eq - want);
    }
  }
}

double mean_of_terms(const std::vector<double>& terms) {
  double acc = 0.0;
  for (const double t : terms) acc += t;
  return acc / static_cast<double>(terms.size());
}

double evm_from_terms(const std::vector<double>& evm_terms) {
  return std::sqrt(mean_of_terms(evm_terms));
}

double payload_ber(const Uplink_scenario& sc,
                   const std::vector<std::vector<uint8_t>>& bits) {
  uint64_t nerr = 0, nbits = 0;
  for (uint32_t l = 0; l < sc.config().n_ue; ++l) {
    const auto& want = sc.tx_bits(l);
    PP_CHECK(want.size() == bits[l].size(), "bit count mismatch");
    for (size_t i = 0; i < want.size(); ++i) {
      nerr += want[i] != bits[l][i];
      ++nbits;
    }
  }
  return static_cast<double>(nerr) / static_cast<double>(nbits);
}

void golden_front_into(const Uplink_scenario& sc, common::Ws_grid<cd>& beams,
                       Front_ws& ws) {
  const auto& cfg = sc.config();
  const double fft_comp = std::sqrt(static_cast<double>(cfg.fft_size));

  // 1) OFDM demodulation + 2) beamforming, per symbol: beam grid row s is
  // [sc * beam].  Every row is fully written by matmul_rows (which zeroes
  // its output rows before accumulating), so reuse is safe.
  beams.shape(cfg.n_symb, static_cast<size_t>(cfg.n_sc) * cfg.n_beams);
  if (ws.freq.size() < cfg.n_rx) ws.freq.resize(cfg.n_rx);
  common::ws_grow(ws.ft, static_cast<size_t>(cfg.n_sc) * cfg.n_rx);
  for (uint32_t s = 0; s < cfg.n_symb; ++s) {
    for (uint32_t r = 0; r < cfg.n_rx; ++r) {
      // fft() scales by 1/N and the transmitter normalized by 1/sqrt(N), so
      // one sqrt(N) factor restores the frequency-domain grid.
      ref::fft_into(sc.antenna_time(s, r), ws.freq[r]);
      for (auto& v : ws.freq[r]) v *= fft_comp;
    }
    gather_subcarrier_rows(ws.freq, ws.ft, cfg.n_rx, 0, cfg.n_sc);
    ref::matmul_rows(ws.ft, sc.codebook(), beams.row(s), cfg.n_sc, cfg.n_rx,
                     cfg.n_beams, 0, cfg.n_sc);
  }
}

void golden_back_into(const Uplink_scenario& sc,
                      const common::Ws_grid<cd>& beams, Back_ws& ws,
                      std::vector<std::vector<uint8_t>>& bits,
                      std::vector<std::vector<cd>>& symbols, double& evm,
                      double& ber, double& sigma2_hat) {
  const auto& cfg = sc.config();
  const uint32_t n_data = cfg.n_symb - cfg.n_pilot_symb;

  // 3) Channel estimation (block LS on code-separated pilot observations).
  common::ws_grow(ws.h_hat,
                  static_cast<size_t>(cfg.n_sc) * cfg.n_beams * cfg.n_ue);
  che_rows(sc, ws.h_hat, 0, static_cast<uint64_t>(cfg.n_ue) * cfg.n_sc);

  // 4) Noise estimation from the pilot symbols (terms summed in index
  // order, which is the (symbol, sub-carrier, beam) walk).
  common::ws_grow(ws.sig_terms, static_cast<uint64_t>(cfg.n_pilot_symb) *
                                    cfg.n_sc * cfg.n_beams);
  ne_terms(sc, beams, ws.h_hat, ws.sig_terms, 0,
           static_cast<uint64_t>(cfg.n_pilot_symb) * cfg.n_sc);
  sigma2_hat = mean_of_terms(ws.sig_terms);

  // 5) MIMO LMMSE per sub-carrier and data symbol (Cholesky + solves); EVM
  // terms summed in index order = the (symbol, sub-carrier, UE) walk.
  // Result storage is sized exactly (consumers read .size()); inner
  // capacity survives across slots of stable shape.
  const uint64_t n_items = static_cast<uint64_t>(n_data) * cfg.n_sc;
  symbols.resize(cfg.n_ue);
  for (auto& s : symbols) common::ws_grow(s, n_items);
  bits.resize(cfg.n_ue);
  common::ws_grow(ws.evm_terms, n_items * cfg.n_ue);
  mimo_items(sc, beams, ws.h_hat, sigma2_hat, symbols, ws.evm_terms, ws.mimo,
             0, n_items);
  evm = evm_from_terms(ws.evm_terms);

  // 6) Demodulate and count bit errors.  tx bits are ordered
  // [data_symbol][sc]; symbols are indexed in the same order, so the direct
  // compare inside payload_ber is valid.
  for (uint32_t l = 0; l < cfg.n_ue; ++l) {
    qam_demodulate_into(cfg.qam, symbols[l], bits[l]);
  }
  ber = payload_ber(sc, bits);
}

double golden_channel_mse(const Uplink_scenario& sc,
                          const std::vector<cd>& h_hat) {
  const auto h_true = sc.beam_channel();
  PP_CHECK(h_hat.size() == h_true.size(), "channel estimate shape mismatch");
  double ch_err = 0.0;
  for (size_t i = 0; i < h_hat.size(); ++i) {
    ch_err += std::norm(h_hat[i] - h_true[i]);
  }
  return ch_err / static_cast<double>(h_hat.size());
}

Receiver_result golden_receive(const Uplink_scenario& sc) {
  common::Ws_grid<cd> beams;
  Front_ws front_ws;
  golden_front_into(sc, beams, front_ws);
  Back_ws back_ws;
  Receiver_result res;
  golden_back_into(sc, beams, back_ws, res.bits, res.symbols, res.evm,
                   res.ber, res.sigma2_hat);
  res.channel_mse = golden_channel_mse(sc, back_ws.h_hat);
  return res;
}

double evm_rms(const std::vector<cd>& want, const std::vector<cd>& got) {
  PP_CHECK(want.size() == got.size(), "evm size mismatch");
  double acc = 0.0;
  for (size_t i = 0; i < want.size(); ++i) acc += std::norm(want[i] - got[i]);
  return std::sqrt(acc / static_cast<double>(want.size()));
}

double bit_error_rate(const std::vector<uint8_t>& want,
                      const std::vector<uint8_t>& got) {
  PP_CHECK(want.size() == got.size(), "ber size mismatch");
  if (want.empty()) return 0.0;
  uint64_t nerr = 0;
  for (size_t i = 0; i < want.size(); ++i) nerr += want[i] != got[i];
  return static_cast<double>(nerr) / static_cast<double>(want.size());
}

}  // namespace pp::phy
