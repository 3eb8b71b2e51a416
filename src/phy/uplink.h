// Uplink scenario generator and golden receiver.
//
// Uplink_scenario builds everything the gNB lower PHY consumes: UE bits,
// QAM data grids, QPSK pilots (amplitude 0.5 per component, matching the
// CHE kernel's folded divide), the Rayleigh channel, and the time-domain
// antenna signals whose FFT the receiver computes.  Golden_receiver runs the
// whole PUSCH lower PHY in double precision (FFT -> beamforming -> CHE ->
// NE -> LMMSE MIMO -> demodulation) and is the reference against which the
// simulated fixed-point chain is validated.
#ifndef PUSCHPOOL_PHY_UPLINK_H
#define PUSCHPOOL_PHY_UPLINK_H

#include <span>
#include <vector>

#include "baseline/reference.h"
#include "common/grid.h"
#include "common/rng.h"
#include "phy/channel.h"
#include "phy/qam.h"

namespace pp::phy {

struct Uplink_config {
  uint32_t n_sc = 256;
  uint32_t fft_size = 256;  // power of two, >= n_sc
  uint32_t n_rx = 8;
  uint32_t n_beams = 8;
  uint32_t n_ue = 2;
  uint32_t n_symb = 6;
  uint32_t n_pilot_symb = 2;  // leading symbols carry pilots
  Qam qam = Qam::qam16;
  double sigma2 = 1e-5;     // noise variance per antenna
  double ue_power = 0.05;   // per-symbol amplitude scale (Q15 headroom)
  double channel_gain = 0.25;
  uint32_t coherence = 16;
  uint64_t seed = 1;

  // ---- channel profile (defaults reproduce the pre-profile scenario) ----
  Channel_profile profile = Channel_profile::flat;
  double doppler_hz = 0.0;      // base Doppler; UE l evolves at (1 + l/2) x
  double delay_spread = 4.0;    // TDL delay spread, sub-carrier-grid samples
  double symbol_s = 1e-3 / 14;  // OFDM symbol duration (AR(1) Doppler step)

  // HARQ retransmission index.  Attempt k > 0 carries the SAME payload bits
  // and pilots as attempt 0 but re-realizes the channel and noise from the
  // derive_seed(seed, kHarqStream + k) stream - a fresh fade of the same
  // transport block, the soft-combining premise.
  uint32_t harq_attempt = 0;
};

// HARQ channel-stream offset: attempt k's channel/noise realization is
// rooted at Rng::derive_seed(cfg.seed, kHarqStream + k).  Far above both
// the slot-index streams and Traffic_source's kArrivalStream (2^48), and
// distinct from Channel::kUeStream (2^52), so the streams can never collide.
inline constexpr uint64_t kHarqStream = uint64_t{1} << 56;

// The payload bits one slot config transmits, per UE - a pure replay of the
// scenario's bit/pilot draw order without building the channel or grids.
// Identical for every harq_attempt of the same slot (the retransmission
// contract) and cheap enough for the scheduler's serial combining pass.
std::vector<std::vector<uint8_t>> tx_payload_bits(const Uplink_config& cfg);

// Overload degrade re-planning: the same slot with at most `n_ue` UE
// layers.  The admission controller (runtime/admission.h) calls this when a
// slot's predicted queue delay exceeds its numerology budget - serving
// fewer spatial layers shrinks every MIMO-stage dimension (Table I
// complexity is polynomial in N_L), trading per-slot throughput for meeting
// the deadline.  The surviving layers keep their SNR: sigma2 is the summed
// per-antenna power of the n_ue Rayleigh paths, so it scales linearly with
// the layer count.  Everything else - seed included - is unchanged, so the
// degraded slot is as deterministic as the original.
Uplink_config degrade_to_layers(const Uplink_config& cfg, uint32_t n_ue);

class Uplink_scenario {
 public:
  explicit Uplink_scenario(const Uplink_config& cfg);

  const Uplink_config& config() const { return cfg_; }
  const Channel& channel() const { return chan_; }
  const std::vector<cd>& codebook() const { return codebook_; }  // n_rx x n_beams

  bool is_pilot_symbol(uint32_t s) const { return s < cfg_.n_pilot_symb; }

  // Transmitted payload of UE l.
  const std::vector<uint8_t>& tx_bits(uint32_t l) const { return bits_[l]; }
  // Frequency-domain grid of UE l at symbol s (n_sc entries).
  const std::vector<cd>& tx_grid(uint32_t l, uint32_t s) const {
    return grids_[l][s];
  }
  // Pilot sequence of UE l (same on every pilot symbol).
  const std::vector<cd>& pilot(uint32_t l) const { return pilots_[l]; }

  // Time-domain samples at antenna r for symbol s (fft_size entries).
  const std::vector<cd>& antenna_time(uint32_t s, uint32_t r) const {
    return time_[s][r];
  }

  // Effective beam-domain channel during OFDM symbol s:
  // h_eff[sc][b][l] = sum_r B[r][b] h(s, sc, r, l).
  std::vector<cd> beam_channel(uint32_t s) const;

  // The beam-domain channel the CHE should estimate: the flat profile's
  // time-invariant response, or - for TDL profiles, where the channel moves
  // under Doppler - the mean over the pilot symbols, which is what the
  // code-separated pilot observations actually measure.  golden_back scores
  // channel_mse against this, so the metric is per-profile correct.
  std::vector<cd> beam_channel() const;

  // Ideal code-separated pilot observation of UE l in the beam domain,
  // [sc][b] (noise included, split evenly across UEs).  A reference into
  // the scenario's own storage - valid for the scenario's lifetime - so
  // the per-slot receive chain never copies it.
  const std::vector<cd>& pilot_obs_beam(uint32_t l) const;

 private:
  Uplink_config cfg_;
  common::Rng rng_;
  Channel chan_;
  std::vector<cd> codebook_;
  std::vector<std::vector<uint8_t>> bits_;            // [ue]
  std::vector<std::vector<std::vector<cd>>> grids_;   // [ue][symb][sc]
  std::vector<std::vector<cd>> pilots_;               // [ue][sc]
  std::vector<std::vector<std::vector<cd>>> time_;    // [symb][rx][t]
  std::vector<std::vector<cd>> pilot_obs_;            // [ue][sc*beams]
};

struct Receiver_result {
  std::vector<std::vector<uint8_t>> bits;  // [ue] recovered payloads
  std::vector<std::vector<cd>> symbols;    // [ue] equalized data symbols
  double evm = 0.0;                        // rms error vs tx constellation
  double ber = 0.0;                        // bit error rate
  double channel_mse = 0.0;                // CHE error vs true beam channel
  double sigma2_hat = 0.0;                 // NE output
};

// Full double-precision lower-PHY receive chain.
Receiver_result golden_receive(const Uplink_scenario& sc);

// ---- per-slot workspaces --------------------------------------------------
//
// Reusable scratch for the golden receiver's two halves.  Buffers grow
// geometrically (common::ws_grow) and then stabilize, so a worker that
// keeps one workspace alive across slots reaches a zero-allocation steady
// state; every buffer is fully overwritten each slot before it is read
// back (the non-interference rule, docs/DETERMINISM.md §10).

// LMMSE MIMO scratch: the per-item channel submatrix / observation /
// solution plus the solver's own intermediates.
struct Mimo_ws {
  std::vector<cd> h;  // n_beams x n_ue channel slice
  std::vector<cd> y;  // n_beams observation
  std::vector<cd> x;  // n_ue LMMSE solution
  ref::Lmmse_ws lmmse;

  size_t footprint_bytes() const {
    return (h.capacity() + y.capacity() + x.capacity()) * sizeof(cd) +
           lmmse.footprint_bytes();
  }
};

// Front-half scratch: per-antenna frequency grids (grow-only nested rows -
// ref::fft_into needs real vectors) and the transposed beamforming input.
struct Front_ws {
  std::vector<std::vector<cd>> freq;  // [rx][fft_size], grow-only outer
  std::vector<cd> ft;                 // n_sc x n_rx transpose gather

  size_t footprint_bytes() const {
    return common::ws_rows_footprint(freq) + ft.capacity() * sizeof(cd);
  }
};

// Back-half scratch: channel estimate, the NE/EVM term arrays and the
// MIMO solver workspace.
struct Back_ws {
  std::vector<cd> h_hat;
  std::vector<double> sig_terms;
  std::vector<double> evm_terms;
  Mimo_ws mimo;

  size_t footprint_bytes() const {
    return h_hat.capacity() * sizeof(cd) +
           (sig_terms.capacity() + evm_terms.capacity()) * sizeof(double) +
           mimo.footprint_bytes();
  }
};

// The receive chain split at the beam-grid boundary (the host backends'
// Backend::run_front_into / run_back_into halves).  golden_receive() runs
// exactly golden_back_into(sc, golden_front_into(sc)), so the split is
// bit-identical to the fused chain by construction.
//
// Front half: per-symbol OFDM FFT + beamforming -> the beam grid, one row
// per OFDM symbol, row layout [sc * beam].  Scratch lives in ws; the grid
// is fully overwritten.
void golden_front_into(const Uplink_scenario& sc, common::Ws_grid<cd>& beams,
                       Front_ws& ws);

// Back half: CHE, NE, LMMSE MIMO and demodulation on precomputed beam
// grids, writing straight into caller-owned result storage (capacity
// reused across slots).  Deliberately does NOT score channel_mse - the
// backends discard it; use golden_channel_mse when the metric is wanted.
void golden_back_into(const Uplink_scenario& sc,
                      const common::Ws_grid<cd>& beams, Back_ws& ws,
                      std::vector<std::vector<uint8_t>>& bits,
                      std::vector<std::vector<cd>>& symbols, double& evm,
                      double& ber, double& sigma2_hat);

// CHE quality vs. the true beam channel, from the estimate golden_back_into
// left in ws.h_hat (the channel_mse golden_receive reports).
double golden_channel_mse(const Uplink_scenario& sc,
                          const std::vector<cd>& h_hat);

// ---- golden-receiver tiled sub-steps --------------------------------------
//
// golden_receive() is built from these range-parameterized pieces: the
// full-range call is the serial receiver, and runtime::Parallel_backend
// runs the same functions on worker tiles, so the two paths share one
// implementation and cannot drift (the same contract as the ref:: tiled
// sub-kernels - disjoint output ranges, arithmetic independent of the
// partition).  Callers pre-size every output; reductions over the filled
// term arrays must walk them in index order to stay bit-identical to the
// serial receiver.

// Transpose gather feeding the beamforming MMM: rows [row_begin, row_end)
// of the (n_sc x n_rx) matrix ft, ft[scx*n_rx + r] = freq[r][scx], from one
// symbol's n_rx antenna spectra.  Pair with ref::matmul_rows(ft, codebook,
// beams, ...) over the same rows.
void gather_subcarrier_rows(std::span<const std::vector<cd>> freq,
                            std::vector<cd>& ft, uint32_t n_rx,
                            size_t row_begin, size_t row_end);

// Channel estimation: block-LS rows (flattened (UE, sub-carrier) pairs,
// l = row / n_sc) in [row_begin, row_end) of
// h_hat[(scx*n_beams + b)*n_ue + l], from sc.pilot_obs_beam(l).
void che_rows(const Uplink_scenario& sc, std::vector<cd>& h_hat,
              uint64_t row_begin, uint64_t row_end);

// Noise estimation: pilot-cell residual terms for flattened (pilot symbol,
// sub-carrier) items in [item_begin, item_end):
// terms[item*n_beams + b] = |beams(s, scx*n_beams+b) - sum_l h_hat*pilot_l|^2.
// The noise estimate is the mean of `terms` summed in index order.
void ne_terms(const Uplink_scenario& sc, const common::Ws_grid<cd>& beams,
              const std::vector<cd>& h_hat, std::vector<double>& terms,
              uint64_t item_begin, uint64_t item_end);

// LMMSE MIMO: per-UE-batch Gram + Cholesky + substitutions
// (ref::lmmse_into on the caller's Mimo_ws) for flattened (data symbol,
// sub-carrier) items in [item_begin, item_end); writes equalized
// symbols[l][item] and evm_terms[item*n_ue + l].  The EVM is sqrt(mean) of
// `evm_terms` summed in index order.  Each parallel tile passes its own
// Mimo_ws (workers must not share one).
void mimo_items(const Uplink_scenario& sc, const common::Ws_grid<cd>& beams,
                const std::vector<cd>& h_hat, double sigma2_hat,
                std::vector<std::vector<cd>>& symbols,
                std::vector<double>& evm_terms, Mimo_ws& ws,
                uint64_t item_begin, uint64_t item_end);

// The serial reductions over the filled term arrays, shared by both paths
// so the epilogues cannot drift either: index-order mean (the noise
// estimate over ne_terms output), EVM = sqrt of that mean (over mimo_items
// output), and the bit-error rate of recovered payloads vs. the
// transmitted bits (bits[l] must match tx_bits(l) in size).
double mean_of_terms(const std::vector<double>& terms);
double evm_from_terms(const std::vector<double>& evm_terms);
double payload_ber(const Uplink_scenario& sc,
                   const std::vector<std::vector<uint8_t>>& bits);

// EVM/BER helpers shared with the simulated chain.
double evm_rms(const std::vector<cd>& want, const std::vector<cd>& got);
double bit_error_rate(const std::vector<uint8_t>& want,
                      const std::vector<uint8_t>& got);

}  // namespace pp::phy

#endif  // PUSCHPOOL_PHY_UPLINK_H
