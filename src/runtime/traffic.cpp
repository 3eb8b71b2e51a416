#include "runtime/traffic.h"

#include <cmath>

#include "common/check.h"
#include "phy/qam.h"
#include "runtime/sweep.h"

namespace pp::runtime {

namespace {

// Exponential inter-arrival gap with the given mean.  uniform() is in
// [0, 1), so 1 - u is in (0, 1] and the log is finite and <= 0.
double exp_gap(common::Rng& rng, double mean_s) {
  return -mean_s * std::log(1.0 - rng.uniform());
}

}  // namespace

Traffic_source::Traffic_source(Traffic_config cfg) : cfg_(std::move(cfg)) {
  PP_CHECK(!cfg_.cells.empty(), "traffic needs at least one cell");
  for (const auto& cell : cfg_.cells) {
    PP_CHECK(cell.load > 0.0, "cell load must be positive");
  }

  // Slot configs are assembled by slot_config (sweep.h) - the single
  // implementation of the axes+knobs -> Uplink_config mapping (incl. the
  // Rayleigh sigma2-from-SNR derivation and the derive_seed(base, i) seed
  // contract) - so grid and traffic slots of the same nominal scenario can
  // never drift apart.  Only the shared knobs of this pseudo-grid matter;
  // its axes are overridden per cell below.
  Sweep_grid knobs;
  knobs.n_rx = cfg_.n_rx;
  knobs.n_beams = cfg_.n_beams;
  knobs.n_symb = cfg_.n_symb;
  knobs.n_pilot_symb = cfg_.n_pilot_symb;
  knobs.ue_power = cfg_.ue_power;
  knobs.channel_gain = cfg_.channel_gain;
  knobs.coherence = cfg_.coherence;
  knobs.base_seed = cfg_.base_seed;

  // Channel knobs are per cell: each cell carries its own profile and
  // Doppler, and the OFDM symbol duration feeding the fading model follows
  // the cell's numerology so absolute-time fading rates are honest across
  // a mixed-mu deployment.
  const size_t n_cells = cfg_.cells.size();
  std::vector<Sweep_grid> cell_knobs(n_cells, knobs);
  for (size_t c = 0; c < n_cells; ++c) {
    const Traffic_cell& cell = cfg_.cells[c];
    cell_knobs[c].profile = cell.profile;
    cell_knobs[c].doppler_hz = cell.doppler_hz;
    cell_knobs[c].delay_spread = cell.delay_spread;
    cell_knobs[c].symbol_s = cell.slot_seconds() / cfg_.n_symb;
  }

  // Per-cell arrival streams: next pending arrival time of every cell, each
  // advanced from its own seeded RNG.  The global stream is the n_slots
  // earliest events of the merge - deterministic, and prefix-stable under a
  // larger n_slots because each cell's sequence only ever extends.
  std::vector<common::Rng> rng;
  std::vector<double> next_s(n_cells);
  rng.reserve(n_cells);
  for (size_t c = 0; c < n_cells; ++c) {
    rng.emplace_back(
        common::Rng::derive_seed(cfg_.base_seed, kArrivalStream + c));
    const double mean =
        cfg_.cells[c].slot_seconds() / cfg_.cells[c].load;
    next_s[c] = exp_gap(rng[c], mean);
  }

  jobs_.reserve(cfg_.n_slots);
  for (uint64_t i = 0; i < cfg_.n_slots; ++i) {
    size_t c = 0;
    for (size_t j = 1; j < n_cells; ++j) {
      if (next_s[j] < next_s[c]) c = j;
    }
    const Traffic_cell& cell = cfg_.cells[c];

    Slot_job job;
    job.index = i;
    job.group = static_cast<uint32_t>(c);
    job.arrival_s = next_s[c];
    job.budget_s = cell.budget_seconds();
    job.cfg = slot_config(
        cell_knobs[c],
        Sweep_point{cell.fft_size, cell.n_ue, cell.qam, cell.snr_db}, i);
    jobs_.push_back(std::move(job));

    next_s[c] += exp_gap(rng[c], cell.slot_seconds() / cell.load);
  }
}

uint64_t cell_bits_per_slot(const Traffic_cell& cell,
                            const Traffic_config& cfg) {
  PP_CHECK(cfg.n_symb > cfg.n_pilot_symb,
           "a slot needs at least one data symbol");
  return uint64_t{cell.n_ue} * (cfg.n_symb - cfg.n_pilot_symb) *
         cell.fft_size * phy::qam_bits(cell.qam);
}

double offered_bits_per_second(const Traffic_config& cfg) {
  double bps = 0.0;
  for (const auto& cell : cfg.cells) {
    bps += static_cast<double>(cell_bits_per_slot(cell, cfg)) * cell.load /
           cell.slot_seconds();
  }
  return bps;
}

std::string Traffic_source::group_label(uint32_t group) const {
  PP_CHECK(group < cfg_.cells.size(), "traffic cell index out of range");
  const Traffic_cell& cell = cfg_.cells[group];
  if (!cell.name.empty()) return cell.name;
  std::string label =
      "cell" + std::to_string(group) + " mu" + std::to_string(cell.mu) +
      " fft" + std::to_string(cell.fft_size) + " ue" +
      std::to_string(cell.n_ue) + " qam" +
      std::to_string(static_cast<uint32_t>(cell.qam));
  // Only non-flat profiles suffix the label, so pre-fading baselines and
  // report keys are unchanged for the default channel.
  if (cell.profile != phy::Channel_profile::flat) {
    label += ' ';
    label += phy::channel_profile_name(cell.profile);
  }
  return label;
}

Slot_job Traffic_source::job(uint64_t index) const {
  PP_CHECK(index < jobs_.size(), "traffic slot index out of range");
  return jobs_[index];
}

}  // namespace pp::runtime
