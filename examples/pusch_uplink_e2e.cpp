// End-to-end software-defined PUSCH uplink through the runtime Pipeline.
//
// Generates a complete uplink scenario (UE payloads, QAM grids, pilots,
// Rayleigh channel, AWGN, time-domain antenna signals), builds the uplink
// Pipeline preset, and executes it on the selected backend(s):
//
//   sim        the paper's fixed-point kernels on the simulated cluster
//              (per-stage cycles, EVM/BER of the Q15 chain)
//   reference  the double-precision host models (no cycles, instant)
//   parallel   the host models split across --intra workers (default 1,
//              0 = all hardware threads - same default as pusch_sweep);
//              bits equal to reference by contract (docs/DETERMINISM.md)
//   fixed      the sim backend's Q15 kernel math on the host worker pool;
//              bit-identical to sim (same EVM/BER/sigma2_hat) at host speed
//
// With --backend both (the default) the same Pipeline call runs on the sim
// and reference backends and the recovered payloads are cross-checked;
// --backend all adds the parallel and fixed backends to the cross-check.
//
//   ./examples/pusch_uplink_e2e [--arch mempool|terapool] [--ue N]
//       [--qam 4|16|64|256] [--backend sim|reference|parallel|fixed|both|all]
//       [--intra N] [--chol-batch N] [--seed N] [--channel flat|tdl-a|tdl-c]
//       [--doppler HZ] [--list]
//
// --list prints the registered clusters, backends, pipeline presets and
// registry kernels instead of running; unknown --arch/--backend names
// error with the same lists.  A flag value outside its domain (--qam other
// than 4/16/64/256, a --chol-batch that does not divide the data symbols,
// a --ue outside a selected backend's slot domain) or an unknown flag
// exits 2 with a message naming the valid values.
//
// The scenario is a scaled-down slot (256-pt grid, 16 antennas, 8 beams) so
// the example runs in seconds; bench_fig9c_usecase covers the full-size
// use case.
#include <cstdio>

#include "bench/bench_util.h"
#include "common/cli.h"
#include "runtime/backend.h"
#include "runtime/presets.h"

int main(int argc, char** argv) {
  using namespace pp;
  common::Cli cli(argc, argv);
  if (cli.has("--list")) {
    bench::print_catalog();
    return 0;
  }

  const auto cluster = bench::cluster_from_cli(cli);

  phy::Uplink_config cfg;
  cfg.n_sc = 256;
  cfg.fft_size = 256;
  cfg.n_rx = 16;
  cfg.n_beams = 8;
  cfg.n_ue = cli.get_count("--ue", 2);
  cfg.n_symb = 6;
  cfg.n_pilot_symb = 2;
  cfg.sigma2 = 1e-7;
  cfg.ue_power = 0.08;
  cfg.seed = cli.get_u32("--seed", 2023);
  // Fading profile (flat | tdl-a | tdl-c) with optional Doppler evolution.
  cfg.profile = bench::channel_from_cli(cli);
  cfg.doppler_hz = cli.get_double("--doppler", 0.0);
  const uint32_t qam = cli.get_u32("--qam", 16);
  if (qam != 4 && qam != 16 && qam != 64 && qam != 256) {
    std::fprintf(stderr, "bad value %u for --qam (4|16|64|256)\n", qam);
    return 2;
  }
  cfg.qam = static_cast<phy::Qam>(qam);

  runtime::Uplink_options opt;
  opt.chol_symb_batch = cli.get_count("--chol-batch", 1);
  const uint32_t n_data = cfg.n_symb - cfg.n_pilot_symb;
  if (n_data % opt.chol_symb_batch != 0) {
    std::fprintf(stderr,
                 "bad value %u for --chol-batch (a divisor of the %u data "
                 "symbols)\n",
                 opt.chol_symb_batch, n_data);
    return 2;
  }

  const std::string which = cli.get("--backend", "both");
  if (which != "sim" && which != "reference" && which != "parallel" &&
      which != "fixed" && which != "both" && which != "all") {
    std::fprintf(stderr,
                 "unknown --backend %s (sim|reference|parallel|fixed|both|"
                 "all; see --list)\n",
                 which.c_str());
    return 2;
  }
  auto selected = [&](const std::string& name) {
    return which == name || which == "all" ||
           (which == "both" && (name == "sim" || name == "reference"));
  };
  const char* const backends[] = {"reference", "sim", "parallel", "fixed"};
  for (const char* name : backends) {
    if (selected(name)) {
      bench::check_slot_domain(name, {cfg.fft_size}, {cfg.n_ue}, cfg.n_beams,
                               {});
    }
  }
  const uint32_t intra = cli.get_u32("--intra", 1);
  cli.reject_unknown();

  std::printf("scenario: %u sub-carriers, %u antennas -> %u beams, %u UEs, "
              "%u symbols (%u pilot), %u-QAM\n",
              cfg.n_sc, cfg.n_rx, cfg.n_beams, cfg.n_ue, cfg.n_symb,
              cfg.n_pilot_symb, static_cast<uint32_t>(cfg.qam));
  const phy::Uplink_scenario sc(cfg);
  const auto pipeline = runtime::uplink_pipeline(cluster, opt);

  std::vector<runtime::Slot_result> results;
  for (const char* name : backends) {
    if (!selected(name)) continue;
    auto backend = runtime::make_backend(name, intra);
    results.push_back(pipeline.execute(sc, *backend));
    const auto& res = results.back();
    std::printf("\n%s backend (%s): EVM %5.2f%% | BER %.2e | sigma2_hat %.2e\n",
                res.backend.c_str(),
                backend->cycle_accurate() ? cluster.name.c_str() : "host",
                100 * res.evm, res.ber, res.sigma2_hat);
    if (backend->cycle_accurate()) {
      std::printf("cycles per stage (whole slot):\n");
      for (const auto& st : res.stages) {
        std::printf("  %-16s %10lu cycles over %3lu kernel runs\n",
                    st.name.c_str(), static_cast<unsigned long>(st.cycles),
                    static_cast<unsigned long>(st.runs));
      }
      std::printf("  %-16s %10lu cycles (%.3f ms at 1 GHz)\n", "total",
                  static_cast<unsigned long>(res.total_cycles()),
                  res.total_cycles() * 1e-6);
    }
  }

  bool ok = true;
  for (const auto& res : results) ok &= res.ber == 0.0;
  if (results.size() >= 2) {
    bool payload_match = true;
    for (size_t i = 1; i < results.size(); ++i) {
      for (uint32_t l = 0; l < cfg.n_ue; ++l) {
        payload_match &= results[0].bits[l] == results[i].bits[l];
      }
    }
    std::printf("\npayloads match across backends: %s\n",
                payload_match ? "yes" : "NO");
    ok &= payload_match;
  }
  return ok ? 0 : 1;
}
