// Scenario sweep CLI: BER/EVM-vs-SNR curves over a grid of numerologies,
// UE counts and QAM orders, executed slot-parallel on a host thread pool
// (runtime::Grid_source through runtime::Slot_scheduler, one table row per
// grid point).
//
//   ./examples/pusch_sweep                                   # small default grid
//   ./examples/pusch_sweep --backend reference --workers 8
//       --fft 64,256,1024 --ue 2,4 --qam 4,16 --snr 0:30:6 --slots 2
//   ./examples/pusch_sweep --backend sim --arch minipool --fft 64 --snr 20,30
//   ./examples/pusch_sweep --backend parallel --workers 2 --intra 4
//
// --backend picks sim, reference, parallel or fixed (--intra N sets the
// per-slot worker count of parallel and fixed, composing with the
// slot-level --workers; reference is parallel at one worker).  List flags
// take comma-separated values; --snr also accepts lo:hi:step (at most
// kMaxSnrPoints points, each step advancing at double precision).  Counts
// (--ue, --rx, --beams) must be >= 1, and --fft, --ue and --snr must lie in
// the backend's slot domain (bench::check_slot_domain, which also caps --ue
// at --beams); anything else, an unknown flag included, exits 2 naming the
// valid range.  Per-slot seeds are
// Rng::derive_seed(--seed, slot_index), so results are bit-identical for
// any --workers and --intra counts (docs/DETERMINISM.md).  --list prints
// the registered clusters, backends, pipeline presets and registry kernels
// instead of running; unknown --arch/--backend names error with the same
// lists.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/cli.h"
#include "runtime/sweep.h"

namespace {

using namespace pp;

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    const size_t end = s.find(sep, start);
    if (end == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

// Readable parse failures for the float-valued --snr flag (integer flags go
// through Cli::get_u32/get_u32_list, which share this behavior): report the
// offending token and exit 2.
[[noreturn]] void bad_token(const char* flag, const std::string& tok) {
  std::fprintf(stderr, "bad value '%s' for %s\n", tok.c_str(), flag);
  std::exit(2);
}

double parse_double(const char* flag, const std::string& tok) {
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  if (tok.empty() || end != tok.c_str() + tok.size()) bad_token(flag, tok);
  if (!std::isfinite(v)) {  // also keeps a lo:hi:step range finite
    std::fprintf(stderr, "bad value '%s' for %s (a finite number)\n",
                 tok.c_str(), flag);
    std::exit(2);
  }
  return v;
}

// Most points one --snr lo:hi:step range may expand to.
constexpr double kMaxSnrPoints = 1000;

[[noreturn]] void bad_snr_range(const std::string& s, const char* why) {
  std::fprintf(stderr,
               "bad range '%s' for --snr (%s; want lo:hi:step with step > 0, "
               "at most %.0f points, and lo + k*step advancing at double "
               "precision)\n",
               s.c_str(), why, kMaxSnrPoints);
  std::exit(2);
}

// "a,b,c" or "lo:hi:step" (inclusive of hi, step > 0).
std::vector<double> parse_snr_list(const std::string& s) {
  std::vector<double> out;
  if (s.find(':') != std::string::npos) {
    const auto parts = split(s, ':');
    const double lo = parse_double("--snr", parts[0]);
    const double hi = parts.size() > 1 ? parse_double("--snr", parts[1]) : lo;
    const double step =
        parts.size() > 2 ? parse_double("--snr", parts[2]) : 1.0;
    if (step <= 0.0) bad_token("--snr", s);
    if (std::floor((hi - lo) / step) + 1 > kMaxSnrPoints) {
      bad_snr_range(s, "too many points");
    }
    for (double v = lo; v <= hi + 1e-9; v += step) {
      // A step below half an ulp of v would never reach hi.
      if (v + step == v) bad_snr_range(s, "step does not advance");
      out.push_back(v);
    }
    return out;
  }
  for (const auto& tok : split(s, ',')) {
    out.push_back(parse_double("--snr", tok));
  }
  return out;
}

std::vector<phy::Qam> parse_qam_list(const std::vector<uint32_t>& orders,
                                     const std::string& raw) {
  std::vector<phy::Qam> out;
  for (const uint32_t order : orders) {
    if (order != 4 && order != 16 && order != 64 && order != 256) {
      bad_token("--qam", raw);
    }
    out.push_back(static_cast<phy::Qam>(order));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  common::Cli cli(argc, argv);
  if (cli.has("--list")) {
    bench::print_catalog();
    return 0;
  }

  runtime::Sweep_grid grid;
  grid.fft_sizes = cli.get_u32_list("--fft", "64,256");
  grid.ue_counts = cli.get_count_list("--ue", "2");
  grid.qam_orders =
      parse_qam_list(cli.get_u32_list("--qam", "16"), cli.get("--qam", "16"));
  grid.snr_db = parse_snr_list(cli.get("--snr", "10:30:5"));
  grid.slots_per_point = cli.get_u32("--slots", 1);
  grid.n_rx = cli.get_count("--rx", 4);
  grid.n_beams = cli.get_count("--beams", 4);
  grid.n_symb = cli.get_u32("--symb", 4);
  grid.base_seed = cli.get_u32("--seed", 1);
  // Channel profile shared by every grid point (flat | tdl-a | tdl-c).
  grid.profile = bench::channel_from_cli(cli);
  grid.doppler_hz = cli.get_double("--doppler", 0.0);
  grid.delay_spread = cli.get_double("--delay-spread", 4.0);

  runtime::Scheduler_options opt;
  opt.backend = bench::backend_from_cli(cli);
  bench::check_slot_domain(opt.backend, grid.fft_sizes, grid.ue_counts,
                           grid.n_beams, grid.snr_db);
  opt.workers = cli.get_u32("--workers", 0);
  opt.intra = cli.get_u32("--intra", 1);
  opt.cluster = bench::cluster_from_cli(cli, "minipool");
  opt.keep_slots = false;  // the CLI only reports the roll-up
  cli.reject_unknown();

  std::printf("sweep: %llu points x %u slots on '%s' (%s cluster)\n",
              static_cast<unsigned long long>(grid.n_points()),
              grid.slots_per_point, opt.backend.c_str(),
              opt.cluster.name.c_str());
  const auto res = runtime::Slot_scheduler(opt).run(runtime::Grid_source(grid));
  std::fputs(res.str().c_str(), stdout);
  return 0;
}
