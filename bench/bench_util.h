// Shared helpers for the paper-reproduction benchmark binaries.
//
// measure_kernel()/run_kernel() replace the per-bench machine + allocator +
// stimulus boilerplate: every kernel configuration is instantiated from the
// runtime registry by name, fed synthetic stimulus, and launched on a fresh
// simulated cluster.
#ifndef PUSCHPOOL_BENCH_BENCH_UTIL_H
#define PUSCHPOOL_BENCH_BENCH_UTIL_H

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "baseline/reference.h"
#include "bench/report.h"
#include "common/alloc_count.h"
#include "common/cli.h"
#include "common/complex16.h"
#include "common/q15_chain.h"
#include "common/rng.h"
#include "common/table.h"
#include "kernels/cholesky.h"
#include "kernels/fft_plan.h"
#include "phy/channel.h"
#include "runtime/admission.h"
#include "runtime/backend.h"
#include "runtime/placement.h"
#include "runtime/presets.h"
#include "runtime/registry.h"
#include "sim/stats.h"

namespace pp::bench {

inline std::vector<common::cq15> random_signal(size_t n, uint64_t seed,
                                               double amp = 0.2) {
  common::Rng rng(seed);
  std::vector<common::cq15> x(n);
  for (auto& v : x) v = common::to_cq15(rng.cnormal() * amp);
  return x;
}

inline std::vector<common::cq15> random_spd(uint32_t n, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<ref::cd> a(size_t{n} * 2 * n);
  for (auto& v : a) v = rng.cnormal() * 0.1;
  auto g = ref::gram(a, 2 * n, n);
  for (uint32_t i = 0; i < n; ++i) g[i * n + i] += 0.03;
  std::vector<common::cq15> q(g.size());
  for (size_t i = 0; i < g.size(); ++i) q[i] = common::to_cq15(g[i]);
  return q;
}

// ---- registry-driven kernel measurement -----------------------------------

struct Measured {
  sim::Kernel_report rep;
  runtime::Kernel_desc desc;  // resolved configuration (cores, MACs, ...)
};

// Instantiates `kernel` from the registry on a fresh simulated `cfg`
// cluster, binds default stimulus, and runs it to completion.
inline Measured measure_kernel(const arch::Cluster_config& cfg,
                               const std::string& kernel,
                               const runtime::Params& params = {},
                               uint64_t seed = 1) {
  sim::Machine m(cfg);
  arch::L1_alloc alloc(m.config());
  auto k = runtime::make_kernel(kernel, m, alloc, params);
  common::Rng rng(seed);
  k->bind_default_inputs(rng);
  Measured out{k->launch(), k->desc()};
  return out;
}

inline sim::Kernel_report run_kernel(const arch::Cluster_config& cfg,
                                     const std::string& kernel,
                                     const runtime::Params& params = {},
                                     uint64_t seed = 1) {
  return measure_kernel(cfg, kernel, params, seed).rep;
}

// ---- CLI helpers ----------------------------------------------------------

// The registered cluster configurations, in listing order.
inline std::vector<std::string> cluster_names() {
  return {"mempool", "minipool", "terapool"};
}

// Strict lookup: an unknown name prints the registered clusters and exits 2
// (point the user at --list) instead of silently falling back to mempool.
inline arch::Cluster_config cluster_by_name(const std::string& name) {
  if (name == "mempool") return arch::Cluster_config::mempool();
  if (name == "terapool") return arch::Cluster_config::terapool();
  if (name == "minipool") return arch::Cluster_config::minipool();
  std::fprintf(stderr, "unknown cluster '%s' for --arch; registered:",
               name.c_str());
  for (const auto& n : cluster_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

inline arch::Cluster_config cluster_from_cli(const common::Cli& cli,
                                             const char* fallback = "mempool") {
  return cluster_by_name(cli.get("--arch", fallback));
}

// Backend name validated against runtime::backend_names(); unknown names
// print the registered list and exit 2 instead of aborting deep in
// make_backend().
inline std::string backend_from_cli(const common::Cli& cli,
                                    const char* fallback = "reference") {
  const std::string name = cli.get("--backend", fallback);
  for (const auto& b : runtime::backend_names()) {
    if (name == b) return name;
  }
  std::fprintf(stderr, "unknown backend '%s' for --backend; registered:",
               name.c_str());
  for (const auto& b : runtime::backend_names()) {
    std::fprintf(stderr, " %s", b.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

// Cell-to-shard placement policy validated against
// runtime::placement_names(); unknown names print the registered list and
// exit 2 instead of aborting in place_groups().
inline std::string placement_from_cli(const common::Cli& cli,
                                      const char* fallback = "round-robin") {
  const std::string name = cli.get("--placement", fallback);
  if (runtime::is_placement_name(name)) return name;
  std::fprintf(stderr, "unknown placement '%s' for --placement; registered:",
               name.c_str());
  for (const auto& p : runtime::placement_names()) {
    std::fprintf(stderr, " %s", p.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

// Overload/admission policy validated against runtime::overload_names();
// unknown names print the registered list and exit 2 instead of aborting in
// overload_from_name().
inline std::string overload_from_cli(const common::Cli& cli,
                                     const char* fallback = "off") {
  const std::string name = cli.get("--overload", fallback);
  if (runtime::is_overload_name(name)) return name;
  std::fprintf(stderr, "unknown policy '%s' for --overload; registered:",
               name.c_str());
  for (const auto& p : runtime::overload_names()) {
    std::fprintf(stderr, " %s", p.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

// Channel profile validated against phy::channel_profile_names(); unknown
// names print the registered list and exit 2 instead of aborting in
// channel_profile_from_name().
inline phy::Channel_profile channel_by_name(const std::string& name) {
  if (phy::is_channel_profile_name(name)) {
    return phy::channel_profile_from_name(name);
  }
  std::fprintf(stderr, "unknown channel profile '%s' for --channel; "
               "registered:", name.c_str());
  for (const auto& p : phy::channel_profile_names()) {
    std::fprintf(stderr, " %s", p.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

inline phy::Channel_profile channel_from_cli(const common::Cli& cli,
                                             const char* fallback = "flat") {
  return channel_by_name(cli.get("--channel", fallback));
}

// The slot configurations a backend can run, checked at the CLI boundary: a
// value outside them prints the valid domain and exits 2 instead of reaching
// a kernel's PP_CHECK.  Every backend needs a power-of-two FFT of at least
// Fft_geom::min_size points (one core's share of the FFT gang mapping) and
// an SNR whose noise power 10^(-snr/10) is a finite double.  "sim" and
// "fixed" run the radix-4 kernels (Fft_geom::valid_size) and cap the UE
// count at their MIMO kernels' limits: Trisolve_batch::max_n on the
// simulator, common::max_layers on the host.  On every backend the UE count
// is also capped at `n_beams`: with more UE layers than beams the LMMSE
// Gram matrix is rank-deficient and the slot decodes to noise.
inline void check_slot_domain(const std::string& backend,
                              const std::vector<uint32_t>& fft_sizes,
                              const std::vector<uint32_t>& ue_counts,
                              uint32_t n_beams,
                              const std::vector<double>& snr_db) {
  const bool q15 = backend == "sim" || backend == "fixed";
  constexpr uint32_t min_fft = kernels::Fft_geom::min_size;
  for (const uint32_t n : fft_sizes) {
    const bool ok = q15 ? kernels::Fft_geom::valid_size(n)
                        : std::has_single_bit(n) && n >= min_fft;
    if (!ok) {
      std::fprintf(stderr,
                   "bad FFT size %u for --fft on the '%s' backend (a power "
                   "of %u, >= %u)\n",
                   n, backend.c_str(), q15 ? 4u : 2u, min_fft);
      std::exit(2);
    }
  }
  const uint32_t max_ue = backend == "sim"     ? kernels::Trisolve_batch::max_n
                          : backend == "fixed" ? common::max_layers
                                               : UINT32_MAX;
  for (const uint32_t ue : ue_counts) {
    if (ue > max_ue) {
      std::fprintf(stderr,
                   "bad UE count %u for --ue on the '%s' backend (1..%u)\n",
                   ue, backend.c_str(), max_ue);
      std::exit(2);
    }
    if (ue > n_beams) {
      std::fprintf(stderr,
                   "bad UE count %u for --ue with %u beams (1..n_beams = "
                   "1..%u)\n",
                   ue, n_beams, n_beams);
      std::exit(2);
    }
  }
  for (const double snr : snr_db) {
    if (!std::isfinite(snr) || !std::isfinite(std::pow(10.0, -snr / 10.0))) {
      std::fprintf(stderr,
                   "bad SNR %g for --snr (a finite dB value whose noise "
                   "power 10^(-snr/10) is finite)\n",
                   snr);
      std::exit(2);
    }
  }
}

// `--list` support: everything reachable by name through the runtime
// registry and the CLI helpers - clusters, execution backends, pipeline
// presets, and the registered kernel configurations.
inline void print_catalog() {
  std::printf("clusters (--arch):\n");
  for (const auto& name : cluster_names()) {
    const auto c = cluster_by_name(name);
    std::printf("  %-10s %4u cores (%u groups x %u tiles x %u cores), "
                "%llu KiB L1\n",
                c.name.c_str(), c.n_cores(), c.n_groups, c.tiles_per_group,
                c.cores_per_tile,
                static_cast<unsigned long long>(c.l1_words() * 4 / 1024));
  }
  std::printf("\nbackends (--backend):\n");
  for (const auto& name : runtime::backend_names()) {
    const auto b = runtime::make_backend(name, 1);
    const char* what = b->cycle_accurate()
                           ? "cycle-accurate simulated cluster"
                           : (name == "fixed"
                                  ? "bit-exact Q1.15 host kernels (== sim)"
                                  : "double-precision host models");
    std::printf("  %-10s %s\n", name.c_str(), what);
  }
  std::printf("\nplacement policies (--placement):\n");
  std::printf("  %-10s cell i onto shard i mod N\n", "round-robin");
  std::printf("  %-10s LPT greedy over per-cell analytic MAC load\n",
              "load-aware");
  std::printf("\noverload policies (--overload):\n");
  std::printf("  %-10s admit everything\n", "off");
  std::printf("  %-10s shed jobs whose predicted delay exceeds the budget\n",
              "drop");
  std::printf("  %-10s tail-drop past a bounded predicted backlog\n", "queue");
  std::printf("  %-10s re-plan over-budget slots to fewer UE layers\n",
              "degrade");
  std::printf("\nchannel profiles (--channel):\n");
  std::printf("  %-10s per-sub-carrier Rayleigh block fading (the default)\n",
              "flat");
  std::printf("  %-10s TR 38.901 TDL-A power-delay profile (NLOS, 23 taps)\n",
              "tdl-a");
  std::printf("  %-10s TR 38.901 TDL-C power-delay profile (NLOS, 24 taps)\n",
              "tdl-c");
  std::printf("\npipeline presets:\n");
  for (const auto& [name, summary] : runtime::preset_names()) {
    std::printf("  %-10s %s\n", name.c_str(), summary.c_str());
  }
  std::printf("\nregistry kernels:\n");
  for (const auto& [name, summary] : runtime::Registry::instance().list()) {
    std::printf("  %-15s %s\n", name.c_str(), summary.c_str());
  }
}

// ---- steady-state allocation accounting (PP_COUNT_ALLOCS) -----------------

// Allocations per slot over a measured region: warm() runs first (slot
// workspaces grow to their stable shapes), then the global allocation
// counter is read around run(), which must cover `n_slots` slot
// executions.  In builds without PP_COUNT_ALLOCS alloc_count() is a
// constant 0, so the metric exists - and reads 0 - in every build and the
// baselines can gate it "exact".
template <typename Warm, typename Run>
inline double allocs_per_slot(uint64_t n_slots, Warm&& warm, Run&& run) {
  warm();
  const uint64_t a0 = common::alloc_count();
  run();
  const uint64_t delta = common::alloc_count() - a0;
  return static_cast<double>(delta) / static_cast<double>(n_slots);
}

// Self-gate on the zero-steady-state-allocation contract: active only when
// the counter is compiled in (check.sh builds the benches with
// PP_COUNT_ALLOCS=1 and runs this gate).  Returns the process exit-code
// contribution: 0 when the contract holds or the counter is off.
inline int gate_steady_allocs(const char* what, double per_slot) {
  if (!common::alloc_count_enabled()) return 0;
  if (per_slot == 0.0) {
    std::printf("%s: 0 steady-state heap allocations per slot (gate ok)\n",
                what);
    return 0;
  }
  std::fprintf(stderr,
               "%s: %g steady-state heap allocations per slot "
               "(contract: 0 after warm-up)\n",
               what, per_slot);
  return 1;
}

// ---- reporting ------------------------------------------------------------

// Standard IPC/stall breakdown columns (paper Fig. 8).
inline std::vector<std::string> ipc_header() {
  return {"configuration", "cores", "cycles",  "IPC",  "instr%",
          "raw%",          "lsu%",  "instr$%", "ext%", "wfi%"};
}

inline std::vector<std::string> ipc_row(const std::string& name,
                                        const sim::Kernel_report& r) {
  using common::Table;
  using sim::Stall;
  return {name,
          Table::fmt(static_cast<uint64_t>(r.n_cores)),
          Table::fmt(r.cycles),
          Table::fmt(r.ipc(), 2),
          Table::pct(r.frac_instr()),
          Table::pct(r.frac(Stall::raw)),
          Table::pct(r.frac(Stall::lsu)),
          Table::pct(r.frac(Stall::icache)),
          Table::pct(r.frac(Stall::extunit)),
          Table::pct(r.frac(Stall::wfi))};
}

// Banner with the normalized figure tag every bench leads with; the same
// `figure` string goes verbatim into Report.figure and the
// docs/BENCHMARKS.md mapping table ("[Fig. 8a]", "[Table I]", "[SIV]").
inline void banner(const char* figure, const char* title,
                   const char* paper_note) {
  std::printf("\n=== %s %s ===\n%s\n\n", figure, title, paper_note);
}

// ---- machine-readable reports (report.h) ----------------------------------

// Fresh report with the shared metadata filled in; `figure` and `title`
// are the banner() arguments.
inline Report make_report(const char* bench_name, const char* figure,
                          const char* title) {
  Report r;
  r.bench = bench_name;
  r.figure = figure;
  r.title = title;
  r.git = git_describe();
  return r;
}

// The standard Fig. 8 breakdown as metrics: cycles, IPC and the stall
// fractions - all simulator-derived, so all deterministic.
inline void add_ipc_metrics(Row& row, const sim::Kernel_report& r) {
  using sim::Stall;
  row.metric("cycles", static_cast<double>(r.cycles), "cycles");
  row.metric("ipc", r.ipc(), "ipc", true, "higher");
  row.metric("frac_instr", r.frac_instr(), "fraction", true, "higher");
  row.metric("frac_raw", r.frac(Stall::raw), "fraction");
  row.metric("frac_lsu", r.frac(Stall::lsu), "fraction");
  row.metric("frac_icache", r.frac(Stall::icache), "fraction");
  row.metric("frac_extunit", r.frac(Stall::extunit), "fraction");
  row.metric("frac_wfi", r.frac(Stall::wfi), "fraction");
}

// Row from one measure_kernel() run: the resolved Kernel_desc plus the
// standard IPC/stall metrics.  Mirrors ipc_row() for the human table.
inline Row report_from(const std::string& name, const Measured& m,
                       const std::string& cluster = "") {
  Row row;
  row.name = name;
  row.cluster = cluster;
  row.kernel = m.desc.name;
  row.params = m.desc.params.describe();
  row.cores = m.desc.cores;
  row.macs = m.desc.macs;
  add_ipc_metrics(row, m.rep);
  return row;
}

// Honors `--json <path>`: absent -> no-op (stdout tables stay the only
// output), present -> serialize `rep`.  Returns the process exit code to
// combine with the bench's own status: `return emit(rep, cli) | status;`.
inline int emit(const Report& rep, const common::Cli& cli) {
  const std::string path = cli.get("--json", "");
  if (path.empty()) return 0;
  return rep.write_json(path) ? 0 : 1;
}

}  // namespace pp::bench

#endif  // PUSCHPOOL_BENCH_BENCH_UTIL_H
