// Fig. 9c: the full PUSCH use case on TeraPool (and MemPool): cycles per
// kernel with per-slot repetition counts, percentage breakdown, the total
// execution time at 1 GHz, and the overall speedup vs. one core.
//
// Paper (TeraPool): ~60% FFT / ~30% MMM / ~10% Cholesky with per-symbol
// Cholesky scheduling (speedup 848), improving to 62/31/7 and speedup 871
// when 4 data symbols of decompositions are batched; total 785 kcycles =
// 0.785 ms at 1 GHz vs. the 0.5 ms slot budget.
#include "bench/bench_util.h"
#include "common/cli.h"
#include "runtime/presets.h"

namespace {

using namespace pp;
using common::Table;

void run(const arch::Cluster_config& cluster, bool batch, bool ext,
         uint32_t sim_shards, bench::Report& rep) {
  runtime::Use_case_options cfg;
  cfg.cluster = cluster;
  cfg.batch_cholesky = batch;
  cfg.include_estimation = ext;
  cfg.sim_shards = sim_shards;
  const auto res = runtime::run_use_case(cfg);

  const std::string config_name =
      cluster.name + (batch ? " chol-batched" : " chol-per-symbol");
  std::printf("--- %s, cholesky %s ---\n", cluster.name.c_str(),
              batch ? "batched over data symbols" : "per data symbol");
  Table t({"stage", "cycles/instance", "instances", "total cycles", "share",
           "IPC"});
  for (size_t i = 0; i < res.stages.size(); ++i) {
    const auto& st = res.stages[i];
    const bool core3 = i < 3;
    const double share =
        static_cast<double>(st.total_cycles()) / res.parallel_cycles;
    t.add_row({st.name, Table::fmt(st.rep.cycles),
               Table::fmt(static_cast<uint64_t>(st.times)),
               Table::fmt(st.total_cycles()),
               core3 ? Table::pct(share) : std::string("(extra)"),
               Table::fmt(st.rep.ipc(), 2)});
    auto& row = rep.add_row(config_name + " " + st.name);
    row.cluster = cluster.name;
    row.metric("cycles_per_instance", static_cast<double>(st.rep.cycles),
               "cycles");
    row.metric("instances", static_cast<double>(st.times), "count", true,
               "exact");
    row.metric("total_cycles", static_cast<double>(st.total_cycles()),
               "cycles");
    if (core3) row.metric("share", share, "fraction", true, "info");
    row.metric("ipc", st.rep.ipc(), "ipc", true, "higher");
  }
  t.print();
  std::printf(
      "total %lu cycles = %.3f ms @ 1 GHz | serial %lu cycles | speedup %.0f\n\n",
      static_cast<unsigned long>(res.parallel_cycles), res.ms_at_1ghz(),
      static_cast<unsigned long>(res.serial_cycles), res.speedup());
  auto& total = rep.add_row(config_name + " total");
  total.cluster = cluster.name;
  total.metric("total_cycles", static_cast<double>(res.parallel_cycles),
               "cycles");
  total.metric("ms_at_1ghz", res.ms_at_1ghz(), "ms");
  total.metric("serial_cycles", static_cast<double>(res.serial_cycles),
               "cycles");
  total.metric("speedup", res.speedup(), "x", true, "higher");
}

}  // namespace

int main(int argc, char** argv) {
  common::Cli cli(argc, argv);
  bench::banner("[Fig. 9c]", "PUSCH use-case roll-up",
                "64x 4096-pt FFT + 4096x64x32 MMM per symbol (x14), 4096 4x4 "
                "Cholesky per data symbol (x12).\nPaper totals on TeraPool: "
                "785 kcycles, 0.785 ms @ 1 GHz, speedup 848 -> 871 with "
                "batched Cholesky.");
  auto rep = bench::make_report("bench_fig9c_usecase", "[Fig. 9c]",
                                "PUSCH use-case roll-up");

  const bool ext = cli.has("--ext");
  // --sim-shards N: measure the per-stage machines on N host threads; every
  // N reports the same cycles (docs/DETERMINISM.md §5), so the knob stays
  // out of the baseline metadata.
  const uint32_t sim_shards = cli.get_u32("--sim-shards", 1);
  rep.add_meta("include_estimation", ext ? "1" : "0");
  run(arch::Cluster_config::terapool(), false, ext, sim_shards, rep);
  run(arch::Cluster_config::terapool(), true, ext, sim_shards, rep);
  if (cli.get("--arch", "both") == "both") {
    run(arch::Cluster_config::mempool(), true, ext, sim_shards, rep);
  }
  return bench::emit(rep, cli);
}
