#include "runtime/pipeline.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/thread_pool.h"
#include "runtime/backend.h"
#include "runtime/backend_fixed.h"
#include "runtime/backend_parallel.h"
#include "runtime/registry.h"

namespace pp::runtime {

Params kernel_params(const Exec_spec& spec) {
  return Params(spec.params).unset("symb_batch").unset("solver");
}

namespace {

// ---- launch-report memoization -------------------------------------------
//
// A stage's Kernel_report on a fresh machine is a pure function of the
// cluster configuration and the (kernel, params) pair: the simulation is
// deterministic and cycle counts do not depend on input data values (the
// Kernel contract, kernel.h).  Repeated configurations - e.g. the unchanged
// stages between a use case's batching-off and batching-on roll-ups - can
// therefore reuse the first measurement bit for bit.  Reports from the
// reference scheduler are keyed separately so a differential run never
// reads fast-path results (and vice versa).

std::string cluster_memo_key(const arch::Cluster_config& c) {
  std::string s = c.name;
  const uint32_t fields[] = {c.n_groups,
                             c.tiles_per_group,
                             c.cores_per_tile,
                             c.banks_per_core,
                             c.bank_words,
                             c.lat_tile,
                             c.lat_group,
                             c.lat_remote,
                             c.l0_icache_instrs,
                             c.icache_refill_cycles,
                             c.mul_latency,
                             c.div_latency,
                             static_cast<uint32_t>(c.isa_fused_butterfly),
                             c.lsu_depth,
                             c.wakeup_latency};
  for (uint32_t v : fields) {
    s += '/';
    s += std::to_string(v);
  }
  return s;
}

std::string launch_memo_key(const std::string& cluster, bool reference,
                            std::string_view kernel, const Params& p) {
  std::string s = reference ? "ref\n" : "fast\n";
  s += cluster;
  s += '\n';
  s += kernel;
  // Canonical parameter order: the key must not depend on insertion order.
  auto keys = p.keys();
  std::sort(keys.begin(), keys.end());
  for (const auto& k : keys) {
    s += '\n';
    s += k;
    s += '=';
    s += p.gets(k, "");
  }
  return s;
}

// Report plus the kernel's own display label (both pure functions of the
// memo key, so reuse reproduces unnamed stages' labels exactly).
struct Memo_entry {
  sim::Kernel_report rep;
  std::string label;
};

std::mutex launch_memo_mutex;
std::unordered_map<std::string, Memo_entry>& launch_memo() {
  static std::unordered_map<std::string, Memo_entry> memo;
  return memo;
}

}  // namespace

Rollup_result Pipeline::measure(uint64_t seed) const {
  Measure_options opt;
  opt.seed = seed;
  return measure(opt);
}

Rollup_result Pipeline::measure(const Measure_options& opt) const {
  Rollup_result out;
  common::Rng rng(opt.seed);
  const bool reference =
      opt.reference_loop || sim::Machine::env_reference_loop();
  const std::string ckey = cluster_memo_key(cluster_);

  // One entry per simulation the roll-up needs: the measured parallel
  // mapping of every stage, then the single-core baselines.
  struct Job {
    const Stage_spec* spec = nullptr;
    bool is_serial = false;
    std::unique_ptr<sim::Machine> m;
    std::unique_ptr<arch::L1_alloc> alloc;
    std::unique_ptr<Kernel> kernel;
    std::string key;
    sim::Kernel_report rep;
    std::string label;  // kernel->desc().label(), surviving memo hits
    bool memoized = false;
  };
  std::vector<Job> jobs;
  for (const auto& spec : stages_) {
    if (spec.run.kernel.empty()) continue;
    jobs.emplace_back().spec = &spec;
  }
  for (const auto& spec : stages_) {
    if (spec.serial.kernel.empty() || spec.serial.repeat == 0) continue;
    Job& j = jobs.emplace_back();
    j.spec = &spec;
    j.is_serial = true;
  }

  // Serial pre-pass in declaration order: memo lookups, machine/kernel
  // construction and input binding.  Binding here keeps the shared stimulus
  // Rng's draw sequence a pure function of the stage list, independent of
  // shard count (and launch cycles are data-independent, so memo hits that
  // skip their draws leave every other report unchanged).
  {
    std::lock_guard<std::mutex> lock(launch_memo_mutex);
    for (Job& j : jobs) {
      const Exec_spec& exec = j.is_serial ? j.spec->serial : j.spec->run;
      j.key = launch_memo_key(ckey, reference, exec.kernel,
                              kernel_params(exec));
      if (opt.reuse_reports) {
        auto it = launch_memo().find(j.key);
        if (it != launch_memo().end()) {
          j.rep = it->second.rep;
          j.label = it->second.label;
          j.memoized = true;
          continue;
        }
      }
      j.m = std::make_unique<sim::Machine>(cluster_);
      if (reference) j.m->set_reference_loop(true);
      j.alloc = std::make_unique<arch::L1_alloc>(j.m->config());
      j.kernel = make_kernel(exec.kernel, *j.m, *j.alloc, kernel_params(exec));
      j.label = j.kernel->desc().label();
      j.kernel->bind_default_inputs(rng);
    }
  }

  // Launch phase: every job owns a private machine, so the reports are
  // bit-identical for any shard count and partition.
  auto launch_job = [](Job& j) {
    if (j.memoized) return;
    j.rep = j.kernel->launch();
  };
  if (opt.shards <= 1) {
    for (Job& j : jobs) launch_job(j);
  } else {
    common::Thread_pool pool(opt.shards);
    pool.parallel_for(jobs.size(), [&](uint64_t i) { launch_job(jobs[i]); });
  }

  // Index-ordered merge (and memo fill, in the same deterministic order).
  {
    std::lock_guard<std::mutex> lock(launch_memo_mutex);
    for (Job& j : jobs) {
      if (opt.reuse_reports && !j.memoized) {
        launch_memo()[j.key] = Memo_entry{j.rep, j.label};
      }
      if (j.is_serial) {
        out.serial_cycles += j.rep.cycles * j.spec->serial.repeat;
        continue;
      }
      Rollup_stage st;
      st.name = j.spec->name.empty() ? j.label : j.spec->name;
      st.rep = j.rep;
      st.times = j.spec->run.repeat;
      if (j.spec->core_set) out.parallel_cycles += st.total_cycles();
      out.stages.push_back(std::move(st));
    }
  }
  return out;
}

Slot_result Pipeline::execute(const phy::Uplink_scenario& sc,
                              Backend& backend) const {
  Slot_result out;
  execute_into(sc, backend, out);
  return out;
}

void Pipeline::execute_into(const phy::Uplink_scenario& sc, Backend& backend,
                            Slot_result& out) const {
  backend.run_slot_into(*this, sc, out);
}

uint32_t resolve_fft_gangs(const arch::Cluster_config& cluster,
                           uint32_t fft_size, const Params& params,
                           uint32_t max_inst) {
  uint32_t inst = params.getu("inst", 0);
  if (inst == 0) {
    PP_CHECK(fft_size >= 16, "fft gang resolution needs fft_size >= 16");
    inst = cluster.n_cores() / (fft_size / 16);
  }
  return std::max(1u, std::min(max_inst, inst));
}

void mirror_sim_stage_runs(const Pipeline& p, const phy::Uplink_config& cfg,
                           Slot_result& out) {
  const uint32_t n_data_symb = cfg.n_symb - cfg.n_pilot_symb;
  out.stages.resize(p.stages().size());
  for (size_t i = 0; i < p.stages().size(); ++i) {
    const auto& spec = p.stages()[i];
    auto& st = out.stages[i];
    st.name = spec.name;
    // Slot_results are reused across slots by the workspace-checkout
    // serving loop: clear the counters a host backend never writes so a
    // recycled result matches a fresh one bit for bit.
    st.cycles = 0;
    st.instrs = 0;
    st.stall.fill(0);
    switch (spec.role) {
      case Stage_role::fft: {
        const uint32_t inst = resolve_fft_gangs(p.cluster(), cfg.fft_size,
                                                spec.run.params, cfg.n_rx);
        st.runs = cfg.n_symb * ((cfg.n_rx + inst - 1) / inst);
        break;
      }
      case Stage_role::beamform:
        st.runs = cfg.n_symb;
        break;
      case Stage_role::che:
      case Stage_role::ne:
        st.runs = 1;
        break;
      case Stage_role::gram:
        st.runs = n_data_symb;
        break;
      case Stage_role::mimo_solve: {
        // One decomposition + one solve launch per symbol batch, under the
        // same divisibility rule the sim backend enforces.
        const uint32_t batch = spec.run.params.getu("symb_batch", 1);
        PP_CHECK(batch >= 1 && n_data_symb % batch == 0,
                 "chol symb_batch must divide the data-symbol count");
        st.runs = 2 * (n_data_symb / batch);
        break;
      }
      case Stage_role::custom:
        st.runs = 0;
        break;
    }
  }
}

std::unique_ptr<Backend> make_backend(std::string_view name, uint32_t intra) {
  if (name == "sim") return std::make_unique<Sim_backend>();
  if (name == "reference") {
    return std::make_unique<Parallel_backend>(1, "reference");
  }
  if (name == "parallel") return std::make_unique<Parallel_backend>(intra);
  if (name == "fixed") return std::make_unique<Fixed_backend>(intra);
  PP_CHECK(false,
           "unknown backend (expected 'sim', 'reference', 'parallel' or "
           "'fixed')");
  return nullptr;
}

std::vector<std::string> backend_names() {
  return {"sim", "reference", "parallel", "fixed"};
}

void Backend::run_slot_into(const Pipeline& p, const phy::Uplink_scenario& sc,
                            Slot_result& out) {
  run_front_into(p, sc, front_);
  run_back_into(p, sc, front_, out);
}

void Backend::run_front_into(const Pipeline&, const phy::Uplink_scenario&,
                             Slot_front&) {
  PP_CHECK(false, "backend does not support stage-split execution");
}

void Backend::run_back_into(const Pipeline&, const phy::Uplink_scenario&,
                            const Slot_front&, Slot_result&) {
  PP_CHECK(false, "backend does not support stage-split execution");
}

}  // namespace pp::runtime
