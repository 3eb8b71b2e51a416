// The repository benchmark: PUSCH receiver throughput and slot latency end
// to end, and time per layer from a separate traced run.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--inject-mismatch] [--trace-out <file>]
//
// Workloads (every input is generated from --seed before anything is timed):
//
//   macro-mimo        fixed backend, one slot at a time on 4 intra-slot
//                     threads; fft1024, 16 rx, 16 beams, 8 UEs, QAM16, 14
//                     symbols - the Q15 MIMO back half dominates
//   wide-fft          fixed backend, same threads; fft4096, 32 rx, 8 beams,
//                     1 UE, 14 symbols - OFDM FFT + beamforming dominate
//   small-cells-harq  Slot_scheduler::run on the reference backend with 4
//                     slot workers: eight fft64/256 TDL cells, 2 shards,
//                     load-aware placement, degrade overload, HARQ
//
// Every macro-mimo run also probes the cycle simulator: two slots of the
// TeraPool shape (fft1024, 8 rx, 8 beams, 4 UEs, 8 symbols) on the sim
// backend, checked bit for bit against fixed; the traced run reports their
// simulated cycles, IPC and stalls.
//
// A run is a closed loop: each client thread owns one persistent backend
// (runtime::make_backend) and pulls the next pre-built slot as soon as its
// previous one finished; the timed call is Pipeline::execute_into.  A serve
// phase then runs Slot_scheduler::run on the same workload, which builds
// its scenarios in the loop.  Every run checks its outputs bit for bit
// (fixed at 1 against 4 threads, sim against fixed, the scheduler at 1
// against 4 workers, every timed slot against its warm-up output) and exits
// 1 on a mismatch.  The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  --smoke shrinks pools and slot counts for the benchmark's
// own test; --inject-mismatch corrupts one checked output to prove that a
// mismatch fails the run.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fixed/q15_kernels.h"
#include "fixed/simd.h"
#include "phy/uplink.h"
#include "pusch/complexity.h"
#include "runtime/backend.h"
#include "runtime/presets.h"
#include "runtime/scheduler.h"
#include "runtime/traffic.h"
#include "runtime/workspace.h"
#include "steal.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace pp;
using runtime::Schedule_result;
using runtime::Slot_result;
using Scenario = phy::Uplink_scenario;

// ---- options ---------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool inject_mismatch = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--inject-mismatch] "
               "[--trace-out <file>]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
      if (!(o.seconds > 0.0)) usage("--seconds must be positive");
    } else if (a == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--inject-mismatch") {
      o.inject_mismatch = true;
    } else if (a == "--trace-out") {
      o.trace_out = value();
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

// ---- workloads ---------------------------------------------------------------

struct Workload {
  std::string name;
  std::string backend;        // closed-loop receiving backend
  uint32_t clients = 1;       // closed-loop threads, one backend each
  uint32_t intra = 1;         // intra-slot workers per backend
  // Backend whose slot time at 1 against 4 intra-slot threads gives
  // runtime.intra_speedup ("parallel" is the double receiver's).
  std::string intra_backend = "fixed";
  arch::Cluster_config cluster = arch::Cluster_config::terapool();
  runtime::Traffic_config traffic;  // slot shapes; seeded from --seed
  runtime::Scheduler_options serve;
  uint32_t pool = 8;          // distinct pre-built slots, cells by load
  uint64_t serve_slots = 8;   // jobs of one serve run
  uint32_t serve_reps = 3;    // least serve runs; the median rate is reported
  double loop_share = 0.75;   // share of --seconds in the closed loop; the
                              // serve runs repeat through the rest
  uint64_t prefix = 0;        // scheduler 1-vs-4-worker check (HARQ runs)
  uint32_t sim_probe = 0;     // TeraPool-shape slots run on the simulator
};

runtime::Traffic_cell cell(uint32_t mu, uint32_t fft, uint32_t n_ue,
                           phy::Qam qam, double snr_db, double load) {
  runtime::Traffic_cell c;
  c.mu = mu;
  c.fft_size = fft;
  c.n_ue = n_ue;
  c.qam = qam;
  c.snr_db = snr_db;
  c.load = load;
  return c;
}

// The SNRs are operating points with thousands of bit errors per pool, so
// the quality metrics are never 0 and move little between seeds.  On
// small-cells-harq the loads put one shard near saturation (slots get
// degraded, deadlines missed) and the Doppler / HARQ threshold pair makes
// retransmissions both recover and exhaust blocks.
Workload make_workload(const Options& opt) {
  Workload w;
  w.name = opt.workload;
  auto& t = w.traffic;
  t.base_seed = opt.seed;
  if (w.name == "macro-mimo" || w.name == "wide-fft") {
    w.backend = "fixed";
    w.clients = 1;
    w.intra = 4;
    if (w.name == "macro-mimo") {
      t.cells = {cell(1, 1024, 8, phy::Qam::qam16, 16.0, 1.0)};
      t.n_rx = 16;
      t.n_beams = 16;
      w.pool = 16;
      w.serve_slots = 4;
      w.sim_probe = 2;
    } else {
      t.cells = {cell(1, 4096, 1, phy::Qam::qam16, 7.0, 1.0)};
      t.n_rx = 32;
      t.n_beams = 8;
      w.pool = 8;
      w.serve_slots = 2;
    }
    t.n_symb = 14;
  } else if (w.name == "small-cells-harq") {
    w.backend = "reference";
    w.clients = 4;
    w.intra = 1;
    w.intra_backend = "parallel";
    w.cluster = arch::Cluster_config::minipool();
    using phy::Qam;
    t.cells = {
        cell(0, 256, 4, Qam::qam16, 22.0, 25.0),
        cell(1, 64, 2, Qam::qam64, 26.0, 11.5),
        cell(2, 64, 1, Qam::qpsk, 14.0, 5.75),
        cell(1, 256, 2, Qam::qam16, 20.0, 14.0),
        cell(0, 64, 4, Qam::qam16, 24.0, 11.5),
        cell(2, 256, 1, Qam::qam64, 25.0, 7.0),
        cell(1, 64, 3, Qam::qpsk, 16.0, 11.5),
        cell(0, 256, 2, Qam::qam64, 28.0, 14.0),
    };
    for (size_t c = 0; c < t.cells.size(); ++c) {
      t.cells[c].profile =
          c % 2 ? phy::Channel_profile::tdl_c : phy::Channel_profile::tdl_a;
      t.cells[c].doppler_hz = 5.0 + 5.0 * static_cast<double>(c);
    }
    t.n_rx = 8;
    t.n_beams = 8;
    t.n_symb = 4;
    w.pool = 512;
    w.serve_slots = 4000;
    w.loop_share = 0.35;
    w.prefix = 160;
  } else {
    usage(("unknown workload '" + w.name +
           "' (macro-mimo, wide-fft, small-cells-harq)")
              .c_str());
  }

  auto& s = w.serve;
  s.backend = w.backend;
  s.cluster = w.cluster;
  s.keep_slots = true;
  s.workers = w.clients;
  s.intra = w.intra;
  if (w.name == "small-cells-harq") {
    s.shards = 2;
    s.placement = "load-aware";
    s.overload = "degrade";
    s.max_harq = 2;
    s.harq_ber = 0.02;
  }

  if (opt.smoke) {
    w.pool = static_cast<uint32_t>(t.cells.size());
    w.serve_reps = 1;
    w.serve_slots = w.prefix ? 48 : 2;
    if (w.prefix) w.prefix = 24;
    if (w.sim_probe) w.sim_probe = 1;
  }
  return w;
}

// ---- slot bookkeeping ---------------------------------------------------------

// Bit-for-bit equality of everything a backend reports about a slot's data.
bool same_output(const Slot_result& a, const Slot_result& b) {
  return a.bits == b.bits && a.symbols == b.symbols && a.evm == b.evm &&
         a.ber == b.ber && a.sigma2_hat == b.sigma2_hat;
}

uint64_t payload_bits(const Slot_result& r) {
  uint64_t n = 0;
  for (const auto& b : r.bits) n += b.size();
  return n;
}

// Bit errors and equalized-symbol counts behind a slot's BER / EVM, so
// quality aggregates over many slots weight each bit and symbol equally.
struct Quality {
  double bit_errors = 0.0;
  double bits = 0.0;
  double sq_err = 0.0;  // sum of squared EVM terms
  double symbols = 0.0;

  void add(const Slot_result& r) {
    const double nb = static_cast<double>(payload_bits(r));
    double ns = 0.0;
    for (const auto& s : r.symbols) ns += static_cast<double>(s.size());
    bit_errors += std::round(r.ber * nb);
    bits += nb;
    sq_err += r.evm * r.evm * ns;
    symbols += ns;
  }
  double ber() const { return bits > 0 ? bit_errors / bits : 0.0; }
  double evm() const { return symbols > 0 ? std::sqrt(sq_err / symbols) : 0.0; }
};

struct Phase {
  std::string name;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

struct Accounting {
  std::vector<Phase> phases;
  Phase& operator[](const std::string& name) {
    for (auto& p : phases) {
      if (p.name == name) return p;
    }
    phases.push_back({name, 0, 0});
    return phases.back();
  }
  uint64_t attempted() const {
    uint64_t n = 0;
    for (const auto& p : phases) n += p.attempted;
    return n;
  }
  uint64_t failed() const {
    uint64_t n = 0;
    for (const auto& p : phases) n += p.failed;
    return n;
  }
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of exact samples.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

// Runs fn(i) for i in [0, n) on `threads` threads, round-robin.
template <typename F>
void parallel_slots(uint64_t n, uint32_t threads, const F& fn) {
  threads = static_cast<uint32_t>(std::max<uint64_t>(1, std::min<uint64_t>(threads, n)));
  std::vector<std::thread> pool;
  for (uint32_t th = 0; th < threads; ++th) {
    pool.emplace_back([&, th] {
      for (uint64_t i = th; i < n; i += threads) fn(th, i);
    });
  }
  for (auto& t : pool) t.join();
}

// ---- set-up ----------------------------------------------------------------

// The pre-built inputs of the closed loop and the warm-up output of each.
struct Pool {
  std::vector<std::unique_ptr<const Scenario>> slots;
  std::vector<Slot_result> ref;
  std::vector<double> synth_s;  // Uplink_scenario constructor, per slot
};

struct Rig {
  runtime::Pipeline pipeline;
  Pool pool;
  std::vector<std::unique_ptr<runtime::Backend>> backends;  // one per client
};

runtime::Pipeline pipeline_of(const Workload& w) {
  return runtime::uplink_pipeline(w.cluster, w.serve.uplink);
}

// Synthesizes the pool, builds the client backends and runs every pool slot
// once (the warm-up that grows the backend workspaces and records the
// reference outputs).
void set_up(const Workload& w, Rig& rig, Tracer& tr) {
  // Each cell's first jobs, in the proportion of the cells' loads (at least
  // one each), so the pool's cell mix is the traffic's and the same for
  // every seed.
  const auto& cells = w.traffic.cells;
  double load = 0.0;
  for (const auto& c : cells) load += c.load;
  std::vector<uint32_t> quota(cells.size());
  uint64_t want = 0;
  for (size_t c = 0; c < cells.size(); ++c) {
    quota[c] = std::max<uint32_t>(
        1, static_cast<uint32_t>(std::lround(w.pool * cells[c].load / load)));
    want += quota[c];
  }
  runtime::Traffic_config tc = w.traffic;
  tc.n_slots = want * 8;
  const runtime::Traffic_source src(tc);
  std::vector<runtime::Slot_job> jobs;
  for (uint64_t i = 0; i < tc.n_slots && jobs.size() < want; ++i) {
    runtime::Slot_job job = src.job(i);
    if (quota[job.group] > 0) {
      --quota[job.group];
      jobs.push_back(std::move(job));
    }
  }
  if (jobs.size() != want) {
    std::fprintf(stderr, "perfbench: traffic too sparse to fill the pool\n");
    std::exit(1);
  }
  const size_t n = jobs.size();
  Pool& pool = rig.pool;
  pool = Pool{};
  pool.slots.resize(n);
  pool.ref.resize(n);
  pool.synth_s.resize(n);
  parallel_slots(n, 4, [&](uint32_t th, uint64_t i) {
    Scope s(tr, th, "phy.synth", i);
    const double a = now_s();
    pool.slots[i] = std::make_unique<const Scenario>(jobs[i].cfg);
    pool.synth_s[i] = now_s() - a;
  });
  rig.backends.clear();
  for (uint32_t c = 0; c < w.clients; ++c) {
    rig.backends.push_back(runtime::make_backend(w.backend, w.intra));
  }
  parallel_slots(n, w.clients, [&](uint32_t th, uint64_t i) {
    rig.pipeline.execute_into(*pool.slots[i], *rig.backends[th], pool.ref[i]);
  });
}

// ---- closed loop --------------------------------------------------------------

struct Loop_stats {
  double start_s = 0.0;        // now_s() at the loop start
  std::vector<double> slot_s;  // per-slot receive time
  std::vector<double> done_s;  // per-slot completion, from the loop start
  std::vector<double> bits_of;  // per-slot decoded payload bits
  double wall_s = 0.0;
  uint64_t slots = 0;
  uint64_t failed = 0;
};

// Pulls pool slots round-robin on `clients` threads until `seconds` have
// passed and at least `min_slots` slots were received.  With an enabled
// tracer every slot becomes a runtime.slot span with runtime.front /
// runtime.back children.
Loop_stats closed_loop(const Workload& w, Rig& rig, double seconds,
                       uint64_t min_slots, Tracer& tr) {
  const uint32_t clients = w.clients;
  std::atomic<uint64_t> cursor{0};
  std::vector<Loop_stats> per(clients);
  const double t0 = now_s();
  const double t_end = t0 + seconds;
  auto client = [&](uint32_t th) {
    runtime::Backend& be = *rig.backends[th];
    Slot_result out;
    runtime::Slot_front front;
    Loop_stats& st = per[th];
    st.slot_s.reserve(4096);
    const bool split = tr.enabled();
    for (;;) {
      const uint64_t k = cursor.fetch_add(1, std::memory_order_relaxed);
      if (k >= min_slots && now_s() >= t_end) break;
      const uint64_t i = k % rig.pool.slots.size();
      const Scenario& sc = *rig.pool.slots[i];
      const double a = now_s();
      {
        Scope slot(tr, th, "runtime.slot", k);
        if (split) {
          {
            Scope f(tr, th, "runtime.front", k, slot.id());
            be.run_front_into(rig.pipeline, sc, front);
          }
          Scope b(tr, th, "runtime.back", k, slot.id());
          be.run_back_into(rig.pipeline, sc, front, out);
        } else {
          rig.pipeline.execute_into(sc, be, out);
        }
      }
      const double dt = now_s() - a;
      st.slot_s.push_back(dt);
      st.done_s.push_back(a + dt - t0);
      st.bits_of.push_back(static_cast<double>(payload_bits(out)));
      ++st.slots;
      st.failed += !same_output(out, rig.pool.ref[i]);
    }
    st.wall_s = now_s() - t0;
  };
  std::vector<std::thread> threads;
  for (uint32_t th = 1; th < clients; ++th) threads.emplace_back(client, th);
  client(0);
  for (auto& t : threads) t.join();

  Loop_stats all;
  all.start_s = t0;
  for (auto& st : per) {
    all.slot_s.insert(all.slot_s.end(), st.slot_s.begin(), st.slot_s.end());
    all.done_s.insert(all.done_s.end(), st.done_s.begin(), st.done_s.end());
    all.bits_of.insert(all.bits_of.end(), st.bits_of.begin(), st.bits_of.end());
    all.wall_s = std::max(all.wall_s, st.wall_s);
    all.slots += st.slots;
    all.failed += st.failed;
  }
  return all;
}

// The timed phase's figures as medians over consecutive chunks of it:
// completions in time order, cut into equal-count chunks.  Each chunk gives
// a rate over the wall time since the previous chunk ended and the p50 / p90
// of its own slots' receive times.  A stall of the host during one chunk
// then moves one sample, not the reported value.  Each chunk's times are
// net of the hypervisor steal during it.
struct Chunked {
  double slots_per_s = 0.0;
  double bits_per_s = 0.0;
  double p50_s = 0.0;
  double p90_s = 0.0;
  size_t chunks = 0;
};

Chunked chunked(const Loop_stats& st, const Steal_clock& steal,
                size_t chunks = 12) {
  std::vector<size_t> order(st.done_s.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return st.done_s[a] < st.done_s[b]; });
  chunks = std::max<size_t>(1, std::min(chunks, order.size()));
  std::vector<double> slot_rate, bit_rate, p50, p90;
  double prev = 0.0;
  for (size_t c = 0; c < chunks; ++c) {
    const size_t lo = order.size() * c / chunks;
    const size_t hi = order.size() * (c + 1) / chunks;
    const double end = st.done_s[order[hi - 1]];
    const double keep =
        1.0 - steal.stolen_share(st.start_s + prev, st.start_s + end);
    double bits = 0.0;
    std::vector<double> times;
    for (size_t k = lo; k < hi; ++k) {
      bits += st.bits_of[order[k]];
      times.push_back(st.slot_s[order[k]] * keep);
    }
    slot_rate.push_back(static_cast<double>(hi - lo) / ((end - prev) * keep));
    bit_rate.push_back(bits / ((end - prev) * keep));
    p50.push_back(percentile(times, 0.5));
    p90.push_back(percentile(times, 0.9));
    prev = end;
  }
  return {median(slot_rate), median(bit_rate), median(p50), median(p90),
          chunks};
}

// ---- correctness checks ---------------------------------------------------------

// fixed at 1 thread against 4, bit for bit: every pool slot of a fixed
// workload on four single-threaded backends at once, against the warm-up
// output.  The double receiver's workload has its own check in
// check_scheduler().
void check_intra(const Workload& w, Rig& rig, bool inject, Phase& ph) {
  if (w.backend != "fixed") return;
  std::vector<std::unique_ptr<runtime::Backend>> be;
  for (uint32_t th = 0; th < 4; ++th) be.push_back(runtime::make_backend("fixed", 1));
  std::atomic<uint64_t> failed{0};
  const size_t n = rig.pool.slots.size();
  parallel_slots(n, 4, [&](uint32_t th, uint64_t i) {
    Slot_result out;
    rig.pipeline.execute_into(*rig.pool.slots[i], *be[th], out);
    if (inject && i == 0) out.bits[0][0] ^= 1;
    if (!same_output(out, rig.pool.ref[i])) {
      failed.fetch_add(1);
      std::fprintf(stderr, "MISMATCH: slot %llu, fixed at 1 vs 4 threads\n",
                   static_cast<unsigned long long>(i));
    }
  });
  ph.attempted += n;
  ph.failed += failed.load();
}

// The cycle simulator on slots of the paper's TeraPool shape (fft1024, 8 rx,
// 8 beams, 4 UEs, 8 symbols), one machine per slot, concurrently; each
// result must equal the fixed backend's bit for bit (docs/DETERMINISM.md
// section 7).
struct Sim_probe {
  std::vector<Slot_result> sim;
  std::vector<double> host_s;  // host seconds per simulated slot
};

Sim_probe probe_sim(const Workload& w, const Options& opt, bool inject,
                    Phase& ph) {
  Sim_probe pr;
  if (w.sim_probe == 0) return pr;
  runtime::Traffic_config tc;
  tc.cells = {cell(1, 1024, 4, phy::Qam::qam16, 12.0, 1.0)};
  tc.n_rx = 8;
  tc.n_beams = 8;
  tc.n_symb = 8;
  tc.n_slots = w.sim_probe;
  tc.base_seed = opt.seed;
  const runtime::Traffic_source src(tc);
  const runtime::Pipeline p =
      runtime::uplink_pipeline(arch::Cluster_config::terapool());
  pr.sim.resize(w.sim_probe);
  pr.host_s.resize(w.sim_probe);
  std::atomic<uint64_t> failed{0};
  parallel_slots(w.sim_probe, w.sim_probe, [&](uint32_t, uint64_t i) {
    const Scenario sc(src.job(i).cfg);
    const auto sim = runtime::make_backend("sim");
    const double a = now_s();
    p.execute_into(sc, *sim, pr.sim[i]);
    pr.host_s[i] = now_s() - a;
    Slot_result fx;
    p.execute_into(sc, *runtime::make_backend("fixed", 1), fx);
    if (inject && i == 0) fx.bits[0][0] ^= 1;
    if (!same_output(fx, pr.sim[i])) {
      failed.fetch_add(1);
      std::fprintf(stderr, "MISMATCH: probe slot %llu, fixed vs sim\n",
                   static_cast<unsigned long long>(i));
    }
  });
  ph.attempted += w.sim_probe;
  ph.failed += failed.load();
  return pr;
}

Schedule_result serve(const Workload& w, uint64_t n_slots, uint32_t workers) {
  runtime::Traffic_config tc = w.traffic;
  tc.n_slots = n_slots;
  const runtime::Traffic_source src(tc);
  runtime::Scheduler_options o = w.serve;
  o.workers = workers;
  return runtime::Slot_scheduler(o).run(src);
}

// The scheduler's determinism contract on a prefix of the HARQ workload:
// 1 and 4 slot workers must give deterministic_equal results.
void check_scheduler(const Workload& w, bool inject, Phase& ph) {
  if (w.prefix == 0) return;
  Schedule_result one = serve(w, w.prefix, 1);
  const Schedule_result four = serve(w, w.prefix, 4);
  if (inject) one.harq_retx += 1;
  ph.attempted += 2;
  if (!one.deterministic_equal(four)) {
    ++ph.failed;
    std::fprintf(stderr,
                 "MISMATCH: scheduler at 1 vs 4 workers on %llu slots\n",
                 static_cast<unsigned long long>(w.prefix));
  }
}

// ---- per-layer timing of the public functions -------------------------------------

// The golden double receiver's tiled steps on one slot, single-threaded.
void time_phy(const Scenario& sc, Tracer& tr, uint64_t slot) {
  const auto& cfg = sc.config();
  const uint64_t n_sc = cfg.n_sc;
  const uint32_t n_data = cfg.n_symb - cfg.n_pilot_symb;
  Scope top(tr, 0, "phy.slot", slot);
  common::Ws_grid<phy::cd> beams;
  phy::Front_ws fws;
  {
    Scope s(tr, 0, "phy.front", slot, top.id());
    phy::golden_front_into(sc, beams, fws);
  }
  std::vector<phy::cd> h_hat(n_sc * cfg.n_beams * cfg.n_ue);
  {
    Scope s(tr, 0, "phy.che", slot, top.id());
    phy::che_rows(sc, h_hat, 0, cfg.n_ue * n_sc);
  }
  std::vector<double> terms(cfg.n_pilot_symb * n_sc * cfg.n_beams);
  {
    Scope s(tr, 0, "phy.ne", slot, top.id());
    phy::ne_terms(sc, beams, h_hat, terms, 0, cfg.n_pilot_symb * n_sc);
  }
  const double sigma2 = phy::mean_of_terms(terms);
  std::vector<std::vector<phy::cd>> symbols(
      cfg.n_ue, std::vector<phy::cd>(n_data * n_sc));
  std::vector<double> evm_terms(n_data * n_sc * cfg.n_ue);
  phy::Mimo_ws mws;
  Scope s(tr, 0, "phy.mimo", slot, top.id());
  phy::mimo_items(sc, beams, h_hat, sigma2, symbols, evm_terms, mws, 0,
                  n_data * n_sc);
}

// Per-slot call counts and Table I MAC bases of the fixed:: kernels.
struct Kernel_row {
  const char* key;
  double macs = 0.0;
};

// Each fixed:: kernel on one slot, single-threaded, with the call pattern
// and marshaled inputs of runtime::Fixed_backend: spans fixed.<kernel>
// under one fixed.slot span; marshaling between calls stays outside them.
void time_fixed(const runtime::Pipeline& p, const Scenario& sc, Tracer& tr,
                uint64_t slot) {
  using common::cq15;
  using runtime::quantize_into;
  const auto& cfg = sc.config();
  const uint32_t n = cfg.fft_size;
  const uint32_t n_b = cfg.n_beams;
  const uint32_t n_l = cfg.n_ue;
  const uint32_t n_rx = cfg.n_rx;
  const double s_time = p.find(runtime::Stage_role::fft)->rescale;
  const double s_grid = p.find(runtime::Stage_role::beamform)->rescale;
  const double s_che = p.find(runtime::Stage_role::che)->rescale;
  const double s_est = p.find(runtime::Stage_role::ne)->rescale;
  const double s_rhs = p.find(runtime::Stage_role::gram)->rescale;
  const double ds = s_time / std::sqrt(static_cast<double>(n));
  const bool simd = fixed::simd_available();
  const fixed::Fft_plan& plan = fixed::fft_plan(n);
  Scope top(tr, 0, "fixed.slot", slot);

  // OFDM FFT per (symbol, antenna); beamforming MMM per (symbol, sc) row.
  std::vector<cq15> buf(n), fout(n), bq;
  quantize_into(sc.codebook(), 1.0, bq);
  std::vector<cq15> a(static_cast<size_t>(n) * n_rx);
  std::vector<cq15> c(static_cast<size_t>(n) * n_b);
  common::Ws_grid<phy::cd> beams(cfg.n_symb, static_cast<size_t>(n) * n_b);
  std::vector<std::vector<phy::cd>> freq(n_rx, std::vector<phy::cd>(n));
  for (uint32_t s = 0; s < cfg.n_symb; ++s) {
    for (uint32_t r = 0; r < n_rx; ++r) {
      const auto& x = sc.antenna_time(s, r);
      for (uint32_t i = 0; i < n; ++i) buf[i] = common::to_cq15(x[i] * s_time);
      {
        Scope k(tr, 0, "fixed.fft", slot, top.id());
        fixed::fft_transform(plan, buf.data(), fout.data(), simd);
      }
      for (uint32_t i = 0; i < n; ++i) freq[r][i] = common::to_cd(fout[i]) / ds;
    }
    for (uint32_t scx = 0; scx < n; ++scx) {
      for (uint32_t r = 0; r < n_rx; ++r) {
        a[static_cast<size_t>(scx) * n_rx + r] =
            common::to_cq15(freq[r][scx] * s_grid);
      }
    }
    {
      Scope k(tr, 0, "fixed.mmm", slot, top.id());
      for (uint32_t scx = 0; scx < n; ++scx) {
        fixed::mmm_rows(a.data() + static_cast<size_t>(scx) * n_rx, bq.data(),
                        c.data() + static_cast<size_t>(scx) * n_b, n_rx, n_b,
                        0, 1);
      }
    }
    auto row = beams.row(s);
    for (size_t i = 0; i < row.size(); ++i) row[i] = common::to_cd(c[i]) / s_grid;
  }

  // Channel estimate over every sub-carrier.
  std::vector<std::vector<cq15>> pilots(n_l), y_sep(n_l);
  for (uint32_t l = 0; l < n_l; ++l) {
    quantize_into(sc.pilot(l), 1.0, pilots[l]);
    quantize_into(sc.pilot_obs_beam(l), s_che, y_sep[l]);
  }
  const size_t h_elems = static_cast<size_t>(n) * n_b * n_l;
  std::vector<cq15> h_q(h_elems);
  {
    Scope k(tr, 0, "fixed.che", slot, top.id());
    fixed::che_subcarriers(y_sep, pilots, h_q.data(), n_b, n_l, 0, n, simd);
  }
  std::vector<phy::cd> h_hat(h_elems);
  for (size_t i = 0; i < h_elems; ++i) h_hat[i] = common::to_cd(h_q[i]) / s_che;

  // Noise estimate: one partial per simulated core block.
  std::vector<cq15> y_est, h_est;
  quantize_into(beams.row(0), s_est, y_est);
  quantize_into(h_hat, s_est, h_est);
  uint32_t ne_cores =
      p.find(runtime::Stage_role::ne)->run.params.getu("cores", 0);
  if (ne_cores == 0) ne_cores = p.cluster().n_cores();
  uint32_t raw = 0;
  {
    Scope k(tr, 0, "fixed.ne", slot, top.id());
    for (uint32_t idx = 0; idx < ne_cores; ++idx) {
      const fixed::Sc_block blk = fixed::sc_block(n, ne_cores, idx);
      const int64_t part = fixed::ne_partial(y_est.data(), h_est.data(),
                                             pilots, n_b, n_l, blk.lo, blk.hi);
      raw += static_cast<uint32_t>(
          std::max<int64_t>(0, part >> common::q15_frac_bits));
    }
  }
  const double sigma2_hat =
      static_cast<double>(raw) /
      (static_cast<double>(n) * n_b *
       static_cast<double>(1 << common::q15_frac_bits)) /
      (s_est * s_est);

  // MIMO per data symbol: Gram per sub-carrier, then Cholesky, then solves.
  std::vector<cq15> gh_q, y_q;
  quantize_into(h_hat, 1.0, gh_q);
  const cq15 sigma{common::to_q15(sigma2_hat), 0};
  std::vector<cq15> g(static_cast<size_t>(n) * n_l * n_l);
  std::vector<cq15> rhs(static_cast<size_t>(n) * n_l);
  std::vector<cq15> lm(static_cast<size_t>(n) * n_l * n_l);
  std::vector<cq15> x(static_cast<size_t>(n) * n_l);
  for (uint32_t s = cfg.n_pilot_symb; s < cfg.n_symb; ++s) {
    quantize_into(beams.row(s), s_rhs, y_q);
    {
      Scope k(tr, 0, "fixed.gram", slot, top.id());
      for (uint32_t scx = 0; scx < n; ++scx) {
        fixed::gram_subcarriers(gh_q.data(), y_q.data(), sigma, g.data(),
                                rhs.data(), n_b, n_l, scx, scx + 1);
      }
    }
    {
      Scope k(tr, 0, "fixed.cholesky", slot, top.id());
      for (uint32_t scx = 0; scx < n; ++scx) {
        const size_t o = static_cast<size_t>(scx) * n_l * n_l;
        fixed::cholesky(g.data() + o, lm.data() + o, n_l);
      }
    }
    Scope k(tr, 0, "fixed.trisolve", slot, top.id());
    for (uint32_t scx = 0; scx < n; ++scx) {
      fixed::trisolve(lm.data() + static_cast<size_t>(scx) * n_l * n_l,
                      rhs.data() + static_cast<size_t>(scx) * n_l,
                      x.data() + static_cast<size_t>(scx) * n_l, n_l);
    }
  }
}

pusch::Pusch_dims dims_of(const phy::Uplink_config& cfg) {
  pusch::Pusch_dims d;
  d.n_sc = cfg.n_sc;
  d.fft_size = cfg.fft_size;
  d.n_symb = cfg.n_symb;
  d.n_pilot_symb = cfg.n_pilot_symb;
  d.n_rx = cfg.n_rx;
  d.n_beams = cfg.n_beams;
  d.n_ue = cfg.n_ue;
  return d;
}

// Table I complex MACs per slot for each fixed:: kernel.  Table I lumps the
// MIMO stage into one row, Ndata*NSC*(NL^3/3 + 2NL^2): its NL^3/3 term is
// the Cholesky, its 2NL^2 term the two triangular solves.  It has no Gram
// row; the Gram base is the Ndata*NSC*NB*NL*(NL+1) MACs of the Gramian and
// the matched filter.
std::vector<Kernel_row> kernel_macs(const phy::Uplink_config& cfg) {
  const pusch::Stage_macs m = pusch::pusch_macs(dims_of(cfg));
  const double items = static_cast<double>(cfg.n_symb - cfg.n_pilot_symb) *
                       cfg.fft_size;
  const double nl = cfg.n_ue;
  return {{"fft", m.ofdm},
          {"mmm", m.bf},
          {"che", m.che},
          {"ne", m.ne},
          {"gram", items * cfg.n_beams * nl * (nl + 1.0)},
          {"cholesky", items * nl * nl * nl / 3.0},
          {"trisolve", items * 2.0 * nl * nl}};
}

const char* role_name(runtime::Stage_role r) {
  switch (r) {
    case runtime::Stage_role::fft: return "fft";
    case runtime::Stage_role::beamform: return "beamform";
    case runtime::Stage_role::che: return "che";
    case runtime::Stage_role::ne: return "ne";
    case runtime::Stage_role::gram: return "gram";
    case runtime::Stage_role::mimo_solve: return "mimo_solve";
    default: return "custom";
  }
}

// ---- output --------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void add(std::vector<Metric>& m, const std::string& name, double value,
         const char* unit) {
  m.push_back({name, value, unit});
}

std::string json_line(bool correct, uint64_t attempted, uint64_t failed,
                      const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  char buf[96];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    s += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return s + "}}";
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Host fingerprint: numbers from different hosts are not comparable.
void print_host() {
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  std::printf("host: nproc=%u simd=%s (%s) build=%s llc_kib=%ld\n",
              std::thread::hardware_concurrency(),
              fixed::simd_available() ? "yes" : "no", fixed::simd_isa(),
              PB_BUILD_TYPE, llc > 0 ? llc / 1024 : -1);
}

// Upper-edge sum of a wall-service histogram (each bucket is at most 1/16
// wide, so this overstates the exact sum by at most that share).
double histogram_sum_s(const runtime::Latency_histogram& h) {
  double s = 0.0;
  for (size_t b = 0; b < runtime::Latency_histogram::kBuckets; ++b) {
    s += static_cast<double>(h.bucket_count(b)) *
         runtime::Latency_histogram::bucket_upper_edge(b);
  }
  return s;
}

// ---- the run ----------------------------------------------------------------------

int run(const Options& opt) {
  print_host();
  if (std::string(PB_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 PB_BUILD_TYPE);
    return 3;
  }
  const Workload w = make_workload(opt);
  const Steal_clock steal;
  const uint64_t min_slots = opt.smoke ? 4 : (opt.trace ? 20 : 100);
  Accounting acct;
  Tracer tr(opt.trace, 4);
  Tracer off(false, 1);
  Rig rig{pipeline_of(w), {}, {}};

  // Set-up, repeated in an untraced run; the median is reported.
  const int reps = opt.trace || opt.smoke ? 1 : 3;
  std::vector<double> setup_s;
  for (int r = 0; r < reps; ++r) {
    const double a = now_s();
    set_up(w, rig, r + 1 == reps ? tr : off);
    const double b = now_s();
    setup_s.push_back(steal.net(b - a, a, b));
    acct["warm-up"].attempted += rig.pool.slots.size();
  }

  // Correctness checks on the pre-built slots.
  check_intra(w, rig, opt.inject_mismatch, acct["check"]);
  const Sim_probe probe = probe_sim(w, opt, opt.inject_mismatch, acct["check"]);
  check_scheduler(w, opt.inject_mismatch, acct["check"]);

  // The closed loop, untraced; a traced run then repeats it with spans.
  const double loop_s = opt.seconds * w.loop_share * (opt.trace ? 0.5 : 1.0);
  const Loop_stats loop = closed_loop(w, rig, loop_s, min_slots, off);
  acct["timed"].attempted += loop.slots;
  acct["timed"].failed += loop.failed;
  Loop_stats traced;
  if (opt.trace) {
    traced = closed_loop(w, rig, loop_s, min_slots, tr);
    acct["traced"].attempted += traced.slots;
    acct["traced"].failed += traced.failed;
  }

  // Serve phase: Slot_scheduler::run with in-loop synthesis, repeated on
  // the same jobs; every repetition must reproduce the first exactly.
  Schedule_result res;
  std::vector<double> serve_rate, serve_mbps;
  Phase& sp = acct["serve"];
  const double serve_end =
      now_s() + opt.seconds * (1.0 - w.loop_share) * (opt.trace ? 0.5 : 1.0);
  for (uint32_t r = 0; r < w.serve_reps || now_s() < serve_end; ++r) {
    Schedule_result cur;
    const double a = now_s();
    {
      Scope s(tr, 0, "runtime.serve", r);
      cur = serve(w, w.serve_slots, w.clients);
    }
    const double wall = steal.net(cur.wall_seconds, a, now_s());
    sp.attempted += cur.total_slots;
    uint64_t bits = 0;
    for (const auto& slot : cur.slots) bits += payload_bits(slot);
    serve_rate.push_back(static_cast<double>(cur.total_slots) / wall);
    serve_mbps.push_back(static_cast<double>(bits) / wall / 1e6);
    if (r > 0 && !cur.deterministic_equal(res)) {
      ++sp.failed;
      std::fprintf(stderr, "MISMATCH: serve repetition %u differs\n", r);
    }
    res = std::move(cur);
  }
  // Driver workloads serve the pool's own slots: same outputs expected.
  for (size_t i = 0; w.prefix == 0 && i < res.slots.size(); ++i) {
    if (i < rig.pool.ref.size() && !same_output(res.slots[i], rig.pool.ref[i])) {
      ++sp.failed;
      std::fprintf(stderr, "MISMATCH: served slot %zu vs closed loop\n", i);
    }
  }

  // Output quality of the pool's slots.
  Quality q;
  for (const auto& r : rig.pool.ref) q.add(r);

  std::printf("workload %s seed %llu: %s backend, %u client(s) x %u intra, "
              "pool %u slots, serve %llu jobs\n",
              w.name.c_str(), static_cast<unsigned long long>(opt.seed),
              w.backend.c_str(), w.clients, w.intra,
              static_cast<unsigned>(rig.pool.slots.size()),
              static_cast<unsigned long long>(w.serve_slots));
  for (const auto& p : acct.phases) {
    std::printf("phase %-8s attempted %llu succeeded %llu failed %llu\n",
                p.name.c_str(), static_cast<unsigned long long>(p.attempted),
                static_cast<unsigned long long>(p.attempted - p.failed),
                static_cast<unsigned long long>(p.failed));
  }
  // Failed slots per served block: HARQ-exhausted blocks (a block dropped
  // on every attempt is retransmitted and ends exhausted too) plus every
  // failed correctness check of the run.
  const double failed_rate =
      static_cast<double>(acct.failed() + res.harq_exhausted) /
      static_cast<double>(std::max<uint64_t>(1, w.serve_slots));

  std::vector<Metric> m;
  if (!opt.trace) {
    const Chunked rates = chunked(loop, steal);
    const double p50 = rates.p50_s * 1e3;
    const double p90 = rates.p90_s * 1e3;
    add(m, "slots_per_s", rates.slots_per_s, "1/s");
    add(m, "serve_slots_per_s", median(serve_rate), "1/s");
    // Served payload where the scheduler degrades slots, else received.
    add(m, "payload_mbps",
        w.prefix ? median(serve_mbps) : rates.bits_per_s / 1e6, "Mb/s");
    add(m, "slot_p50_ms", p50, "ms");
    add(m, "slot_p90_ms", p90, "ms");
    add(m, "setup_s", median(setup_s), "s");
    add(m, "peak_rss_mb", peak_rss_mb(), "MB");
    add(m, "ber", q.ber(), "ratio");
    add(m, "evm", q.evm(), "ratio");
    std::printf("timed: %llu slots in %.3f s, cut into %zu chunks; "
                "slots_per_s, slot_p50_ms and slot_p90_ms are medians over "
                "the chunks (whole-run p50 %.4f ms, p90 %.4f ms)\n",
                static_cast<unsigned long long>(loop.slots), loop.wall_s,
                rates.chunks, percentile(loop.slot_s, 0.5) * 1e3,
                percentile(loop.slot_s, 0.9) * 1e3);
    std::printf("serve_slots_per_s: median of %zu runs; setup_s: median of "
                "%d\n",
                serve_rate.size(), reps);
    if (steal.available()) {
      std::printf("hypervisor steal: %.2f%% of busy vCPU time in the timed "
                  "phase; reported times are net of steal\n",
                  100.0 * steal.stolen_share(loop.start_s,
                                             loop.start_s + loop.wall_s));
    } else {
      std::printf("hypervisor steal: unknown (no /proc/stat); times are raw\n");
    }
  } else {
    // Per-layer timing of the public functions on a few pool slots.
    const uint32_t n_meas = static_cast<uint32_t>(
        std::min<size_t>(rig.pool.slots.size(), opt.smoke ? 1 : 4));
    std::vector<double> t1, t4, tfixed1;
    {
      auto be1 = runtime::make_backend(w.intra_backend, 1);
      auto be4 = runtime::make_backend(w.intra_backend, 4);
      auto fx1 = runtime::make_backend("fixed", 1);
      Slot_result out;
      for (int rep = 0; rep < 2; ++rep) {  // rep 0 grows the workspaces
        for (uint32_t i = 0; i < n_meas; ++i) {
          const Scenario& sc = *rig.pool.slots[i];
          double a = now_s();
          rig.pipeline.execute_into(sc, *be1, out);
          const double d1 = now_s() - a;
          a = now_s();
          rig.pipeline.execute_into(sc, *be4, out);
          const double d4 = now_s() - a;
          double df = d1;
          if (w.intra_backend != "fixed") {
            a = now_s();
            rig.pipeline.execute_into(sc, *fx1, out);
            df = now_s() - a;
          }
          if (rep == 1) {
            t1.push_back(d1);
            t4.push_back(d4);
            tfixed1.push_back(df);
          }
        }
      }
    }
    for (uint32_t i = 0; i < n_meas; ++i) {
      time_phy(*rig.pool.slots[i], tr, i);
      time_fixed(rig.pipeline, *rig.pool.slots[i], tr, i);
    }
    const auto self = tr.self_times();
    auto per_slot_ms = [&](const char* name, double slots) {
      const auto it = self.find(name);
      return it == self.end() || slots <= 0 ? 0.0
                                            : it->second.self_s / slots * 1e3;
    };
    const double tslots = static_cast<double>(traced.slots);
    add(m, "runtime.front_ms", per_slot_ms("runtime.front", tslots), "ms");
    add(m, "runtime.back_ms", per_slot_ms("runtime.back", tslots), "ms");
    const double untraced_rate = chunked(loop, steal).slots_per_s;
    const double traced_rate = chunked(traced, steal).slots_per_s;
    add(m, "runtime.intra_speedup", median(t1) / median(t4), "x");
    size_t ws = 0;
    for (const auto& be : rig.backends) ws += be->workspace_bytes();
    add(m, "runtime.workspace_kib", static_cast<double>(ws) / 1024.0, "KiB");
    add(m, "runtime.exec_share",
        histogram_sum_s(res.wall_service) / (res.workers * res.wall_seconds),
        "ratio");
    add(m, "runtime.harq_retx", static_cast<double>(res.harq_retx), "count");
    add(m, "runtime.harq_recovered", static_cast<double>(res.harq_recovered),
        "count");
    add(m, "runtime.harq_useful",
        res.harq_retx ? static_cast<double>(res.harq_recovered) / res.harq_retx
                      : 0.0,
        "ratio");
    add(m, "runtime.admitted", static_cast<double>(res.admitted), "count");
    add(m, "runtime.degraded", static_cast<double>(res.degraded), "count");
    add(m, "runtime.dropped", static_cast<double>(res.dropped), "count");
    add(m, "phy.synth_ms", median(rig.pool.synth_s) * 1e3, "ms");
    for (const char* k : {"front", "che", "ne", "mimo"}) {
      add(m, std::string("phy.") + k + "_ms",
          per_slot_ms(("phy." + std::string(k)).c_str(), n_meas), "ms");
    }
    // Kernel MAC bases: mean over the measured slots' shapes.
    std::vector<Kernel_row> macs = kernel_macs(rig.pool.slots[0]->config());
    double slot_macs = 0.0;
    for (auto& k : macs) k.macs = 0.0;
    for (uint32_t i = 0; i < n_meas; ++i) {
      const auto& cfg = rig.pool.slots[i]->config();
      const auto km = kernel_macs(cfg);
      for (size_t j = 0; j < macs.size(); ++j) macs[j].macs += km[j].macs / n_meas;
      slot_macs += pusch::pusch_macs(dims_of(cfg)).total() / n_meas;
    }
    double kernels_ms = 0.0;
    for (const auto& k : macs) {
      const double ms = per_slot_ms(("fixed." + std::string(k.key)).c_str(),
                                    n_meas);
      kernels_ms += ms;
      add(m, std::string("fixed.") + k.key + "_ms", ms, "ms");
      add(m, std::string("fixed.") + k.key + "_macs_per_ns",
          ms > 0 ? k.macs / (ms * 1e6) : 0.0, "MAC/ns");
    }
    add(m, "fixed.residual_ms", median(tfixed1) * 1e3 - kernels_ms, "ms");

    // Simulated cluster counters of the probe slots: deterministic.
    const runtime::Pipeline sim_p =
        runtime::uplink_pipeline(arch::Cluster_config::terapool());
    const double n_sim = static_cast<double>(probe.sim.size());
    double sim_cycles = 0.0, sim_host_s = 0.0;
    for (size_t i = 0; i < probe.sim.size(); ++i) {
      sim_cycles += static_cast<double>(probe.sim[i].total_cycles());
      sim_host_s += probe.host_s[i];
    }
    for (size_t si = 0; si < sim_p.stages().size(); ++si) {
      const std::string role = role_name(sim_p.stages()[si].role);
      double cycles = 0, instrs = 0, raw = 0, lsu = 0, wfi = 0, stall = 0;
      for (const auto& r : probe.sim) {
        const auto& st = r.stages[si];
        cycles += static_cast<double>(st.cycles);
        instrs += static_cast<double>(st.instrs);
        raw += static_cast<double>(st.stall[static_cast<size_t>(sim::Stall::raw)]);
        lsu += static_cast<double>(st.stall[static_cast<size_t>(sim::Stall::lsu)]);
        wfi += static_cast<double>(st.stall[static_cast<size_t>(sim::Stall::wfi)]);
        for (const auto v : st.stall) stall += static_cast<double>(v);
      }
      // Every core-cycle of a stage is an issued instruction or one stall.
      const double core_cycles = instrs + stall;
      auto share = [&](double v) {
        return core_cycles > 0 ? 100.0 * v / core_cycles : 0.0;
      };
      add(m, "sim." + role + ".cycles", n_sim > 0 ? cycles / n_sim : 0.0,
          "cycles");
      add(m, "sim." + role + ".ipc",
          core_cycles > 0 ? instrs / core_cycles : 0.0, "instr/cycle");
      add(m, "sim." + role + ".stall_raw", share(raw), "%");
      add(m, "sim." + role + ".stall_lsu", share(lsu), "%");
      add(m, "sim." + role + ".stall_wfi", share(wfi), "%");
    }
    add(m, "sim.mcycles_per_host_s",
        sim_host_s > 0 ? sim_cycles / sim_host_s / 1e6 : 0.0, "Mcycle/s");
    add(m, "pusch.macs_per_slot", slot_macs, "MAC");
    add(m, "failed_rate", failed_rate, "ratio");
    add(m, "deadline_miss_rate", res.miss_rate(), "ratio");
    add(m, "sim_cycles_per_slot", n_sim > 0 ? sim_cycles / n_sim : 0.0,
        "cycles");
    add(m, "trace.overhead_pct", (untraced_rate / traced_rate - 1.0) * 100.0,
        "%");
    std::printf("tracing overhead: %.4f traced vs %.4f untraced slots/s\n",
                traced_rate, untraced_rate);
    if (!opt.trace_out.empty()) {
      if (!tr.write_json(opt.trace_out)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     opt.trace_out.c_str());
        return 1;
      }
      std::printf("spans written to %s\n", opt.trace_out.c_str());
    }
  }
  if (w.prefix) std::printf("%s", res.str().c_str());
  std::printf("serve: %llu jobs in %.4f s, admitted %llu degraded %llu "
              "dropped %llu, HARQ retx %llu recovered %llu exhausted %llu, "
              "deadline misses %llu of %llu\n",
              static_cast<unsigned long long>(res.total_slots),
              res.wall_seconds, static_cast<unsigned long long>(res.admitted),
              static_cast<unsigned long long>(res.degraded),
              static_cast<unsigned long long>(res.dropped),
              static_cast<unsigned long long>(res.harq_retx),
              static_cast<unsigned long long>(res.harq_recovered),
              static_cast<unsigned long long>(res.harq_exhausted),
              static_cast<unsigned long long>(res.deadline_misses),
              static_cast<unsigned long long>(res.deadline_slots));
  std::printf("failed_rate %.6g (%llu check failures + %llu HARQ-exhausted "
              "blocks over %llu served blocks)\n",
              failed_rate, static_cast<unsigned long long>(acct.failed()),
              static_cast<unsigned long long>(res.harq_exhausted),
              static_cast<unsigned long long>(w.serve_slots));

  const bool correct = acct.failed() == 0;
  std::printf("%s\n", json_line(correct, acct.attempted(), acct.failed(), m).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse(argc, argv));
}
