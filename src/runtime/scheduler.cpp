#include "runtime/scheduler.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include <algorithm>

#include "common/check.h"
#include "common/table.h"
#include "pusch/complexity.h"
#include "runtime/admission.h"
#include "runtime/backend.h"
#include "runtime/harq.h"
#include "runtime/placement.h"

namespace pp::runtime {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

double analytic_service_seconds(const phy::Uplink_config& cfg,
                                const arch::Cluster_config& cluster,
                                double clock_ghz) {
  PP_CHECK(clock_ghz > 0.0, "service model needs a positive clock");
  pusch::Pusch_dims d;
  d.n_sc = cfg.n_sc;
  d.fft_size = cfg.fft_size;
  d.n_symb = cfg.n_symb;
  d.n_pilot_symb = cfg.n_pilot_symb;
  d.n_rx = cfg.n_rx;
  d.n_beams = cfg.n_beams;
  d.n_ue = cfg.n_ue;
  const double cycles = pusch::pusch_macs(d).total() / cluster.n_cores();
  return cycles / (clock_ghz * 1e9);
}

Slot_scheduler::Slot_scheduler(Scheduler_options opt) : opt_(std::move(opt)) {}

Schedule_result Slot_scheduler::run(const Slot_source& src) const {
  const uint64_t n_initial = src.n_slots();
  const uint32_t n_shards = std::max(1u, opt_.shards);
  const uint32_t service_units = std::max(1u, opt_.service_units);
  PP_CHECK(!(opt_.virtual_only && opt_.max_harq > 0),
           "HARQ retransmission verdicts need executed decodes; "
           "virtual-only runs cannot close the loop");

  const Pipeline pipeline = uplink_pipeline(opt_.cluster, opt_.uplink);

  // Probe the backend once for cycle accuracy (cheap: intra = 1 spawns no
  // pool threads).
  const bool cycle_accurate =
      make_backend(opt_.backend, 1)->cycle_accurate() && !opt_.virtual_only &&
      !opt_.analytic_service;

  // ---- serial pre-pass: resolve, place, admit --------------------------
  // job(i) is pure and cheap (the expensive scenario construction stays in
  // the workers), so resolving the whole stream serially keeps the
  // placement and admission decisions trivially host-independent.
  std::vector<Slot_job> jobs(n_initial);
  for (uint64_t i = 0; i < n_initial; ++i) jobs[i] = src.job(i);
  // HARQ bookkeeping: which original slot each job serves and its attempt
  // number.  The exogenous stream is its own parent at attempt 0;
  // retransmission jobs appended by the HARQ loop extend these in step
  // with `jobs`.
  std::vector<uint64_t> parent(n_initial);
  std::vector<uint32_t> attempt(n_initial, 0);
  for (uint64_t i = 0; i < n_initial; ++i) parent[i] = i;

  // Placement sees the exogenous stream only - retransmissions inherit
  // their parent's group and therefore its shard, so closing the HARQ loop
  // never migrates a cell.
  const std::vector<uint32_t> shard_of_group = place_groups(
      opt_.placement,
      opt_.placement == "load-aware"
          ? group_service_seconds(jobs, src.n_groups(), opt_.cluster,
                                  opt_.clock_ghz)
          : std::vector<double>(),
      src.n_groups(), n_shards);

  Admission_options aopt;
  aopt.policy = overload_from_name(opt_.overload);
  aopt.queue_limit = opt_.queue_limit;
  aopt.min_ue = opt_.degrade_min_ue;
  std::vector<Admission_verdict> verdicts =
      admit_jobs(jobs, shard_of_group, n_shards, service_units, opt_.cluster,
                 opt_.clock_ghz, aopt);

  // Full per-slot results are retained only when someone consumes them:
  // the caller (keep_slots) or the HARQ combiner (max_harq > 0).  Otherwise
  // the serving loop runs in summary mode - each worker equalizes into one
  // private reusable Slot_result and records only the per-slot scalars the
  // aggregation below needs, so the steady state allocates nothing.
  const bool retain = opt_.keep_slots || opt_.max_harq > 0;
  struct Slot_stats {
    double evm = 0.0;
    double ber = 0.0;
    double sigma2_hat = 0.0;
    uint64_t cycles = 0;
  };
  std::vector<Slot_result> slots(retain ? jobs.size() : 0);
  std::vector<Slot_stats> stats(jobs.size());
  std::vector<double> wall_service(jobs.size(), 0.0);
  double wall_seconds = 0.0;
  uint32_t workers_used = 0;

  // Per-worker state persists across HARQ rounds: the backends (and the
  // slot workspaces they grew on round 0) and the summary-mode result
  // scratch.
  std::vector<std::unique_ptr<Backend>> backends;
  std::vector<Slot_result> scratch;

  // Execute jobs[first..jobs.size()) that survived admission - the whole
  // initial stream on round 0, each round's retransmissions afterwards.
  //
  // Workers pull positions in the admitted stream from the cursor and write
  // results into their own pre-sized element - no locks, no shared mutable
  // kernel state (each worker owns a private Backend; the lazily-built
  // twiddle / QAM tables are call_once-guarded and immutable afterwards).
  // Scenarios come from the admission verdict's final config, so a degraded
  // slot executes its re-planned layer count.
  auto execute_batch = [&](uint64_t first) {
    // Compact execution stream: dropped jobs are shed before any backend
    // sees them - that is the point of admission control.
    std::vector<uint64_t> exec;
    exec.reserve(jobs.size() - first);
    for (uint64_t i = first; i < jobs.size(); ++i) {
      if (verdicts[i].outcome != Admission_verdict::Outcome::dropped) {
        exec.push_back(i);
      }
    }

    uint32_t workers = opt_.workers;
    if (workers == 0) {
      workers = std::max(1u, std::thread::hardware_concurrency());
    }
    if (workers > exec.size()) {
      workers = static_cast<uint32_t>(std::max<size_t>(exec.size(), 1));
    }
    if (workers_used == 0) workers_used = workers;
    std::atomic<uint64_t> cursor{0};

    // Grow the persistent per-worker state (never shrink: a later HARQ
    // round with fewer jobs still reuses the backends round 0 built).
    if (scratch.size() < workers) scratch.resize(workers);
    if (backends.size() < workers) backends.resize(workers);

    // Each worker runs whole slots on its private backend.
    auto work = [&](uint32_t w) {
      if (!backends[w]) backends[w] = make_backend(opt_.backend, opt_.intra);
      Backend& backend = *backends[w];
      for (;;) {
        const uint64_t p = cursor.fetch_add(1, std::memory_order_relaxed);
        if (p >= exec.size()) break;
        const uint64_t i = exec[p];
        const phy::Uplink_scenario sc(verdicts[i].cfg);
        const auto t0 = Clock::now();
        Slot_result& dst = retain ? slots[i] : scratch[w];
        pipeline.execute_into(sc, backend, dst);
        wall_service[i] = seconds_since(t0);
        stats[i] = {dst.evm, dst.ber, dst.sigma2_hat, dst.total_cycles()};
      }
    };

    const auto t0 = Clock::now();
    if (!exec.empty() && !opt_.virtual_only) {
      if (workers <= 1) {
        work(0);
      } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (uint32_t w = 0; w < workers; ++w) {
          pool.emplace_back([&, w] { work(w); });
        }
        for (auto& t : pool) t.join();
      }
    }
    wall_seconds += seconds_since(t0);
  };

  execute_batch(0);

  // ---- HARQ retransmission loop ----------------------------------------
  // After each round a serial pass in stream order folds every executed
  // attempt into its block's chase combiner, records the verdict, and
  // queues a retransmission for each block still above the BER threshold
  // with attempts left.  A block whose attempt was dropped by admission
  // gets no decode this round - NACK-on-silence: it is retransmitted all
  // the same.  Everything here runs on the serial thread over data already
  // merged in index order, so the schedule and verdict stream are pure
  // functions of the per-slot results.
  std::vector<Harq_combiner> blocks;
  std::vector<uint32_t> spawned;
  std::vector<Schedule_result::Harq_entry> harq_log;
  if (opt_.max_harq > 0) {
    blocks.resize(n_initial);
    spawned.assign(n_initial, 0);
    uint64_t round_begin = 0;
    for (;;) {
      const uint64_t round_end = jobs.size();
      struct Pending {
        Slot_job job;
        uint64_t parent = 0;
        uint32_t attempt = 0;
      };
      std::vector<Pending> next;
      next.reserve(round_end - round_begin);
      harq_log.reserve(harq_log.size() + (round_end - round_begin));
      for (uint64_t i = round_begin; i < round_end; ++i) {
        const uint64_t p = parent[i];
        Harq_combiner& blk = blocks[p];
        if (verdicts[i].outcome != Admission_verdict::Outcome::dropped) {
          blk.absorb(verdicts[i].cfg, slots[i]);
        }
        const bool passed = blk.decoded() && blk.best_ber() <= opt_.harq_ber;
        harq_log.push_back(
            {p, attempt[i], blk.decoded() ? blk.best_ber() : 1.0, passed});
        if (!passed && spawned[p] < opt_.max_harq) {
          ++spawned[p];
          Pending r;
          r.job = jobs[p];
          // Same transport block under a fresh fade (phy::kHarqStream),
          // arriving one deadline budget per attempt after the original
          // (batch jobs have no budget and re-arrive immediately).
          r.job.cfg.harq_attempt = spawned[p];
          r.job.arrival_s = jobs[p].arrival_s + spawned[p] * jobs[p].budget_s;
          r.parent = p;
          r.attempt = spawned[p];
          next.push_back(std::move(r));
        }
      }
      if (next.empty()) break;
      // Retransmissions enter the stream in (arrival, parent) order, so a
      // round is itself a valid job stream (non-decreasing arrivals) and
      // its order is a pure function of the verdicts above.
      std::sort(next.begin(), next.end(),
                [](const Pending& a, const Pending& b) {
                  if (a.job.arrival_s != b.job.arrival_s) {
                    return a.job.arrival_s < b.job.arrival_s;
                  }
                  return a.parent < b.parent;
                });
      const uint64_t first = jobs.size();
      for (size_t k = 0; k < next.size(); ++k) {
        next[k].job.index = first + k;
        jobs.push_back(next[k].job);
        parent.push_back(next[k].parent);
        attempt.push_back(next[k].attempt);
      }
      // Admit the round by re-running the predictor chronologically over
      // the whole stream so far: earlier rounds' verdicts are replayed
      // (occupancy only - decisions are final) and this round's
      // retransmissions decided interleaved at their true arrivals, so a
      // retransmission contends with exactly the load present around its
      // arrival instead of a clock the earlier pass left at end-of-stream.
      verdicts.resize(jobs.size());
      std::vector<uint64_t> order(jobs.size());
      for (uint64_t i = 0; i < jobs.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(), [&](uint64_t a, uint64_t b) {
        if (jobs[a].arrival_s != jobs[b].arrival_s) {
          return jobs[a].arrival_s < jobs[b].arrival_s;
        }
        return a < b;
      });
      Admission_state astate(n_shards, service_units);
      for (const uint64_t i : order) {
        if (i < first) {
          replay_one(jobs[i], verdicts[i], opt_.cluster, opt_.clock_ghz,
                     astate);
        } else {
          verdicts[i] = admit_one(jobs[i], shard_of_group[jobs[i].group],
                                  opt_.cluster, opt_.clock_ghz, aopt, astate);
        }
      }
      slots.resize(jobs.size());
      stats.resize(jobs.size());
      wall_service.resize(jobs.size(), 0.0);
      execute_batch(first);
      round_begin = first;
    }
  }
  const uint64_t n_jobs = jobs.size();

  // ---- deterministic virtual-time deadline accounting ------------------
  // Service times: simulated cycles at the virtual clock when the backend
  // reports them, the analytic MAC model otherwise; both are pure functions
  // of the executed slot configuration.  Each shard drains its admitted
  // jobs through its own FCFS queue over `service_units` virtual clusters,
  // independent of host scheduling and of the other shards.  With HARQ on,
  // a shard's jobs arrive over several rounds, so each queue re-sorts by
  // (arrival, stream index) - the identity permutation when max_harq = 0,
  // where arrivals are already non-decreasing in the index.
  std::vector<std::vector<uint64_t>> shard_jobs(n_shards);
  {
    std::vector<uint64_t> per_shard(n_shards, 0);
    for (uint64_t i = 0; i < n_jobs; ++i) {
      if (verdicts[i].outcome != Admission_verdict::Outcome::dropped) {
        ++per_shard[verdicts[i].shard];
      }
    }
    for (uint32_t s = 0; s < n_shards; ++s) {
      shard_jobs[s].reserve(per_shard[s]);
    }
  }
  for (uint64_t i = 0; i < n_jobs; ++i) {
    if (verdicts[i].outcome != Admission_verdict::Outcome::dropped) {
      shard_jobs[verdicts[i].shard].push_back(i);
    }
  }
  std::vector<double> completion_s(n_jobs, 0.0);
  for (uint32_t s = 0; s < n_shards; ++s) {
    std::vector<uint64_t>& idx = shard_jobs[s];
    std::sort(idx.begin(), idx.end(), [&](uint64_t a, uint64_t b) {
      if (jobs[a].arrival_s != jobs[b].arrival_s) {
        return jobs[a].arrival_s < jobs[b].arrival_s;
      }
      return a < b;
    });
    std::vector<double> arrival(idx.size()), service(idx.size());
    for (size_t k = 0; k < idx.size(); ++k) {
      const uint64_t i = idx[k];
      arrival[k] = jobs[i].arrival_s;
      service[k] = cycle_accurate
                       ? static_cast<double>(stats[i].cycles) /
                             (opt_.clock_ghz * 1e9)
                       : analytic_service_seconds(verdicts[i].cfg,
                                                  opt_.cluster, opt_.clock_ghz);
    }
    const std::vector<double> comp =
        fcfs_completion(arrival, service, service_units);
    for (size_t k = 0; k < comp.size(); ++k) completion_s[idx[k]] = comp[k];
  }

  // ---- aggregation, strictly in slot-index order -----------------------
  Schedule_result out;
  out.source = src.name();
  out.backend = opt_.backend;
  out.placement = opt_.placement;
  out.overload = opt_.overload;
  out.workers = workers_used;
  out.total_slots = n_jobs;
  out.wall_seconds = wall_seconds;
  out.shards.resize(n_shards);

  out.groups.resize(src.n_groups());
  for (uint32_t g = 0; g < src.n_groups(); ++g) {
    out.groups[g].label = src.group_label(g);
    out.groups[g].shard = shard_of_group[g];
    ++out.shards[shard_of_group[g]].groups;
  }
  std::vector<double> group_evm2(out.groups.size(), 0.0);
  std::vector<double> group_ber(out.groups.size(), 0.0);
  std::vector<double> group_sigma2(out.groups.size(), 0.0);
  for (uint64_t i = 0; i < n_jobs; ++i) {
    const Slot_job& job = jobs[i];
    const Admission_verdict& v = verdicts[i];
    PP_CHECK(job.group < out.groups.size(), "slot job group out of range");
    auto& grp = out.groups[job.group];
    auto& shard = out.shards[v.shard];
    ++grp.slots;
    ++shard.slots;
    if (attempt[i] > 0) {
      // A retransmission job, admitted or not, is offered load the HARQ
      // loop generated.
      ++grp.harq_retx;
      ++shard.harq_retx;
      ++out.harq_retx;
    }
    if (v.outcome == Admission_verdict::Outcome::dropped) {
      ++grp.dropped;
      ++shard.dropped;
      ++out.dropped;
      continue;
    }
    ++grp.admitted;
    ++shard.admitted;
    ++out.admitted;
    if (v.outcome == Admission_verdict::Outcome::degraded) {
      ++grp.degraded;
      ++shard.degraded;
      ++out.degraded;
    }
    const Slot_stats& s = stats[i];
    group_evm2[job.group] += s.evm * s.evm;
    group_ber[job.group] += s.ber;
    group_sigma2[job.group] += s.sigma2_hat;
    grp.cycles += s.cycles;
    out.total_cycles += s.cycles;

    const double latency = completion_s[i] - job.arrival_s;
    grp.latency.record(latency);
    shard.latency.record(latency);
    if (!opt_.virtual_only) out.wall_service.record(wall_service[i]);
    out.virtual_makespan_s = std::max(out.virtual_makespan_s, completion_s[i]);
    if (job.budget_s > 0.0) {
      ++out.deadline_slots;
      ++grp.deadline_slots;
      ++shard.deadline_slots;
      if (latency > job.budget_s) {
        ++out.deadline_misses;
        ++grp.deadline_misses;
        ++shard.deadline_misses;
      }
    }
  }
  // Global latency = exact bucket-wise merge of the shard histograms, in
  // shard order (merging is commutative, so the order is cosmetic).
  for (const auto& shard : out.shards) out.latency.merge(shard.latency);
  for (size_t g = 0; g < out.groups.size(); ++g) {
    auto& grp = out.groups[g];
    if (grp.admitted > 0) {
      grp.evm = std::sqrt(group_evm2[g] / grp.admitted);
      grp.ber = group_ber[g] / grp.admitted;
      grp.sigma2_hat = group_sigma2[g] / grp.admitted;
    }
  }
  if (opt_.max_harq > 0) {
    // Per-block HARQ outcome, in original slot order: a block that ever
    // retransmitted either recovered (finally passed the threshold) or
    // exhausted its attempts still failing.  Blocks that passed on the
    // initial transmission never retransmitted and count as neither.
    for (uint64_t p = 0; p < n_initial; ++p) {
      if (spawned[p] == 0) continue;
      const bool passed =
          blocks[p].decoded() && blocks[p].best_ber() <= opt_.harq_ber;
      auto& grp = out.groups[jobs[p].group];
      auto& shard = out.shards[verdicts[p].shard];
      if (passed) {
        ++grp.harq_recovered;
        ++shard.harq_recovered;
        ++out.harq_recovered;
      } else {
        ++grp.harq_exhausted;
        ++shard.harq_exhausted;
        ++out.harq_exhausted;
      }
    }
  }
  out.harq = std::move(harq_log);
  if (opt_.keep_slots) out.slots = std::move(slots);
  return out;
}

bool Schedule_result::deterministic_equal(const Schedule_result& o) const {
  if (groups.size() != o.groups.size()) return false;
  for (size_t g = 0; g < groups.size(); ++g) {
    const Group& a = groups[g];
    const Group& b = o.groups[g];
    if (a.label != b.label || a.shard != b.shard || a.slots != b.slots ||
        a.evm != b.evm || a.ber != b.ber || a.sigma2_hat != b.sigma2_hat ||
        a.cycles != b.cycles || a.admitted != b.admitted ||
        a.dropped != b.dropped || a.degraded != b.degraded ||
        a.deadline_slots != b.deadline_slots ||
        a.deadline_misses != b.deadline_misses ||
        a.harq_retx != b.harq_retx || a.harq_recovered != b.harq_recovered ||
        a.harq_exhausted != b.harq_exhausted || !(a.latency == b.latency)) {
      return false;
    }
  }
  if (shards.size() != o.shards.size()) return false;
  for (size_t s = 0; s < shards.size(); ++s) {
    const Shard& a = shards[s];
    const Shard& b = o.shards[s];
    if (a.groups != b.groups || a.slots != b.slots ||
        a.admitted != b.admitted || a.dropped != b.dropped ||
        a.degraded != b.degraded || a.deadline_slots != b.deadline_slots ||
        a.deadline_misses != b.deadline_misses ||
        a.harq_retx != b.harq_retx || a.harq_recovered != b.harq_recovered ||
        a.harq_exhausted != b.harq_exhausted || !(a.latency == b.latency)) {
      return false;
    }
  }
  return latency == o.latency && harq == o.harq && admitted == o.admitted &&
         dropped == o.dropped && degraded == o.degraded &&
         deadline_slots == o.deadline_slots &&
         deadline_misses == o.deadline_misses &&
         harq_retx == o.harq_retx && harq_recovered == o.harq_recovered &&
         harq_exhausted == o.harq_exhausted &&
         virtual_makespan_s == o.virtual_makespan_s &&
         total_slots == o.total_slots && total_cycles == o.total_cycles;
}

bool Schedule_result::scenario_equal(const Schedule_result& o) const {
  if (groups.size() != o.groups.size()) return false;
  for (size_t g = 0; g < groups.size(); ++g) {
    const Group& a = groups[g];
    const Group& b = o.groups[g];
    // No evm / sigma2_hat / cycles: those legitimately differ between
    // arithmetic families; BER and everything scheduled from it must not.
    if (a.label != b.label || a.shard != b.shard || a.slots != b.slots ||
        a.ber != b.ber || a.admitted != b.admitted ||
        a.dropped != b.dropped || a.degraded != b.degraded ||
        a.deadline_slots != b.deadline_slots ||
        a.deadline_misses != b.deadline_misses ||
        a.harq_retx != b.harq_retx || a.harq_recovered != b.harq_recovered ||
        a.harq_exhausted != b.harq_exhausted || !(a.latency == b.latency)) {
      return false;
    }
  }
  if (shards.size() != o.shards.size()) return false;
  for (size_t s = 0; s < shards.size(); ++s) {
    const Shard& a = shards[s];
    const Shard& b = o.shards[s];
    if (a.groups != b.groups || a.slots != b.slots ||
        a.admitted != b.admitted || a.dropped != b.dropped ||
        a.degraded != b.degraded || a.deadline_slots != b.deadline_slots ||
        a.deadline_misses != b.deadline_misses ||
        a.harq_retx != b.harq_retx || a.harq_recovered != b.harq_recovered ||
        a.harq_exhausted != b.harq_exhausted || !(a.latency == b.latency)) {
      return false;
    }
  }
  return latency == o.latency && harq == o.harq && admitted == o.admitted &&
         dropped == o.dropped && degraded == o.degraded &&
         deadline_slots == o.deadline_slots &&
         deadline_misses == o.deadline_misses &&
         harq_retx == o.harq_retx && harq_recovered == o.harq_recovered &&
         harq_exhausted == o.harq_exhausted &&
         virtual_makespan_s == o.virtual_makespan_s &&
         total_slots == o.total_slots;
}

std::string Schedule_result::str() const {
  const bool serving = shards.size() > 1 || overload != "off";
  common::Table t({"group", "shard", "slots", "adm/dr/dg", "EVM %", "BER",
                   "sigma2^", "cycles", "miss/dl", "p50 us", "p99 us"});
  for (const auto& g : groups) {
    t.add_row({g.label,
               common::Table::fmt(static_cast<uint64_t>(g.shard)),
               common::Table::fmt(static_cast<uint64_t>(g.slots)),
               common::Table::fmt(g.admitted) + "/" +
                   common::Table::fmt(g.dropped) + "/" +
                   common::Table::fmt(g.degraded),
               common::Table::fmt(100.0 * g.evm, 2),
               common::Table::fmt(g.ber, 5),
               common::Table::fmt(g.sigma2_hat, 8),
               common::Table::fmt(g.cycles),
               common::Table::fmt(g.deadline_misses) + "/" +
                   common::Table::fmt(g.deadline_slots),
               common::Table::fmt(1e6 * g.latency.percentile(0.50), 2),
               common::Table::fmt(1e6 * g.latency.percentile(0.99), 2)});
  }
  std::string shard_table;
  if (shards.size() > 1) {
    common::Table st({"shard", "groups", "slots", "adm/dr/dg", "miss/dl",
                      "p50 us", "p99 us"});
    for (size_t s = 0; s < shards.size(); ++s) {
      const Shard& sh = shards[s];
      st.add_row({common::Table::fmt(static_cast<uint64_t>(s)),
                  common::Table::fmt(static_cast<uint64_t>(sh.groups)),
                  common::Table::fmt(sh.slots),
                  common::Table::fmt(sh.admitted) + "/" +
                      common::Table::fmt(sh.dropped) + "/" +
                      common::Table::fmt(sh.degraded),
                  common::Table::fmt(sh.deadline_misses) + "/" +
                      common::Table::fmt(sh.deadline_slots),
                  common::Table::fmt(1e6 * sh.latency.percentile(0.50), 2),
                  common::Table::fmt(1e6 * sh.latency.percentile(0.99), 2)});
    }
    shard_table = st.str();
  }
  char footer[448];
  std::snprintf(
      footer, sizeof footer,
      "%llu slots from '%s' on the %s backend, %u worker%s: %.3f s wall, "
      "%.1f slots/s\nvirtual clock: makespan %.3f ms, latency p50/p99/p999 "
      "%.1f/%.1f/%.1f us, %llu/%llu deadline misses\n",
      static_cast<unsigned long long>(total_slots), source.c_str(),
      backend.c_str(), workers, workers == 1 ? "" : "s", wall_seconds,
      slots_per_second(),
      1e3 * virtual_makespan_s, 1e6 * latency.percentile(0.50),
      1e6 * latency.percentile(0.99), 1e6 * latency.percentile(0.999),
      static_cast<unsigned long long>(deadline_misses),
      static_cast<unsigned long long>(deadline_slots));
  std::string serving_line;
  if (serving) {
    char line[224];
    std::snprintf(
        line, sizeof line,
        "serving: %zu shard%s, placement %s, overload %s: "
        "%llu admitted, %llu dropped, %llu degraded\n",
        shards.size(), shards.size() == 1 ? "" : "s", placement.c_str(),
        overload.c_str(), static_cast<unsigned long long>(admitted),
        static_cast<unsigned long long>(dropped),
        static_cast<unsigned long long>(degraded));
    serving_line = line;
  }
  std::string harq_line;
  if (!harq.empty()) {
    char line[160];
    std::snprintf(line, sizeof line,
                  "harq: %llu retransmissions, %llu recovered, "
                  "%llu exhausted\n",
                  static_cast<unsigned long long>(harq_retx),
                  static_cast<unsigned long long>(harq_recovered),
                  static_cast<unsigned long long>(harq_exhausted));
    harq_line = line;
  }
  return t.str() + shard_table + footer + serving_line + harq_line;
}

}  // namespace pp::runtime
