// Streaming slot scheduler: deadline-aware execution of slot jobs from
// pluggable sources.
//
// The one engine for batch sweeps and streaming serving alike: it pulls
// slot jobs from a Slot_source and runs them on per-worker backends.
//
//   Slot_source       pure-function job stream: job(i) depends only on the
//                     source's configuration and the index i, and arrival
//                     times are non-decreasing in i.  Grid_source (sweep.h)
//                     adapts the batch scenario grid; Traffic_source
//                     (traffic.h) generates stochastic multi-cell uplink
//                     traffic with Poisson arrivals.
//   Slot_scheduler    a worker pool pulling job indices from an atomic
//                     cursor: each worker is one thread running whole slots
//                     on its private Backend, one after another.  The two
//                     host-parallel levels are these slot workers
//                     (`workers`) and the intra-slot workers inside each
//                     "parallel" / "fixed" backend (`intra`), the knob that
//                     cuts single-slot latency.
//   sharding          the serving engine runs as `shards` scheduler shards,
//                     each owning one virtual cluster's worth of service
//                     units and its own FCFS virtual-clock queue.  Source
//                     groups (cells) are placed onto shards by a pluggable
//                     policy (placement.h: round-robin, load-aware), and an
//                     admission/overload controller (admission.h: off /
//                     drop / queue / degrade) decides every job before
//                     anything executes.  One shard with the policy off is
//                     exactly the pre-sharding engine, bit for bit.
//   deadline account  per-slot latency through a deterministic virtual-time
//                     model: seeded arrivals from the source, service times
//                     from simulated cycles (cycle-accurate backends) or
//                     the paper's MAC-complexity model (host backends), and
//                     a per-shard FCFS queue over `service_units` virtual
//                     clusters (latency.h).  Misses are counted against
//                     each job's numerology slot budget and latencies
//                     aggregated into per-shard histograms merged
//                     (exact bucket-wise sums) into the global one.
//
// Determinism contract (docs/DETERMINISM.md): every per-slot result is a
// pure function of (source, slot index), placement and admission run in a
// serial pre-pass on the analytic predictor, aggregation walks slots in
// index order, and the virtual clocks are independent of host scheduling -
// so the slot results, group/shard roll-ups, admission counters, latency
// histograms and deadline-miss counts are bit-identical for any
// (workers, intra) combination on every backend.  Wall-clock throughput and
// the measured per-slot service histogram are the only host-dependent
// outputs.
#ifndef PUSCHPOOL_RUNTIME_SCHEDULER_H
#define PUSCHPOOL_RUNTIME_SCHEDULER_H

#include <string>
#include <vector>

#include "phy/uplink.h"
#include "runtime/latency.h"
#include "runtime/presets.h"

namespace pp::runtime {

// One unit of work for the scheduler: a fully-resolved uplink slot plus its
// virtual arrival time and processing budget.
struct Slot_job {
  uint64_t index = 0;      // global stream index; also the seed stream
  uint32_t group = 0;      // source-defined roll-up bucket (grid point, cell)
  phy::Uplink_config cfg;  // everything the PHY needs, seed included
  double arrival_s = 0.0;  // virtual arrival time on the source's clock
  double budget_s = 0.0;   // processing deadline; 0 = batch job, no deadline
};

// A stream of slot jobs.  job(i) must be a pure function of the source's
// configuration and i (the scheduler calls it from concurrent workers), and
// arrival_s must be non-decreasing in i (the FCFS queue model's contract).
class Slot_source {
 public:
  virtual ~Slot_source() = default;
  virtual std::string_view name() const = 0;
  virtual uint64_t n_slots() const = 0;
  virtual uint32_t n_groups() const = 0;
  virtual std::string group_label(uint32_t group) const = 0;
  virtual Slot_job job(uint64_t index) const = 0;
};

struct Scheduler_options {
  // Slot-level worker threads on every backend ("sim": one single-threaded
  // simulated machine each); 0 = hardware_concurrency.
  uint32_t workers = 0;
  std::string backend = "reference";  // make_backend() name
  // Intra-slot workers per backend instance ("parallel" and "fixed";
  // 0 = hardware_concurrency).  Total threads ~= workers * intra, so keep
  // workers * intra <= host cores when composing both levels.
  uint32_t intra = 1;
  arch::Cluster_config cluster = arch::Cluster_config::minipool();
  Uplink_options uplink;   // preset knobs (Cholesky batching)
  bool keep_slots = true;  // retain per-slot results (the bit-exact surface)

  // Virtual-time service model: simulated cycles (cycle-accurate backends)
  // or the analytic MAC model (host backends), scaled to seconds at this
  // clock.  The paper evaluates the clusters at 1 GHz.
  double clock_ghz = 1.0;
  // Virtual clusters draining each shard's job queue in the FCFS deadline
  // model.  Deliberately NOT tied to `workers`: the virtual clock must stay
  // deterministic while the host worker count varies.
  uint32_t service_units = 1;

  // ---- sharded serving engine ------------------------------------------
  // Scheduler shards, each one virtual cluster of `service_units` servers
  // with its own FCFS virtual-clock queue.  1 = the pre-sharding engine.
  uint32_t shards = 1;
  // Cell-to-shard placement policy (placement.h / placement_names()).
  std::string placement = "round-robin";
  // Admission/overload policy in front of each shard's queue (admission.h /
  // overload_names()): "off", "drop", "queue" or "degrade".
  std::string overload = "off";
  uint32_t queue_limit = 8;     // "queue": max predicted backlog per shard
  uint32_t degrade_min_ue = 1;  // "degrade": UE-layer floor
  // Virtual-clock-only mode: skip backend execution entirely and score the
  // deadline surface from the analytic MAC service model alone (capacity
  // searches probe many load points and only need the queue behavior).
  // Slot results, EVM/BER and cycles are zero; the latency/deadline/
  // admission surface is bit-identical to a full run on any host backend.
  // Incompatible with max_harq > 0: retransmission verdicts need executed
  // BER, which virtual-only runs never produce (PP_CHECK).
  bool virtual_only = false;

  // ---- HARQ retransmission loop ----------------------------------------
  // Close the loop between decode quality and offered load: after each
  // round, every slot whose best decoded BER (Harq_combiner: min over
  // per-attempt and chase-combined decodes) exceeds `harq_ber` re-enters
  // the stream as a retransmission - the same transport block under a fresh
  // fade (phy::Uplink_config::harq_attempt), arriving one deadline budget
  // after its predecessor and admitted by re-running the predictor
  // chronologically over the whole stream (admission.h: replay_one +
  // admit_one), so it contends with the load actually present around its
  // arrival.  At most `max_harq` retransmissions per
  // original slot; 0 disables the loop and reproduces the pre-HARQ engine
  // bit for bit.  A slot whose every attempt was dropped by admission
  // counts as failed and is retransmitted too (NACK-on-silence).
  uint32_t max_harq = 0;
  double harq_ber = 0.0;  // decode passes when best BER <= this threshold

  // Force the analytic MAC service model for the deadline accounting even
  // on cycle-accurate backends.  The scenario-parity suite uses this to
  // compare the full deadline/admission/HARQ surface across sim and host
  // backends, where simulated-cycle service times would legitimately
  // differ.  Default off: sim serves by its own cycles, as always.
  bool analytic_service = false;
};

struct Schedule_result {
  struct Group {
    std::string label;
    uint32_t shard = 0;       // shard this group's cell was placed on
    uint32_t slots = 0;       // jobs placed (admitted + dropped)
    double evm = 0.0;         // rms over the group's executed slots
    double ber = 0.0;         // mean over the group's executed slots
    double sigma2_hat = 0.0;  // mean NE output
    uint64_t cycles = 0;      // summed simulated cycles (0 on host backends)
    uint64_t admitted = 0;    // executed as planned or degraded
    uint64_t dropped = 0;     // shed by the admission controller
    uint64_t degraded = 0;    // admitted with fewer UE layers
    uint64_t deadline_slots = 0;   // executed slots that carried a budget
    uint64_t deadline_misses = 0;  // virtual latency above the budget
    Latency_histogram latency;     // virtual-time latency of these slots
    uint64_t harq_retx = 0;       // retransmission jobs this group generated
    uint64_t harq_recovered = 0;  // blocks that failed, retried and passed
    uint64_t harq_exhausted = 0;  // blocks still failing after max_harq
  };
  std::vector<Group> groups;

  // Per-shard serving roll-up (one entry per scheduler shard; a single
  // entry when the engine runs unsharded).
  struct Shard {
    uint32_t groups = 0;      // cells placed on this shard
    uint64_t slots = 0;       // jobs placed (admitted + dropped)
    uint64_t admitted = 0;
    uint64_t dropped = 0;
    uint64_t degraded = 0;
    uint64_t deadline_slots = 0;
    uint64_t deadline_misses = 0;
    Latency_histogram latency;  // this shard's virtual-clock latencies
    uint64_t harq_retx = 0;
    uint64_t harq_recovered = 0;
    uint64_t harq_exhausted = 0;
  };
  std::vector<Shard> shards;

  // One entry per job in stream order when the HARQ loop is on (max_harq >
  // 0; empty otherwise): which original slot the job serves, its attempt
  // number (0 = initial transmission), the block's best decoded BER after
  // the job's round folded it in (1.0 while every attempt was dropped), and
  // whether the block had passed the threshold by then.  This is the
  // retransmission schedule + combined-decode surface the determinism
  // contract covers.
  struct Harq_entry {
    uint64_t parent = 0;
    uint32_t attempt = 0;
    double combined_ber = 1.0;
    bool passed = false;

    bool operator==(const Harq_entry& o) const {
      return parent == o.parent && attempt == o.attempt &&
             combined_ber == o.combined_ber && passed == o.passed;
    }
  };
  std::vector<Harq_entry> harq;

  // Per-slot results in stream order (empty when keep_slots is off;
  // dropped slots keep a default-constructed Slot_result).
  std::vector<Slot_result> slots;

  // Virtual-time (deterministic) latency surface.  The global histogram is
  // the exact bucket-wise merge of the per-shard histograms.
  Latency_histogram latency;   // all executed slots
  uint64_t admitted = 0;
  uint64_t dropped = 0;
  uint64_t degraded = 0;
  uint64_t deadline_slots = 0;
  uint64_t deadline_misses = 0;
  uint64_t harq_retx = 0;       // retransmission jobs generated
  uint64_t harq_recovered = 0;  // failed blocks a retransmission rescued
  uint64_t harq_exhausted = 0;  // blocks still failing after max_harq
  double virtual_makespan_s = 0.0;  // last completion on any shard's clock

  // Host-dependent surface: measured per-slot service times and wall clock.
  Latency_histogram wall_service;
  double wall_seconds = 0.0;

  std::string source;
  std::string backend;
  std::string placement;  // effective placement policy name
  std::string overload;   // effective overload policy name
  uint32_t workers = 0;
  uint64_t total_slots = 0;
  uint64_t total_cycles = 0;

  double slots_per_second() const {
    return wall_seconds > 0.0 ? total_slots / wall_seconds : 0.0;
  }
  double miss_rate() const {
    return deadline_slots
               ? static_cast<double>(deadline_misses) / deadline_slots
               : 0.0;
  }

  // Whole-surface equality of everything the determinism contract covers
  // (groups, shards, admission counters, latency histograms, deadline
  // counters, virtual makespan, cycle/slot totals) - deliberately excluding
  // the host-dependent fields (wall clock, wall-service histogram,
  // workers).  This is the single definition the worker-invariance
  // re-checks use (bench_serve_latency, tests/test_scheduler.cpp), so a new
  // deterministic field only needs adding here.
  bool deterministic_equal(const Schedule_result& o) const;

  // Cross-backend scenario surface: everything deterministic_equal covers
  // EXCEPT the fields that legitimately differ between arithmetic families
  // (EVM, sigma2_hat - double vs. Q15 numerics - and simulated cycles).
  // Payload bits, BER, the HARQ schedule/verdicts, admission counters,
  // deadline counters, latency histograms and the virtual makespan must all
  // match - so comparing sim against host backends requires
  // Scheduler_options::analytic_service (cycle-based service times are a
  // different clock) and operating points where the decoded bits agree
  // (tests/test_scenario_parity.cpp pins a grid of them).
  bool scenario_equal(const Schedule_result& o) const;

  // ASCII per-group table plus a latency/deadline/throughput footer; adds
  // a per-shard table and a serving summary line when the engine runs
  // sharded or with an overload policy.
  std::string str() const;
};

class Slot_scheduler {
 public:
  explicit Slot_scheduler(Scheduler_options opt = {});

  const Scheduler_options& options() const { return opt_; }

  Schedule_result run(const Slot_source& src) const;

 private:
  Scheduler_options opt_;
};

// Deterministic analytic service time of one slot on `cluster` at
// `clock_ghz`: the paper's Table I complex-MAC count for the slot's
// dimensions, idealized at one MAC per core per cycle.  The virtual-time
// deadline model uses this for backends that report no cycles; exact given
// IEEE doubles (integer products and log2 of a power of two).
double analytic_service_seconds(const phy::Uplink_config& cfg,
                                const arch::Cluster_config& cluster,
                                double clock_ghz);

}  // namespace pp::runtime

#endif  // PUSCHPOOL_RUNTIME_SCHEDULER_H
