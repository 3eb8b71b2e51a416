// Admission / overload control in front of the sharded serving engine.
//
// Each scheduler shard (scheduler.h) owns an FCFS virtual-clock queue; the
// admission controller decides, per arriving slot job and before anything
// executes, whether the shard takes the job as planned, re-plans it, or
// sheds it.  The decision runs on the analytic predictor - the Table I MAC
// model (analytic_service_seconds) through the same earliest-free-server
// FCFS recurrence the deadline accounting uses - so the whole verdict
// stream is a pure function of (jobs, placement, policy, cluster, clock):
// identical on every backend, for any host worker count
// (docs/DETERMINISM.md §8).  On cycle-accurate backends
// the predictor is a model of the true (simulated-cycle) service times, not
// a copy of them - deliberately, since a controller that needed the cycles
// would have to execute the slot it is deciding about.
//
// Policies (overload_names()):
//   off       admit everything - the pre-sharding engine's behavior.
//   drop      shed a deadlined job whose predicted queue delay exceeds its
//             budget; the shard's virtual clock never sees it.
//   queue     bounded queue: shed when the shard's predicted backlog
//             (admitted jobs arrived but not yet started) is at
//             queue_limit.  Deadline-oblivious - classic tail-drop.
//   degrade   re-plan to fewer UE layers (phy::degrade_to_layers), one
//             layer at a time down to min_ue, until the predicted delay
//             meets the budget; always admits the final plan.
#ifndef PUSCHPOOL_RUNTIME_ADMISSION_H
#define PUSCHPOOL_RUNTIME_ADMISSION_H

#include <deque>
#include <string>
#include <vector>

#include "runtime/scheduler.h"

namespace pp::runtime {

enum class Overload_policy { off, drop, queue, degrade };

// Registered policy names, in listing order (matching the enum).
std::vector<std::string> overload_names();

// True if `name` is a registered overload policy.
bool is_overload_name(const std::string& name);

// Name -> enum; aborts (PP_CHECK) on an unknown name - CLI layers validate
// first (bench_util.h) and exit 2 with the registered list.
Overload_policy overload_from_name(const std::string& name);

struct Admission_options {
  Overload_policy policy = Overload_policy::off;
  uint32_t queue_limit = 8;  // "queue" policy: max predicted backlog
  uint32_t min_ue = 1;       // "degrade" policy: layer floor
};

// Per-job controller decision.  `cfg` is the config the scheduler actually
// executes: byte-for-byte the job's own config unless the verdict is
// `degraded`, in which case it is the re-planned one (fewer UE layers).
struct Admission_verdict {
  enum class Outcome : uint8_t { admitted, degraded, dropped };
  Outcome outcome = Outcome::admitted;
  uint32_t shard = 0;             // shard the job was placed on
  phy::Uplink_config cfg;         // final (possibly re-planned) config
  double predicted_delay_s = 0.0; // predictor: completion - arrival
};

// The controller's predicted FCFS state, explicit so a caller can build the
// verdict stream job by job: the HARQ loop (scheduler.h, max_harq > 0)
// re-runs the predictor chronologically each round - already-decided jobs
// are replayed (replay_one: occupancy only, the verdict is final) and the
// round's retransmissions decided (admit_one) interleaved at their true
// arrivals - so retransmission pressure and the exogenous stream contend
// for the same predicted capacity in arrival order.  Per shard, `starts`
// holds the predicted start times of admitted jobs (the "queue" policy's
// backlog estimate) and `free_at` the earliest-free time of every virtual
// cluster.
struct Admission_state {
  struct Shard_clock {
    std::vector<double> free_at;
    std::deque<double> starts;
  };
  std::vector<Shard_clock> shards;

  Admission_state() = default;
  Admission_state(uint32_t n_shards, uint32_t service_units) {
    shards.resize(n_shards);
    for (auto& s : shards) s.free_at.assign(service_units, 0.0);
  }
};

// The serial admission pre-pass: walk `jobs` in index (= arrival) order,
// maintain each shard's predicted FCFS state over `service_units` virtual
// clusters, and decide every job under `opt`.  Dropped jobs do not advance
// any clock.  `shard_of_group` comes from runtime::place_groups.
std::vector<Admission_verdict> admit_jobs(
    const std::vector<Slot_job>& jobs,
    const std::vector<uint32_t>& shard_of_group, uint32_t n_shards,
    uint32_t service_units, const arch::Cluster_config& cluster,
    double clock_ghz, const Admission_options& opt);

// Continuation form: the same pass, but reading and advancing an explicit
// controller state (shards/free_at sized by the caller).  The one-shot
// overload above is exactly this with a fresh state.
std::vector<Admission_verdict> admit_jobs(
    const std::vector<Slot_job>& jobs,
    const std::vector<uint32_t>& shard_of_group, uint32_t n_shards,
    uint32_t service_units, const arch::Cluster_config& cluster,
    double clock_ghz, const Admission_options& opt, Admission_state& state);

// Decide a single job against `state` under `opt` - the body of the
// admit_jobs loop.  Jobs must be offered in non-decreasing arrival order
// for the predicted-backlog bookkeeping to be meaningful.
Admission_verdict admit_one(const Slot_job& job, uint32_t shard,
                            const arch::Cluster_config& cluster,
                            double clock_ghz, const Admission_options& opt,
                            Admission_state& state);

// Replay an already-decided job into `state`: advance the occupancy clocks
// exactly as admitting it did, without re-deciding anything.  The HARQ
// loop's chronological re-pass uses this for every job whose verdict is
// already final.  Dropped jobs never touched the clocks, so they replay as
// a no-op.
void replay_one(const Slot_job& job, const Admission_verdict& v,
                const arch::Cluster_config& cluster, double clock_ghz,
                Admission_state& state);

}  // namespace pp::runtime

#endif  // PUSCHPOOL_RUNTIME_ADMISSION_H
