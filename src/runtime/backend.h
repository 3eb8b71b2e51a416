// Pluggable execution backends for functional pipeline runs.
//
// A Backend takes a Pipeline description plus an uplink scenario and
// writes a Slot_result.  Three implementations exist:
//
//   Sim_backend        the cycle-approximate fixed-point kernels on the
//                      simulated many-core cluster (pipeline.cluster());
//                      reports per-stage cycles and instruction counts
//   Parallel_backend   the double-precision host models (baseline/) split
//                      across a worker pool with the paper's per-kernel
//                      decomposition; bit-identical to phy::golden_receive
//                      at any worker count (backend_parallel.h).  The
//                      "reference" backend name is this backend at one
//                      worker - the golden functional cross-check and the
//                      fast path for scenario sweeps
//   Fixed_backend      the sim backend's Q1.15 kernel math (src/fixed/) on a
//                      host worker pool with optional SIMD; **bit-identical**
//                      to Sim_backend - same payload bits, EVM/BER and
//                      sigma2_hat - at host speed (backend_fixed.h)
//
// All emit the same Slot_result, so a single scenario can be scored on the
// simulator and on any host path through the same Pipeline::execute_into()
// call.  There is one way to run a slot: run_slot_into().  The host
// backends implement only its two halves, run_front_into() and
// run_back_into(), and inherit run_slot_into() as front + back through a
// Slot_front the backend owns; the simulator, which models a whole slot as
// one launch sequence, overrides run_slot_into() instead.
#ifndef PUSCHPOOL_RUNTIME_BACKEND_H
#define PUSCHPOOL_RUNTIME_BACKEND_H

#include <memory>
#include <string_view>

#include "common/grid.h"
#include "runtime/pipeline.h"

namespace pp::runtime {

// Hand-off state between the two halves of a slot: the beam-domain grid
// after OFDM FFT + beamforming, one row per OFDM symbol, row layout
// [sc * beam].  Produced by Backend::run_front_into(), consumed by
// Backend::run_back_into().  Flat workspace storage: the backend's own
// Slot_front is recycled across slots, so the grid's capacity survives and
// the steady state allocates nothing.
struct Slot_front {
  common::Ws_grid<phy::cd> beams;
};

class Backend {
 public:
  virtual ~Backend() = default;
  virtual std::string_view name() const = 0;
  virtual bool cycle_accurate() const = 0;

  // Slot execution into caller-owned storage whose capacity is reused
  // across calls; every field of `out` is overwritten, so a recycled result
  // matches a fresh one bit for bit.  The default runs run_front_into()
  // into the backend's own Slot_front, then run_back_into().
  virtual void run_slot_into(const Pipeline& p, const phy::Uplink_scenario& sc,
                             Slot_result& out);

  // The slot's two halves: the front half (OFDM FFT + beamforming) into a
  // Slot_front, and the back half (CHE, NE, LMMSE MIMO, demodulation) from
  // it.  run_slot_into() is built from these two calls, so running them in
  // turn is bit-identical to the whole slot; callers that time the halves
  // separately (perfbench's traced run) use them directly.  A backend that
  // overrides run_slot_into() with a fused chain ("sim") leaves them
  // unimplemented: they abort.
  virtual void run_front_into(const Pipeline& p, const phy::Uplink_scenario& sc,
                              Slot_front& out);
  virtual void run_back_into(const Pipeline& p, const phy::Uplink_scenario& sc,
                             const Slot_front& front, Slot_result& out);

  // High-water bytes held by this backend's slot workspaces, its own
  // Slot_front included.  Observability for the growth-then-stable tests;
  // monotone under the ws_grow discipline.
  virtual size_t workspace_bytes() const {
    return front_.beams.footprint_bytes();
  }

 private:
  Slot_front front_;  // run_slot_into()'s hand-off between the halves
};

class Sim_backend final : public Backend {
 public:
  Sim_backend();
  ~Sim_backend() override;
  std::string_view name() const override { return "sim"; }
  bool cycle_accurate() const override { return true; }
  void run_slot_into(const Pipeline& p, const phy::Uplink_scenario& sc,
                     Slot_result& out) override;
  size_t workspace_bytes() const override;

 private:
  struct Ws;  // marshaling buffers (quantize scratch); sim cores re-run
              // the slot out of simulated L1, which is per-Machine state
  std::unique_ptr<Ws> ws_;
};

// Fills `out.stages` with the per-stage launch counts the sim backend would
// perform for this pipeline and scenario (FFT gang batching and Cholesky
// symbol batching included), and clears the cycle/instruction/stall
// counters the host backends never write.  Shared by the host backends so
// every backend's stage table lines up row by row.
void mirror_sim_stage_runs(const Pipeline& p, const phy::Uplink_config& cfg,
                           Slot_result& out);

// "sim", "reference", "parallel" or "fixed"; aborts on anything else.
// `intra` is the intra-slot worker count of the "parallel" and "fixed"
// backends (0 = one worker per hardware thread) and is ignored by the rest;
// "reference" is a one-worker Parallel_backend that reports its own name.
std::unique_ptr<Backend> make_backend(std::string_view name,
                                      uint32_t intra = 0);

// The names make_backend() accepts, in registration order - the CLI `--list`
// surface and the validation list for readable unknown-backend errors.
std::vector<std::string> backend_names();

}  // namespace pp::runtime

#endif  // PUSCHPOOL_RUNTIME_BACKEND_H
