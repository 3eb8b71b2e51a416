// Fixed-point host backend: the sim backend's Q1.15 arithmetic at host
// speed.
//
// Fixed_backend runs each kernel through the host loops of src/fixed/
// instead of the cycle-approximate simulator.  The arithmetic is shared,
// not copied: the host kernels and the simulated kernels compute every
// element through common/q15_chain.h, and both backends end in
// phy::payload_ber.  Only the marshaling order mirrors backend_sim.cpp -
// the same quantize/dequantize round-trips, block-rescaling factors, NE
// core partition and epilogue loop order.  The result is **bit-identical**
// to the sim backend: same payload bits, same EVM/BER doubles, same
// sigma2_hat - an exact cross-check where the double-precision backends
// only offer tolerances.
//
// Parallel structure (common::Thread_pool, like Parallel_backend): each
// stage is one static slice (Thread_pool::slice) of its whole-slot item
// space.
//
//   OFDM FFT     per-(symbol, antenna) transforms
//   beamforming  per-(symbol, sub-carrier) output rows of the MMM, in the
//                FFT's pool dispatch after a Counting_barrier
//   CHE          per-sub-carrier slices: quantize the pilot inputs,
//                estimate, requantize the estimate for NE and MIMO
//   NE           one Q2.30 partial per *simulated core block* (the sim's
//                uint32 fold is partition-dependent, so the simulated
//                partition is replayed no matter the worker count), folded
//                serially in block order
//   LMMSE MIMO   per-sub-carrier Gramian + Cholesky factor (once per slot,
//                not per symbol), then after a Counting_barrier the
//                per-(data symbol, sub-carrier) problems: quantized beam
//                row, matched filter, substitutions, demodulation; the EVM
//                sum stays serial in slot order
//
// Every parallel tile performs exact integer arithmetic on disjoint
// outputs, so the result is independent of the worker count - pinned at
// 1/2/8 workers by tests/test_backend_fixed.cpp.  SIMD (src/fixed/simd.h)
// is on by default where the host supports it; `use_simd = false` forces
// the scalar paths (bit-identical by contract, used by the parity tests).
#ifndef PUSCHPOOL_RUNTIME_BACKEND_FIXED_H
#define PUSCHPOOL_RUNTIME_BACKEND_FIXED_H

#include "common/complex16.h"
#include "common/thread_pool.h"
#include "runtime/backend.h"

namespace pp::runtime {

class Fixed_backend final : public Backend {
 public:
  // workers: 0 = one per hardware thread (the pool persists across slots).
  explicit Fixed_backend(uint32_t workers = 0, bool use_simd = true)
      : pool_(workers), simd_(use_simd), fft_ws_(pool_.workers()) {}

  std::string_view name() const override { return "fixed"; }
  bool cycle_accurate() const override { return false; }
  uint32_t workers() const { return pool_.workers(); }
  // True when the vector paths are both requested and available on this
  // host; false means every kernel runs its scalar loops.
  bool simd_active() const;

  // The two halves of the slot, cut at the beam grid like the other host
  // backends; Backend::run_slot_into() runs them back to back.
  void run_front_into(const Pipeline& p, const phy::Uplink_scenario& sc,
                      Slot_front& out) override;
  void run_back_into(const Pipeline& p, const phy::Uplink_scenario& sc,
                     const Slot_front& front, Slot_result& out) override;
  size_t workspace_bytes() const override;

 private:
  common::Thread_pool pool_;
  bool simd_;

  // Per-worker marshaling scratch (FFT staging buffers, one quantized
  // input row - an MMM row in the front half, an item's beam row in the
  // back half - and one MMM output row); workers touch only their own
  // entry inside a dispatch, so no synchronization beyond the pool's join
  // is needed.
  struct Worker_ws {
    std::vector<common::cq15> buf, fout, aq, crow;
    size_t footprint_bytes() const {
      return (buf.capacity() + fout.capacity() + aq.capacity() +
              crow.capacity()) *
             sizeof(common::cq15);
    }
  };

  // Slot workspaces (grow-then-stabilize; every reused element fully
  // overwritten per slot before the kernels read it).
  std::vector<Worker_ws> fft_ws_;            // one per worker
  std::vector<common::cq15> bq_;             // quantized codebook
  common::Ws_grid<phy::cd> freq_;            // [symb * rx][sc] spectra
  // Back half: CHE inputs/outputs, NE operands, quantized channel for the
  // MIMO items and one Cholesky factor per sub-carrier ([sc][n_l][n_l]).
  std::vector<std::vector<common::cq15>> pilots_q_, y_sep_q_;  // grow-only
  std::vector<common::cq15> h_q_;
  std::vector<common::cq15> y_est_, h_est_;
  std::vector<uint32_t> contribs_;
  std::vector<common::cq15> gh_q_;
  std::vector<common::cq15> l_q_;
};

}  // namespace pp::runtime

#endif  // PUSCHPOOL_RUNTIME_BACKEND_FIXED_H
