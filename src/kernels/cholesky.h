// Cholesky decomposition kernels (paper §V-C, Fig. 7) and the triangular
// solves that complete the MIMO stage (paper eq. 2).
//
// The Cholesky-Crout order generates L column by column.  Three execution
// shapes are provided, matching the paper's evaluation points:
//
//  * Chol_batch    - many independent small (e.g. 4x4) decompositions, each
//                    on one core with data folded into its local banks;
//                    several per core are run back-to-back before a single
//                    cluster barrier ("4x1024" / "16x1024" configurations).
//  * Chol_pair     - fine-grained parallel decomposition of a *couple* of
//                    n x n matrices on n/4 cores.  Each core owns 4 rows of
//                    the first matrix and the mirrored 4 rows of the second,
//                    so the staircase workload of one matrix complements the
//                    other (the paper's load-balancing trick).
//  * Chol_serial   - one core, interleaved layout, the speedup baseline.
//
// Off-diagonal elements divide by the (real) diagonal with two non-pipelined
// divides; diagonals use a 12-instruction shift-add square root, so RAW and
// ext-unit stalls dominate exactly as the paper reports.
#ifndef PUSCHPOOL_KERNELS_CHOLESKY_H
#define PUSCHPOOL_KERNELS_CHOLESKY_H

#include <span>
#include <vector>

#include "arch/address_map.h"
#include "common/complex16.h"
#include "sim/barrier.h"
#include "sim/machine.h"

namespace pp::kernels {

// Address layout of one (G, L) matrix pair.  Folded mode pins row r of both
// matrices into one bank of its owning core (the paper's row folding);
// interleaved mode spreads words across the cluster (serial baseline).
struct Chol_layout {
  enum class Mode { folded, interleaved } mode = Mode::folded;
  const arch::Address_map* map = nullptr;
  uint32_t n = 0;           // matrix dimension
  // folded mode:
  arch::core_id gang_base = 0;  // first core of the gang
  uint32_t rows_per_core = 4;
  bool mirror = false;      // row r lives with the owner of row n-1-r
  uint32_t g_row = 0, l_row = 0;  // base rows inside the banks
  // interleaved mode:
  arch::addr_t g_base = 0, l_base = 0;

  arch::core_id owner(uint32_t r) const {
    const uint32_t rr = mirror ? n - 1 - r : r;
    return gang_base + rr / rows_per_core;
  }
  arch::addr_t g_addr(uint32_t r, uint32_t col) const { return addr(g_row, g_base, r, col); }
  arch::addr_t l_addr(uint32_t r, uint32_t col) const { return addr(l_row, l_base, r, col); }

 private:
  arch::addr_t addr(uint32_t base_row, arch::addr_t base, uint32_t r,
                    uint32_t col) const {
    if (mode == Mode::interleaved) return base + r * n + col;
    const uint32_t rr = mirror ? n - 1 - r : r;
    const uint32_t lr = rr % rows_per_core;  // local row within the owner
    const arch::bank_id bank =
        map->config().first_local_bank(owner(r)) + lr % 4;
    return map->bank_word(bank, base_row + (lr / 4) * n + col);
  }
};

// --- building blocks shared by all shapes (exposed for tests) -------------

// Compute + store L[i][j] (i > j): j MACs, one subtract, two divides.
sim::Prog chol_offdiag(sim::Core& c, Chol_layout lay, uint32_t i, uint32_t j);
// Compute + store the real diagonal L[j][j]: j MACs and a shift-add sqrt.
sim::Prog chol_diag(sim::Core& c, Chol_layout lay, uint32_t j);
// Full single-core Crout decomposition over `lay`.
sim::Prog chol_single(sim::Core& c, Chol_layout lay);

// --- execution shapes -------------------------------------------------------

class Chol_batch {
 public:
  // n_cores cores each decompose `per_core` independent n x n matrices in
  // their local banks, then meet at one barrier.
  Chol_batch(sim::Machine& m, arch::L1_alloc& alloc, uint32_t n,
             uint32_t per_core, uint32_t n_cores);

  void set_g(uint32_t core, uint32_t idx, std::span<const common::cq15> g);
  std::vector<common::cq15> l(uint32_t core, uint32_t idx) const;
  sim::Kernel_report run();

 private:
  sim::Prog core_prog(sim::Core& c, uint32_t core);
  Chol_layout layout(uint32_t core, uint32_t idx) const;

  sim::Machine& m_;
  uint32_t n_, per_core_, n_cores_;
  uint32_t base_row_ = 0;
  sim::Barrier bar_;
};

class Chol_pair {
 public:
  // n_pairs gangs of n/4 cores; each gang decomposes a mirrored couple of
  // n x n matrices with one partial barrier per column.  mirrored=false
  // assigns both matrices the same (staircase) row ownership - the Fig. 7
  // load-balancing ablation.
  Chol_pair(sim::Machine& m, arch::L1_alloc& alloc, uint32_t n,
            uint32_t n_pairs, bool mirrored = true);

  void set_g(uint32_t pair, uint32_t which, std::span<const common::cq15> g);
  std::vector<common::cq15> l(uint32_t pair, uint32_t which) const;
  uint32_t cores_used() const { return n_pairs_ * (n_ / 4); }
  sim::Kernel_report run();

 private:
  sim::Prog gang_prog(sim::Core& c, uint32_t pair, uint32_t p);
  Chol_layout layout(uint32_t pair, uint32_t which) const;

  sim::Machine& m_;
  uint32_t n_, n_pairs_;
  bool mirrored_ = true;
  uint32_t base_row_ = 0;
  std::vector<sim::Barrier> bars_;  // one per pair (reused every column)
};

class Chol_serial {
 public:
  // reps back-to-back n x n decompositions on one core (speedup baseline).
  Chol_serial(sim::Machine& m, arch::L1_alloc& alloc, uint32_t n,
              uint32_t reps);

  void set_g(uint32_t rep, std::span<const common::cq15> g);
  std::vector<common::cq15> l(uint32_t rep) const;
  sim::Kernel_report run(arch::core_id core = 0);

 private:
  sim::Prog prog(sim::Core& c);

  sim::Machine& m_;
  uint32_t n_, reps_;
  std::vector<Chol_layout> lay_;
};

// --- triangular solves (MIMO stage completion) -----------------------------

// Batched per-subcarrier solve: given L (n x n) and rhs y, computes
// x = (L L^H)^-1 y via forward + backward substitution.  Each core processes
// `per_core` independent systems from its local banks.
class Trisolve_batch {
 public:
  // Largest n: the solution vectors live in registers.
  static constexpr uint32_t max_n = 4;

  Trisolve_batch(sim::Machine& m, arch::L1_alloc& alloc, uint32_t n,
                 uint32_t per_core, uint32_t n_cores);

  void set_system(uint32_t core, uint32_t idx,
                  std::span<const common::cq15> l,
                  std::span<const common::cq15> y);
  std::vector<common::cq15> x(uint32_t core, uint32_t idx) const;
  sim::Kernel_report run();

 private:
  sim::Prog core_prog(sim::Core& c, uint32_t core);
  arch::addr_t l_addr(uint32_t core, uint32_t idx, uint32_t r, uint32_t col) const;
  arch::addr_t v_addr(uint32_t core, uint32_t idx, uint32_t which, uint32_t r) const;

  sim::Machine& m_;
  uint32_t n_, per_core_, n_cores_;
  uint32_t base_row_ = 0;
  sim::Barrier bar_;
};

}  // namespace pp::kernels

#endif  // PUSCHPOOL_KERNELS_CHOLESKY_H
