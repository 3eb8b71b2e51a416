#include "kernels/cholesky.h"

#include "common/q15_chain.h"
#include "kernels/util.h"

namespace pp::kernels {

using common::cacc;
using common::cq15;
using common::pack_cq15;
using common::unpack_cq15;

// ---------------------------------------------------------------------------
// Building blocks
// ---------------------------------------------------------------------------

sim::Prog chol_offdiag(sim::Core& c, Chol_layout lay, uint32_t i, uint32_t j) {
  c.alu(3);  // row/column base addresses
  const sim::Tok g = co_await c.load(lay.g_addr(i, j));
  cacc acc;
  acc.add_q15(unpack_cq15(g.value));
  // Two interleaved accumulator chains hide part of the MAC latency.
  uint64_t chain[2] = {g.ready, 0};
  for (uint32_t k = 0; k < j; ++k) {
    const sim::Tok a = co_await c.load(lay.l_addr(i, k));  // own row: local
    const sim::Tok b = co_await c.load(lay.l_addr(j, k));  // pivot row
    acc.msu_conj(unpack_cq15(a.value), unpack_cq15(b.value));
    chain[k & 1] = c.cmac(std::max(a.ready, b.ready), chain[k & 1]);
  }
  uint64_t dep = chain[0];
  if (j > 1) dep = c.cadd(chain[0], chain[1]);  // combine partials
  const sim::Tok dj = co_await c.load(lay.l_addr(j, j));
  const cq15 val = common::div_by_pivot(acc, unpack_cq15(dj.value).re);
  // Software complex-by-real division (Snitch has no 16-bit divider).
  const uint64_t d = soft_div_cr(c, dep, dj.ready);
  co_await c.store(lay.l_addr(i, j), pack_cq15(val), d);
  c.alu(2);  // loop bookkeeping
}

sim::Prog chol_diag(sim::Core& c, Chol_layout lay, uint32_t j) {
  c.alu(2);
  const sim::Tok g = co_await c.load(lay.g_addr(j, j));
  int64_t acc = common::chol_diag_init(unpack_cq15(g.value));
  uint64_t chain[2] = {g.ready, 0};
  for (uint32_t k = 0; k < j; ++k) {
    const sim::Tok a = co_await c.load(lay.l_addr(j, k));
    acc = common::chol_diag_sub(acc, unpack_cq15(a.value));
    chain[k & 1] = c.op(1, a.ready, chain[k & 1], c.cfg->mul_latency);
  }
  uint64_t dep = chain[0];
  if (j > 1) dep = c.op(1, chain[0], chain[1], 1);  // combine partials
  // 12-instruction shift-add square root (Q15).
  const uint64_t s = soft_sqrt(c, dep);
  co_await c.store(lay.l_addr(j, j),
                   pack_cq15(common::chol_diag_finish(acc)), s);
  c.alu(2);
}

sim::Prog chol_single(sim::Core& c, Chol_layout lay) {
  co_await chol_diag(c, lay, 0);
  for (uint32_t j = 0; j + 1 < lay.n; ++j) {
    for (uint32_t i = j + 1; i < lay.n; ++i) {
      co_await chol_offdiag(c, lay, i, j);
    }
    co_await chol_diag(c, lay, j + 1);
  }
}

// ---------------------------------------------------------------------------
// Chol_batch: independent single-core decompositions + one barrier
// ---------------------------------------------------------------------------

Chol_batch::Chol_batch(sim::Machine& m, arch::L1_alloc& alloc, uint32_t n,
                       uint32_t per_core, uint32_t n_cores)
    : m_(m), n_(n), per_core_(per_core), n_cores_(n_cores) {
  PP_CHECK(n_cores_ <= m_.config().n_cores(), "not enough cores");
  const uint32_t rows_per_mat = 2 * ((n_ + 3) / 4) * n_;  // G + L regions
  base_row_ = alloc.alloc_rows(per_core_ * rows_per_mat);

  std::vector<arch::core_id> cs(n_cores_);
  for (uint32_t i = 0; i < n_cores_; ++i) cs[i] = i;
  bar_ = sim::Barrier::create(alloc, m_.config(), std::move(cs));
}

Chol_layout Chol_batch::layout(uint32_t core, uint32_t idx) const {
  const uint32_t depth = ((n_ + 3) / 4) * n_;
  Chol_layout lay;
  lay.mode = Chol_layout::Mode::folded;
  lay.map = &m_.map();
  lay.n = n_;
  lay.gang_base = core;
  lay.rows_per_core = n_;  // single core owns all rows
  lay.g_row = base_row_ + idx * 2 * depth;
  lay.l_row = lay.g_row + depth;
  return lay;
}

void Chol_batch::set_g(uint32_t core, uint32_t idx,
                       std::span<const cq15> g) {
  PP_CHECK(g.size() == static_cast<size_t>(n_) * n_, "G shape mismatch");
  const Chol_layout lay = layout(core, idx);
  for (uint32_t r = 0; r < n_; ++r) {
    for (uint32_t col = 0; col < n_; ++col) {
      m_.mem().poke(lay.g_addr(r, col), pack_cq15(g[r * n_ + col]));
    }
  }
}

std::vector<cq15> Chol_batch::l(uint32_t core, uint32_t idx) const {
  const Chol_layout lay = layout(core, idx);
  std::vector<cq15> out(static_cast<size_t>(n_) * n_);
  for (uint32_t r = 0; r < n_; ++r) {
    for (uint32_t col = 0; col <= r; ++col) {
      out[r * n_ + col] = unpack_cq15(m_.mem().peek(lay.l_addr(r, col)));
    }
  }
  return out;
}

sim::Prog Chol_batch::core_prog(sim::Core& c, uint32_t core) {
  for (uint32_t idx = 0; idx < per_core_; ++idx) {
    c.alu(2);  // matrix pointer bump
    co_await chol_single(c, layout(core, idx));
  }
  co_await sim::barrier_wait(c, bar_);
}

sim::Kernel_report Chol_batch::run() {
  // The folded layout keeps every access of core i inside its own banks
  // until the single closing barrier, whose counter lives in core 0's first
  // local bank.  Declaring the ownership lets the fast path service whole
  // factorizations inline (the machine checks the claim on every access and
  // clears it when the launch returns).
  const arch::Cluster_config& cfg = m_.config();
  for (uint32_t i = 0; i < n_cores_; ++i) {
    for (uint32_t k = 0; k < cfg.banks_per_core; ++k) {
      m_.set_bank_owner(cfg.first_local_bank(i) + k, i);
    }
  }
  std::vector<sim::Machine::Launch> l;
  l.reserve(n_cores_);
  for (uint32_t i = 0; i < n_cores_; ++i) {
    l.push_back({i, core_prog(m_.core(i), i)});
  }
  return m_.run_programs("cholesky_batch", std::move(l));
}

// ---------------------------------------------------------------------------
// Chol_pair: mirrored couples, one partial barrier per column
// ---------------------------------------------------------------------------

Chol_pair::Chol_pair(sim::Machine& m, arch::L1_alloc& alloc, uint32_t n,
                     uint32_t n_pairs, bool mirrored)
    : m_(m), n_(n), n_pairs_(n_pairs), mirrored_(mirrored) {
  PP_CHECK(n_ % 4 == 0 && n_ >= 8, "pair kernel needs n that is multiple of 4");
  PP_CHECK(cores_used() <= m_.config().n_cores(), "not enough cores");
  base_row_ = alloc.alloc_rows(4 * n_);  // G1,L1,G2,L2: one row depth n each

  for (uint32_t pr = 0; pr < n_pairs_; ++pr) {
    std::vector<arch::core_id> cs(n_ / 4);
    for (uint32_t i = 0; i < n_ / 4; ++i) cs[i] = pr * (n_ / 4) + i;
    bars_.push_back(sim::Barrier::create(alloc, m_.config(), std::move(cs)));
  }
}

Chol_layout Chol_pair::layout(uint32_t pair, uint32_t which) const {
  Chol_layout lay;
  lay.mode = Chol_layout::Mode::folded;
  lay.map = &m_.map();
  lay.n = n_;
  lay.gang_base = pair * (n_ / 4);
  lay.rows_per_core = 4;
  lay.mirror = which == 1 && mirrored_;
  lay.g_row = base_row_ + which * 2 * n_;
  lay.l_row = lay.g_row + n_;
  return lay;
}

void Chol_pair::set_g(uint32_t pair, uint32_t which, std::span<const cq15> g) {
  PP_CHECK(g.size() == static_cast<size_t>(n_) * n_, "G shape mismatch");
  const Chol_layout lay = layout(pair, which);
  for (uint32_t r = 0; r < n_; ++r) {
    for (uint32_t col = 0; col < n_; ++col) {
      m_.mem().poke(lay.g_addr(r, col), pack_cq15(g[r * n_ + col]));
    }
  }
}

std::vector<cq15> Chol_pair::l(uint32_t pair, uint32_t which) const {
  const Chol_layout lay = layout(pair, which);
  std::vector<cq15> out(static_cast<size_t>(n_) * n_);
  for (uint32_t r = 0; r < n_; ++r) {
    for (uint32_t col = 0; col <= r; ++col) {
      out[r * n_ + col] = unpack_cq15(m_.mem().peek(lay.l_addr(r, col)));
    }
  }
  return out;
}

sim::Prog Chol_pair::gang_prog(sim::Core& c, uint32_t pair, uint32_t p) {
  const Chol_layout m1 = layout(pair, 0);
  const Chol_layout m2 = layout(pair, 1);
  const uint32_t cores = n_ / 4;

  // Prologue: owners of row 0 of each matrix seed the first diagonal.
  if (p == 0) co_await chol_diag(c, m1, 0);
  if (p == (mirrored_ ? cores - 1 : 0)) co_await chol_diag(c, m2, 0);
  co_await sim::barrier_wait(c, bars_[pair]);

  // Row ranges this core owns: [lo1, lo1+4) of M1 and, when mirrored, the
  // complementary [n-4p-4, n-4p) of M2 - heavy M1 rows pair with light M2
  // rows, flattening the staircase.
  const uint32_t lo1 = 4 * p;
  const uint32_t lo2 = mirrored_ ? n_ - 4 * p - 4 : 4 * p;
  for (uint32_t j = 0; j + 1 < n_; ++j) {
    for (uint32_t i = std::max(lo1, j + 1); i < lo1 + 4; ++i) {
      co_await chol_offdiag(c, m1, i, j);
      if (i == j + 1) co_await chol_diag(c, m1, j + 1);
    }
    for (uint32_t i = std::max(lo2, j + 1); i < lo2 + 4; ++i) {
      co_await chol_offdiag(c, m2, i, j);
      if (i == j + 1) co_await chol_diag(c, m2, j + 1);
    }
    co_await sim::barrier_wait(c, bars_[pair]);
  }
}

sim::Kernel_report Chol_pair::run() {
  std::vector<sim::Machine::Launch> l;
  l.reserve(cores_used());
  for (uint32_t pr = 0; pr < n_pairs_; ++pr) {
    for (uint32_t p = 0; p < n_ / 4; ++p) {
      const arch::core_id cid = pr * (n_ / 4) + p;
      l.push_back({cid, gang_prog(m_.core(cid), pr, p)});
    }
  }
  return m_.run_programs("cholesky_pair", std::move(l));
}

// ---------------------------------------------------------------------------
// Chol_serial
// ---------------------------------------------------------------------------

Chol_serial::Chol_serial(sim::Machine& m, arch::L1_alloc& alloc, uint32_t n,
                         uint32_t reps)
    : m_(m), n_(n), reps_(reps) {
  for (uint32_t r = 0; r < reps_; ++r) {
    Chol_layout lay;
    lay.mode = Chol_layout::Mode::interleaved;
    lay.map = &m_.map();
    lay.n = n_;
    lay.g_base = alloc.alloc(static_cast<uint64_t>(n_) * n_);
    lay.l_base = alloc.alloc(static_cast<uint64_t>(n_) * n_);
    lay_.push_back(lay);
  }
}

void Chol_serial::set_g(uint32_t rep, std::span<const cq15> g) {
  PP_CHECK(g.size() == static_cast<size_t>(n_) * n_, "G shape mismatch");
  poke_c(m_.mem(), lay_[rep].g_base, g);
}

std::vector<cq15> Chol_serial::l(uint32_t rep) const {
  auto full = peek_c(m_.mem(), lay_[rep].l_base, static_cast<size_t>(n_) * n_);
  // Zero the (never-written) upper triangle for a clean comparison.
  for (uint32_t r = 0; r < n_; ++r) {
    for (uint32_t col = r + 1; col < n_; ++col) full[r * n_ + col] = cq15{};
  }
  return full;
}

sim::Prog Chol_serial::prog(sim::Core& c) {
  for (uint32_t rep = 0; rep < reps_; ++rep) {
    c.alu(2);
    co_await chol_single(c, lay_[rep]);
  }
}

sim::Kernel_report Chol_serial::run(arch::core_id core) {
  std::vector<sim::Machine::Launch> l;
  l.push_back({core, prog(m_.core(core))});
  return m_.run_programs("cholesky_serial", std::move(l));
}

// ---------------------------------------------------------------------------
// Trisolve_batch
// ---------------------------------------------------------------------------

Trisolve_batch::Trisolve_batch(sim::Machine& m, arch::L1_alloc& alloc,
                               uint32_t n, uint32_t per_core, uint32_t n_cores)
    : m_(m), n_(n), per_core_(per_core), n_cores_(n_cores) {
  PP_CHECK(n_ <= max_n, "batched solve supports n <= 4 (per-subcarrier MIMO)");
  PP_CHECK(n_cores_ <= m_.config().n_cores(), "not enough cores");
  // Per system: L (depth n per bank) + y and x vectors (1 row each).
  base_row_ = alloc.alloc_rows(per_core_ * (n_ + 2));

  std::vector<arch::core_id> cs(n_cores_);
  for (uint32_t i = 0; i < n_cores_; ++i) cs[i] = i;
  bar_ = sim::Barrier::create(alloc, m_.config(), std::move(cs));
}

arch::addr_t Trisolve_batch::l_addr(uint32_t core, uint32_t idx, uint32_t r,
                                    uint32_t col) const {
  const arch::bank_id bank = m_.config().first_local_bank(core) + r % 4;
  return m_.map().bank_word(bank, base_row_ + idx * (n_ + 2) + col);
}

arch::addr_t Trisolve_batch::v_addr(uint32_t core, uint32_t idx,
                                    uint32_t which, uint32_t r) const {
  const arch::bank_id bank = m_.config().first_local_bank(core) + r % 4;
  return m_.map().bank_word(bank, base_row_ + idx * (n_ + 2) + n_ + which);
}

void Trisolve_batch::set_system(uint32_t core, uint32_t idx,
                                std::span<const cq15> l,
                                std::span<const cq15> y) {
  PP_CHECK(l.size() == static_cast<size_t>(n_) * n_ && y.size() == n_,
           "system shape mismatch");
  for (uint32_t r = 0; r < n_; ++r) {
    for (uint32_t col = 0; col <= r; ++col) {
      m_.mem().poke(l_addr(core, idx, r, col), pack_cq15(l[r * n_ + col]));
    }
    m_.mem().poke(v_addr(core, idx, 0, r), pack_cq15(y[r]));
  }
}

std::vector<cq15> Trisolve_batch::x(uint32_t core, uint32_t idx) const {
  std::vector<cq15> out(n_);
  for (uint32_t r = 0; r < n_; ++r) {
    out[r] = unpack_cq15(m_.mem().peek(v_addr(core, idx, 1, r)));
  }
  return out;
}

sim::Prog Trisolve_batch::core_prog(sim::Core& c, uint32_t core) {
  for (uint32_t idx = 0; idx < per_core_; ++idx) {
    c.alu(3);  // system pointers
    cq15 z[max_n], x[max_n];
    int16_t diag[max_n];
    uint64_t zdep[max_n] = {}, xdep[max_n] = {}, ddep[max_n] = {};
    // Forward substitution: L z = y (z kept in registers).
    for (uint32_t i = 0; i < n_; ++i) {
      const sim::Tok y = co_await c.load(v_addr(core, idx, 0, i));
      cacc acc;
      acc.add_q15(unpack_cq15(y.value));
      uint64_t dep = y.ready;
      for (uint32_t k = 0; k < i; ++k) {
        const sim::Tok lv = co_await c.load(l_addr(core, idx, i, k));
        acc.msu(unpack_cq15(lv.value), z[k]);
        dep = c.cmac(std::max(lv.ready, zdep[k]), dep);
      }
      const sim::Tok dv = co_await c.load(l_addr(core, idx, i, i));
      diag[i] = unpack_cq15(dv.value).re;
      ddep[i] = dv.ready;
      z[i] = common::div_by_pivot(acc, diag[i]);
      zdep[i] = soft_div_cr(c, dep, dv.ready);
    }
    // Backward substitution: L^H x = z.
    for (uint32_t ii = n_; ii-- > 0;) {
      cacc acc;
      acc.add_q15(z[ii]);
      uint64_t dep = zdep[ii];
      for (uint32_t k = ii + 1; k < n_; ++k) {
        const sim::Tok lv = co_await c.load(l_addr(core, idx, k, ii));
        acc.msu_conj(x[k], unpack_cq15(lv.value));  // conj(L[k][i]) * x[k]
        dep = c.cmac(std::max(lv.ready, xdep[k]), dep);
      }
      x[ii] = common::div_by_pivot(acc, diag[ii]);
      xdep[ii] = soft_div_cr(c, dep, ddep[ii]);
    }
    c.alu(2);
    for (uint32_t i = 0; i < n_; ++i) {
      co_await c.store(v_addr(core, idx, 1, i), pack_cq15(x[i]), xdep[i]);
    }
  }
  co_await sim::barrier_wait(c, bar_);
}

sim::Kernel_report Trisolve_batch::run() {
  // Same shape as Chol_batch: l_addr/v_addr keep each core inside its own
  // banks, and the launch closes with a single barrier.
  const arch::Cluster_config& cfg = m_.config();
  for (uint32_t i = 0; i < n_cores_; ++i) {
    for (uint32_t k = 0; k < cfg.banks_per_core; ++k) {
      m_.set_bank_owner(cfg.first_local_bank(i) + k, i);
    }
  }
  std::vector<sim::Machine::Launch> l;
  l.reserve(n_cores_);
  for (uint32_t i = 0; i < n_cores_; ++i) {
    l.push_back({i, core_prog(m_.core(i), i)});
  }
  return m_.run_programs("trisolve_batch", std::move(l));
}

}  // namespace pp::kernels
