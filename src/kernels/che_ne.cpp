#include "kernels/che_ne.h"

#include "common/q15_chain.h"
#include "kernels/util.h"

namespace pp::kernels {

using common::cacc;
using common::cconj;
using common::cq15;
using common::pack_cq15;
using common::unpack_cq15;

// ---------------------------------------------------------------------------
// Che
// ---------------------------------------------------------------------------

Che::Che(sim::Machine& m, arch::L1_alloc& alloc, uint32_t n_sc, uint32_t n_b,
         uint32_t n_l, uint32_t n_cores)
    : m_(m), n_sc_(n_sc), n_b_(n_b), n_l_(n_l), n_cores_(n_cores) {
  y_ = alloc.alloc(static_cast<uint64_t>(n_l_) * n_sc_ * n_b_);
  x_ = alloc.alloc(static_cast<uint64_t>(n_l_) * n_sc_);
  h_ = alloc.alloc(static_cast<uint64_t>(n_sc_) * n_b_ * n_l_);
  std::vector<arch::core_id> cs(n_cores_);
  for (uint32_t i = 0; i < n_cores_; ++i) cs[i] = i;
  bar_ = sim::Barrier::create(alloc, m_.config(), std::move(cs));
}

void Che::set_y_sep(uint32_t l, std::span<const cq15> y) {
  PP_CHECK(y.size() == static_cast<size_t>(n_sc_) * n_b_, "Y shape mismatch");
  poke_c(m_.mem(), y_ + l * n_sc_ * n_b_, y);
}

void Che::set_pilot(uint32_t l, std::span<const cq15> x) {
  PP_CHECK(x.size() == n_sc_, "pilot length mismatch");
  poke_c(m_.mem(), x_ + l * n_sc_, x);
}

std::vector<cq15> Che::h() const {
  return peek_c(m_.mem(), h_, static_cast<size_t>(n_sc_) * n_b_ * n_l_);
}

sim::Prog Che::core_prog(sim::Core& c, uint32_t idx) {
  const common::Sc_block blk = common::sc_block(n_sc_, n_cores_, idx);
  // Beam loop staggered by position in the tile and processed four beams at
  // a time: batching hides the load-to-use latency and the stagger keeps
  // same-tile cores off each other's banks (paper's conflict-avoidance).
  const uint32_t chunk = std::min(4u, n_b_);
  const uint32_t n_chunks = (n_b_ + chunk - 1) / chunk;
  const uint32_t c0 = (c.id % c.cfg->cores_per_tile) % n_chunks;
  // Rotate the sub-carrier order per core-in-tile as well: blocks of
  // same-tile cores can alias modulo the bank count.
  const uint32_t len = blk.hi - blk.lo;
  const uint32_t s0 = len ? (c.id % c.cfg->cores_per_tile) % len : 0;
  for (uint32_t t = 0; t < len; ++t) {
    const uint32_t sc = blk.lo + (s0 + t) % len;
    for (uint32_t l = 0; l < n_l_; ++l) {
      c.alu(2);  // pilot pointer
      const sim::Tok xp = co_await c.load(x_ + l * n_sc_ + sc);
      const cq15 xc = cconj(unpack_cq15(xp.value));
      for (uint32_t ch = 0; ch < n_chunks; ++ch) {
        const uint32_t b0 = ((c0 + ch) % n_chunks) * chunk;
        const uint32_t nb = std::min(chunk, n_b_ - b0);
        sim::Tok yv[4];
        for (uint32_t i = 0; i < nb; ++i) {
          yv[i] = co_await c.load(y_ + (l * n_sc_ + sc) * n_b_ + b0 + i);
        }
        // h = y * conj(x) / |x|^2; |x|^2 = 1/2 folds into one SIMD shift.
        // All multiplies issue before the shifts so the multiplier latency
        // is hidden behind the other lanes (software pipelining).
        cq15 hv[4];
        uint64_t hd[4];
        for (uint32_t i = 0; i < nb; ++i) {
          hv[i] = common::che_elem(unpack_cq15(yv[i].value), xc);
          hd[i] = c.cmul(yv[i].ready, xp.ready);
        }
        for (uint32_t i = 0; i < nb; ++i) hd[i] = c.cadd(hd[i]);
        for (uint32_t i = 0; i < nb; ++i) {
          co_await c.store(h_ + (sc * n_b_ + b0 + i) * n_l_ + l,
                           pack_cq15(hv[i]), hd[i]);
        }
        c.alu(2);  // chunk loop bookkeeping
      }
    }
    c.alu(2);  // sc loop bookkeeping
  }
  co_await sim::barrier_wait(c, bar_);
}

sim::Kernel_report Che::run() {
  std::vector<sim::Machine::Launch> l;
  for (uint32_t i = 0; i < n_cores_; ++i) {
    l.push_back({i, core_prog(m_.core(i), i)});
  }
  return m_.run_programs("che", std::move(l));
}

// ---------------------------------------------------------------------------
// Ne
// ---------------------------------------------------------------------------

Ne::Ne(sim::Machine& m, arch::L1_alloc& alloc, uint32_t n_sc, uint32_t n_b,
       uint32_t n_l, uint32_t n_cores)
    : m_(m), n_sc_(n_sc), n_b_(n_b), n_l_(n_l), n_cores_(n_cores) {
  y_ = alloc.alloc(static_cast<uint64_t>(n_sc_) * n_b_);
  h_ = alloc.alloc(static_cast<uint64_t>(n_sc_) * n_b_ * n_l_);
  x_ = alloc.alloc(static_cast<uint64_t>(n_l_) * n_sc_);
  acc_ = alloc.alloc(1);
  std::vector<arch::core_id> cs(n_cores_);
  for (uint32_t i = 0; i < n_cores_; ++i) cs[i] = i;
  bar_ = sim::Barrier::create(alloc, m_.config(), std::move(cs));
}

void Ne::set_y(std::span<const cq15> y) {
  PP_CHECK(y.size() == static_cast<size_t>(n_sc_) * n_b_, "Y shape mismatch");
  poke_c(m_.mem(), y_, y);
}

void Ne::set_h(std::span<const cq15> h) {
  PP_CHECK(h.size() == static_cast<size_t>(n_sc_) * n_b_ * n_l_,
           "H shape mismatch");
  poke_c(m_.mem(), h_, h);
}

void Ne::set_pilot(uint32_t l, std::span<const cq15> x) {
  PP_CHECK(x.size() == n_sc_, "pilot length mismatch");
  poke_c(m_.mem(), x_ + l * n_sc_, x);
}

double Ne::sigma2() const {
  return common::ne_sigma2(m_.mem().peek(acc_), n_sc_, n_b_);
}

sim::Prog Ne::core_prog(sim::Core& c, uint32_t idx) {
  const common::Sc_block blk = common::sc_block(n_sc_, n_cores_, idx);
  int64_t partial = 0;  // Q2.30 accumulator
  uint64_t pdep = 0;
  for (uint32_t sc = blk.lo; sc < blk.hi; ++sc) {
    // Pilot values of all UEs at this sub-carrier (kept in registers).
    cq15 xv[16];
    sim::Tok xt[16];
    for (uint32_t l = 0; l < n_l_; ++l) {
      xt[l] = co_await c.load(x_ + l * n_sc_ + sc);
      xv[l] = unpack_cq15(xt[l].value);
    }
    for (uint32_t b = 0; b < n_b_; ++b) {
      const sim::Tok yv = co_await c.load(y_ + sc * n_b_ + b);
      cacc yhat;
      uint64_t dep = 0;
      for (uint32_t l = 0; l < n_l_; ++l) {
        const sim::Tok hv = co_await c.load(h_ + (sc * n_b_ + b) * n_l_ + l);
        yhat.mac(unpack_cq15(hv.value), xv[l]);
        dep = c.cmac(std::max(hv.ready, xt[l].ready), dep);
      }
      partial += common::ne_residual(unpack_cq15(yv.value), yhat);
      const uint64_t ddep = c.cadd(yv.ready, dep);
      pdep = c.op(1, ddep, pdep, c.cfg->mul_latency);  // |.|^2 MAC
      c.alu(2);  // b loop bookkeeping
    }
    c.alu(2);  // sc loop bookkeeping
  }
  // Fold the Q2.30 partial into Q15 units and merge atomically.
  c.alu_use(2, pdep);
  co_await c.amo_add(acc_, common::ne_fold(partial));
  co_await sim::barrier_wait(c, bar_);
}

sim::Kernel_report Ne::run() {
  m_.mem().poke(acc_, 0);
  std::vector<sim::Machine::Launch> l;
  for (uint32_t i = 0; i < n_cores_; ++i) {
    l.push_back({i, core_prog(m_.core(i), i)});
  }
  return m_.run_programs("ne", std::move(l));
}

}  // namespace pp::kernels
