#include "kernels/gram.h"

#include "common/q15_chain.h"
#include "kernels/util.h"

namespace pp::kernels {

using common::cacc;
using common::cq15;
using common::pack_cq15;
using common::unpack_cq15;

Gram_batch::Gram_batch(sim::Machine& m, arch::L1_alloc& alloc, uint32_t n_sc,
                       uint32_t n_b, uint32_t n_l, uint32_t n_cores)
    : m_(m), n_sc_(n_sc), n_b_(n_b), n_l_(n_l), n_cores_(n_cores) {
  PP_CHECK(n_l_ <= common::max_layers,
           "gram kernel keeps one H row in registers (n_l <= max_layers)");
  h_ = alloc.alloc(static_cast<uint64_t>(n_sc_) * n_b_ * n_l_);
  y_ = alloc.alloc(static_cast<uint64_t>(n_sc_) * n_b_);
  sigma_ = alloc.alloc(1);
  g_ = alloc.alloc(static_cast<uint64_t>(n_sc_) * n_l_ * n_l_);
  rhs_ = alloc.alloc(static_cast<uint64_t>(n_sc_) * n_l_);
  std::vector<arch::core_id> cs(n_cores_);
  for (uint32_t i = 0; i < n_cores_; ++i) cs[i] = i;
  bar_ = sim::Barrier::create(alloc, m_.config(), std::move(cs));
}

void Gram_batch::set_h(std::span<const cq15> h) {
  PP_CHECK(h.size() == static_cast<size_t>(n_sc_) * n_b_ * n_l_,
           "H shape mismatch");
  poke_c(m_.mem(), h_, h);
}

void Gram_batch::set_y(std::span<const cq15> y) {
  PP_CHECK(y.size() == static_cast<size_t>(n_sc_) * n_b_, "y shape mismatch");
  poke_c(m_.mem(), y_, y);
}

void Gram_batch::set_sigma2(int16_t sigma2_q15) {
  m_.mem().poke(sigma_, pack_cq15(cq15{sigma2_q15, 0}));
}

std::vector<cq15> Gram_batch::g(uint32_t sc) const {
  return peek_c(m_.mem(), g_ + sc * n_l_ * n_l_, static_cast<size_t>(n_l_) * n_l_);
}

std::vector<cq15> Gram_batch::rhs(uint32_t sc) const {
  return peek_c(m_.mem(), rhs_ + sc * n_l_, n_l_);
}

sim::Prog Gram_batch::core_prog(sim::Core& c, uint32_t idx) {
  const common::Sc_block blk = common::sc_block(n_sc_, n_cores_, idx);

  const sim::Tok sig = co_await c.load(sigma_);
  const cq15 sigma = unpack_cq15(sig.value);

  for (uint32_t sc = blk.lo; sc < blk.hi; ++sc) {
    c.alu(3);  // sub-carrier base pointers
    // Accumulators: lower triangle of G plus the rhs vector.
    constexpr uint32_t max_l = common::max_layers;
    cacc acc[max_l][max_l];
    cacc racc[max_l];
    uint64_t dep[max_l][max_l] = {};
    uint64_t rdep[max_l] = {};
    for (uint32_t i = 0; i < n_l_; ++i) {
      for (uint32_t j = 0; j <= i; ++j) acc[i][j] = cacc{};
      racc[i] = cacc{};
    }

    for (uint32_t b = 0; b < n_b_; ++b) {
      // One H row (all layers of this beam) lives in registers.
      sim::Tok ht[max_l];
      cq15 hv[max_l];
      for (uint32_t l = 0; l < n_l_; ++l) {
        ht[l] = co_await c.load(h_ + (sc * n_b_ + b) * n_l_ + l);
        hv[l] = unpack_cq15(ht[l].value);
      }
      const sim::Tok yt = co_await c.load(y_ + sc * n_b_ + b);
      const cq15 yv = unpack_cq15(yt.value);
      // Lower triangle: G[i][j] += conj(h[i]) * h[j].
      for (uint32_t i = 0; i < n_l_; ++i) {
        for (uint32_t j = 0; j <= i; ++j) {
          acc[i][j].mac_conj(hv[j], hv[i]);  // h[j] * conj(h[i])
          dep[i][j] = c.cmac(std::max(ht[i].ready, ht[j].ready), dep[i][j]);
        }
        racc[i].mac_conj(yv, hv[i]);  // y * conj(h[i])
        rdep[i] = c.cmac(std::max(ht[i].ready, yt.ready), rdep[i]);
      }
      c.alu(2);  // beam loop bookkeeping
    }

    // Store G (mirroring the upper triangle) and rhs; add sigma2 on the
    // diagonal.
    c.alu(2);
    for (uint32_t i = 0; i < n_l_; ++i) {
      for (uint32_t j = 0; j <= i; ++j) {
        const cq15 v = common::gram_entry(acc[i][j], i == j, sigma);
        uint64_t d = dep[i][j];
        if (i == j) d = c.cadd(d, sig.ready);
        co_await c.store(g_ + (sc * n_l_ + i) * n_l_ + j, pack_cq15(v), d);
        if (i != j) {
          co_await c.store(g_ + (sc * n_l_ + j) * n_l_ + i,
                           pack_cq15(common::gram_mirror(v)), c.cadd(d));
        }
      }
      co_await c.store(rhs_ + sc * n_l_ + i, pack_cq15(racc[i].round()),
                       rdep[i]);
    }
    c.alu(2);  // sub-carrier loop bookkeeping
  }
  co_await sim::barrier_wait(c, bar_);
}

sim::Kernel_report Gram_batch::run() {
  std::vector<sim::Machine::Launch> l;
  for (uint32_t i = 0; i < n_cores_; ++i) {
    l.push_back({i, core_prog(m_.core(i), i)});
  }
  return m_.run_programs("gram", std::move(l));
}

}  // namespace pp::kernels
