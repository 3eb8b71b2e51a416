#include "kernels/fft.h"

#include "common/q15_chain.h"

namespace pp::kernels {

using common::cq15;
using common::pack_cq15;
using common::unpack_cq15;

namespace {

// Timing model of one radix-4 DIF butterfly around its shared value chain
// (common::radix4_dif / radix4_twiddle): three outputs are rotated by the
// stage twiddles except in the last stage (all twiddles are 1 there).
struct Bf_out {
  cq15 v[4];
  uint64_t dep[4];
};

Bf_out butterfly(sim::Core& c, const sim::Tok (&xt)[4], const sim::Tok (&twt)[3],
                 const cq15 (&twv)[3], bool last) {
  // Functional math (identical in both ISA variants).
  Bf_out o;
  for (int j = 0; j < 4; ++j) o.v[j] = unpack_cq15(xt[j].value);
  common::radix4_dif(o.v);
  if (!last) common::radix4_twiddle(o.v, twv);

  if (c.cfg->isa_fused_butterfly) {
    // Paper SVI future work: a fused radix-4 add-network instruction pair
    // replaces the 13-op SIMD sequence below.
    const uint64_t in = std::max(std::max(xt[0].ready, xt[1].ready),
                                 std::max(xt[2].ready, xt[3].ready));
    const uint64_t f = c.op(2, in, 0, c.cfg->mul_latency);
    for (int m = 0; m < 4; ++m) o.dep[m] = f;
  } else {
    uint64_t q[4];
    for (int j = 0; j < 4; ++j) q[j] = c.cadd(xt[j].ready);  // SIMD >>2
    const uint64_t ta = c.cadd(q[0], q[2]);
    const uint64_t tc = c.cadd(q[0], q[2]);
    const uint64_t tb = c.cadd(q[1], q[3]);
    const uint64_t td = c.cadd(q[1], q[3]);
    const uint64_t tdj = c.cadd(td);
    o.dep[0] = c.cadd(ta, tb);
    o.dep[1] = c.cadd(tc, tdj);
    o.dep[2] = c.cadd(ta, tb);
    o.dep[3] = c.cadd(tc, tdj);
  }

  if (!last) {
    for (int m = 1; m < 4; ++m) o.dep[m] = c.cmul(o.dep[m], twt[m - 1].ready);
  }
  return o;
}

}  // namespace

// ---------------------------------------------------------------------------
// Fft_serial
// ---------------------------------------------------------------------------

Fft_serial::Fft_serial(sim::Machine& m, arch::L1_alloc& alloc, uint32_t n,
                       uint32_t reps)
    : m_(m), geom_(n), reps_(reps) {
  tw_ = alloc.alloc(n);
  for (uint32_t e = 0; e < n; ++e) {
    m_.mem().poke(tw_ + e, pack_cq15(geom_.twiddle(e)));
  }
  for (uint32_t r = 0; r < reps_; ++r) {
    buf_.push_back(alloc.alloc(n));
    out_.push_back(alloc.alloc(n));
  }
}

void Fft_serial::set_input(uint32_t rep, std::span<const cq15> x) {
  PP_CHECK(x.size() == geom_.n, "FFT input size mismatch");
  for (uint32_t i = 0; i < geom_.n; ++i) {
    m_.mem().poke(buf_[rep] + i, pack_cq15(x[i]));
  }
}

std::vector<cq15> Fft_serial::output(uint32_t rep) const {
  std::vector<cq15> y(geom_.n);
  for (uint32_t i = 0; i < geom_.n; ++i) {
    y[i] = unpack_cq15(m_.mem().peek(out_[rep] + i));
  }
  return y;
}

sim::Prog Fft_serial::prog(sim::Core& c) {
  const Fft_geom g = geom_;
  for (uint32_t rep = 0; rep < reps_; ++rep) {
    const arch::addr_t buf = buf_[rep];
    const arch::addr_t out = out_[rep];
    for (uint32_t k = 0; k < g.stages; ++k) {
      const bool last = k + 1 == g.stages;
      for (uint32_t bf = 0; bf < g.n / 4; ++bf) {
        c.alu(3);  // butterfly base/stride address setup
        sim::Tok xt[4];
        for (uint32_t j = 0; j < 4; ++j) {
          xt[j] = co_await c.load(buf + g.elem(k, bf, j));
        }
        sim::Tok twt[3] = {};
        cq15 twv[3] = {};
        if (!last) {
          for (uint32_t mm = 1; mm < 4; ++mm) {
            twt[mm - 1] = co_await c.load(tw_ + g.tw_exp(k, bf, mm));
            twv[mm - 1] = unpack_cq15(twt[mm - 1].value);
          }
        }
        const Bf_out o = butterfly(c, xt, twt, twv, last);
        c.alu(2);  // store address setup
        for (uint32_t mm = 0; mm < 4; ++mm) {
          const uint32_t i_out = g.elem(k, bf, mm);
          const arch::addr_t a =
              last ? out + g.digitrev(i_out) : buf + i_out;
          co_await c.store(a, pack_cq15(o.v[mm]), o.dep[mm]);
        }
        c.alu(2);  // loop bookkeeping
      }
    }
  }
}

sim::Kernel_report Fft_serial::run(arch::core_id core) {
  std::vector<sim::Machine::Launch> l;
  l.push_back({core, prog(m_.core(core))});
  return m_.run_programs("fft_serial", std::move(l));
}

// ---------------------------------------------------------------------------
// Fft_parallel
// ---------------------------------------------------------------------------

Fft_parallel::Fft_parallel(sim::Machine& m, arch::L1_alloc& alloc, uint32_t n,
                           uint32_t n_inst, uint32_t reps, bool folded)
    : m_(m), geom_(n), n_inst_(n_inst), reps_(reps), folded_(folded) {
  const auto& cfg = m_.config();
  PP_CHECK(cores_used() <= cfg.n_cores(),
           "FFT batch needs more cores than the cluster has");

  if (folded_) {
    data_row_ = alloc.alloc_rows(reps_ * 8);
    // Per-stage twiddles, replicated into each gang core's local banks
    // (12 words: 3 per butterfly).
    tw_row_.resize(geom_.stages);
    for (uint32_t k = 0; k + 1 < geom_.stages; ++k) {
      tw_row_[k] = alloc.alloc_rows(3);
      for (uint32_t inst = 0; inst < n_inst_; ++inst) {
        for (uint32_t p = 0; p < geom_.cores(); ++p) {
          for (uint32_t b = 0; b < 4; ++b) {
            for (uint32_t mm = 1; mm < 4; ++mm) {
              const arch::addr_t a = m_.map().core_word(
                  abs_core(inst, p), tw_row_[k], b * 3 + (mm - 1));
              m_.mem().poke(
                  a, pack_cq15(geom_.twiddle(geom_.tw_exp(k, 4 * p + b, mm))));
            }
          }
        }
      }
    }
  } else {
    // Ablation layout: plain interleaved ping-pong buffers + shared twiddle
    // table; butterfly accesses are spread over the whole cluster.
    const uint64_t words = static_cast<uint64_t>(n_inst_) * reps_ * geom_.n;
    naive_buf_[0] = alloc.alloc(words);
    naive_buf_[1] = alloc.alloc(words);
    naive_tw_ = alloc.alloc(geom_.n);
    for (uint32_t e = 0; e < geom_.n; ++e) {
      m_.mem().poke(naive_tw_ + e, pack_cq15(geom_.twiddle(e)));
    }
  }

  out_ = alloc.alloc(static_cast<uint64_t>(n_inst_) * reps_ * geom_.n);

  // Hierarchical stage barriers: after stage k only the cores of one stage-k
  // sub-FFT synchronize.
  bars_.resize(n_inst_);
  for (uint32_t inst = 0; inst < n_inst_; ++inst) {
    if (geom_.cores() > 1) {
      std::vector<arch::core_id> gang(geom_.cores());
      for (uint32_t i = 0; i < geom_.cores(); ++i) gang[i] = abs_core(inst, i);
      join_bars_.push_back(sim::Barrier::create(alloc, cfg, std::move(gang)));
    }
    bars_[inst].resize(geom_.stages);
    for (uint32_t k = 0; k + 1 < geom_.stages; ++k) {
      const uint32_t gsz = geom_.sync_group_cores(k);
      if (gsz < 2) continue;
      const uint32_t n_groups = geom_.cores() / gsz;
      for (uint32_t f = 0; f < n_groups; ++f) {
        std::vector<arch::core_id> cs(gsz);
        for (uint32_t i = 0; i < gsz; ++i) cs[i] = abs_core(inst, f * gsz + i);
        bars_[inst][k].push_back(
            sim::Barrier::create(alloc, cfg, std::move(cs)));
      }
    }
  }
}

void Fft_parallel::set_input(uint32_t inst, uint32_t rep,
                             std::span<const cq15> x) {
  PP_CHECK(x.size() == geom_.n, "FFT input size mismatch");
  for (uint32_t i = 0; i < geom_.n; ++i) {
    if (folded_) {
      const Fft_geom::Cs cs = geom_.place(0, i);
      m_.mem().poke(slot_addr(inst, cs.core, rep, 0, cs.slot), pack_cq15(x[i]));
    } else {
      m_.mem().poke(naive_addr(inst, rep, 0, i), pack_cq15(x[i]));
    }
  }
}

std::vector<cq15> Fft_parallel::output(uint32_t inst, uint32_t rep) const {
  std::vector<cq15> y(geom_.n);
  const arch::addr_t base =
      out_ + (static_cast<uint64_t>(inst) * reps_ + rep) * geom_.n;
  for (uint32_t i = 0; i < geom_.n; ++i) {
    y[i] = unpack_cq15(m_.mem().peek(base + i));
  }
  return y;
}

sim::Prog Fft_parallel::gang_prog(sim::Core& c, uint32_t inst, uint32_t p) {
  const Fft_geom g = geom_;
  for (uint32_t k = 0; k < g.stages; ++k) {
    const bool last = k + 1 == g.stages;
    for (uint32_t rep = 0; rep < reps_; ++rep) {
      for (uint32_t b = 0; b < 4; ++b) {
        const uint32_t bf = 4 * p + b;
        c.alu(3);  // butterfly base/stride address setup
        // Folded: the four inputs sit in one row of this core's four banks.
        sim::Tok xt[4];
        for (uint32_t j = 0; j < 4; ++j) {
          xt[j] = co_await c.load(
              folded_ ? slot_addr(inst, p, rep, k & 1, b * 4 + j)
                      : naive_addr(inst, rep, k & 1, g.elem(k, bf, j)));
        }
        sim::Tok twt[3] = {};
        cq15 twv[3] = {};
        if (!last) {
          for (uint32_t mm = 1; mm < 4; ++mm) {
            twt[mm - 1] = co_await c.load(
                folded_ ? m_.map().core_word(abs_core(inst, p), tw_row_[k],
                                             b * 3 + (mm - 1))
                        : naive_tw_ + g.tw_exp(k, bf, mm));
            twv[mm - 1] = unpack_cq15(twt[mm - 1].value);
          }
        }
        const Bf_out o = butterfly(c, xt, twt, twv, last);
        c.alu(2);  // store address setup
        for (uint32_t mm = 0; mm < 4; ++mm) {
          const uint32_t i_out = g.elem(k, bf, mm);
          arch::addr_t a;
          if (last) {
            a = out_ + (static_cast<uint64_t>(inst) * reps_ + rep) * g.n +
                g.digitrev(i_out);
          } else if (folded_) {
            // Shuffle-store into the folded layout of the stage-k+1 owner.
            const Fft_geom::Cs cs = g.place(k + 1, i_out);
            a = slot_addr(inst, cs.core, rep, (k + 1) & 1, cs.slot);
          } else {
            a = naive_addr(inst, rep, (k + 1) & 1, i_out);
          }
          co_await c.store(a, pack_cq15(o.v[mm]), o.dep[mm]);
        }
        c.alu(2);  // loop bookkeeping
      }
    }
    if (!last) {
      const uint32_t gsz = g.sync_group_cores(k);
      if (gsz >= 2) {
        co_await sim::barrier_wait(c, bars_[inst][k][p / gsz]);
      }
    }
  }
  // Join: close the gang's parallel region.
  if (g.cores() > 1) co_await sim::barrier_wait(c, join_bars_[inst]);
}

sim::Kernel_report Fft_parallel::run() {
  std::vector<sim::Machine::Launch> l;
  l.reserve(cores_used());
  for (uint32_t inst = 0; inst < n_inst_; ++inst) {
    for (uint32_t p = 0; p < geom_.cores(); ++p) {
      const arch::core_id cid = abs_core(inst, p);
      l.push_back({cid, gang_prog(m_.core(cid), inst, p)});
    }
  }
  return m_.run_programs("fft_parallel", std::move(l));
}

}  // namespace pp::kernels
