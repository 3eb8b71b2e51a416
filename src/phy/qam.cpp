#include "phy/qam.h"

#include <cmath>

#include "common/check.h"
#include "common/once_tables.h"

namespace pp::phy {

namespace {

// Per-axis Gray map for 2^b levels: bits -> level index.
uint32_t gray_to_level(uint32_t g) {
  uint32_t v = g;
  for (uint32_t shift = 1; shift < 16; shift <<= 1) v ^= v >> shift;
  return v;
}
uint32_t level_to_gray(uint32_t v) { return v ^ (v >> 1); }

// Amplitude normalization: E[|s|^2] = 1 for 2^b levels per axis.
double axis_scale(uint32_t levels) {
  // Levels at +-1, +-3, ... +-(levels-1): mean square per axis is
  // (levels^2 - 1) / 3; two axes double it.
  return 1.0 / std::sqrt(2.0 * (static_cast<double>(levels) * levels - 1) / 3.0);
}

}  // namespace

uint32_t qam_bits(Qam q) {
  switch (q) {
    case Qam::qpsk: return 2;
    case Qam::qam16: return 4;
    case Qam::qam64: return 6;
    case Qam::qam256: return 8;
  }
  PP_CHECK(false, "bad QAM order");
  return 0;
}

const std::vector<cd>& qam_table(Qam q) {
  static common::Once_tables<cd, 4> cache;
  const uint32_t bps = qam_bits(q);  // also rejects bad orders
  return cache.get(bps / 2 - 1, [q, bps] {
    const uint32_t half = bps / 2;
    const uint32_t levels = 1u << half;
    const double s = axis_scale(levels);
    std::vector<cd> t(static_cast<uint32_t>(q));
    for (uint32_t v = 0; v < t.size(); ++v) {
      const uint32_t gi = v >> half;
      const uint32_t gq = v & (levels - 1);
      const double vi = 2.0 * gray_to_level(gi) - (levels - 1);
      const double vq = 2.0 * gray_to_level(gq) - (levels - 1);
      t[v] = cd{vi * s, vq * s};
    }
    return t;
  });
}

std::vector<cd> qam_modulate(Qam q, const std::vector<uint8_t>& bits) {
  const uint32_t bps = qam_bits(q);
  PP_CHECK(bits.size() % bps == 0, "bit count not a multiple of bits/symbol");
  const auto& table = qam_table(q);

  std::vector<cd> out(bits.size() / bps);
  for (size_t i = 0; i < out.size(); ++i) {
    uint32_t v = 0;
    for (uint32_t b = 0; b < bps; ++b) v = (v << 1) | bits[i * bps + b];
    out[i] = table[v];
  }
  return out;
}

void qam_demodulate_range(Qam q, const std::vector<cd>& symbols, size_t i0,
                          size_t i1, std::vector<uint8_t>& bits) {
  const uint32_t bps = qam_bits(q);
  const uint32_t half = bps / 2;
  const uint32_t levels = 1u << half;
  const double s = axis_scale(levels);
  PP_CHECK(i0 <= i1 && i1 <= symbols.size() && bits.size() >= i1 * bps,
           "demod range outside the symbol or bit vector");

  for (size_t i = i0; i < i1; ++i) {
    auto slice = [&](double v) -> uint32_t {
      const double lvl = (v / s + (levels - 1)) / 2.0;
      const long r = std::lround(lvl);
      return static_cast<uint32_t>(std::min<long>(std::max<long>(r, 0), levels - 1));
    };
    const uint32_t gi = level_to_gray(slice(symbols[i].real()));
    const uint32_t gq = level_to_gray(slice(symbols[i].imag()));
    for (uint32_t b = 0; b < half; ++b) {
      bits[i * bps + b] = (gi >> (half - 1 - b)) & 1;
    }
    for (uint32_t b = 0; b < half; ++b) {
      bits[i * bps + half + b] = (gq >> (half - 1 - b)) & 1;
    }
  }
}

void qam_demodulate_into(Qam q, const std::vector<cd>& symbols,
                         std::vector<uint8_t>& bits) {
  bits.resize(symbols.size() * qam_bits(q));
  qam_demodulate_range(q, symbols, 0, symbols.size(), bits);
}

std::vector<uint8_t> qam_demodulate(Qam q, const std::vector<cd>& symbols) {
  std::vector<uint8_t> bits;
  qam_demodulate_into(q, symbols, bits);
  return bits;
}

std::vector<cd> qam_constellation(Qam q) { return qam_table(q); }

}  // namespace pp::phy
