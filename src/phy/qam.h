// Gray-coded square QAM modulation/demodulation (4/16/64/256-QAM),
// normalized to unit average symbol energy.
#ifndef PUSCHPOOL_PHY_QAM_H
#define PUSCHPOOL_PHY_QAM_H

#include <complex>
#include <cstdint>
#include <vector>

namespace pp::phy {

using cd = std::complex<double>;

enum class Qam : uint32_t { qpsk = 4, qam16 = 16, qam64 = 64, qam256 = 256 };

// Bits per symbol (log2 of the constellation order).
uint32_t qam_bits(Qam q);

// Map bits (MSB-first per symbol) to constellation points.
std::vector<cd> qam_modulate(Qam q, const std::vector<uint8_t>& bits);

// Hard-decision demodulation back to bits.
std::vector<uint8_t> qam_demodulate(Qam q, const std::vector<cd>& symbols);

// qam_demodulate() into a caller-owned vector, reusing its capacity
// (bits is sized to symbols.size() * bits-per-symbol and fully
// overwritten).  Bit-identical to the returning form.
void qam_demodulate_into(Qam q, const std::vector<cd>& symbols,
                         std::vector<uint8_t>& bits);

// Demodulate symbols [i0, i1) into bits [i0 * bps, i1 * bps) of a vector
// already sized to at least i1 * bps, leaving every other bit untouched:
// workers can demodulate disjoint ranges of one vector concurrently.  The
// loop qam_demodulate_into() runs over the whole range.
void qam_demodulate_range(Qam q, const std::vector<cd>& symbols, size_t i0,
                          size_t i1, std::vector<uint8_t>& bits);

// The constellation itself (for tests / EVM references).
std::vector<cd> qam_constellation(Qam q);

// Cached constellation table for order q, indexed by the bits-per-symbol
// bit pattern (MSB-first, I bits then Q bits) — entry v is exactly the point
// qam_modulate maps that pattern to.  Built on first use under
// std::call_once and immutable afterwards, so concurrent sweep workers can
// modulate without racing on initialization.
const std::vector<cd>& qam_table(Qam q);

}  // namespace pp::phy

#endif  // PUSCHPOOL_PHY_QAM_H
