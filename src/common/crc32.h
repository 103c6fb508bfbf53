#ifndef CIAO_COMMON_CRC32_H_
#define CIAO_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ciao {

/// CRC-32 (IEEE 802.3 polynomial, reflected, as zlib). Guards every
/// columnar row group, WAL frame, manifest and transport frame against
/// torn writes and bit rot; the reader verifies before decoding (tests
/// inject corruption to prove detection).
///
/// On x86 CPUs with PCLMULQDQ and SSE4.1 an input of 64 bytes or more is
/// folded 64 bytes per step with carry-less multiplies (~10x slicing-by-8)
/// and its sub-16-byte tail finished by slicing-by-8; shorter inputs,
/// other CPUs and `CIAO_DISABLE_SIMD=pclmul` use slicing-by-8 throughout.
/// Both kernels produce identical values, so the choice never shows in a
/// stored checksum.
///
/// The raw-pointer overload deliberately has NO default seed: with one,
/// `Crc32("literal", 0)` would silently bind the literal to `const void*`
/// with length 0 instead of converting to string_view.
uint32_t Crc32(const void* data, size_t len, uint32_t seed);

inline uint32_t Crc32(std::string_view s, uint32_t seed = 0) {
  return Crc32(s.data(), s.size(), seed);
}

}  // namespace ciao

#endif  // CIAO_COMMON_CRC32_H_
