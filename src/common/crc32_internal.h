#ifndef CIAO_COMMON_CRC32_INTERNAL_H_
#define CIAO_COMMON_CRC32_INTERNAL_H_

// The two CRC-32 kernels behind ciao::Crc32, exposed so the differential
// tests can run each one directly whatever the dispatcher would pick.
// Library code calls Crc32 (common/crc32.h) only.

#include <cstddef>
#include <cstdint>

namespace ciao::internal {

/// Slicing-by-8 CRC-32: portable, any length, any CPU. Same signature and
/// seed chaining as ciao::Crc32.
uint32_t Crc32Portable(const void* data, size_t len, uint32_t seed);

/// True when this CPU can run Crc32Folded (x86 with PCLMULQDQ and
/// SSE4.1). Detected once; CIAO_DISABLE_SIMD is not consulted here.
bool Crc32FoldSupported();

/// Carry-less-multiply CRC-32: folds the largest 16-byte multiple of an
/// input of at least 64 bytes with PCLMULQDQ and finishes the tail (and
/// any shorter input) with slicing-by-8. Bit-identical to Crc32Portable.
/// Requires Crc32FoldSupported().
uint32_t Crc32Folded(const void* data, size_t len, uint32_t seed);

}  // namespace ciao::internal

#endif  // CIAO_COMMON_CRC32_INTERNAL_H_
